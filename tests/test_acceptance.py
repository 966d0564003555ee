"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. The full-constellation fixtures (criteria 6-8) build a 1584-satellite,
600-slot dataset once per session; everything else runs on toys.
"""

import math
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from lislsim import metrics
from lislsim.config import default_config
from lislsim.constellation import ConstellationParams, GroundStation, ScenarioParams, generate_series
from lislsim.oracle import (
    brute_force_optimal,
    dp_optimal,
    random_delay_matrix,
    selection_cost,
)
from lislsim.routing import (
    Route,
    alpr,
    alpr_average_latency,
    dijkstra,
    ilpr,
    ilsr,
    isasr,
    run_algorithm,
)
from lislsim.topology import export_series, import_series
from lislsim.toyseries import dominance_toy_series

from conftest import head_series, one_slot, random_series, worked_example_series
from test_kernels import reference_route
from test_routing import exhaustive_best_path


import conftest


def _announce(line: str) -> None:
    conftest.CRITERION_LINES.append(line)
    print(line)  # visible immediately under pytest -s


@contextmanager
def criterion(num: int, summary: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        _announce(f"FAIL criterion {num}: {summary}")
        raise
    _announce(f"PASS criterion {num}: {summary} [{time.perf_counter() - start:.2f}s]")


# ---------------------------------------------------------------------------
# Full-constellation session fixture (criteria 6, 7, 8 and part of 4)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk():
    cfg = default_config()
    start = time.perf_counter()
    series = generate_series(cfg.constellation, list(cfg.ground_stations), cfg.scenario)
    ny = series.roster.station("new_york").id
    london = series.roster.station("london").id
    hanoi = series.roster.station("hanoi").id

    schedules: dict = {}
    for dst in (london, hanoi):
        schedules[(dst, "ilsr", None)] = ilsr(series, ny, dst)
        schedules[(dst, "ilpr", None)] = ilpr(series, ny, dst)
        schedules[(dst, "alpr", 1000.0)] = alpr(series, ny, dst, 1000.0)
        schedules[(dst, "isasr", 1000.0)] = isasr(series, ny, dst, 1000.0, 1000.0, 100.0)
    for eta_s in (10.0, 100.0):
        schedules[(london, "alpr", eta_s)] = alpr(series, ny, london, eta_s)
        schedules[(london, "isasr", eta_s)] = isasr(series, ny, london, eta_s, eta_s, 100.0)
    elapsed = time.perf_counter() - start
    return SimpleNamespace(
        series=series,
        ny=ny,
        london=london,
        hanoi=hanoi,
        schedules=schedules,
        build_seconds=elapsed,
    )


def _schedule(desk_ns, dst, name, eta_s):
    key = (dst, name, None if name in ("ilsr", "ilpr") else eta_s)
    return desk_ns.schedules[key]


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_worked_example_golden():
    with criterion(1, "lifetime-averaged latency table and selections"):
        series = worked_example_series()
        src, dst = 4, 5
        expected = {
            1.0: {1: 26.98, 2: 28.02, 3: 27.76, 4: 28.10},
            1000.0: {1: 193.48, 2: 118.84, 3: 170.47, 4: 152.98},
        }
        for eta_s, per_route in expected.items():
            for rid, want in per_route.items():
                avg = alpr_average_latency(Route((src, rid - 1, dst)), series, 1, eta_s)
                got = round(avg, 2)
                if rid == 4 and eta_s == 1000.0:
                    # the underlying value is exactly 152.975: accept both
                    # two-decimal renderings
                    assert abs(avg - 152.975) < 1e-9
                    assert got in (152.97, 152.98)
                else:
                    assert got == pytest.approx(want, abs=0.01), (eta_s, rid)
        assert alpr(series, src, dst, 1.0).routes[0].nodes == (src, 0, dst)
        assert alpr(series, src, dst, 1000.0).routes[0].nodes == (src, 1, dst)


def test_criterion_2_delay_matrix_golden(eq4):
    with criterion(2, "exact optimizer on the 3x4 example matrix"):
        d, s = eq4
        assert dp_optimal(d, 0.0)[1] == 102.0
        assert dp_optimal(d, 1.0)[1] == 103.0
        assert dp_optimal(d, 1000.0)[1] == 103.0
        for eta_s in (1.0, 10.0, 1000.0):
            assert selection_cost(s, d, eta_s) - selection_cost(s, d, 0.0) == 2.0 * eta_s
        assert (selection_cost(s, d, 1.0) - selection_cost(s, d, 0.0)) * 100.0 / 4 == 50.0


def test_criterion_3_dp_equals_brute_force():
    with criterion(3, "1000 random instances, exact dp == brute force"):
        start = time.perf_counter()
        rng = np.random.default_rng(20260810)
        for _ in range(1000):
            d = random_delay_matrix(
                rng, max_routes=4, max_slots=6,
                delay_low_ms=20.0, delay_high_ms=40.0, inf_fraction=0.2,
            )
            for eta_s in (0.0, 1.0, 10.0, 100.0, 1000.0):
                _, dp_cost = dp_optimal(d, eta_s)
                _, bf_cost = brute_force_optimal(d, eta_s)
                assert dp_cost == bf_cost
        assert time.perf_counter() - start < 10.0


def test_criterion_4_mean_identity_everywhere(desk):
    with criterion(4, "mean-latency identity below 1e-9 on every run"):
        cases = []
        for series in (worked_example_series(), dominance_toy_series()):
            src = series.roster.ground_stations[0].id
            dst = series.roster.ground_stations[1].id
            for name in ("ilsr", "ilpr", "alpr", "isasr"):
                for eta_s in (1.0, 10.0, 100.0, 1000.0):
                    schedule = run_algorithm(name, series, src, dst, eta_s)
                    cases.append((schedule, series, eta_s))
        rng = np.random.default_rng(99)
        for _ in range(3):
            series = random_series(rng)
            for name in ("ilsr", "ilpr", "alpr", "isasr"):
                cases.append((run_algorithm(name, series, 0, 7, 77.0), series, 77.0))
        for (dst, name, eta_key), schedule in desk.schedules.items():
            eta_s = eta_key if eta_key is not None else 1000.0
            cases.append((schedule, desk.series, eta_s))
        for schedule, series, eta_s in cases:
            report = metrics.evaluate(schedule, series, eta_s)
            assert report.identity_residual() < 1e-9


def test_criterion_5_isasr_reduction_on_toy_constellation():
    with criterion(5, "isasr(gamma=0, thrsh=inf) identical to ilsr on 50 sats"):
        start = time.perf_counter()
        shell = ConstellationParams(
            num_planes=5, sats_per_plane=10, inclination_deg=53.0, altitude_km=550.0
        )
        stations = [
            GroundStation(id=50, name="a", latitude_deg=30.0, longitude_deg=0.0),
            GroundStation(id=51, name="b", latitude_deg=-20.0, longitude_deg=60.0),
        ]
        scenario = ScenarioParams(
            lisl_range_km=5500.0, gs_range_km=3000.0, node_delay_ms=1.0,
            slot_duration_s=10.0, num_slots=60,
        )
        series = generate_series(shell, stations, scenario)
        a = isasr(series, 50, 51, 1000.0, 0.0, math.inf)
        b = ilsr(series, 50, 51)
        for ra, rb in zip(a.routes, b.routes):
            if ra is None or rb is None:
                assert ra is None and rb is None
            else:
                assert ra.edges == rb.edges
        assert time.perf_counter() - start < 5.0


def test_criterion_6_penalty_blind_algorithms(desk):
    with criterion(6, "ilsr/ilpr rows bit-identical across setup delays"):
        for name in ("ilsr", "ilpr"):
            schedule = _schedule(desk, desk.london, name, None)
            reports = [
                metrics.evaluate(schedule, desk.series, eta_s)
                for eta_s in (1.0, 10.0, 100.0, 1000.0)
            ]
            lams = {r.route_change_rate_pct for r in reports}
            delays = {r.mean_eta_delay_ms for r in reports}
            assert len(lams) == 1 and len(delays) == 1


def test_ilsr_routes_match_full_settle_oracle(desk):
    """Every ILSR slot route equals the walk over scipy's full-graph distances."""
    stations = {gs.id for gs in desk.series.roster.ground_stations}
    for dst in (desk.london, desk.hanoi):
        schedule = _schedule(desk, dst, "ilsr", None)
        foreign = np.array(sorted(stations - {desk.ny, dst}))
        for snap, route in zip(desk.series.snapshots, schedule.routes):
            costs = snap.delay_ms.copy()
            costs[np.isin(snap.u, foreign) | np.isin(snap.v, foreign)] = np.inf
            indptr, nbr, arc_eid = snap.csr()
            want, _ = reference_route(indptr, nbr, costs[arc_eid], desk.ny, dst)
            assert (list(route.nodes) if route else []) == want, (dst, snap.slot)


def test_stock_density_series_round_trips(desk, tmp_path):
    """20 stock slots (~370k edge records) survive export/import unchanged."""
    head = head_series(desk.series, 20)
    export_series(head, tmp_path / "a.series")
    again = import_series(tmp_path / "a.series")
    assert again == head
    export_series(again, tmp_path / "b.series")
    assert (tmp_path / "b.series").read_bytes() == (tmp_path / "a.series").read_bytes()


def test_criterion_7_full_constellation_ordering(desk):
    with criterion(7, "1584-satellite run: latency floor, ordering, pairs"):
        assert desk.build_seconds < 600.0
        series = desk.series
        assert series.roster.num_satellites == 1584
        assert series.num_slots == 600
        # (a) the fastest observed slot is still above the 26 ms floor
        ilsr_report = metrics.evaluate(
            _schedule(desk, desk.london, "ilsr", None), series, 1000.0
        )
        assert np.nanmin(ilsr_report.latency_ms) > 26.0
        # (b) mean total latency ordering at eta_s = 1000
        means = {}
        lams = {}
        for name in ("ilsr", "ilpr", "alpr", "isasr"):
            report = metrics.evaluate(
                _schedule(desk, desk.london, name, 1000.0), series, 1000.0
            )
            means[name] = report.mean_eta_le_ms
            lams[name] = report.route_change_rate_pct
        assert means["isasr"] <= means["alpr"] <= means["ilpr"] <= means["ilsr"]
        # (c) persistence never raises the change rate
        assert lams["ilpr"] <= lams["ilsr"]
        # (d) the longer pair costs more for every algorithm
        for name in ("ilsr", "ilpr", "alpr", "isasr"):
            far = metrics.evaluate(
                _schedule(desk, desk.hanoi, name, 1000.0), series, 1000.0
            )
            assert far.mean_eta_le_ms > means[name]


def _modal_separation(latency: np.ndarray, eta_s: float, bin_width: float) -> float:
    values = latency[~np.isnan(latency)]
    split = float(np.min(values)) + eta_s / 2.0
    low, high = values[values < split], values[values >= split]
    assert low.size and high.size, "histogram is not bimodal"

    def mode(vals):
        idx = np.floor(vals / bin_width).astype(np.int64)
        uniq, counts = np.unique(idx, return_counts=True)
        return (uniq[np.argmax(counts)] + 0.5) * bin_width

    return mode(high) - mode(low)


def test_criterion_8_bimodality_and_outage(desk):
    with criterion(8, "bimodal latency split by ~eta_s; outage equals change rate"):
        series = desk.series
        n = series.num_slots
        for name in ("ilsr", "ilpr", "alpr", "isasr"):
            report = metrics.evaluate(
                _schedule(desk, desk.london, name, 1000.0), series, 1000.0,
            )
            sep = _modal_separation(report.latency_ms, 1000.0, bin_width=0.25)
            assert 995.0 <= sep <= 1005.0, (name, sep)
        # outage == change rate when the QoS bound separates the two lobes;
        # thresholds pair with the setup delay (30/35/40 for 10/100/1000 ms)
        paired = {10.0: 30.0, 100.0: 35.0, 1000.0: 40.0}
        for eta_s, qos in paired.items():
            for name in ("ilsr", "ilpr", "alpr", "isasr"):
                report = metrics.evaluate(
                    _schedule(desk, desk.london, name, eta_s), series, eta_s,
                    qos_ms=(qos, 40.0),
                )
                lam = report.route_change_rate_pct / 100.0
                assert abs(report.outage[0][1] - lam) <= 1.0 / n, (name, eta_s)
                if eta_s >= 100.0:
                    # 40 ms also sits between the lobes at these setup delays
                    assert abs(report.outage[1][1] - lam) <= 1.0 / n, (name, eta_s)


def test_criterion_9_jitter_monotone_in_penalty():
    with criterion(9, "jitter nondecreasing in eta_s for fixed schedules"):
        for series in (dominance_toy_series(), worked_example_series()):
            src = series.roster.ground_stations[0].id
            dst = series.roster.ground_stations[1].id
            for name in ("ilsr", "ilpr", "alpr", "isasr"):
                for sched_eta in (1.0, 1000.0):
                    schedule = run_algorithm(name, series, src, dst, sched_eta)
                    jitters = [
                        metrics.evaluate(schedule, series, eta_s).average_jitter_ms
                        for eta_s in (1.0, 10.0, 100.0, 1000.0)
                    ]
                    assert all(a <= b + 1e-12 for a, b in zip(jitters, jitters[1:]))


def test_criterion_10_dijkstra_exhaustive_oracle():
    with criterion(10, "500 random graphs: shortest-path cost matches enumeration"):
        start = time.perf_counter()
        rng = np.random.default_rng(424242)
        reachable = 0
        for _ in range(500):
            n = int(rng.integers(2, 11))
            edges = {}
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.random() < 0.45:
                        edges[(a, b)] = 0.25 + float(rng.integers(0, 256)) / 64.0
            if not edges:
                continue
            snap = one_slot(edges, num_nodes=n)
            got = dijkstra(snap, 0, n - 1)
            expected = exhaustive_best_path(edges, 0, n - 1)
            if expected is None:
                assert got is None
            else:
                reachable += 1
                assert snap.route_delay(got) == expected[0]
                assert got.nodes == expected[1]
        assert reachable > 250
        assert time.perf_counter() - start < 5.0
