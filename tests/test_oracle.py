"""Exact optimizer, its brute-force cross-check, and route enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lislsim.constellation import GroundStation
from lislsim.oracle import InfeasibleSlotError, dp_optimal, optimum_schedule, route_delay_matrix
from lislsim.metrics import evaluate
from lislsim.routing import ALGORITHMS, Route, run_algorithm

from brute_force import (
    OracleSizeError, brute_force_optimal, enumerate_routes, exact_optimum, random_delay_matrix,
    row_cost,
)
from conftest import EQ4_DELAYS
from toyseries import dominance_toy_series, series_from_edges


def reference_optimum(d: np.ndarray, eta_s: float) -> float:
    """Third, in-test oracle: direct scan over all feasible assignments."""
    k, n = d.shape
    per_slot = [np.nonzero(np.isfinite(d[:, i]))[0] for i in range(n)]
    best = np.inf
    for rows in itertools.product(*per_slot):
        cost = sum(d[r, i] for i, r in enumerate(rows))
        cost += eta_s * sum(1 for a, b in zip(rows, rows[1:]) if a != b)
        best = min(best, cost)
    return best


class TestGoldenInstance:
    @pytest.mark.parametrize("eta_s,expected", [(0.0, 102.0), (1.0, 103.0), (1000.0, 103.0)])
    def test_known_costs(self, eta_s, expected):
        assert reference_optimum(EQ4_DELAYS, eta_s) == expected
        assert row_cost(dp_optimal(EQ4_DELAYS, eta_s), EQ4_DELAYS, eta_s) == expected
        assert row_cost(brute_force_optimal(EQ4_DELAYS, eta_s), EQ4_DELAYS, eta_s) == expected

    def test_high_penalty_stays_on_one_route(self):
        assert dp_optimal(EQ4_DELAYS, 1000.0).tolist() == [1, 1, 1, 1]

    def test_zero_penalty_takes_per_slot_minima(self):
        rows = dp_optimal(EQ4_DELAYS, 0.0)
        assert rows.tolist() == [0, 1, 1, 1]
        assert row_cost(rows, EQ4_DELAYS, 0.0) == 102.0


@pytest.mark.parametrize("d,eta_s,message", [
    ([1.0, 2.0], 1.0, "delay matrix must be a non-empty 2-D array"),
    (np.empty((0, 3)), 1.0, "delay matrix must be a non-empty 2-D array"),
    ([[1.0, np.nan]], 1.0, r"delays must be non-negative or \+inf"),
    ([[1.0, -1.0]], 1.0, r"delays must be non-negative or \+inf"),
    ([[1.0, 2.0]], -1.0, "setup penalty cannot be negative"),
], ids=["1-d", "empty", "nan-delay", "negative-delay", "negative-eta-s"])
def test_dp_refuses_bad_input(d, eta_s, message):
    with pytest.raises(ValueError, match=message):
        dp_optimal(np.array(d), eta_s)


class TestDpProperties:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            d = random_delay_matrix(rng)
            for eta_s in (0.0, 1.0, 10.0, 100.0, 1000.0):
                a = row_cost(dp_optimal(d, eta_s), d, eta_s)
                b = row_cost(brute_force_optimal(d, eta_s), d, eta_s)
                assert a == b

    def test_cost_nondecreasing_in_penalty(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            d = random_delay_matrix(rng)
            costs = [row_cost(dp_optimal(d, e), d, e) for e in (0.0, 1.0, 10.0, 100.0, 1000.0)]
            assert all(a <= b for a, b in zip(costs, costs[1:]))

    def test_cost_equals_metric_evaluators_on_returned_selection(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            d = random_delay_matrix(rng)
            rows = dp_optimal(d, 10.0)
            assert rows.dtype == np.int64 and rows.shape == (d.shape[1],)
            assert np.isfinite(d[rows, np.arange(rows.size)]).all()
            delay = sum(d[r, i] for i, r in enumerate(rows))
            penalty = 10.0 * np.count_nonzero(np.diff(rows))
            assert row_cost(rows, d, 10.0) == delay + penalty

    def test_single_route_cost_is_row_sum(self):
        d = np.array([[5.0, 6.0, 7.0]])
        for eta_s in (0.0, 1000.0):
            rows = dp_optimal(d, eta_s)
            assert row_cost(rows, d, eta_s) == 18.0
            assert rows.tolist() == [0, 0, 0]

    def test_single_slot_takes_argmin_without_penalty(self):
        d = np.array([[9.0], [4.0], [6.0]])
        for solver in (dp_optimal, brute_force_optimal):
            rows = solver(d, 1000.0)
            assert row_cost(rows, d, 1000.0) == 4.0
            assert rows.tolist() == [1]

    def test_forced_assignment_returned(self):
        d = np.array([[1.0, np.inf], [np.inf, 2.0]])
        rows = brute_force_optimal(d, 7.0)
        assert rows.tolist() == [0, 1]
        assert row_cost(rows, d, 7.0) == 10.0

    def test_infeasible_column_reported_with_slot(self):
        d = np.array([[1.0, np.inf], [2.0, np.inf]])
        with pytest.raises(InfeasibleSlotError, match="slot 2"):
            dp_optimal(d, 1.0)

    def test_brute_force_size_cap(self):
        d = np.full((10, 9), 1.0)
        with pytest.raises(OracleSizeError):
            brute_force_optimal(d, 1.0, cap=10_000)

    def test_ties_prefer_staying(self):
        # switching to the other route at slot 2 is cost-neutral; stay wins
        d = np.array([[5.0, 5.0], [6.0, 4.0]])
        rows = dp_optimal(d, 1.0)
        assert row_cost(rows, d, 1.0) == 10.0
        assert rows.tolist() == [0, 0]


class TestSelectionHelpers:
    def test_switch_indicator(self, eq4):
        # eq4 keeps its route across boundary 1 and switches at 2 and 3
        d, rows = eq4
        switches = [
            row_cost(rows[:k], d[:, :k], 1.0) - row_cost(rows[:k], d[:, :k], 0.0)
            for k in range(1, 5)
        ]
        assert switches == [0.0, 0.0, 1.0, 2.0]


@st.composite
def toy_pair_series(draw):
    """(series, src, dst): 2-5 satellites and the two stations over 1-6 slots,
    each satellite-satellite and satellite-station edge present or not per
    slot, with delays on a quarter-ms lattice; some slots are unreachable."""
    sats = draw(st.integers(2, 5))
    pairs = [(a, b) for a in range(sats) for b in range(a + 1, sats + 2)]
    delays = st.one_of(st.none(), st.integers(1, 16).map(lambda k: k / 4))
    per_slot = [
        {pair: delay for pair, delay in zip(pairs, slot) if delay is not None}
        for slot in draw(st.lists(st.lists(delays, min_size=len(pairs), max_size=len(pairs)),
                                  min_size=1, max_size=6))
    ]
    stations = (GroundStation(sats, "src", 0.0, 0.0), GroundStation(sats + 1, "dst", 0.0, 10.0))
    return series_from_edges(per_slot, num_satellites=sats, ground_stations=stations), sats, sats + 1


class TestExactOptimum:
    @given(toy_pair_series(), st.sampled_from([0.25, 3.0, 100.0]))
    @settings(max_examples=80, deadline=None)
    def test_brackets_dp_and_the_cells(self, case, eta_s):
        """Per stretch the segment recurrence over every route equals the DP
        over every enumerated route; it is never above the optimum over the
        cells' own routes (what ``gap.tsv`` reports), nor above any cell."""
        series, src, dst = case
        try:
            _, d = enumerate_routes(series, src, dst, hop_limit=series.roster.num_nodes - 1)
        except ValueError:  # no route in any slot
            assume(False)
        stretches = exact_optimum(series, src, dst, eta_s)
        for first, last, cost in stretches:
            part = d[:, first - 1:last]
            assert np.isfinite(part).any(axis=0).all()
            assert abs(row_cost(dp_optimal(part, eta_s), part, eta_s) - cost) <= 1e-9 * part.shape[1]
        exact_mean = sum(cost for *_, cost in stretches) / series.num_slots
        schedules = [run_algorithm(name, series, src, dst, eta_s) for name in ALGORITHMS]
        routes = list(dict.fromkeys(r for schedule in schedules for r in schedule.route_table))
        optimum = optimum_schedule(series, src, dst, routes, route_delay_matrix(series, routes),
                                   eta_s)
        for schedule in (optimum, *schedules):
            assert exact_mean <= evaluate(schedule, eta_s).mean_eta_le_ms + 1e-9, schedule.algorithm


class TestEnumeration:
    def test_square_graph_two_routes(self):
        series = series_from_edges(
            [{(0, 1): 5.0, (1, 3): 5.0, (0, 2): 4.0, (2, 3): 4.0}], num_satellites=4
        )
        routes, d = enumerate_routes(series, 0, 3, hop_limit=2)
        assert [r.nodes for r in routes] == [(0, 1, 3), (0, 2, 3)]
        np.testing.assert_array_equal(d, [[10.0], [8.0]])

    def test_expired_route_marked_infinite(self):
        per_slot = [{(0, 1): 2.0, (1, 2): 2.0}] * 3 + [{(0, 1): 2.0}]
        series = series_from_edges(per_slot, num_satellites=3)
        routes, d = enumerate_routes(series, 0, 2, hop_limit=3)
        assert [r.nodes for r in routes] == [(0, 1, 2)]
        np.testing.assert_array_equal(d, [[4.0, 4.0, 4.0, np.inf]])

    def test_no_routes_is_an_error(self):
        series = series_from_edges([{(0, 1): 2.0, (1, 2): 2.0}], num_satellites=3)
        with pytest.raises(ValueError, match="no routes"):
            enumerate_routes(series, 0, 2, hop_limit=1)

    def test_route_cap(self):
        series = dominance_toy_series()
        with pytest.raises(OracleSizeError):
            enumerate_routes(series, 6, 7, hop_limit=5, max_routes=2)

    def test_hop_limit_respected(self):
        series = dominance_toy_series()
        routes, _ = enumerate_routes(series, 6, 7, hop_limit=3)
        assert all(r.hops <= 3 for r in routes)


class TestDominance:
    def test_heuristics_never_beat_the_optimum(self):
        series = dominance_toy_series()
        _, d = enumerate_routes(series, 6, 7, hop_limit=4)
        for eta_s in (1.0, 10.0, 100.0):
            optimal = row_cost(dp_optimal(d, eta_s), d, eta_s)
            for name in ("ilsr", "ilpr", "alpr", "isasr"):
                schedule = run_algorithm(name, series, 6, 7, eta_s, cost_thrsh_ms=np.inf)
                assert evaluate(schedule, eta_s).eta_le_ms >= optimal



@st.composite
def routes_on_series(draw):
    """(series, routes): up to 12 simple routes of 1 to 20 hops over up to 24
    satellites, and 1 to 4 slots, each holding every route edge with
    probability 0.85 plus some other edges, at delays with full mantissas."""
    n = draw(st.integers(3, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    routes = []
    for _ in range(draw(st.integers(0, 12))):
        nodes = rng.permutation(n)[:int(rng.integers(2, min(n, 21) + 1))].tolist()
        routes.append(Route(tuple(nodes)))
    pairs = {(min(a, b), max(a, b)) for r in routes for a, b in zip(r.nodes, r.nodes[1:])}
    pairs |= {tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(n)}
    per_slot = [
        {pair: float(rng.uniform(0.5, 50.0)) for pair in sorted(pairs) if rng.random() < 0.85}
        for _ in range(draw(st.integers(1, 4)))
    ]
    return series_from_edges(per_slot, num_satellites=n), routes


class TestRouteDelayMatrix:
    @settings(max_examples=150, deadline=None)
    @given(routes_on_series())
    def test_entries_are_the_route_delays(self, case):
        """Each entry is bit-equal to ``Snapshot.route_delay``, and +inf where
        the route is broken (one of its edges is absent from the slot)."""
        series, routes = case
        d = route_delay_matrix(series, routes)
        assert d.shape == (len(routes), series.num_slots) and d.dtype == np.float64
        for i, snap in enumerate(series.snapshots):
            for r, route in enumerate(routes):
                want = snap.route_delay(route)
                assert d[r, i] == (np.inf if want is None else want), (r, i)

    def test_long_routes_sum_as_one_route(self):
        """Routes of 8 and more hops, where ``np.sum`` sums pairwise, bit-equal
        to their ``route_delay`` beside shorter routes of the slot."""
        n = 40
        rng = np.random.default_rng(3)
        delays = {(a, a + 1): float(d) for a, d in enumerate(rng.uniform(0.1, 1e3, n - 1) / 3.0)}
        series = series_from_edges([delays], num_satellites=n)
        routes = [Route(tuple(range(start, start + hops + 1)))
                  for hops in (1, 7, 8, 9, 17, 39) for start in range(n - hops)]
        d = route_delay_matrix(series, routes)
        want = [series.snapshot(1).route_delay(route) for route in routes]
        assert d[:, 0].tolist() == want
        assert {route.hops for route in routes} >= {8, 9, 17, 39}
