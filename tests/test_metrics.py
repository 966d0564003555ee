"""Metric evaluators: totals, rates, latency series, outage, jitter."""

import math

import numpy as np
import pytest

from lislsim.constellation import GroundStation
from lislsim.metrics import (
    MAX_HISTOGRAM_BINS,
    average_jitter,
    evaluate,
    histogram,
    outage_probability,
    slot_order_sum,
)
from lislsim.routing import Route, RoutingSchedule, run_algorithm

from brute_force import row_cost
from conftest import random_series
from toyseries import dominance_toy_series, series_from_edges


def selection_schedule(rows, d) -> RoutingSchedule:
    """Each slot's route row as a schedule on a series whose route delays are ``d``.

    With k routes, route r runs from station k via satellite r to station
    k + 1, each of its two edges holding half the route's delay, so its
    ``route_delay`` gives back ``d[r, i]`` exactly (halving is exact in binary).
    """
    k, n = d.shape
    per_slot = []
    for i in range(n):
        live = [r for r in range(k) if np.isfinite(d[r, i])]
        per_slot.append({(r, g): d[r, i] / 2.0 for r in live for g in (k, k + 1)})
    stations = tuple(GroundStation(k + j, name, 0.0, 0.0) for j, name in enumerate("ab"))
    series = series_from_edges(per_slot, num_satellites=k, ground_stations=stations)
    routes = [Route((k, int(r), k + 1)) for r in rows]
    return RoutingSchedule("x", k, k + 1, routes, series)


class TestSlotOrderSum:
    def test_adds_python_floats_in_slot_order(self):
        # np.sum (pairwise) and Python 3.12's compensated sum() both give 1.0
        assert slot_order_sum([0.1] * 10) == 0.9999999999999999
        # evaluate and the tests' row_cost share it: equal totals on delays
        # that are not binary fractions, where the order of addition shows
        d = np.array([[0.1] * 10, [0.7, 0.2, 0.3, 0.7, 1.1, 0.1, 0.3, 0.6, 0.9, 0.1]])
        rows = np.zeros(10, dtype=np.int64)
        rows[[2, 3, 7]] = 1
        report = evaluate(selection_schedule(rows, d), 10.0)
        assert report.eta_delay_ms == row_cost(rows, d, 0.0) == 2.3000000000000003
        assert report.eta_le_ms == row_cost(rows, d, 10.0)


class TestSelectionMatrixMetrics:
    """``evaluate`` on route rows over a delay matrix, through ``selection_schedule``."""

    def test_eta_delay_of_golden_selection(self, eq4):
        d, rows = eq4
        assert evaluate(selection_schedule(rows, d), 1.0).eta_delay_ms == 104.0

    def test_eta_delay_single_slot(self):
        d = np.array([[7.0], [9.0]])
        assert evaluate(selection_schedule([1], d), 1000.0).eta_le_ms == 9.0

    @pytest.mark.parametrize("eta_s", [1.0, 10.0, 1000.0])
    def test_eta_penalty_two_switches(self, eq4, eta_s):
        d, rows = eq4
        assert evaluate(selection_schedule(rows, d), eta_s).eta_penalty_ms == 2 * eta_s

    def test_eta_penalty_constant_route(self):
        schedule = selection_schedule([0, 0, 0, 0], np.ones((1, 4)))
        assert evaluate(schedule, 1000.0).eta_penalty_ms == 0.0

    def test_eta_penalty_maximum(self):
        schedule = selection_schedule([0, 1, 0, 1], np.ones((2, 4)))
        assert evaluate(schedule, 10.0).eta_penalty_ms == 30.0

    def test_route_change_rate_golden(self, eq4):
        d, rows = eq4
        assert evaluate(selection_schedule(rows, d), 1.0).route_change_rate_pct == 50.0

    def test_route_change_rate_extremes(self):
        quiet = selection_schedule([0, 0, 0, 0], np.ones((1, 4)))
        assert evaluate(quiet, 1.0).route_change_rate_pct == 0.0
        busy = selection_schedule([0, 1, 0, 1], np.ones((2, 4)))
        assert evaluate(busy, 1.0).route_change_rate_pct == 100.0 * 3 / 4

    def test_latency_series_decomposition(self, eq4):
        d, rows = eq4
        report = evaluate(selection_schedule(rows, d), 10.0)
        assert report.latency_ms.tolist() == [26.0, 27.0, 35.0, 36.0]
        assert math.fsum(report.latency_ms) == 124.0
        assert report.eta_le_ms == row_cost(rows, d, 10.0) == 124.0


class TestLatencySeries:
    def test_switch_charged_to_later_slot(self):
        routes = [Route((0, 1, 2))] * 2 + [Route((0, 3, 2))] * 2
        series = series_from_edges(
            [{(0, 1): 13.0, (1, 2): 13.0, (0, 3): 13.0, (2, 3): 13.0}] * 4,
            num_satellites=4,
        )
        schedule = RoutingSchedule("x", 0, 2, routes, series)
        lat = evaluate(schedule, 1000.0).latency_ms
        assert lat.tolist() == [26.0, 26.0, 1026.0, 26.0]

    def test_no_switch_means_delay_only(self):
        series = series_from_edges([{(0, 1): 3.0, (1, 2): 4.0}] * 3, num_satellites=3)
        schedule = RoutingSchedule("x", 0, 2, [Route((0, 1, 2))] * 3, series)
        assert evaluate(schedule, 500.0).latency_ms.tolist() == [7.0] * 3

    def test_gap_marked_nan_and_excluded(self):
        routes = [Route((0, 1)), None, Route((0, 1))]
        series = series_from_edges([{(0, 1): 2.0}] * 3, num_satellites=2)
        schedule = RoutingSchedule("x", 0, 1, routes, series)
        report = evaluate(schedule, 100.0)
        lat = report.latency_ms
        assert lat[0] == 2.0 and np.isnan(lat[1]) and lat[2] == 2.0
        # boundaries next to the gap never count as switches
        assert report.switch_count == 0
        assert report.eta_delay_ms == 4.0
        assert report.coverage == 2
        assert report.identity_residual() < 1e-12


@pytest.mark.parametrize("metric,latency,message", [
    (lambda x: outage_probability(x, 40.0), [np.nan, np.nan], "latency series has no reachable slots"),
    (lambda x: histogram(x, 1.0), [np.nan], "latency series has no reachable slots"),
    (average_jitter, [26.0], "jitter needs at least two slots"),
    (average_jitter, [26.0, np.nan, 27.0], "no consecutive pair of reachable slots"),
], ids=["outage-unreachable", "histogram-unreachable", "jitter-one-slot", "jitter-no-pair"])
def test_metric_without_data_raises(metric, latency, message):
    with pytest.raises(ValueError, match=message):
        metric(np.array(latency))


class TestOutage:
    def test_direct_count(self):
        assert outage_probability(np.array([26.0, 1026.0, 27.0]), 40.0) == pytest.approx(1 / 3)

    def test_all_below_threshold(self):
        assert outage_probability(np.array([26.0, 27.0]), 40.0) == 0.0

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            outage_probability(np.array([1.0]), 0.0)


class TestJitter:
    def test_direct_arithmetic(self):
        assert average_jitter(np.array([26.0, 27.0, 25.0])) == 1.5

    def test_constant_series(self):
        assert average_jitter(np.full(10, 3.25)) == 0.0

    def test_single_spike_in_flat_series(self):
        lat = np.full(600, 26.0)
        lat[300] += 1000.0
        assert average_jitter(lat) == pytest.approx(2000.0 / 599.0)
        assert average_jitter(lat) == pytest.approx(3.339, abs=5e-4)

    def test_nondecreasing_in_penalty_for_fixed_schedule(self):
        # schedules held fixed; only the evaluation penalty varies
        rng = np.random.default_rng(3)
        series = random_series(rng, num_nodes=7, num_slots=12)
        for name in ("ilsr", "ilpr", "alpr", "isasr"):
            schedule = run_algorithm(name, series, 0, 6, 50.0)
            jitters = [
                evaluate(schedule, eta_s).average_jitter_ms
                for eta_s in (1.0, 10.0, 100.0, 1000.0)
            ]
            assert all(a <= b + 1e-12 for a, b in zip(jitters, jitters[1:]))


class TestHistogram:
    def test_single_value(self):
        edges, counts = histogram(np.full(17, 26.1), 0.25)
        assert counts.sum() == 17
        assert counts.max() == 17

    def test_edge_value_assigned_to_lower_inclusive_bin(self):
        edges, counts = histogram(np.array([1.0, 1.0 - 1e-12]), 0.25)
        # 1.0 sits exactly on a bin edge: it belongs to [1.0, 1.25)
        assert edges[0] == pytest.approx(0.75)
        assert counts.tolist() == [1, 1]

    def test_two_lobe_series_separated_by_penalty(self):
        rng = np.random.default_rng(4)
        base = 26.0 + rng.integers(0, 8, 600) / 4.0
        lat = base.copy()
        switch_slots = rng.choice(600, 40, replace=False)
        lat[switch_slots] += 1000.0
        edges, counts = histogram(lat, 0.25)
        populated = edges[counts > 0]
        gap = populated[1:] - populated[:-1]
        assert gap.max() == pytest.approx(1000.0, abs=2.5)

    def test_counts_sum_to_valid_slots(self):
        lat = np.array([1.0, np.nan, 2.0, np.nan, 3.0])
        _, counts = histogram(lat, 0.5)
        assert counts.sum() == 3

    @pytest.mark.parametrize("width", [0.0, -0.25, np.nan, np.inf])
    def test_bin_width_must_be_finite_and_positive(self, width):
        with pytest.raises(ValueError, match="finite and positive"):
            histogram(np.array([1.0, 2.0]), width)

    def test_bin_count_capped(self):
        edges, counts = histogram(np.array([0.0, MAX_HISTOGRAM_BINS - 0.5]), 1.0)
        assert edges.size == MAX_HISTOGRAM_BINS and counts.sum() == 2
        with pytest.raises(ValueError, match="more than 1000000 bins"):
            histogram(np.array([0.0, float(MAX_HISTOGRAM_BINS)]), 1.0)
        # one populated bin, but its index 2.7e19 is no exact integer
        with pytest.raises(ValueError, match="beyond 2"):
            histogram(np.array([27.0, 27.0]), 1e-18)


class TestIdentity:
    @pytest.mark.parametrize("name", ["ilsr", "ilpr", "alpr", "isasr"])
    @pytest.mark.parametrize("eta_s", [1.0, 10.0, 100.0, 1000.0])
    def test_mean_identity_all_algorithms(self, name, eta_s):
        series = dominance_toy_series()
        schedule = run_algorithm(name, series, 6, 7, eta_s)
        report = evaluate(schedule, eta_s)
        assert report.identity_residual() < 1e-9

    def test_mean_identity_random_series(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            series = random_series(rng)
            for name in ("ilsr", "ilpr", "alpr", "isasr"):
                schedule = run_algorithm(name, series, 0, 7, 123.0)
                report = evaluate(schedule, 123.0)
                assert report.identity_residual() < 1e-9

    def test_decomposition_exact_on_exact_data(self):
        series = dominance_toy_series()
        for eta_s in (1.0, 64.0, 1024.0):
            for name in ("ilsr", "ilpr", "alpr", "isasr"):
                schedule = run_algorithm(name, series, 6, 7, eta_s)
                report = evaluate(schedule, eta_s)
                lat = report.latency_ms
                assert math.fsum(lat[~np.isnan(lat)]) == report.eta_le_ms


class TestPenaltyBlindness:
    @pytest.mark.parametrize("name", ["ilsr", "ilpr"])
    def test_lambda_and_delay_invariant_under_penalty(self, name):
        series = dominance_toy_series()
        schedule = run_algorithm(name, series, 6, 7, 1.0)
        reports = [evaluate(schedule, e) for e in (1.0, 10.0, 100.0, 1000.0)]
        assert len({r.route_change_rate_pct for r in reports}) == 1
        assert len({r.mean_eta_delay_ms for r in reports}) == 1


class TestReport:
    def test_text_and_tables(self):
        series = dominance_toy_series()
        schedule = run_algorithm("ilsr", series, 6, 7, 10.0)
        report = evaluate(schedule, 10.0, qos_ms=(40.0,), runtime_s=0.5)
        text = report.to_text()
        assert "eta_delay" in text and "route_change_rate" in text
        assert "outage@40.000000000ms" in text
        assert report.latency_table().startswith("slot\t")
        assert report.histogram_table(0.25).startswith("bin_left_ms\t")

    def test_metric_ranges(self):
        rng = np.random.default_rng(14)
        series = random_series(rng)
        for name in ("ilsr", "ilpr", "alpr", "isasr"):
            schedule = run_algorithm(name, series, 0, 7, 10.0)
            report = evaluate(schedule, 10.0, qos_ms=(5.0, 50.0))
            n = report.num_slots
            assert 0.0 <= report.route_change_rate_pct <= 100.0 * (n - 1) / n
            assert all(0.0 <= p <= 1.0 for _, p in report.outage)
            assert report.average_jitter_ms >= 0.0
            assert report.eta_le_ms == report.eta_delay_ms + report.eta_penalty_ms
