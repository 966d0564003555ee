"""Metric evaluators: totals, rates, latency series, outage, jitter."""

import math

import numpy as np
import pytest

from lislsim import metrics
from lislsim.metrics import (
    average_jitter,
    eta_delay,
    eta_le,
    eta_penalty,
    evaluate,
    histogram,
    instantaneous_latency_series,
    outage_probability,
    route_change_rate,
)
from lislsim.routing import Route, RoutingSchedule, run_algorithm
from lislsim.toyseries import dominance_toy_series, series_from_edges

from conftest import random_series


class TestSelectionMatrixMetrics:
    def test_eta_delay_of_golden_selection(self, eq4):
        d, s = eq4
        assert eta_delay(s, d) == 104.0

    def test_eta_delay_zero_delays(self):
        d = np.zeros((2, 3))
        s = np.array([[1, 1, 1], [0, 0, 0]], dtype=np.int8)
        assert eta_delay(s, d) == 0.0

    def test_eta_delay_single_slot(self):
        d = np.array([[7.0], [9.0]])
        s = np.array([[0], [1]], dtype=np.int8)
        assert eta_delay(s, d) == 9.0

    @pytest.mark.parametrize("eta_s", [1.0, 10.0, 1000.0])
    def test_eta_penalty_two_switches(self, eq4, eta_s):
        _, s = eq4
        assert eta_penalty(s, eta_s) == 2 * eta_s

    def test_eta_penalty_constant_route(self):
        s = np.array([[1, 1, 1, 1]], dtype=np.int8)
        assert eta_penalty(s, 1000.0) == 0.0

    def test_eta_penalty_maximum(self):
        s = np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.int8)
        assert eta_penalty(s, 10.0) == 30.0

    def test_route_change_rate_golden(self, eq4):
        _, s = eq4
        assert route_change_rate(s) == 50.0

    def test_route_change_rate_extremes(self):
        quiet = np.array([[1, 1, 1, 1]], dtype=np.int8)
        assert route_change_rate(quiet) == 0.0
        busy = np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.int8)
        assert route_change_rate(busy) == 100.0 * 3 / 4

    def test_latency_series_decomposition(self, eq4):
        d, s = eq4
        lat = instantaneous_latency_series(s, d, 10.0)
        assert lat.tolist() == [26.0, 27.0, 35.0, 36.0]
        assert math.fsum(lat) == 124.0
        assert eta_le(s, d, 10.0) == 124.0


class TestLatencySeries:
    def test_switch_charged_to_later_slot(self):
        routes = [Route((0, 1, 2))] * 2 + [Route((0, 3, 2))] * 2
        schedule = RoutingSchedule("x", 0, 2, routes)
        series = series_from_edges(
            [{(0, 1): 13.0, (1, 2): 13.0, (0, 3): 13.0, (2, 3): 13.0}] * 4,
            num_satellites=4,
        )
        lat = instantaneous_latency_series(schedule, series, 1000.0)
        assert lat.tolist() == [26.0, 26.0, 1026.0, 26.0]

    def test_no_switch_means_delay_only(self):
        schedule = RoutingSchedule("x", 0, 2, [Route((0, 1, 2))] * 3)
        series = series_from_edges([{(0, 1): 3.0, (1, 2): 4.0}] * 3, num_satellites=3)
        assert instantaneous_latency_series(schedule, series, 500.0).tolist() == [7.0] * 3

    def test_gap_marked_nan_and_excluded(self):
        routes = [Route((0, 1)), None, Route((0, 1))]
        schedule = RoutingSchedule("x", 0, 1, routes)
        series = series_from_edges([{(0, 1): 2.0}] * 3, num_satellites=2)
        lat = instantaneous_latency_series(schedule, series, 100.0)
        assert lat[0] == 2.0 and np.isnan(lat[1]) and lat[2] == 2.0
        # boundaries next to the gap never count as switches
        assert schedule.switch_count() == 0
        assert eta_delay(schedule, series) == 4.0
        report = evaluate(schedule, series, 100.0)
        assert report.coverage == 2
        assert report.identity_residual() < 1e-12


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
                evaluate(schedule, series, eta_s).average_jitter_ms
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


class TestIdentity:
    @pytest.mark.parametrize("name", ["ilsr", "ilpr", "alpr", "isasr"])
    @pytest.mark.parametrize("eta_s", [1.0, 10.0, 100.0, 1000.0])
    def test_mean_identity_all_algorithms(self, name, eta_s):
        series = dominance_toy_series()
        schedule = run_algorithm(name, series, 6, 7, eta_s)
        report = evaluate(schedule, series, eta_s)
        assert report.identity_residual() < 1e-9

    def test_mean_identity_random_series(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            series = random_series(rng)
            for name in ("ilsr", "ilpr", "alpr", "isasr"):
                schedule = run_algorithm(name, series, 0, 7, 123.0)
                report = evaluate(schedule, series, 123.0)
                assert report.identity_residual() < 1e-9

    def test_decomposition_exact_on_exact_data(self):
        series = dominance_toy_series()
        for eta_s in (1.0, 64.0, 1024.0):
            for name in ("ilsr", "ilpr", "alpr", "isasr"):
                schedule = run_algorithm(name, series, 6, 7, eta_s)
                lat = instantaneous_latency_series(schedule, series, eta_s)
                total = eta_le(schedule, series, eta_s)
                assert math.fsum(lat[~np.isnan(lat)]) == total


class TestPenaltyBlindness:
    @pytest.mark.parametrize("name", ["ilsr", "ilpr"])
    def test_lambda_and_delay_invariant_under_penalty(self, name):
        series = dominance_toy_series()
        schedule = run_algorithm(name, series, 6, 7, 1.0)
        reports = [evaluate(schedule, series, e) for e in (1.0, 10.0, 100.0, 1000.0)]
        assert len({r.route_change_rate_pct for r in reports}) == 1
        assert len({r.mean_eta_delay_ms for r in reports}) == 1


class TestReport:
    def test_text_and_tables(self):
        series = dominance_toy_series()
        schedule = run_algorithm("ilsr", series, 6, 7, 10.0)
        report = evaluate(schedule, series, 10.0, qos_ms=(40.0,), runtime_s=0.5)
        text = report.to_text()
        assert "eta_delay" in text and "route_change_rate" in text
        assert "outage@40.000000000ms" in text
        assert report.latency_table().startswith("slot\t")
        assert report.histogram_table().startswith("bin_left_ms\t")

    def test_metric_ranges(self):
        rng = np.random.default_rng(14)
        series = random_series(rng)
        for name in ("ilsr", "ilpr", "alpr", "isasr"):
            schedule = run_algorithm(name, series, 0, 7, 10.0)
            report = evaluate(schedule, series, 10.0, qos_ms=(5.0, 50.0))
            n = report.num_slots
            assert 0.0 <= report.route_change_rate_pct <= 100.0 * (n - 1) / n
            assert all(0.0 <= p <= 1.0 for _, p in report.outage)
            assert report.average_jitter_ms >= 0.0
            assert report.eta_le_ms == report.eta_delay_ms + report.eta_penalty_ms
