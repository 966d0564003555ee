"""Exact optimizer, its brute-force cross-check, and route enumeration."""

import itertools

import numpy as np
import pytest

from lislsim.oracle import (
    InfeasibleSlotError,
    OracleSizeError,
    brute_force_optimal,
    dp_optimal,
    enumerate_routes,
    random_delay_matrix,
    selection_cost,
    selection_from_schedule,
    validate_selection,
)
from lislsim.routing import run_algorithm
from lislsim.toyseries import dominance_toy_series, series_from_edges

from conftest import EQ4_DELAYS


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
        s_dp, c_dp = dp_optimal(EQ4_DELAYS, eta_s)
        s_bf, c_bf = brute_force_optimal(EQ4_DELAYS, eta_s)
        assert c_dp == expected
        assert c_bf == expected

    def test_high_penalty_stays_on_one_route(self):
        s, _ = dp_optimal(EQ4_DELAYS, 1000.0)
        assert np.array_equal(s[1], [1, 1, 1, 1])

    def test_zero_penalty_takes_per_slot_minima(self):
        s, cost = dp_optimal(EQ4_DELAYS, 0.0)
        rows = np.argmax(s, axis=0)
        assert rows.tolist() == [0, 1, 1, 1]
        assert cost == 102.0


class TestDpProperties:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            d = random_delay_matrix(rng)
            for eta_s in (0.0, 1.0, 10.0, 100.0, 1000.0):
                _, a = dp_optimal(d, eta_s)
                _, b = brute_force_optimal(d, eta_s)
                assert a == b

    def test_cost_nondecreasing_in_penalty(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            d = random_delay_matrix(rng)
            costs = [dp_optimal(d, e)[1] for e in (0.0, 1.0, 10.0, 100.0, 1000.0)]
            assert all(a <= b for a, b in zip(costs, costs[1:]))

    def test_cost_equals_metric_evaluators_on_returned_selection(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            d = random_delay_matrix(rng)
            s, cost = dp_optimal(d, 10.0)
            rows = np.argmax(s, axis=0)
            delay = sum(d[r, i] for i, r in enumerate(rows))
            penalty = 10.0 * np.count_nonzero(np.diff(rows))
            assert cost == selection_cost(s, d, 10.0) == delay + penalty

    def test_single_route_cost_is_row_sum(self):
        d = np.array([[5.0, 6.0, 7.0]])
        for eta_s in (0.0, 1000.0):
            s, cost = dp_optimal(d, eta_s)
            assert cost == 18.0
            assert np.array_equal(s, [[1, 1, 1]])

    def test_single_slot_takes_argmin_without_penalty(self):
        d = np.array([[9.0], [4.0], [6.0]])
        for solver in (dp_optimal, brute_force_optimal):
            s, cost = solver(d, 1000.0)
            assert cost == 4.0
            assert np.argmax(s[:, 0]) == 1

    def test_forced_assignment_returned(self):
        d = np.array([[1.0, np.inf], [np.inf, 2.0]])
        s, cost = brute_force_optimal(d, 7.0)
        assert np.array_equal(np.argmax(s, axis=0), [0, 1])
        assert cost == 10.0

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
        s, cost = dp_optimal(d, 1.0)
        assert cost == 10.0
        assert np.argmax(s, axis=0).tolist() == [0, 0]


class TestSelectionHelpers:
    def test_validate_selection_contract(self, eq4):
        d, s = eq4
        validate_selection(s, d)
        bad = s.copy()
        bad[0, 0] = 0
        with pytest.raises(ValueError, match="exactly one active route"):
            validate_selection(bad, d)
        misplaced = np.zeros_like(s)
        misplaced[2, 0] = 1  # route 3 does not exist at slot 1
        misplaced[0, 1] = misplaced[0, 2] = misplaced[0, 3] = 1
        with pytest.raises(ValueError, match="does not exist"):
            validate_selection(misplaced, d)

    def test_switch_indicator(self, eq4):
        # eq4 keeps its route across boundary 1 and switches at 2 and 3
        d, s = eq4
        switches = [
            selection_cost(s[:, :k], d[:, :k], 1.0) - selection_cost(s[:, :k], d[:, :k], 0.0)
            for k in range(1, 5)
        ]
        assert switches == [0.0, 0.0, 1.0, 2.0]


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
        routes, d = enumerate_routes(series, 6, 7, hop_limit=4)
        for eta_s in (1.0, 10.0, 100.0):
            _, optimal = dp_optimal(d, eta_s)
            for name in ("ilsr", "ilpr", "alpr", "isasr"):
                schedule = run_algorithm(name, series, 6, 7, eta_s, cost_thrsh_ms=np.inf)
                s = selection_from_schedule(schedule, routes)
                cost = selection_cost(s, d, eta_s)
                assert cost >= optimal - 1e-9

    def test_selection_from_schedule_rejects_unknown_routes(self):
        series = dominance_toy_series()
        # hop limit 3 misses the 4-hop route that ILSR uses from slot 3 on
        routes, _ = enumerate_routes(series, 6, 7, hop_limit=3)
        schedule = run_algorithm("ilsr", series, 6, 7, 1.0)
        with pytest.raises(ValueError, match="not present"):
            selection_from_schedule(schedule, routes)

