"""Routing algorithms: Dijkstra core and the four schedule producers."""

import math

import numpy as np
import pytest

from lislsim.routing import (
    ALGORITHMS,
    LIFETIME_ALGORITHMS,
    Route,
    _held_routes,
    RoutingSchedule,
    alpr,
    alpr_average_latency,
    dijkstra,
    disjoint_routes,
    ilpr,
    ilsr,
    isasr,
    isasr_stability_cost,
    run_algorithm,
    run_delays,
)

from conftest import WORKED_EXAMPLE_DELAYS, one_slot, random_series, slot_routes, square_edges
from toyseries import series_from_edges


def run_end(series, route, slot):
    """Last slot of the route's hold from `slot`: the earliest run end of its edges."""
    snap = series.snapshot(slot)
    return int(snap.run_last[snap.edge_positions(route.canonical_edges)].min())


def assert_holds_end_at_run_ends(schedule, series):
    """Each hold from a decision slot covers exactly the slots up to its run end
    (on a series where every slot is reachable)."""
    routes = slot_routes(schedule)
    i = 1
    while i <= series.num_slots:
        route = routes[i - 1]
        assert route is not None
        last = run_end(series, route, i)
        assert all(r is route for r in routes[i - 1:last])
        i = last + 1


def exhaustive_best_path(edges: dict, src: int, dst: int):
    """Independent oracle: min-cost simple path by full enumeration.

    Returns (cost, lexicographically smallest vertex tuple among minima),
    or None when the pair is disconnected. Intended for lattice-valued
    weights where float sums are exact in any order.
    """
    adj: dict[int, list[int]] = {}
    for (a, b) in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    best: tuple[float, tuple[int, ...]] | None = None

    def walk(path, seen, cost):
        nonlocal best
        here = path[-1]
        if here == dst:
            key = (cost, tuple(path))
            if best is None or key < best:
                best = key
            return
        for nxt in sorted(adj.get(here, ())):
            if nxt in seen:
                continue
            edge = (min(here, nxt), max(here, nxt))
            w = edges.get(edge)
            if w is None or math.isinf(w):
                continue
            path.append(nxt)
            seen.add(nxt)
            walk(path, seen, cost + w)
            path.pop()
            seen.remove(nxt)

    walk([src], {src}, 0.0)
    return best


class TestRoute:
    def test_validation(self):
        with pytest.raises(ValueError):
            Route((1,))
        with pytest.raises(ValueError):
            Route((1, 2, 1))

    def test_edges(self):
        r = Route((4, 0, 5))
        assert r.hops == 2
        assert r.edges == ((4, 0), (0, 5))
        assert r.canonical_edges == ((0, 4), (0, 5))


class TestDijkstra:
    def test_strictly_cheaper_branch_wins(self, square_snapshot):
        route = dijkstra(square_snapshot, 0, 3)
        assert route.nodes == (0, 2, 3)
        assert square_snapshot.route_delay(route) == 8.0

    def test_tie_prefers_smaller_node_ids(self, tie_snapshot):
        assert dijkstra(tie_snapshot, 0, 3).nodes == (0, 1, 3)

    def test_isolated_source_unreachable(self):
        snap = one_slot({(1, 2): 1.0}, num_nodes=4)
        assert dijkstra(snap, 0, 2) is None
        assert dijkstra(snap, 3, 1) is None

    def test_same_endpoints_rejected(self, square_snapshot):
        with pytest.raises(ValueError):
            dijkstra(square_snapshot, 2, 2)

    def test_cost_override_mapping(self, square_snapshot):
        costs = square_snapshot.delay_ms.copy()
        costs[square_snapshot.edge_positions([(0, 2)])[0]] = 100.0
        route = dijkstra(square_snapshot, 0, 3, cost_override=costs)
        assert route.nodes == (0, 1, 3)

    def test_cost_override_array_disables_edges(self, square_snapshot):
        costs = square_snapshot.delay_ms.copy()
        pos = square_snapshot.edge_positions([(0, 2)])[0]
        costs[pos] = np.inf
        assert dijkstra(square_snapshot, 0, 3, cost_override=costs).nodes == (0, 1, 3)

    def test_rejects_non_positive_costs(self, square_snapshot):
        with pytest.raises(ValueError):
            dijkstra(square_snapshot, 0, 3, cost_override=np.zeros(4))

    def test_foreign_ground_station_never_relays(self):
        # 0,1 satellites; 2,3,4 ground. Path 2-0-3 exists; the shortcut
        # through ground station 4 must be ignored even though it is cheap.
        edges = {(0, 2): 1.0, (0, 3): 1.0, (0, 4): 0.25, (1, 4): 0.25, (1, 3): 0.25}
        snap = one_slot(edges, num_nodes=5, num_satellites=2)
        route = dijkstra(snap, 2, 3)
        assert route.nodes == (2, 0, 3)

    def test_matches_exhaustive_enumeration_on_random_graphs(self):
        rng = np.random.default_rng(123)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(2, 9))
            edges = {}
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.random() < 0.5:
                        edges[(a, b)] = 0.25 + float(rng.integers(0, 256)) / 64.0
            if not edges:
                continue
            snap = one_slot(edges, num_nodes=n)
            expected = exhaustive_best_path(edges, 0, n - 1)
            got = dijkstra(snap, 0, n - 1)
            if expected is None:
                assert got is None
            else:
                assert snap.route_delay(got) == expected[0]
                assert got.nodes == expected[1]
                checked += 1
        assert checked > 100


class TestIlsr:
    def test_per_slot_argmin_switches(self):
        series = series_from_edges(
            [
                {(0, 1): 10.0, (1, 3): 10.0, (0, 2): 11.0, (2, 3): 11.0},
                {(0, 1): 12.0, (1, 3): 12.0, (0, 2): 11.0, (2, 3): 11.0},
            ],
            num_satellites=4,
        )
        schedule = ilsr(series, 0, 3)
        assert slot_routes(schedule)[0].nodes == (0, 1, 3)
        assert slot_routes(schedule)[1].nodes == (0, 2, 3)
        assert schedule.switch_flags().sum() == 1

    def test_static_topology_never_switches(self):
        series = series_from_edges([square_edges()] * 5, num_satellites=4)
        schedule = ilsr(series, 0, 3)
        assert all(r.nodes == (0, 2, 3) for r in slot_routes(schedule))
        assert schedule.switch_flags().sum() == 0

    def test_two_slot_trace(self):
        # via-A 10 then 14; via-B 12 both slots: pick A then B
        series = series_from_edges(
            [
                {(0, 1): 5.0, (1, 3): 5.0, (0, 2): 6.0, (2, 3): 6.0},
                {(0, 1): 7.0, (1, 3): 7.0, (0, 2): 6.0, (2, 3): 6.0},
            ],
            num_satellites=4,
        )
        schedule = ilsr(series, 0, 3)
        assert [r.nodes for r in slot_routes(schedule)] == [(0, 1, 3), (0, 2, 3)]


class TestIlpr:
    def test_persists_while_route_exists(self):
        # same data as the ILSR trace: ILPR stays on the slot-1 choice
        series = series_from_edges(
            [
                {(0, 1): 5.0, (1, 3): 5.0, (0, 2): 6.0, (2, 3): 6.0},
                {(0, 1): 7.0, (1, 3): 7.0, (0, 2): 6.0, (2, 3): 6.0},
            ],
            num_satellites=4,
        )
        schedule = ilpr(series, 0, 3)
        assert [r.nodes for r in slot_routes(schedule)] == [(0, 1, 3), (0, 1, 3)]
        assert schedule.switch_flags().sum() == 0
        assert schedule.delay_ms.tolist() == [10.0, 14.0]

    def test_recomputes_when_edge_disappears(self):
        series = series_from_edges(
            [
                {(0, 1): 5.0, (1, 3): 5.0, (0, 2): 6.0, (2, 3): 6.0},
                {(0, 2): 6.0, (2, 3): 6.0},
            ],
            num_satellites=4,
        )
        schedule = ilpr(series, 0, 3)
        assert [r.nodes for r in slot_routes(schedule)] == [(0, 1, 3), (0, 2, 3)]
        assert schedule.switch_flags().sum() == 1

    def test_static_topology_zero_switches(self):
        series = series_from_edges([square_edges()] * 6, num_satellites=4)
        assert ilpr(series, 0, 3).switch_flags().sum() == 0

    def test_switch_implies_break_or_gap(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            series = random_series(rng)
            schedule = ilpr(series, 0, series.roster.num_nodes - 1)
            flags = schedule.switch_flags()
            for i, flag in enumerate(flags):
                if flag:
                    prev = slot_routes(schedule)[i]
                    assert series.snapshot(i + 2).route_delay(prev) is None

    def test_keeps_route_that_survives_into_next_slot(self):
        rng = np.random.default_rng(6)
        kept = 0
        for trial in range(20):
            series = random_series(rng)
            routes = slot_routes(ilpr(series, 0, series.roster.num_nodes - 1))
            for i, route in enumerate(routes[:-1]):
                if route is not None and series.snapshot(i + 2).route_delay(route) is not None:
                    assert routes[i + 1] is route
                    kept += 1
        assert kept > 20

    def test_block_structure(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            series = random_series(rng, num_nodes=7, num_slots=12)
            assert_holds_end_at_run_ends(ilpr(series, 0, 6), series)


class TestDisjointRoutes:
    def test_square_graph_order(self, square_snapshot):
        routes = disjoint_routes(square_snapshot, 0, 3)
        assert [r.nodes for r in routes] == [(0, 2, 3), (0, 1, 3)]
        assert square_snapshot.route_delay(routes[0]) == 8.0
        assert square_snapshot.route_delay(routes[1]) == 10.0

    def test_degree_one_bound(self):
        edges = {(0, 1): 1.0, (1, 2): 1.0, (1, 3): 1.0, (2, 4): 1.0, (3, 4): 1.0}
        snap = one_slot(edges, num_nodes=5)
        routes = disjoint_routes(snap, 0, 4)
        assert len(routes) == 1  # deg(0) == 1 caps the count

    def test_early_stop_when_graph_disconnects(self):
        # two disjoint routes share the bottleneck 0-1, so only one exists
        edges = {(0, 1): 1.0, (1, 2): 1.0, (2, 4): 1.0, (1, 3): 1.0, (3, 4): 1.0}
        snap = one_slot(edges, num_nodes=5)
        routes = disjoint_routes(snap, 0, 4)
        assert len(routes) == 1

    def test_pairwise_edge_disjoint(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            series = random_series(rng, num_nodes=9, num_slots=1, edge_prob=0.6)
            snap = series.snapshot(1)
            routes = disjoint_routes(snap, 0, 8)
            seen = set()
            for r in routes:
                for e in r.canonical_edges:
                    assert e not in seen
                    seen.add(e)


class TestRouteLifetime:
    """A route's lifetime from a slot is the length of its run_delays."""

    def test_min_over_edge_run_ends(self):
        ends = [105, 117, 93, 155, 148]
        slot_lists = {
            (i, i + 1): list(range(80, e + 1)) for i, e in enumerate(ends)
        }
        per_slot = [dict() for _ in range(160)]
        for edge, slots in slot_lists.items():
            for s in slots:
                per_slot[s - 1][edge] = 1.0
        series = series_from_edges(per_slot, num_satellites=6)
        route = Route((0, 1, 2, 3, 4, 5))
        assert len(run_delays(route, series, 85)) == 93 - 85 + 1

    def test_permanent_route_expires_at_horizon(self):
        series = series_from_edges([{(0, 1): 1.0, (1, 2): 1.0}] * 7, num_satellites=3)
        assert len(run_delays(Route((0, 1, 2)), series, 3)) == 7 - 3 + 1

    def test_single_slot_run(self):
        per_slot = [{(0, 1): 1.0}, {(2, 3): 1.0}, {(0, 1): 1.0}]
        series = series_from_edges(per_slot, num_satellites=4)
        assert len(run_delays(Route((0, 1)), series, 1)) == 1
        with pytest.raises(ValueError):
            run_delays(Route((0, 1)), series, 2)

    def test_values_are_the_per_slot_route_delays(self, table_series):
        route = Route((4, 1, 5))
        assert run_delays(route, table_series, 3) == [
            table_series.snapshot(k).route_delay(route) for k in range(3, 12)
        ]

    def test_length_matches_the_edge_lifetimes(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            series = random_series(rng, num_nodes=7, num_slots=12)
            for snap in series.snapshots:
                for route in disjoint_routes(snap, 0, 6):
                    held = len(run_delays(route, series, snap.slot))
                    assert held == run_end(series, route, snap.slot) - snap.slot + 1

    def test_hold_of_a_route_absent_from_its_slot_is_rejected(self):
        series = series_from_edges([square_edges(), {(0, 2): 4.0, (2, 3): 4.0}], num_satellites=4)
        with pytest.raises(ValueError, match="absent from slot 2"):
            _held_routes(series, lambda snap: Route((0, 1, 3)))


class TestAlprAverageLatency:
    @pytest.mark.parametrize(
        "rid,eta_s,expected",
        [
            (1, 1.0, 26.98), (2, 1.0, 28.02), (3, 1.0, 27.76), (4, 1.0, 28.10),
            (1, 1000.0, 193.48), (2, 1000.0, 118.84), (3, 1000.0, 170.47),
        ],
    )
    def test_worked_example_values(self, table_series, rid, eta_s, expected):
        route = Route((4, rid - 1, 5))
        avg = alpr_average_latency(route, table_series, 1, eta_s)
        assert round(avg, 2) == pytest.approx(expected, abs=0.01)

    def test_worked_example_route4_truncation(self, table_series):
        avg = alpr_average_latency(Route((4, 3, 5)), table_series, 1, 1000.0)
        assert avg == pytest.approx(152.975, abs=1e-9)

    def test_matches_direct_formula(self, table_series):
        delays = WORKED_EXAMPLE_DELAYS[2]
        avg = alpr_average_latency(Route((4, 1, 5)), table_series, 3, 7.0)
        expected = (7.0 + sum(delays[2:])) / (len(delays) - 2)
        assert avg == pytest.approx(expected, abs=1e-12)


class TestAlpr:
    def test_low_penalty_selects_fastest_route(self, table_series):
        schedule = alpr(table_series, 4, 5, 1.0)
        assert slot_routes(schedule)[0].nodes == (4, 0, 5)

    def test_high_penalty_selects_longest_lived_route(self, table_series):
        schedule = alpr(table_series, 4, 5, 1000.0)
        assert slot_routes(schedule)[0].nodes == (4, 1, 5)
        # that route survives the whole horizon: no switches at all
        assert schedule.switch_flags().sum() == 0
        assert all(r.nodes == (4, 1, 5) for r in slot_routes(schedule))

    def test_single_candidate_selected_regardless_of_penalty(self):
        series = series_from_edges([{(0, 1): 3.0, (1, 2): 3.0}] * 4, num_satellites=3)
        for eta_s in (1.0, 1000.0):
            schedule = alpr(series, 0, 2, eta_s)
            assert all(r.nodes == (0, 1, 2) for r in slot_routes(schedule))

    def test_block_structure(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            series = random_series(rng, num_nodes=7, num_slots=12)
            assert_holds_end_at_run_ends(alpr(series, 0, 6, 50.0), series)

    def test_single_slot_lifetime_triggers_immediate_redecision(self):
        per_slot = [
            {(0, 1): 1.0, (1, 2): 1.0, (0, 3): 5.0, (3, 2): 5.0},
            {(0, 3): 5.0, (3, 2): 5.0},
            {(0, 3): 5.0, (3, 2): 5.0},
        ]
        series = series_from_edges(per_slot, num_satellites=4)
        schedule = alpr(series, 0, 2, 1.0)
        assert slot_routes(schedule)[0].nodes == (0, 1, 2)
        assert slot_routes(schedule)[1].nodes == (0, 3, 2)
        assert slot_routes(schedule)[2].nodes == (0, 3, 2)

    def test_unreachable_decision_slot_advances_one(self):
        per_slot = [{(0, 1): 1.0}, {(0, 1): 1.0, (1, 2): 1.0}, {(0, 1): 1.0, (1, 2): 1.0}]
        series = series_from_edges(per_slot, num_satellites=3)
        schedule = alpr(series, 0, 2, 10.0)
        assert slot_routes(schedule)[0] is None
        assert slot_routes(schedule)[1].nodes == (0, 1, 2)
        assert schedule.unreachable_slots() == [1]


class TestIsasrStabilityCost:
    def test_horizon_run_costs_nothing(self):
        assert isasr_stability_cost(np.array([20]), 5, 20, 1000.0).tolist() == [0.0]

    def test_live_run_spreads_over_remainder(self):
        cost = isasr_stability_cost(np.array([19, 15, 30], np.int32), 15, 30, 1000.0)
        assert cost.tolist() == [200.0, 1000.0, 0.0]

    def test_slot_bounds(self):
        with pytest.raises(ValueError):
            isasr_stability_cost(np.array([5]), 0, 30, 1.0)


class TestIsasr:
    def test_reduces_to_ilsr_with_zero_gamma(self):
        rng = np.random.default_rng(31)
        for trial in range(8):
            series = random_series(rng, num_nodes=8, num_slots=10)
            a = isasr(series, 0, 7, 1000.0, 0.0, math.inf)
            b = ilsr(series, 0, 7)
            for ra, rb in zip(slot_routes(a), slot_routes(b)):
                assert (ra is None) == (rb is None)
                if ra is not None:
                    assert ra.nodes == rb.nodes

    def test_static_topology_sticks_to_first_route(self):
        series = series_from_edges([square_edges()] * 6, num_satellites=4)
        schedule = isasr(series, 0, 3, 100.0, 100.0, math.inf)
        assert schedule.switch_flags().sum() == 0
        assert all(r.nodes == slot_routes(schedule)[0].nodes for r in slot_routes(schedule))

    def test_threshold_prunes_short_lived_satellite_edges(self):
        # (1,2) is short-lived and would carry the cheapest route at slot 1;
        # pruning by threshold pushes the route onto the stable pair.
        per_slot = [
            {(0, 1): 1.0, (1, 2): 0.5, (2, 3): 1.0, (0, 4): 2.0, (4, 3): 2.0},
            {(0, 1): 1.0, (2, 3): 1.0, (0, 4): 2.0, (4, 3): 2.0},
            {(0, 1): 1.0, (2, 3): 1.0, (0, 4): 2.0, (4, 3): 2.0},
        ]
        series = series_from_edges(per_slot, num_satellites=5)
        eta_s = 100.0
        # cost_st of (1,2) at slot 1 is eta_s/1 = 100 >= threshold
        schedule = isasr(series, 0, 3, eta_s, 1.0, cost_thrsh_ms=100.0)
        assert slot_routes(schedule)[0].nodes == (0, 4, 3)
        # with a huge threshold the short-lived edge is allowed again
        loose = isasr(series, 0, 3, eta_s, 0.0, cost_thrsh_ms=math.inf)
        assert slot_routes(loose)[0].nodes == (0, 1, 2, 3)

    def test_ground_edges_survive_pruning(self):
        from lislsim.constellation import GroundStation

        stations = (
            GroundStation(id=2, name="src", latitude_deg=0.0, longitude_deg=0.0),
            GroundStation(id=3, name="dst", latitude_deg=0.0, longitude_deg=1.0),
        )
        # the uplink (0,2) exists at slot 1 only, so its stability cost (100)
        # reaches the threshold; being a ground link it must be kept anyway
        per_slot = [
            {(0, 2): 1.0, (0, 1): 1.0, (1, 3): 1.0},
            {(0, 1): 1.0, (1, 3): 1.0},
            {(0, 1): 1.0, (1, 3): 1.0},
        ]
        series = series_from_edges(per_slot, num_satellites=2, ground_stations=stations)
        schedule = isasr(series, 2, 3, 100.0, 1.0, cost_thrsh_ms=50.0)
        assert slot_routes(schedule)[0].nodes == (2, 0, 1, 3)
        assert schedule.unreachable_slots() == [2, 3]

    def test_reported_delays_use_original_costs(self, toy_series):
        schedule = isasr(toy_series, 6, 7, 100.0, 100.0, math.inf)
        for i, route in enumerate(slot_routes(schedule), start=1):
            snap = toy_series.snapshot(i)
            assert snap.route_delay(route) == sum(
                float(snap.delay_ms[p]) for p in snap.edge_positions(route.canonical_edges)
            )

    def test_abandoned_route_keeps_zero_activeness_cost(self):
        # path A = 0-1-3, path B = 0-2-3; A is abandoned at slot 3 while it
        # still exists, so its edges keep their zero activeness cost and win
        # back the route at slot 4
        def edges(a_delay):
            return {
                (0, 1): a_delay, (1, 3): a_delay,
                (0, 2): 5.0, (2, 3): 5.0,
            }

        per_slot = [edges(1.0), edges(1.0), edges(50.0), edges(1.0)]
        series = series_from_edges(per_slot, num_satellites=4)
        sticky = isasr(series, 0, 3, eta_s_ms=10.0, gamma=1.0, cost_thrsh_ms=math.inf)
        assert [r.nodes for r in slot_routes(sticky)] == [
            (0, 1, 3), (0, 1, 3), (0, 2, 3), (0, 1, 3)
        ]

    def test_stability_cost_follows_the_current_run(self):
        # edge (1,3) exists in two runs [1,2] and [4,6]; its stability cost at
        # slot 1 spreads eta_s over the first run only, so the route avoids it
        gappy = {(0, 1): 1.0, (1, 3): 1.0, (0, 2): 2.0, (2, 3): 2.0}
        stable_only = {(0, 1): 1.0, (0, 2): 2.0, (2, 3): 2.0}
        per_slot = [gappy, gappy, stable_only, gappy, gappy, gappy]
        series = series_from_edges(per_slot, num_satellites=4)
        per_run = isasr(series, 0, 3, eta_s_ms=100.0, gamma=1.0, cost_thrsh_ms=math.inf)
        assert slot_routes(per_run)[0].nodes == (0, 2, 3)

    def test_gamma_must_be_non_negative(self, toy_series):
        with pytest.raises(ValueError):
            isasr(toy_series, 6, 7, 1.0, -1.0, 1.0)


class TestScheduleFeasibility:
    @pytest.mark.parametrize("name", ["ilsr", "ilpr", "alpr", "isasr"])
    def test_active_routes_exist_in_their_slots(self, name):
        rng = np.random.default_rng(77)
        for _ in range(6):
            series = random_series(rng, num_nodes=8, num_slots=9)
            schedule = run_algorithm(name, series, 0, 7, 25.0)
            for i, route in enumerate(slot_routes(schedule), start=1):
                if route is not None:
                    assert series.snapshot(i).route_delay(route) is not None
                    assert route.nodes[0] == 0 and route.nodes[-1] == 7

    def test_route_missing_an_edge_in_its_slot_is_rejected(self):
        series = series_from_edges([square_edges(), {(0, 2): 4.0, (2, 3): 4.0}], num_satellites=4)
        with pytest.raises(ValueError, match="slot 2 uses a missing edge"):
            RoutingSchedule("by-hand", 0, 3, [Route((0, 1, 3))] * 2, series)

    def test_unknown_algorithm_rejected(self, toy_series):
        with pytest.raises(ValueError):
            run_algorithm("ospf", toy_series, 6, 7, 1.0)


class TestLifetimeReaders:
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_exactly_the_listed_algorithms_build_the_lifetimes(self, name):
        series = random_series(np.random.default_rng(41), num_nodes=8, num_slots=9)
        assert series._runs is None
        run_algorithm(name, series, 0, 7, 25.0, cost_thrsh_ms=100.0)
        assert (series._runs is not None) == (name in LIFETIME_ALGORITHMS)


class TestCallCounts:
    def test_ilpr_static_topology_runs_dijkstra_once(self, monkeypatch):
        import lislsim.routing as routing_mod

        series = series_from_edges([square_edges()] * 8, num_satellites=4)
        calls = {"n": 0}
        real = routing_mod.dijkstra

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(routing_mod, "dijkstra", counting)
        schedule = routing_mod.ilpr(series, 0, 3)
        assert calls["n"] == 1
        assert schedule.switch_flags().sum() == 0

    def test_ilsr_runs_dijkstra_every_slot(self, monkeypatch):
        import lislsim.routing as routing_mod

        series = series_from_edges([square_edges()] * 8, num_satellites=4)
        calls = {"n": 0}
        real = routing_mod.dijkstra

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(routing_mod, "dijkstra", counting)
        routing_mod.ilsr(series, 0, 3)
        assert calls["n"] == 8


class TestPermanentEdgeCosts:
    def test_stability_cost_vanishes_for_permanent_edges(self):
        from lislsim.routing import isasr_stability_cost

        series = series_from_edges([square_edges()] * 6, num_satellites=4)
        for slot in (1, 3, 6):
            run_last = series.snapshot(slot).run_last
            assert run_last.size == 4
            assert not isasr_stability_cost(run_last, slot, 6, 1000.0).any()

