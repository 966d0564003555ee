"""Routing algorithms: Dijkstra core and the four schedule producers."""

import contextlib
import math
import signal
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lislsim.config import default_config
from lislsim.constellation import GroundStation
from lislsim.oracle import optimum_schedule, route_delay_matrix
from lislsim.routing import (
    ALGORITHMS,
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
from lislsim.topology import NodeRoster, Snapshot, SnapshotSeries

from brute_force import reference_isasr, reference_run_last
from conftest import (
    WORKED_EXAMPLE_DELAYS, decision_slots, edge_pairs, one_slot, pair_positions, random_series,
    slot_routes, square_edges,
)
from toyseries import dominance_toy_series, series_from_edges


def run_end(series, route, slot):
    """Last slot of the route's hold from `slot`: the earliest run end of its edges."""
    snap = series.snapshot(slot)
    return int(snap.run_last[snap.positions(route.keys)].min())


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


def exhaustive_best_path(edges: dict, src: int, dst: int, barred=frozenset()):
    """Independent oracle: min-cost simple path by full enumeration.

    Returns (cost, lexicographically smallest vertex tuple among minima),
    or None when the pair is disconnected. No path passes through a node in
    ``barred``. Intended for lattice-valued weights where float sums are
    exact in any order.
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
            if nxt in seen or (nxt in barred and nxt != dst):
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
        r = Route((4, 1, 5))
        assert r.hops == 2
        assert r.keys.tolist() == [(1 << 16) | 4, (1 << 16) | 5]
        assert r.keys is r.keys  # packed once

    @pytest.mark.parametrize("num_nodes,dtype,shift", [
        (6, "uint32", 16), (256, "uint32", 16), (257, "uint32", 16), (65_536, "uint32", 16),
    ])
    def test_key_widths(self, num_nodes, dtype, shift):
        """One key width for every roster up to the 16-bit cap, and the
        series' key column takes it too."""
        stations = tuple(GroundStation(i, f"gs{i}", 0.0, 0.0) for i in range(5, num_nodes))
        series = series_from_edges([{(1, 4): 1.0, (1, 5): 2.0}], num_satellites=5,
                                   ground_stations=stations)
        keys = Route((4, 1, 5)).keys
        assert keys.dtype == series.keys.dtype == dtype
        assert keys.tolist() == [(1 << shift) | 4, (1 << shift) | 5]
        assert series.snapshot(1).route_delay(Route((4, 1, 5))) == 3.0

    def test_key_widths_stop_at_the_cap(self):
        """A series of 65,537 nodes, stations included, is refused with its roster."""
        with pytest.raises(ValueError, match="at most 65536 nodes: node ids are 16-bit"):
            series_from_edges([{(0, 1): 1.0}], num_satellites=65_537)
        with pytest.raises(ValueError, match="at most 65536 nodes"):
            NodeRoster(65_535, (GroundStation(65_535, "a", 0.0, 0.0),
                                GroundStation(65_536, "b", 0.0, 0.0)))

    def test_keys_refuse_a_node_outside_the_ids(self):
        """Keys exist for every 16-bit id; a route over an id the series does
        not hold is absent from its slots, and one beyond the ids is refused."""
        for nodes in [(4, 1, 65_536), (-1, 1, 5)]:
            with pytest.raises(ValueError, match="leaves the node ids 0..65535"):
                Route(nodes).keys
        snap = dominance_toy_series().snapshot(1)
        assert snap.num_nodes == 8
        assert snap.route_delay(Route((6, 0, 8))) is None
        assert snap.route_delay(Route((6, 0, 65_535))) is None


@contextlib.contextmanager
def _within(seconds: int):
    """Raise TimeoutError in the block once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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

    @pytest.mark.parametrize("src,dst,costs,message", [
        (0, 4, None, "node 4 outside the id range"),
        (-1, 3, None, "node -1 outside the id range"),
        (0, 3, [1.0, 1.0, 1.0], "cost override array must align with snapshot edges"),
    ], ids=["destination-beyond-ids", "negative-source", "short-cost-override"])
    def test_bad_arguments_rejected(self, square_snapshot, src, dst, costs, message):
        with pytest.raises(ValueError, match=message):
            dijkstra(square_snapshot, src, dst, cost_override=costs)

    def test_cost_override_mapping(self, square_snapshot):
        costs = square_snapshot.delay_ms.copy()
        costs[pair_positions(square_snapshot, [(0, 2)])[0]] = 100.0
        route = dijkstra(square_snapshot, 0, 3, cost_override=costs)
        assert route.nodes == (0, 1, 3)

    def test_cost_override_array_disables_edges(self, square_snapshot):
        costs = square_snapshot.delay_ms.copy()
        pos = pair_positions(square_snapshot, [(0, 2)])[0]
        costs[pos] = np.inf
        assert dijkstra(square_snapshot, 0, 3, cost_override=costs).nodes == (0, 1, 3)

    def test_rejects_non_positive_costs(self, square_snapshot):
        with pytest.raises(ValueError):
            dijkstra(square_snapshot, 0, 3, cost_override=np.zeros(4))
        for bad in (-1.0, np.nan, -np.inf):  # one pass, (costs > 0).all(), refuses each
            with pytest.raises(ValueError, match="edge costs must be positive"):
                dijkstra(square_snapshot, 0, 3, cost_override=[1.0, bad, 1.0, 1.0])

    def test_ends_when_weights_round_away(self):
        # 0,1 satellites; 2 source, 3 destination. Beside the 1e24 links the 1 ms
        # links round away, so 1 + dist == dist holds both ways along 0-1: a walk
        # that may step onto any such neighbour bounces between 0 and 1 for ever
        snap = one_slot(dict.fromkeys([(0, 1), (0, 2), (0, 3), (1, 3)], 1.0),
                        num_nodes=4, num_satellites=2)
        with _within(10):
            route = dijkstra(snap, 2, 3, cost_override=[1.0, 1.0, 1e24, 1e24])
        assert route.nodes == (2, 0, 3)

    def test_foreign_ground_station_never_relays(self):
        # 0,1 satellites; 2,3,4 ground. Path 2-0-3 exists; the shortcut
        # through ground station 4 must be ignored even though it is cheap.
        edges = {(0, 2): 1.0, (0, 3): 1.0, (0, 4): 0.25, (1, 4): 0.25, (1, 3): 0.25}
        snap = one_slot(edges, num_nodes=5, num_satellites=2)
        route = dijkstra(snap, 2, 3)
        assert route.nodes == (2, 0, 3)

    def test_foreign_ground_station_never_relays_on_a_tie(self):
        # 0,1 satellites; 2 source, 3 foreign station, 4 destination. 2-0-4 and
        # 2-0-3-1-4 both cost 3.0, and the tie-break would pick the second
        edges = {(0, 2): 1.0, (0, 4): 2.0, (0, 3): 1.0, (1, 3): 0.5, (1, 4): 0.5}
        snap = one_slot(edges, num_nodes=5, num_satellites=2)
        assert dijkstra(snap, 2, 4).nodes == (2, 0, 4)

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

    def test_stations_never_relay_on_random_graphs(self):
        # satellites 0..s-1, then 1-3 stations; every edge has a satellite end,
        # and quarter-ms weights make routes of equal cost common
        rng = np.random.default_rng(321)
        checked = relay_would_win = 0
        for _ in range(300):
            sats = int(rng.integers(2, 7))
            n = sats + int(rng.integers(1, 4))
            edges = {(a, b): 0.25 * float(rng.integers(1, 9))
                     for a in range(sats) for b in range(a + 1, n) if rng.random() < 0.5}
            if not edges:
                continue
            src = int(rng.integers(sats, n))
            dst = int(rng.choice([node for node in range(n) if node != src]))
            snap = one_slot(edges, num_nodes=n, num_satellites=sats)
            expected = exhaustive_best_path(edges, src, dst, barred=frozenset(range(sats, n)))
            got = dijkstra(snap, src, dst)
            if expected is None:
                assert got is None
            else:
                assert snap.route_delay(got) == expected[0]
                assert got.nodes == expected[1]
                checked += 1
                relay_would_win += exhaustive_best_path(edges, src, dst) != expected
        assert checked > 150 and relay_would_win > 10, (checked, relay_would_win)


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
                for e in edge_pairs(r):
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
        # a pick whose delays outlive its route: the schedule refuses the hold
        series = series_from_edges([square_edges(), {(0, 2): 4.0, (2, 3): 4.0}], num_satellites=4)
        routes = _held_routes(series, lambda snap: (Route((0, 1, 3)), [10.0, 10.0]))
        assert routes == [Route((0, 1, 3))] * 2
        with pytest.raises(ValueError, match="slot 2 uses a missing edge"):
            RoutingSchedule("by-hand", 0, 3, routes, series)


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
        avg = alpr_average_latency(run_delays(route, table_series, 1), eta_s)
        assert round(avg, 2) == pytest.approx(expected, abs=0.01)

    def test_worked_example_route4_truncation(self, table_series):
        avg = alpr_average_latency(run_delays(Route((4, 3, 5)), table_series, 1), 1000.0)
        assert avg == pytest.approx(152.975, abs=1e-9)

    def test_matches_direct_formula(self, table_series):
        delays = WORKED_EXAMPLE_DELAYS[2]
        avg = alpr_average_latency(run_delays(Route((4, 1, 5)), table_series, 3), 7.0)
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
    def test_gamma_none_means_eta_s(self, toy_series):
        auto = isasr(toy_series, 6, 7, 10.0, None, 100.0)
        assert slot_routes(auto) == slot_routes(isasr(toy_series, 6, 7, 10.0, 10.0, 100.0))
        assert slot_routes(auto) != slot_routes(isasr(toy_series, 6, 7, 10.0, 0.0, 100.0))

    def test_gamma_none_resolves_as_the_config_does(self, toy_series, monkeypatch):
        # the CLI resolves ``auto`` through ExperimentConfig.gamma_for, a library caller
        # through isasr: each slot's search must see the same edge costs either way
        import lislsim.routing as routing_mod

        real = routing_mod.dijkstra

        def costs_at(gamma):
            seen = []

            def spy(snapshot, src, dst, cost_override=None):
                seen.append(cost_override.copy())
                return real(snapshot, src, dst, cost_override=cost_override)

            monkeypatch.setattr(routing_mod, "dijkstra", spy)
            isasr(toy_series, 6, 7, 10.0, gamma, 100.0)
            return seen

        weight, = default_config().gamma_for(10.0)
        auto = costs_at(None)
        assert len(auto) == toy_series.num_slots
        assert all(np.array_equal(a, b) for a, b in zip(auto, costs_at(weight), strict=True))
        assert not all(np.array_equal(a, b) for a, b in zip(auto, costs_at(2 * weight)))

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
                float(snap.delay_ms[p]) for p in pair_positions(snap, edge_pairs(route))
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

    def test_idle_edge_that_vanishes_and_returns_stays_idle(self):
        # path A = 0-1-3 wins slot 1, is abandoned at slot 2 while it still
        # exists, and its edge (1,3) is absent from slot 3; back at slot 4
        # that edge still costs no activeness, so A beats the dearer B = 0-2-3
        a = {(0, 1): 0.25, (1, 3): 0.25}
        b = {(0, 2): 3.0, (2, 3): 3.0}
        per_slot = [
            {**a, **b},
            {(0, 1): 50.0, (1, 3): 50.0, **b},
            {(0, 1): 2.0, **b},
            {(0, 1): 2.0, (1, 3): 2.0, **b},
        ]
        series = series_from_edges(per_slot, num_satellites=4)
        schedule = isasr(series, 0, 3, eta_s_ms=10.0, gamma=1.0, cost_thrsh_ms=math.inf)
        assert [r.nodes for r in slot_routes(schedule)] == [
            (0, 1, 3), (0, 2, 3), (0, 2, 3), (0, 1, 3)
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


@pytest.mark.parametrize("algorithm, settings", [
    ("isasr", dict(eta_s_ms=1e300, gamma=1e300, cost_thrsh_ms=1.0)),
    ("isasr", dict(eta_s_ms=1.0, gamma=1e300, cost_thrsh_ms=1.0)),
    ("isasr", dict(eta_s_ms=math.nan, gamma=1.0, cost_thrsh_ms=1.0)),
    ("isasr", dict(eta_s_ms=1.0, gamma=math.nan, cost_thrsh_ms=1.0)),
    ("isasr", dict(eta_s_ms=1.0, gamma=1.0, cost_thrsh_ms=math.nan)),
    ("isasr", dict(eta_s_ms=0.0, gamma=1.0, cost_thrsh_ms=1.0)),
    ("alpr", dict(eta_s_ms=-5.0)),
    ("alpr", dict(eta_s_ms=math.nan)),
    ("alpr", dict(eta_s_ms=1e300)),
], ids=["isasr-huge", "isasr-huge-gamma", "isasr-nan-eta", "isasr-nan-gamma",
        "isasr-nan-threshold", "isasr-zero-eta", "alpr-negative", "alpr-nan", "alpr-huge"])
def test_library_refuses_what_the_cli_refuses(toy_series, algorithm, settings):
    """``alpr`` and ``isasr`` apply ``config.check_routing_values``, MAX_SETUP_MS
    included: a bad setting raises ValueError before any arithmetic warns."""
    run = {"alpr": alpr, "isasr": isasr}[algorithm]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="setup-delay|gamma|cost threshold"):
            run(toy_series, 6, 7, **settings)


# Satellites 0..4 and the stations 5 (source, up to 0 and 1) and 6 (destination,
# up to 3 and 4), so every route crosses satellite edges; each slot draws every
# pair as present with a lattice delay (0..7) or absent (8).
_PAIRS = [(a, b) for a in range(5) for b in range(a + 1, 5)] + [(0, 5), (1, 5), (3, 6), (4, 6)]
_STATIONS = (GroundStation(5, "src", 0.0, 0.0), GroundStation(6, "dst", 0.0, 1.0))
_gappy_slots = st.lists(
    st.lists(st.integers(0, 8), min_size=len(_PAIRS), max_size=len(_PAIRS)),
    min_size=4, max_size=12,  # an idle edge needs 4 slots to vanish and return
)
# (eta_s, gamma, cost threshold); a threshold of eta_s / k prunes the satellite
# edges whose run ends within k slots short of the horizon, and k = 0 none
_isasr_settings = st.builds(
    lambda eta_s, gamma, k: (eta_s, gamma, eta_s / k if k else math.inf),
    st.sampled_from([1.0, 10.0, 100.0]),
    st.sampled_from([0.0, 0.5, 1.0, 10.0]),
    st.sampled_from([0.0, 1.0, 2.0, 4.0]),
)


def gappy_series(slots):
    per_slot = [{p: 0.75 * (k + 1) for p, k in zip(_PAIRS, draws) if k < 8} for draws in slots]
    return series_from_edges(per_slot, num_satellites=5, ground_stations=_STATIONS)


class TestIsasrReference:
    """ISASR against a reference that prices every edge one by one."""

    @given(_gappy_slots, _isasr_settings)
    @settings(max_examples=300, deadline=None)
    def test_matches_per_edge_reference(self, slots, values):
        series = gappy_series(slots)
        got = slot_routes(isasr(series, 5, 6, *values))
        assert got == reference_isasr(series, 5, 6, *values)

    @given(_gappy_slots, _isasr_settings)
    @settings(max_examples=150, deadline=None)
    def test_never_routes_over_a_pruned_edge(self, slots, values):
        series = gappy_series(slots)
        eta_s, _, cost_thrsh = values
        n = series.num_slots
        for slot, route in enumerate(slot_routes(isasr(series, 5, 6, *values)), start=1):
            for edge in edge_pairs(route) if route else ():
                last = reference_run_last(series, edge, slot)
                cost_st = 0.0 if last == n else eta_s / (last - slot + 1.0)
                assert max(edge) >= 5 or cost_st < cost_thrsh, (slot, edge)


def assert_same_schedule(got: RoutingSchedule, want: RoutingSchedule):
    assert got.route_table == want.route_table
    assert got.index.tobytes() == want.index.tobytes()
    assert got.delay_ms.tobytes() == want.delay_ms.tobytes()


# station links always present, a third of the satellite pairs absent in a slot
# (draws 8..11): routes live a few slots, so a low and a high setup delay often
# pick at different slots
_alpr_slots = st.lists(
    st.tuples(*(st.integers(0, 7 if max(p) >= 5 else 11) for p in _PAIRS)),
    min_size=3, max_size=10,
)
_eta_lists = st.lists(st.sampled_from([0.01, 1.0, 10.0, 100.0, 10000.0]),
                      min_size=2, max_size=4, unique=True)


class TestAlprSharedCandidates:
    """A series computes each decision slot's ALPR candidates once: every run on a
    shared series equals the run on a fresh one, in any cell order."""

    @pytest.mark.parametrize("before", [(), ("isasr",), ("ilsr", "isasr")])
    @pytest.mark.parametrize("etas", [(1.0, 10.0, 100.0, 1000.0), (1000.0, 100.0, 10.0, 1.0)])
    def test_shared_series_matches_fresh_series(self, etas, before):
        def build():
            rng = np.random.default_rng(5)
            return random_series(rng, num_nodes=9, num_slots=16, edge_prob=0.35)

        shared = build()
        for name in before:
            run_algorithm(name, shared, 0, 8, etas[0], cost_thrsh_ms=100.0)
        fresh = {eta: alpr(build(), 0, 8, eta) for eta in etas}
        assert len({tuple(decision_slots(s)) for s in fresh.values()}) > 1
        for eta in etas:
            assert_same_schedule(alpr(shared, 0, 8, eta), fresh[eta])
        want = set().union(*map(decision_slots, fresh.values()))
        assert sorted(k for k in shared._memo if k[0] == "alpr") == [
            ("alpr", slot, 0, 8) for slot in sorted(want)]

    @given(_alpr_slots, _eta_lists, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_any_eta_order_matches_fresh_series(self, slots, etas, isasr_first):
        fresh = {eta: alpr(gappy_series(slots), 5, 6, eta) for eta in etas}
        assume(len({tuple(decision_slots(s)) for s in fresh.values()}) > 1)
        shared = gappy_series(slots)
        if isasr_first:
            isasr(shared, 5, 6, etas[0], 1.0, math.inf)
        for eta in etas:
            assert_same_schedule(alpr(shared, 5, 6, eta), fresh[eta])
        want = set().union(*map(decision_slots, fresh.values()))
        assert sorted(k for k in shared._memo if k[0] == "alpr") == [
            ("alpr", slot, 5, 6) for slot in sorted(want)]


class TestSettingBlindSchedulesShared:
    """ILSR and ILPR read no setting, so a series computes each once per endpoint
    pair, whatever eta_s, gamma or threshold the later runs pass."""

    @pytest.mark.parametrize("name", ["ilsr", "ilpr"])
    def test_second_run_reuses_the_first(self, name, monkeypatch):
        import lislsim.routing as routing_mod

        calls = []
        real = getattr(routing_mod, name)

        def spy(series, src, dst):
            calls.append((src, dst))
            return real(series, src, dst)

        monkeypatch.setattr(routing_mod, name, spy)
        series = random_series(np.random.default_rng(11), num_nodes=8, num_slots=9)
        first = run_algorithm(name, series, 0, 7, 1.0)
        assert run_algorithm(name, series, 0, 7, 1000.0, gamma=3.0, cost_thrsh_ms=5.0) is first
        assert calls == [(0, 7)]
        assert run_algorithm(name, series, 7, 0, 1.0).source == 7
        assert calls == [(0, 7), (7, 0)]


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
        assert (series._runs is not None) == (name == "isasr")


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


def _wide_toy() -> SnapshotSeries:
    """The dominance toy series with its satellites relabelled 300..305 and
    its stations 400 (source) and 401 (destination), ids above one byte."""
    toy = dominance_toy_series()
    ids = np.array([300, 301, 302, 303, 304, 305, 400, 401])
    stations = tuple(GroundStation(400 + k, gs.name, gs.latitude_deg, gs.longitude_deg)
                     for k, gs in enumerate(toy.roster.ground_stations))
    slots = [(ids[snap.u], ids[snap.v], snap.delay_ms) for snap in toy.snapshots]
    return SnapshotSeries(toy.scenario, NodeRoster(400, stations), slots)


def test_every_positions_query_takes_the_column_dtype(monkeypatch):
    """A query key of another dtype makes ``searchsorted`` cast the slot's
    whole key column, so every lookup of the algorithms, the lifetimes and
    the oracle packs its keys as the column does."""
    series, src, dst = _wide_toy(), 400, 401
    assert series.keys.dtype == "<u4"
    queries = []
    search = Snapshot.positions

    def record(self, keys):
        queries.append((keys.dtype, self.keys.dtype))
        return search(self, keys)

    monkeypatch.setattr(Snapshot, "positions", record)
    series.run_last()
    schedules = [run_algorithm(name, series, src, dst, 10.0) for name in ALGORITHMS]
    routes = list(dict.fromkeys(r for schedule in schedules for r in schedule.route_table))
    optimum_schedule(series, src, dst, routes, route_delay_matrix(series, routes), 10.0)
    assert len(queries) > 50
    assert all(query == column for query, column in queries), set(queries)
