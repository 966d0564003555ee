"""Routing algorithms over snapshot series.

Four schedule producers with different latency/setup-penalty trade-offs:

* ``ilsr``  -- shortest route recomputed independently at every slot.
* ``ilpr``  -- keep the current route while all of its edges survive.
* ``alpr``  -- pick the edge-disjoint route with the least lifetime-averaged
  latency (setup penalty included) and hold it until it expires.
* ``isasr`` -- per-slot shortest route on costs inflated by edge stability
  and activeness terms, with unstable satellite edges pruned.

All of them share one deterministic Dijkstra core; ties always resolve to
the lexicographically smallest vertex sequence, which makes schedules
reproducible and lets the reduction ``isasr(gamma=0, cost_thrsh=inf) == ilsr``
hold exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .topology import Snapshot, SnapshotSeries


@dataclass(frozen=True)
class Route:
    """Simple path from a source to a destination, as a vertex sequence."""

    nodes: tuple[int, ...]

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ValueError("a route needs at least two nodes")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("routes must be simple paths (no repeated vertex)")

    @property
    def hops(self) -> int:
        return len(self.nodes) - 1

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.nodes[:-1], self.nodes[1:]))

    @property
    def canonical_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((min(a, b), max(a, b)) for a, b in self.edges)

    def __str__(self):
        return "-".join(str(n) for n in self.nodes)


@dataclass
class RoutingSchedule:
    """Active route per slot (None marks an unreachable slot)."""

    algorithm: str
    source: int
    destination: int
    routes: list[Route | None]
    eta_s_ms: float | None = None

    @property
    def num_slots(self) -> int:
        return len(self.routes)

    def switch_flags(self) -> np.ndarray:
        """Per boundary (i, i+1): True iff both slots have routes that differ.

        Boundaries adjacent to unreachable slots never count as switches;
        the reachability gap is reported separately via unreachable_slots().
        """
        flags = np.zeros(max(self.num_slots - 1, 0), dtype=bool)
        for i in range(self.num_slots - 1):
            a, b = self.routes[i], self.routes[i + 1]
            flags[i] = a is not None and b is not None and a.nodes != b.nodes
        return flags

    def unreachable_slots(self) -> list[int]:
        return [i + 1 for i, r in enumerate(self.routes) if r is None]


def _edge_costs(snapshot: Snapshot, cost_override) -> np.ndarray:
    """Resolve the per-edge cost array, validating positivity."""
    if cost_override is None:
        return snapshot.delay_ms
    costs = np.asarray(cost_override, dtype=np.float64)
    if costs.shape != snapshot.delay_ms.shape:
        raise ValueError("cost override array must align with snapshot edges")
    if np.any(np.isnan(costs)) or np.any(costs <= 0):
        raise ValueError("edge costs must be positive (use +inf to disable an edge)")
    return costs


def _foreign_ground_mask(snapshot: Snapshot, src: int, dst: int) -> np.ndarray | None:
    """Edges touching a ground station other than src/dst (relay forbidden)."""
    first_gs = snapshot.num_satellites
    if first_gs >= snapshot.num_nodes:
        return None
    # canonical edges have u < v and no ground-to-ground edge, so only v
    # can be a ground station
    v = snapshot.v
    mask = (v >= first_gs) & (v != src) & (v != dst)
    return mask if mask.any() else None


def dijkstra(snapshot: Snapshot, src: int, dst: int, cost_override=None) -> Route | None:
    """Minimum-cost route in one snapshot, or None when unreachable.

    ``cost_override`` is an array aligned with the snapshot's edge order;
    +inf disables an edge.
    Among equal-cost routes the lexicographically smallest vertex sequence
    (by node id) wins. Ground stations other than src/dst never relay.
    """
    if src == dst:
        raise ValueError("source and destination must differ")
    for node in (src, dst):
        if not 0 <= node < snapshot.num_nodes:
            raise ValueError(f"node {node} outside the id range")
    costs = _edge_costs(snapshot, cost_override)
    mask = _foreign_ground_mask(snapshot, src, dst)
    if mask is not None:
        costs = costs.copy()
        costs[mask] = np.inf
    indptr, nbr, arc_eid = snapshot.csr()
    path = kernels.shortest_route(indptr, nbr, costs[arc_eid], src, dst)
    if path.size == 0:
        return None
    return Route(nodes=tuple(int(n) for n in path))


def ilsr(series: SnapshotSeries, src: int, dst: int) -> RoutingSchedule:
    """Benchmark: per-slot shortest route on instantaneous delays."""
    routes = [dijkstra(snap, src, dst) for snap in series.snapshots]
    return RoutingSchedule("ilsr", src, dst, routes)


def ilpr(series: SnapshotSeries, src: int, dst: int) -> RoutingSchedule:
    """Keep the active route until one of its edges disappears."""
    routes: list[Route | None] = []
    current: Route | None = None
    for snap in series.snapshots:
        if current is not None and snap.contains_route(current):
            routes.append(current)
            continue
        current = dijkstra(snap, src, dst)
        routes.append(current)
    return RoutingSchedule("ilpr", src, dst, routes)


def disjoint_routes(snapshot: Snapshot, src: int, dst: int) -> list[Route]:
    """Edge-disjoint routes by successive shortest-path extraction.

    Runs Dijkstra, removes the found route's edges, and repeats up to
    min(deg(src), deg(dst)) times or until the pair disconnects.
    """
    indptr, _, _ = snapshot.csr()
    deg = np.diff(indptr)
    bound = int(min(deg[src], deg[dst]))
    found: list[Route] = []
    costs = snapshot.delay_ms.copy()
    for _ in range(bound):
        route = dijkstra(snapshot, src, dst, cost_override=costs)
        if route is None:
            break
        found.append(route)
        pos = snapshot.edge_positions(route.canonical_edges)
        costs[pos] = np.inf
    return found


def route_lifetime(route: Route, snapshot: Snapshot) -> int:
    """Last slot the route survives: min over its edges of the containing run end."""
    pos = snapshot.edge_positions(route.canonical_edges)
    if np.any(pos < 0):
        raise ValueError(f"route {route} uses an edge absent from slot {snapshot.slot}")
    return int(snapshot.run_last[pos].min())


def alpr_average_latency(route: Route, series: SnapshotSeries, slot: int, eta_s_ms: float) -> float:
    """Lifetime-averaged end-to-end latency including one setup penalty.

    (eta_s + sum of the route's per-slot delays from `slot` through its
    expiry) divided by the number of slots it survives.
    """
    last = route_lifetime(route, series.snapshot(slot))
    total = eta_s_ms
    for k in range(slot, last + 1):
        delay = series.snapshot(k).route_delay(route)
        if delay is None:  # cannot happen: lifetime is the min over edge runs
            raise AssertionError("route vanished inside its lifetime")
        total += delay
    return total / (last - slot + 1)


def alpr(series: SnapshotSeries, src: int, dst: int, eta_s_ms: float) -> RoutingSchedule:
    """Hold the disjoint route with the least lifetime-averaged latency.

    At each decision slot the candidate set is the edge-disjoint routes of
    that snapshot; the winner stays active until it expires, then a new
    decision is made. Score ties prefer fewer hops, then the smaller vertex
    sequence.
    """
    routes: list[Route | None] = [None] * series.num_slots
    slot = 1
    while slot <= series.num_slots:
        snap = series.snapshot(slot)
        candidates = disjoint_routes(snap, src, dst)
        if not candidates:
            slot += 1
            continue
        best = min(
            candidates,
            key=lambda r: (alpr_average_latency(r, series, slot, eta_s_ms), r.hops, r.nodes),
        )
        last = route_lifetime(best, snap)
        for k in range(slot, last + 1):
            routes[k - 1] = best
        slot = last + 1
    return RoutingSchedule("alpr", src, dst, routes, eta_s_ms=eta_s_ms)


def isasr_stability_cost(
    run_last: np.ndarray, slot: int, num_slots: int, eta_s_ms: float
) -> np.ndarray:
    """Stability cost of edges present at `slot` whose runs end at `run_last`.

    0 where the run reaches the horizon, else eta_s spread over the slots
    the run has left.
    """
    if not 1 <= slot <= num_slots:
        raise ValueError(f"slot {slot} outside 1..{num_slots}")
    last = np.asarray(run_last).astype(np.float64)
    return np.where(last == num_slots, 0.0, eta_s_ms / (last - slot + 1.0))


def isasr(
    series: SnapshotSeries,
    src: int,
    dst: int,
    eta_s_ms: float,
    gamma: float,
    cost_thrsh_ms: float,
    reset_dropped_edges: bool = False,
    global_lifetimes: bool = False,
) -> RoutingSchedule:
    """Per-slot shortest route on stability/activeness-modified costs.

    Each slot: satellite-satellite edges whose stability cost reaches
    ``cost_thrsh_ms`` are dropped (ground links always stay); remaining edge
    costs become ``delay + gamma * (cost_st + cost_act)``; Dijkstra picks the
    route; edges of the active route get ``cost_act = 0`` until the slot the
    route breaks, when they revert to ``eta_s``. Reported per-slot delays
    always use the original snapshot delays, never the modified costs.

    ``global_lifetimes`` switches the stability term from per-run expiry to
    the edge's last appearance anywhere in the series.
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    if cost_thrsh_ms <= 0:
        raise ValueError("cost threshold must be positive")
    n = series.num_slots
    cost_act = np.full(series.global_last.size, eta_s_ms, dtype=np.float64)
    routes: list[Route | None] = []
    previous_uids: np.ndarray | None = None
    for slot in range(1, n + 1):
        snap = series.snapshot(slot)
        uids = snap.uids
        last = series.global_last[uids] if global_lifetimes else snap.run_last
        cost_st = isasr_stability_cost(last, slot, n, eta_s_ms)
        costs = snap.delay_ms + gamma * (cost_st + cost_act[uids])
        sat_sat = (snap.u < snap.num_satellites) & (snap.v < snap.num_satellites)
        costs[sat_sat & (cost_st >= cost_thrsh_ms)] = np.inf
        route = dijkstra(snap, src, dst, cost_override=costs)
        routes.append(route)
        if route is None:
            previous_uids = None
            continue
        route_uids = uids[snap.edge_positions(route.canonical_edges)]
        break_point = route_lifetime(route, snap)
        cost_act[route_uids] = 0.0 if slot != break_point else eta_s_ms
        if reset_dropped_edges and previous_uids is not None:
            cost_act[np.setdiff1d(previous_uids, route_uids)] = eta_s_ms
        previous_uids = route_uids
    return RoutingSchedule("isasr", src, dst, routes, eta_s_ms=eta_s_ms)


ALGORITHMS = ("ilsr", "ilpr", "alpr", "isasr")
# Their schedules depend on the series and endpoints only, not on eta_s,
# gamma or the ISASR settings, so one run serves every setup-delay value.
ETA_BLIND_ALGORITHMS = ("ilsr", "ilpr")


def run_algorithm(
    name: str,
    series: SnapshotSeries,
    src: int,
    dst: int,
    eta_s_ms: float,
    gamma: float | None = None,
    cost_thrsh_ms: float = math.inf,
    reset_dropped_edges: bool = False,
    global_lifetimes: bool = False,
) -> RoutingSchedule:
    """Dispatch one algorithm by name (gamma=None means gamma = eta_s)."""
    if name == "ilsr":
        return ilsr(series, src, dst)
    if name == "ilpr":
        return ilpr(series, src, dst)
    if name == "alpr":
        return alpr(series, src, dst, eta_s_ms)
    if name == "isasr":
        return isasr(
            series, src, dst, eta_s_ms,
            eta_s_ms if gamma is None else gamma,
            cost_thrsh_ms,
            reset_dropped_edges=reset_dropped_edges,
            global_lifetimes=global_lifetimes,
        )
    raise ValueError(f"unknown algorithm {name!r} (expected one of {ALGORITHMS})")
