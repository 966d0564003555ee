"""Routing algorithms over snapshot series.

Four schedule producers with different latency/setup-penalty trade-offs:

* ``ilsr``  -- shortest route recomputed independently at every slot.
* ``ilpr``  -- hold the shortest route until one of its edges disappears.
* ``alpr``  -- hold the edge-disjoint route with the least lifetime-averaged
  latency (setup penalty included) until it expires.
* ``isasr`` -- per-slot shortest route on costs inflated by edge stability
  and activeness terms, with unstable satellite edges pruned; the only
  reader of the series' edge lifetimes.

ILPR and ALPR share one hold loop and differ only in how they pick a route.

All of them share one deterministic Dijkstra core; ties always resolve to
the lexicographically smallest vertex sequence, which makes schedules
reproducible and lets the reduction ``isasr(gamma=0, cost_thrsh=inf) == ilsr``
hold exactly. Each returns a :class:`RoutingSchedule`, which computes every
slot's route delay once; metrics and the schedule file read those delays.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

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


@dataclass(eq=False)
class RoutingSchedule:
    """One algorithm's routes: a table, a per-slot index into it, and delays.

    ``route_table`` lists the distinct routes in first-use order; ``index``
    (int32) is each slot's row, -1 where unreachable; ``delay_ms`` (float64)
    is that route's ``Snapshot.route_delay``, NaN where unreachable. Built
    from one Route or None per slot; a route broken in its slot raises ValueError.
    """

    algorithm: str
    source: int
    destination: int
    routes: InitVar[list[Route | None]]
    series: InitVar[SnapshotSeries]
    route_table: tuple[Route, ...] = field(init=False)
    index: np.ndarray = field(init=False)
    delay_ms: np.ndarray = field(init=False)

    def __post_init__(self, routes, series):
        rows: dict[Route, int] = {}
        self.index = np.full(len(routes), -1, np.int32)
        self.delay_ms = np.full(len(routes), np.nan)
        for i, route in enumerate(routes):
            if route is None:
                continue
            delay = series.snapshot(i + 1).route_delay(route)
            if delay is None:
                raise ValueError(f"schedule route at slot {i + 1} uses a missing edge")
            self.index[i] = rows.setdefault(route, len(rows))
            self.delay_ms[i] = delay
        self.route_table = tuple(rows)

    @property
    def num_slots(self) -> int:
        return self.index.size

    def switch_flags(self) -> np.ndarray:
        """Per boundary (i, i+1): True iff both slots are reachable and their routes differ."""
        a, b = self.index[:-1], self.index[1:]
        return (a >= 0) & (b >= 0) & (a != b)

    def unreachable_slots(self) -> list[int]:
        return (np.flatnonzero(self.index < 0) + 1).tolist()


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
    return RoutingSchedule("ilsr", src, dst, routes, series)


def ilpr(series: SnapshotSeries, src: int, dst: int) -> RoutingSchedule:
    """Keep the shortest route until one of its edges disappears."""
    routes = _held_routes(series, lambda snap: dijkstra(snap, src, dst))
    return RoutingSchedule("ilpr", src, dst, routes, series)


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


def run_delays(route: Route, series: SnapshotSeries, slot: int) -> list[float]:
    """The route's delay at `slot` and each later slot, up to the first slot it is
    broken in; ValueError when that is `slot` itself."""
    delays = []
    for snap in series.snapshots[slot - 1:]:
        delay = snap.route_delay(route)
        if delay is None:
            break
        delays.append(delay)
    if not delays:
        raise ValueError(f"route {route} uses an edge absent from slot {slot}")
    return delays


def _held_routes(series: SnapshotSeries, pick) -> list[Route | None]:
    """Each slot's route when ``pick(snapshot)`` is held until one of its edges breaks.

    ``pick`` decides again at the slot the held route breaks in, and at the
    slot after one where it returned None (that slot stays unreachable)."""
    routes: list[Route | None] = [None] * series.num_slots
    slot = 1
    while slot <= series.num_slots:
        route = pick(series.snapshot(slot))
        held = 1 if route is None else len(run_delays(route, series, slot))
        routes[slot - 1:slot - 1 + held] = [route] * held
        slot += held
    return routes


def alpr_average_latency(route: Route, series: SnapshotSeries, slot: int, eta_s_ms: float) -> float:
    """Lifetime-averaged end-to-end latency including one setup penalty.

    (eta_s + sum of the route's per-slot delays from `slot` through its
    expiry) divided by the number of slots it survives.
    """
    delays = run_delays(route, series, slot)
    total = eta_s_ms
    for delay in delays:  # in slot order, so the sum is reproducible
        total += delay
    return total / len(delays)


def alpr(series: SnapshotSeries, src: int, dst: int, eta_s_ms: float) -> RoutingSchedule:
    """Hold the disjoint route with the least lifetime-averaged latency.

    The candidates are the decision slot's edge-disjoint routes. Score ties
    prefer fewer hops, then the smaller vertex sequence.
    """

    def pick(snap: Snapshot) -> Route | None:
        return min(
            disjoint_routes(snap, src, dst),
            key=lambda r: (alpr_average_latency(r, series, snap.slot, eta_s_ms), r.hops, r.nodes),
            default=None,
        )

    return RoutingSchedule("alpr", src, dst, _held_routes(series, pick), series)


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
) -> RoutingSchedule:
    """Per-slot shortest route on stability/activeness-modified costs.

    Each slot: satellite-satellite edges whose stability cost reaches
    ``cost_thrsh_ms`` are dropped (ground links always stay); remaining edge
    costs become ``delay + gamma * (cost_st + cost_act)``; Dijkstra picks the
    route. Reported per-slot delays always use the original snapshot delays,
    never the modified costs.

    Every edge's activeness cost starts at ``eta_s``. After each slot the
    chosen route's edges get 0, or ``eta_s`` again when the route breaks
    there (one of its edges is absent from the next slot). A route abandoned
    while it still exists leaves its edges at 0.
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    if cost_thrsh_ms <= 0:
        raise ValueError("cost threshold must be positive")
    n = series.num_slots
    uid, _ = series.lifetimes()
    cost_act = np.full(uid.max(initial=-1) + 1, eta_s_ms, dtype=np.float64)
    routes: list[Route | None] = []
    for slot in range(1, n + 1):
        snap = series.snapshot(slot)
        uids = snap.uids
        cost_st = isasr_stability_cost(snap.run_last, slot, n, eta_s_ms)
        costs = snap.delay_ms + gamma * (cost_st + cost_act[uids])
        sat_sat = (snap.u < snap.num_satellites) & (snap.v < snap.num_satellites)
        costs[sat_sat & (cost_st >= cost_thrsh_ms)] = np.inf
        route = dijkstra(snap, src, dst, cost_override=costs)
        routes.append(route)
        if route is None:
            continue
        pos = snap.edge_positions(route.canonical_edges)
        break_point = int(snap.run_last[pos].min())
        cost_act[uids[pos]] = 0.0 if slot != break_point else eta_s_ms
    return RoutingSchedule("isasr", src, dst, routes, series)


ALGORITHMS = ("ilsr", "ilpr", "alpr", "isasr")
# Their schedules depend on the series and endpoints only, not on eta_s,
# gamma or the ISASR settings, so one run serves every setup-delay value.
ETA_BLIND_ALGORITHMS = ("ilsr", "ilpr")
# It reads the series' edge lifetimes, which the series builds once.
LIFETIME_ALGORITHMS = ("isasr",)


def run_algorithm(
    name: str,
    series: SnapshotSeries,
    src: int,
    dst: int,
    eta_s_ms: float,
    gamma: float | None = None,
    cost_thrsh_ms: float = math.inf,
) -> RoutingSchedule:
    """Dispatch one algorithm by name (gamma=None means gamma = eta_s)."""
    if name == "ilsr":
        return ilsr(series, src, dst)
    if name == "ilpr":
        return ilpr(series, src, dst)
    if name == "alpr":
        return alpr(series, src, dst, eta_s_ms)
    if name == "isasr":
        gamma = eta_s_ms if gamma is None else gamma
        return isasr(series, src, dst, eta_s_ms, gamma, cost_thrsh_ms)
    raise ValueError(f"unknown algorithm {name!r} (expected one of {ALGORITHMS})")
