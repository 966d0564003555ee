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

All of them search through ``dijkstra``, which checks its arguments and calls
``kernels.shortest_route`` once; ties always resolve to the lexicographically
smallest vertex sequence, which makes schedules reproducible and lets the
reduction ``isasr(gamma=0, cost_thrsh=inf) == ilsr`` hold exactly. Each
returns a :class:`RoutingSchedule`, which computes every slot's route delay
once; metrics and the schedule file read those delays.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .config import ALGORITHMS, check_routing_values, resolve_gamma
from .metrics import slot_order_sum
from .topology import MAX_NODES, MissingEdgeError, Snapshot, SnapshotSeries, pack_keys


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

    @cached_property
    def keys(self) -> np.ndarray:
        """Packed key of each hop's edge, in hop order, as ``pack_keys`` packs
        them; ValueError for a node outside the 16-bit ids."""
        if min(self.nodes) < 0 or max(self.nodes) >= MAX_NODES:
            raise ValueError(f"route {self} leaves the node ids 0..{MAX_NODES - 1}")
        a, b = np.array(self.nodes[:-1]), np.array(self.nodes[1:])
        return pack_keys(np.minimum(a, b), np.maximum(a, b))

    def __str__(self):
        return "-".join(str(n) for n in self.nodes)


@dataclass(eq=False)
class RoutingSchedule:
    """One algorithm's routes: a table, a per-slot index into it, and delays.

    ``route_table`` lists the distinct routes in first-use order; ``index``
    (int32) is each slot's row, -1 where unreachable; ``delay_ms`` (float64)
    is that route's ``Snapshot.route_delay``, NaN where unreachable. Built from
    one Route or None per slot; a route broken in its slot raises MissingEdgeError.
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
                raise MissingEdgeError(f"schedule route at slot {i + 1} uses a missing edge")
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
    if not (costs > 0).all():  # NaN fails too
        raise ValueError("edge costs must be positive (use +inf to disable an edge)")
    return costs


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
    nodes = kernels.shortest_route(snapshot.csr(), snapshot.u, snapshot.v,
                                   _edge_costs(snapshot, cost_override), src, dst,
                                   snapshot.num_satellites)
    return Route(nodes) if nodes else None


def ilsr(series: SnapshotSeries, src: int, dst: int) -> RoutingSchedule:
    """Benchmark: per-slot shortest route on instantaneous delays."""
    routes = [dijkstra(snap, src, dst) for snap in series.snapshots]
    return RoutingSchedule("ilsr", src, dst, routes, series)


def ilpr(series: SnapshotSeries, src: int, dst: int) -> RoutingSchedule:
    """Keep the shortest route until one of its edges disappears."""

    def pick(snap: Snapshot):
        route = dijkstra(snap, src, dst)
        return route, [] if route is None else run_delays(route, series, snap.slot)

    return RoutingSchedule("ilpr", src, dst, _held_routes(series, pick), series)


def disjoint_routes(snapshot: Snapshot, src: int, dst: int) -> list[Route]:
    """Edge-disjoint routes by successive shortest-path extraction.

    Runs Dijkstra, removes the found route's edges, and repeats up to
    min(deg(src), deg(dst)) times or until the pair disconnects.
    """
    down_ptr, _, up_ptr = snapshot.csr()
    deg = np.diff(down_ptr) + np.diff(up_ptr)  # a degree fits the pointers' width
    bound = int(min(deg[src], deg[dst]))
    found: list[Route] = []
    costs = snapshot.delay_ms.copy()
    for _ in range(bound):
        route = dijkstra(snapshot, src, dst, cost_override=costs)
        if route is None:
            break
        found.append(route)
        costs[snapshot.positions(route.keys)] = np.inf
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

    ``pick`` returns a route and its ``run_delays``, or None and []. It picks
    again at the slot the held route breaks in, and at the slot after one
    where it returned None (that slot stays unreachable)."""
    routes: list[Route | None] = [None] * series.num_slots
    slot = 1
    while slot <= series.num_slots:
        route, delays = pick(series.snapshot(slot))
        held = len(delays) or 1
        routes[slot - 1:slot - 1 + held] = [route] * held
        slot += held
    return routes


def alpr_average_latency(delays, eta_s_ms: float) -> float:
    """Lifetime-averaged end-to-end latency including one setup penalty.

    (eta_s + sum of a route's per-slot delays through its expiry) divided by
    the number of slots it survives.
    """
    return slot_order_sum([eta_s_ms, *delays]) / len(delays)


def alpr(series: SnapshotSeries, src: int, dst: int, eta_s_ms: float) -> RoutingSchedule:
    """Hold the disjoint route with the least lifetime-averaged latency.

    The candidates are the decision slot's edge-disjoint routes, each with its
    ``run_delays``. They do not depend on eta_s, so a series computes a slot's
    candidates once (``SnapshotSeries.memo``). Score ties prefer fewer hops,
    then the smaller vertex sequence.
    """
    check_routing_values(eta_s_ms=(eta_s_ms,))

    def pick(snap: Snapshot):
        candidates = series.memo(("alpr", snap.slot, src, dst), lambda: [
            (r, run_delays(r, series, snap.slot)) for r in disjoint_routes(snap, src, dst)])
        return min(
            candidates,
            key=lambda c: (alpr_average_latency(c[1], eta_s_ms), c[0].hops, c[0].nodes),
            default=(None, []),
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
    gamma: float | None,
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
    while it still exists leaves its edges at 0. ``gamma=None`` means
    gamma = eta_s.
    """
    check_routing_values(eta_s_ms=(eta_s_ms,), gamma_ms=(gamma,), cost_thrsh_ms=cost_thrsh_ms)
    gamma = resolve_gamma(gamma, eta_s_ms)
    n = series.num_slots
    idle: set[int] = set()  # keys of the edges whose activeness cost is 0
    routes: list[Route | None] = []
    for snap in series.snapshots:
        cost_st = isasr_stability_cost(snap.run_last, snap.slot, n, eta_s_ms)
        cost_act = np.full(snap.edge_count, eta_s_ms, np.float64)
        pos = snap.positions(np.fromiter(idle, snap.keys.dtype, len(idle)))
        cost_act[pos[pos >= 0]] = 0.0
        costs = snap.delay_ms + gamma * (cost_st + cost_act)
        sat_sat = snap.v < snap.num_satellites  # u < v, so u is a satellite too
        costs[sat_sat & (cost_st >= cost_thrsh_ms)] = np.inf
        route = dijkstra(snap, src, dst, cost_override=costs)
        routes.append(route)
        if route is None:
            continue
        keys = route.keys
        edges = set(keys.tolist())
        breaks = snap.run_last[snap.positions(keys)].min() == snap.slot
        idle = idle - edges if breaks else idle | edges
    return RoutingSchedule("isasr", src, dst, routes, series)


def run_algorithm(
    name: str,
    series: SnapshotSeries,
    src: int,
    dst: int,
    eta_s_ms: float,
    gamma: float | None = None,
    cost_thrsh_ms: float = math.inf,
) -> RoutingSchedule:
    """Dispatch one algorithm by name (``isasr`` reads gamma=None as eta_s). ILSR and
    ILPR read no setting, so a series computes each once per endpoint pair."""
    if name == "ilsr":
        return series.memo((name, src, dst), lambda: ilsr(series, src, dst))
    if name == "ilpr":
        return series.memo((name, src, dst), lambda: ilpr(series, src, dst))
    if name == "alpr":
        return alpr(series, src, dst, eta_s_ms)
    if name == "isasr":
        return isasr(series, src, dst, eta_s_ms, gamma, cost_thrsh_ms)
    raise ValueError(f"unknown algorithm {name!r} (expected one of {ALGORITHMS})")
