"""Exact optimum for the route-selection problem on an explicit route set.

The problem: given a K x N delay matrix (route x slot, +inf where a route
does not exist), pick one route per slot minimizing total delay plus a
fixed setup penalty charged at every boundary where the selection changes.
``dp_optimal`` solves it exactly by dynamic programming over (slot, route)
states; ``brute_force_optimal`` enumerates assignments as an independent
cross-check. ``enumerate_routes`` builds delay matrices from small snapshot
series by hop-bounded simple-path enumeration.
"""

from __future__ import annotations

import itertools

import numpy as np

from .metrics import slot_order_sum
from .routing import Route
from .topology import SnapshotSeries


# Most assignments ``brute_force_optimal`` enumerates (routes ** slots).
BRUTE_FORCE_CAP = 10_000_000


class OracleSizeError(ValueError):
    """Instance exceeds the enumeration caps."""


class InfeasibleSlotError(ValueError):
    """A slot has no existing route at all."""


def validate_delay_matrix(d: np.ndarray) -> np.ndarray:
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.size == 0:
        raise ValueError("delay matrix must be a non-empty 2-D array")
    if np.any(np.isnan(d)) or np.any(d[np.isfinite(d)] < 0):
        raise ValueError("delays must be non-negative or +inf")
    finite_per_slot = np.isfinite(d).any(axis=0)
    if not finite_per_slot.all():
        slot = int(np.argmin(finite_per_slot)) + 1
        raise InfeasibleSlotError(f"no route exists at slot {slot}")
    return d


def validate_selection(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Check the one-active-route-per-slot contract and finiteness vs D."""
    s = np.asarray(s)
    if s.ndim != 2 or not np.isin(s, (0, 1)).all():
        raise ValueError("selection matrix must be binary and 2-D")
    if not (s.sum(axis=0) == 1).all():
        raise ValueError("each slot must have exactly one active route")
    if np.shape(d) != s.shape:
        raise ValueError("selection and delay matrices must have equal shape")
    if not np.isfinite(np.asarray(d, dtype=np.float64)[s.astype(bool)]).all():
        raise ValueError("selection activates a route at a slot where it does not exist")
    return s.astype(np.int8)


def _one_hot(rows: np.ndarray, num_routes: int) -> np.ndarray:
    s = np.zeros((num_routes, rows.size), dtype=np.int8)
    s[rows, np.arange(rows.size)] = 1
    return s


def selection_cost(s: np.ndarray, d: np.ndarray, eta_s_ms: float) -> float:
    """Total delay of the selected routes plus eta_s per route change (ms).

    Delays are summed with ``metrics.slot_order_sum``, then the penalty is
    added, so independently computed optima compare with zero tolerance.
    """
    d = np.asarray(d, dtype=np.float64)
    rows = np.argmax(validate_selection(s, d), axis=0)
    total = slot_order_sum(d[rows, np.arange(rows.size)])
    return total + eta_s_ms * int((rows[1:] != rows[:-1]).sum())


def dp_optimal(d: np.ndarray, eta_s_ms: float) -> tuple[np.ndarray, float]:
    """Exact minimum-cost selection matrix and its cost.

    Recurrence over slots: staying on the same route is free, switching
    from the best previous route costs eta_s. The first slot carries no
    setup penalty. Ties in the backtrack prefer staying on the current
    route, which minimizes switches among cost-equal optima. The returned
    cost is recomputed from the selection with ``selection_cost``.
    """
    d = validate_delay_matrix(d)
    if eta_s_ms < 0:
        raise ValueError("setup penalty cannot be negative")
    num_routes, num_slots = d.shape
    best = d[:, 0].copy()
    switched = np.zeros((num_routes, num_slots), dtype=bool)
    switch_target = np.zeros(num_slots, dtype=np.int64)
    for i in range(1, num_slots):
        prev_best_row = int(np.argmin(best))
        switch_cost = best[prev_best_row] + eta_s_ms
        take_switch = switch_cost < best  # strict: ties stay
        switched[:, i] = take_switch
        switch_target[i] = prev_best_row
        best = d[:, i] + np.where(take_switch, switch_cost, best)
    rows = np.empty(num_slots, dtype=np.int64)
    rows[-1] = int(np.argmin(best))
    for i in range(num_slots - 1, 0, -1):
        rows[i - 1] = switch_target[i] if switched[rows[i], i] else rows[i]
    s = _one_hot(rows, num_routes)
    return s, selection_cost(s, d, eta_s_ms)


def brute_force_optimal(
    d: np.ndarray, eta_s_ms: float, cap: int = BRUTE_FORCE_CAP
) -> tuple[np.ndarray, float]:
    """Exhaustive optimum over all feasible assignments (independent oracle).

    Enumerates the product of each slot's existing routes in chunks;
    refuses instances with K^N beyond `cap`. The returned cost is
    ``selection_cost`` of the winning selection.
    """
    d = validate_delay_matrix(d)
    if eta_s_ms < 0:
        raise ValueError("setup penalty cannot be negative")
    num_routes, num_slots = d.shape
    if num_routes ** num_slots > cap:
        raise OracleSizeError(
            f"{num_routes}^{num_slots} assignments exceed the cap of {cap}"
        )
    per_slot = [np.nonzero(np.isfinite(d[:, i]))[0] for i in range(num_slots)]
    best_rows: np.ndarray | None = None
    best_key: tuple[float, int] | None = None
    cols = np.arange(num_slots)
    chunk_iter = itertools.product(*per_slot)
    while True:
        chunk = list(itertools.islice(chunk_iter, 100_000))
        if not chunk:
            break
        rows = np.array(chunk, dtype=np.int64)
        delay_sum = d[rows, cols].sum(axis=1)
        switches = (rows[:, 1:] != rows[:, :-1]).sum(axis=1) if num_slots > 1 else np.zeros(len(chunk), dtype=np.int64)
        cost = delay_sum + eta_s_ms * switches
        k = int(np.argmin(cost))
        key = (float(cost[k]), int(switches[k]))
        if best_key is None or key < best_key:
            best_key = key
            best_rows = rows[k]
    assert best_rows is not None
    s = _one_hot(best_rows, num_routes)
    return s, selection_cost(s, d, eta_s_ms)


def enumerate_routes(
    series: SnapshotSeries,
    src: int,
    dst: int,
    hop_limit: int,
    max_routes: int = 200_000,
) -> tuple[list[Route], np.ndarray]:
    """All simple routes up to hop_limit edges existing in >= 1 slot, plus D.

    The search runs over the union graph of all slots; D[r][i] holds the
    route's delay at slot i or +inf where any edge is missing. Routes are
    returned in lexicographic vertex order. Ground stations other than
    src/dst are never traversed.
    """
    union_adj: dict[int, set[int]] = {}
    for snap in series.snapshots:
        for a, b in zip(snap.u, snap.v):
            union_adj.setdefault(int(a), set()).add(int(b))
            union_adj.setdefault(int(b), set()).add(int(a))
    allowed_gs = {src, dst}
    blocked = {
        gs.id for gs in series.roster.ground_stations if gs.id not in allowed_gs
    }

    found: list[Route] = []

    def extend(path: list[int], seen: set[int]) -> None:
        here = path[-1]
        if len(found) > max_routes:
            raise OracleSizeError(f"route enumeration exceeded {max_routes} routes")
        for nxt in sorted(union_adj.get(here, ())):
            if nxt in seen or nxt in blocked:
                continue
            if nxt == dst:
                found.append(Route(nodes=tuple(path) + (dst,)))
                continue
            if len(path) <= hop_limit - 1:
                path.append(nxt)
                seen.add(nxt)
                extend(path, seen)
                path.pop()
                seen.remove(nxt)

    if hop_limit >= 1:
        extend([src], {src})
    routes: list[Route] = []
    d_rows: list[np.ndarray] = []
    for route in found:
        row = np.array(
            [
                np.inf if (delay := snap.route_delay(route)) is None else delay
                for snap in series.snapshots
            ]
        )
        if np.isfinite(row).any():
            routes.append(route)
            d_rows.append(row)
    if not routes:
        raise ValueError("no routes exist between the endpoints")
    return routes, np.vstack(d_rows)


def random_delay_matrix(
    rng: np.random.Generator,
    max_routes: int = 4,
    max_slots: int = 6,
    delay_low_ms: float = 20.0,
    delay_high_ms: float = 40.0,
    inf_fraction: float = 0.2,
) -> np.ndarray:
    """Random feasible instance for oracle cross-checks.

    Delays land on a 1/4096 lattice of the [low, high] span so that every
    partial sum is exact in binary floating point: independently computed
    costs (DP accumulation vs enumeration sums) then compare with zero
    tolerance. Columns that come out infeasible get one entry restored.
    """
    k = int(rng.integers(1, max_routes + 1))
    n = int(rng.integers(1, max_slots + 1))
    steps = rng.integers(0, 4097, size=(k, n)).astype(np.float64)
    d = delay_low_ms + steps * ((delay_high_ms - delay_low_ms) / 4096.0)
    mask = rng.random(size=(k, n)) < inf_fraction
    d[mask] = np.inf
    for col in range(n):
        if not np.isfinite(d[:, col]).any():
            row = int(rng.integers(0, k))
            d[row, col] = delay_low_ms + float(rng.integers(0, 4097)) * (
                (delay_high_ms - delay_low_ms) / 4096.0
            )
    return d
