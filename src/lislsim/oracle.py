"""Exact optimum for the route-selection problem on an explicit route set.

The problem: given a K x N delay matrix (route x slot, +inf where a route
does not exist), pick one route per slot minimizing total delay plus a
fixed setup penalty charged at every boundary where the selection changes.
``dp_optimal`` solves it exactly by dynamic programming over (slot, route)
states and returns each slot's route row. ``route_delay_matrix`` builds the
matrix of given routes on a series, and ``optimum_schedule`` returns the
optimum as a :class:`~lislsim.routing.RoutingSchedule`, which
``metrics.evaluate`` costs like any algorithm's.
"""

from __future__ import annotations

import numpy as np

from .routing import Route, RoutingSchedule
from .topology import SnapshotSeries


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


def dp_optimal(d: np.ndarray, eta_s_ms: float) -> np.ndarray:
    """Each slot's route row (int64) in a minimum-cost selection.

    Recurrence over slots: staying on the same route is free, switching
    from the best previous route costs eta_s. The first slot carries no
    setup penalty. Ties in the backtrack prefer staying on the current
    route, which minimizes switches among cost-equal optima.
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
    return rows


def route_delay_matrix(series: SnapshotSeries, routes: list[Route]) -> np.ndarray:
    """Route x slot delays (ms) by ``Snapshot.route_delay``, +inf where a route is broken.

    Each slot finds every route's hop keys with one ``positions`` call. The
    routes are grouped by hop count, and each group's (routes x hops)
    delays are summed along axis 1, a row at a time as ``np.sum`` sums one
    route, so every entry is bit-equal to ``route_delay``'s.
    """
    d = np.full((len(routes), series.num_slots), np.inf)
    by_hops: dict[int, list[int]] = {}
    for r, route in enumerate(routes):
        by_hops.setdefault(route.hops, []).append(r)
    groups = [(np.array(rows), np.stack([routes[r].keys for r in rows]))
              for rows in by_hops.values()]
    if not groups:
        return d
    keys = np.concatenate([group_keys.ravel() for _, group_keys in groups])
    for i, snap in enumerate(series.snapshots):
        pos, start = snap.positions(keys), 0
        for rows, group_keys in groups:
            group_pos = pos[start:start + group_keys.size].reshape(group_keys.shape)
            start += group_keys.size
            whole = (group_pos >= 0).all(axis=1)
            d[rows[whole], i] = snap.delay_ms[group_pos[whole]].sum(axis=1)
    return d


def optimum_schedule(
    series: SnapshotSeries, src: int, dst: int, routes: list[Route], d: np.ndarray,
    eta_s_ms: float,
) -> RoutingSchedule:
    """The least-cost selection among ``routes`` (delays ``d``) as a schedule.

    Slots that no route reaches stay unreachable, and the DP runs on each
    stretch between them on its own: ``metrics.evaluate`` charges no switch
    across an unreachable slot, so the optimum must not either.
    """
    chosen: list[Route | None] = [None] * d.shape[1]
    covered = np.concatenate(([0], np.isfinite(d).any(axis=0), [0])).astype(np.int8)
    bounds = np.flatnonzero(np.diff(covered))
    for start, stop in zip(bounds[::2], bounds[1::2]):
        chosen[start:stop] = [routes[row] for row in dp_optimal(d[:, start:stop], eta_s_ms)]
    return RoutingSchedule("optimum", src, dst, chosen, series)
