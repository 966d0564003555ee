"""Hot numerical kernels: range-gated pair extraction and shortest routes over CSR halves.

``pairs_in_range`` is the one range gate: it keeps the candidate pairs of
a list within a range. ``pair_edges`` finds the point pairs in range on a
cell grid and gates its candidates with it, so any candidate list that holds
every pair in range gates to exactly ``pair_edges``' pairs and squared
distances.

Pure numpy / heapq. The kernels stay a module of their own so that the
benchmark harness (``perfbench/``) can time each of them by name.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

import numpy as np


# Packed-key offsets of a cell and the 13 neighbours after it in (x, y, z)
# order; cell coordinates take 21 bits each, see ``pair_edges``.
_HALF_SHELL = tuple(
    key
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (key := (dx << 42) + (dy << 21) + dz) >= 0
)


# The most grid candidates one ``pair_edges`` call may gate, summed over the
# half-shell offsets. A candidate takes about 50 bytes while its offset is
# gated, so the budget bounds a call near 0.8 GB; a stock list build (1584
# satellites within 1650 km) has about 70k, some 240 times fewer.
MAX_CANDIDATES = 2**24


def pair_edges(pos: np.ndarray, range_km: float):
    """All index pairs (i < j) with euclidean distance <= range_km.

    Returns (i, j, squared_distance) arrays ordered by (i, j), where d2 is
    ``(x_i-x_j)**2 + (y_i-y_j)**2 + (z_i-z_j)**2`` summed in that order and a
    pair is kept when ``d2 <= range_km * range_km``.

    Points are bucketed on a cubic grid of side
    ``max(range_km * (1 + 2**-20), extent / 2**20)``, so every cell
    coordinate fits 21 bits; each point is paired with the later points of
    its own cell and every point of the 13 neighbour cells after it, which
    yields each pair of adjacent cells once. The grid misses no kept pair: a
    kept pair's rounded axis difference is at most ``range_km * (1 + 3u)``
    (u = 2**-53), and a cell coordinate ``(x - lo) / side`` is at most 2**20,
    so it is computed to within ~2**-32. The two coordinates therefore differ
    by less than 1 and their floors by at most 1: the cells are equal or
    adjacent. (With a side of exactly ``range_km`` such a pair can land two
    cells apart.) ``pairs_in_range`` recomputes d2 per candidate in the order
    above, so the result is bit-equal to a dense all-pairs scan.

    The candidates of one neighbour offset are listed (int32 ids) and gated
    before the next offset's, so a call holds one offset's candidates and
    the pairs kept so far. Each offset's count is checked before its arrays
    are made: a running total over ``MAX_CANDIDATES`` raises ValueError.
    """
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    range_km = float(range_km)
    if not (range_km >= 0 and np.isfinite(pos).all()):
        raise ValueError("pair_edges needs finite positions and a range >= 0")
    n = pos.shape[0]
    if n < 2:
        empty = np.empty(0, np.int32)
        return empty, empty.copy(), np.empty(0, np.float64)
    lo = pos.min(axis=0)
    extent = float((pos.max(axis=0) - lo).max())
    side = max(range_km * (1 + 2.0**-20), extent / 2.0**20) or 1.0
    cell = ((pos - lo) / side).astype(np.int64) + 1  # in [1, 2**20 + 1]
    key = (cell[:, 0] << 42) | (cell[:, 1] << 21) | cell[:, 2]
    order = np.argsort(key)
    skey = key[order]
    # rows in cell order; a rounded difference only changes sign when its
    # operands swap, so each square is the one of (x_i - x_j) for i < j
    spos = pos[order]
    rows = np.arange(n, dtype=np.int32)
    kept, total = [], 0
    for offset in _HALF_SHELL:
        stop = np.searchsorted(skey, skey + offset, "right")
        start = np.searchsorted(skey, skey + offset, "left") if offset else np.arange(1, n + 1)
        count = stop - start
        size = int(count.sum())
        total += size
        if total > MAX_CANDIDATES:
            raise ValueError(f"pair_edges: more than {MAX_CANDIDATES} candidate pairs within "
                             f"{range_km} km of {n} points (the candidate budget)")
        first = np.repeat(rows, count)
        second = np.arange(size, dtype=np.int32)
        second += np.repeat((start - np.cumsum(count) + count).astype(np.int32), count)
        kept.append(pairs_in_range(spos, first, second, range_km))
    a, b, d2 = (np.concatenate(column) for column in zip(*kept))
    a, b = order[a], order[b]
    i, j = np.minimum(a, b), np.maximum(a, b)
    by_pair = np.argsort(i * n + j)
    return i[by_pair].astype(np.int32), j[by_pair].astype(np.int32), d2[by_pair]


def pairs_in_range(pos: np.ndarray, i: np.ndarray, j: np.ndarray, range_km: float):
    """The candidate pairs ``(i[k], j[k])`` within range_km, in candidate order.

    ``pos`` is a float64 (n, 3) array. Returns (i, j, squared_distance) of
    the kept candidates. d2 is
    ``(x_i-x_j)**2 + (y_i-y_j)**2 + (z_i-z_j)**2`` summed in that order and a
    pair is kept when ``d2 <= range_km * range_km``: the arithmetic of
    ``pair_edges``, which calls this on its grid candidates.
    ``constellation.slot_edges`` calls it on its satellite neighbour list and
    on its (station, satellite) pairs.
    """
    x, y, z = pos.T.copy()
    a, b = np.asarray(i, np.intp), np.asarray(j, np.intp)  # cast once, not per gather
    d2 = (x[a] - x[b]) ** 2
    d2 += (y[a] - y[b]) ** 2
    d2 += (z[a] - z[b]) ** 2
    keep = d2 <= range_km * range_km
    return i[keep], j[keep], d2[keep]


def shortest_route(down_ptr, down_nbr, down_wgt, up_ptr, up_nbr, up_wgt,
                   src: int, dst: int) -> np.ndarray:
    """Minimum-cost path from src to dst, empty array when unreachable.

    The adjacency comes in two CSR halves over the same nodes: node x's
    lower neighbours are ``down_nbr[down_ptr[x]:down_ptr[x+1]]`` and its
    higher ones ``up_nbr[up_ptr[x]:up_ptr[x+1]]``, each ascending, with the
    arc weights at the same positions of ``down_wgt`` and ``up_wgt``. So the
    down row and then the up row list a node's neighbours in ascending id
    order (``Snapshot.csr`` gives the halves of a slot). All weights must be
    positive (+inf marks a disabled arc). The pointer and neighbour arrays
    are numpy integer arrays of any width and stride, read as they come;
    their values become Python ints, so no arithmetic wraps at the width.
    Ties resolve to the lexicographically smallest vertex sequence: Dijkstra
    runs from the destination, then the walk from the source always steps to
    the smallest-id neighbour that stays on a shortest path
    (wgt + dist[nbr] == dist[here]). The final distance array is unique for
    strictly positive weights, so the result does not depend on heap pop order.

    Dijkstra stops as soon as src is settled, which leaves the path unchanged:
    every node on a shortest src -> dst path has a final distance strictly
    below dist[src] (weights are positive), so it is settled before src; a
    node v still unsettled has a tentative distance >= dist[src] >= dist[u]
    for every node u on the walk, so ``wgt + dist[v] == dist[u]`` cannot hold
    for a weight that is not lost to rounding against dist[v] (any weight of
    1e-9 or more at distances below 1e6, as for delays in ms). The walk
    therefore sees exactly the candidates a full settle would give it.

    A node is pushed only when its distance strictly decreases, so each
    (distance, node) entry is pushed at most once: a popped entry with
    ``d > dist[u]`` is stale, and the one with ``d == dist[u]`` settles u.
    A settled node needs no mark either, since ``d + w < dist[v]`` never
    holds for a settled v (dist[v] <= d, w > 0). Only the arcs of settled
    nodes and of the walk are read, by iterating memoryview slices: numpy
    indexing per node would cost more than the search, and so would
    converting whole arrays.
    """
    halves = [
        (memoryview(ptr), memoryview(nbr), memoryview(np.ascontiguousarray(wgt, np.float64)))
        for ptr, nbr, wgt in ((down_ptr, down_nbr, down_wgt), (up_ptr, up_nbr, up_wgt))
    ]
    src, dst = int(src), int(dst)
    dist = [math.inf] * (len(down_ptr) - 1)
    dist[dst] = 0.0
    heap = [(0.0, dst)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        if u == src:
            break
        for ptr, nbr, wgt in halves:
            lo, hi = ptr[u], ptr[u + 1]
            for v, w in zip(nbr[lo:hi], wgt[lo:hi]):
                cand = d + w
                if cand < dist[v]:
                    dist[v] = cand
                    heappush(heap, (cand, v))
    if dist[src] == math.inf:
        return np.empty(0, np.int32)
    path = [src]
    while path[-1] != dst:
        u = path[-1]
        step = next((v for ptr, nbr, wgt in halves
                     for v, w in zip(nbr[ptr[u]:ptr[u + 1]], wgt[ptr[u]:ptr[u + 1]])
                     if w + dist[v] == dist[u]), None)
        if step is None:  # cannot happen for positive weights
            raise AssertionError("shortest-path walk lost the route")
        path.append(step)
    return np.array(path, np.int32)
