"""Hot numerical kernels: range-gated pair extraction and shortest routes over CSR halves.

``pairs_in_range`` is the one range gate: it keeps the candidate pairs of
a list within a range. ``pair_edges`` finds the point pairs in range on a
cell grid and gates its candidates with it, so any candidate list that holds
every pair in range gates to exactly ``pair_edges``' pairs and squared
distances.

``shortest_route`` is the one route search: it reads a slot as ``Snapshot``
stores it and keeps ground stations from relaying, so another core swaps it alone.

Pure numpy / heapq. The kernels stay a module of their own so that the
benchmark harness (``perfbench/``) can time each of them by name.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import count

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


def shortest_route(csr, u, v, costs, src: int, dst: int, relays: int) -> tuple[int, ...]:
    """Minimum-cost route from src to dst as a vertex tuple, ``()`` when unreachable.

    The slot comes as stored: ``csr`` is ``Snapshot.csr()``'s
    ``(down_ptr, down_edges, up_ptr)`` over the edges ``(u[k], v[k])``,
    u < v, sorted by (u, v), and ``costs[k]`` is edge k's cost: positive,
    +inf to disable the edge. Node x's lower neighbours are
    ``u[down_edges[down_ptr[x]:down_ptr[x+1]]]`` and its higher ones
    ``v[up_ptr[x]:up_ptr[x+1]]``, so its down row and then its up row list
    them in ascending id order. The integer arrays may have any width and
    stride; their values become Python ints, so no arithmetic wraps. A node
    at or above ``relays`` (a ground station) other than src and dst is never
    settled, so it is never expanded and never walked onto.

    Dijkstra runs from dst and stops once src is settled, recording the
    settle order. The walk from src then steps to the smallest-id neighbour
    y settled before x with ``w + dist[y] == dist[x]``. The neighbour whose
    relaxation gave x its final distance computed exactly that sum, so a
    step always exists, and each step lowers the settle rank: the walk reads
    final distances only and ends at dst, whatever the rounding. When no
    weight is lost to rounding, the equality means dist[y] < dist[x], so y
    was settled before x anyway and the walk picks what a full settle would:
    the lexicographically smallest vertex sequence among the shortest
    routes. Those distances are unique, so heap pop order does not matter.

    A node is pushed only when its distance strictly decreases, so a popped
    entry with ``d > dist[x]`` is stale and the one with ``d == dist[x]``
    settles x; ``d + w < dist[y]`` never holds for a settled y. Only the
    arcs of settled nodes and of the walk are read, by iterating memoryview
    slices: numpy indexing per node would cost more than the search, and so
    would converting whole arrays.
    """
    down_ptr, down_edges, up_ptr = csr
    costs = np.ascontiguousarray(costs, np.float64)
    down = down_edges.astype(np.intp)  # cast once for both gathers
    halves = [(memoryview(down_ptr), memoryview(u[down]), memoryview(costs[down])),
              (memoryview(up_ptr), memoryview(v), memoryview(costs))]
    src, dst, relays = int(src), int(dst), int(relays)
    n = len(down_ptr) - 1
    # -inf keeps ``cand < dist[y]`` false, so a station other than src and dst is never pushed
    dist = [math.inf] * relays + [-math.inf] * (n - relays)
    dist[src], dist[dst] = math.inf, 0.0
    rank, tick = [n] * n, count()  # settle order; n for a node never settled
    heap = [(0.0, dst)]
    while heap:
        d, x = heappop(heap)
        if d > dist[x]:
            continue
        rank[x] = next(tick)
        if x == src:
            break
        for ptr, nbr, wgt in halves:
            lo, hi = ptr[x], ptr[x + 1]
            for y, w in zip(nbr[lo:hi], wgt[lo:hi]):
                cand = d + w
                if cand < dist[y]:
                    dist[y] = cand
                    heappush(heap, (cand, y))
    if rank[src] == n:
        return ()
    path = [src]
    while (x := path[-1]) != dst:
        path.append(next(y for ptr, nbr, wgt in halves
                         for y, w in zip(nbr[ptr[x]:ptr[x + 1]], wgt[ptr[x]:ptr[x + 1]])
                         if rank[y] < rank[x] and w + dist[y] == dist[x]))
    return tuple(path)
