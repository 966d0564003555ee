"""Hot numerical kernels: range-gated pair extraction and CSR shortest routes.

Pure numpy / heapq. The kernels stay a module of their own so that the
benchmark harness (``perfbench/``) can time each of them by name.
"""

from __future__ import annotations

import heapq

import numpy as np


def pair_edges(pos: np.ndarray, range_km: float):
    """All index pairs (i < j) with euclidean distance <= range_km.

    Returns (i, j, squared_distance) arrays ordered by (i, j).
    """
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    range_km = float(range_km)
    n = pos.shape[0]
    if n < 2:
        empty = np.empty(0, np.int32)
        return empty, empty.copy(), np.empty(0, np.float64)
    x, y, z = pos[:, 0], pos[:, 1], pos[:, 2]
    d2 = (x[:, None] - x[None, :]) ** 2
    d2 += (y[:, None] - y[None, :]) ** 2
    d2 += (z[:, None] - z[None, :]) ** 2
    iu, ju = np.triu_indices(n, k=1)
    d2 = d2[iu, ju]
    keep = d2 <= range_km * range_km
    return iu[keep].astype(np.int32), ju[keep].astype(np.int32), d2[keep]


def cross_edges(pos_a: np.ndarray, pos_b: np.ndarray, range_km: float):
    """Index pairs (a, b) across two point sets within range_km.

    Small bipartite case (ground stations x satellites). Returns
    (a_idx, b_idx, squared_distance) ordered by (a, b).
    """
    pos_a = np.asarray(pos_a, dtype=np.float64)
    pos_b = np.asarray(pos_b, dtype=np.float64)
    if pos_a.size == 0 or pos_b.size == 0:
        empty = np.empty(0, np.int32)
        return empty, empty.copy(), np.empty(0, np.float64)
    d2 = (pos_a[:, 0][:, None] - pos_b[:, 0][None, :]) ** 2
    d2 += (pos_a[:, 1][:, None] - pos_b[:, 1][None, :]) ** 2
    d2 += (pos_a[:, 2][:, None] - pos_b[:, 2][None, :]) ** 2
    a_idx, b_idx = np.nonzero(d2 <= range_km * range_km)
    return a_idx.astype(np.int32), b_idx.astype(np.int32), d2[a_idx, b_idx]


def shortest_route(indptr, nbr, wgt, src: int, dst: int) -> np.ndarray:
    """Minimum-cost path from src to dst, empty array when unreachable.

    The CSR adjacency must list neighbours of each node in ascending id
    order and all weights must be positive (+inf marks a disabled arc).
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
    """
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    nbr = np.ascontiguousarray(nbr, dtype=np.int32)
    wgt = np.ascontiguousarray(wgt, dtype=np.float64)
    src, dst = int(src), int(dst)
    n = indptr.shape[0] - 1
    dist = np.full(n, np.inf)
    done = np.zeros(n, dtype=bool)
    dist[dst] = 0.0
    heap = [(0.0, dst)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == src:
            break
        for k in range(indptr[u], indptr[u + 1]):
            v = nbr[k]
            if done[v]:
                continue
            cand = d + wgt[k]
            if cand < dist[v]:
                dist[v] = cand
                heapq.heappush(heap, (cand, int(v)))
    if not np.isfinite(dist[src]):
        return np.empty(0, np.int32)
    path = [src]
    u = src
    while u != dst:
        budget = dist[u]
        nxt = -1
        for k in range(indptr[u], indptr[u + 1]):
            v = nbr[k]
            if wgt[k] + dist[v] == budget:
                nxt = int(v)
                break
        if nxt < 0:  # cannot happen for positive weights
            raise AssertionError("shortest-path walk lost the route")
        path.append(nxt)
        u = nxt
    return np.array(path, np.int32)
