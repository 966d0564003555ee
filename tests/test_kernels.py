"""Correctness of the hot kernels against plain references."""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from lislsim import kernels


def _random_csr(rng, n, extra_edges, levels=512, inf_fraction=0.0):
    """Symmetric CSR graph on a backbone path plus random chords.

    Weights are 1 + k/128 for k < levels, so sums are exact and a small
    ``levels`` gives many equal-cost paths; ``inf_fraction`` of the edges
    are disabled with +inf, which can disconnect the graph.
    """
    edges = {(a, a + 1): 1.0 + float(rng.integers(0, levels)) / 128.0 for a in range(n - 1)}
    for _ in range(extra_edges):
        a, b = sorted(rng.integers(0, n, 2).tolist())
        if a != b:
            edges[(a, b)] = 1.0 + float(rng.integers(0, levels)) / 128.0
    for key in edges:
        if rng.random() < inf_fraction:
            edges[key] = np.inf
    e = len(edges)
    u = np.fromiter((a for a, _ in edges), np.int64, e)
    v = np.fromiter((b for _, b in edges), np.int64, e)
    w = np.fromiter(edges.values(), np.float64, e)
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    wgt = np.concatenate([w, w])
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order].astype(np.int32), wgt[order]


def reference_route(indptr, nbr, wgt, src, dst):
    """Full-settle reference for ``kernels.shortest_route``.

    Distances to ``dst`` over every node come from scipy's Dijkstra; the
    walk from ``src`` then steps to the smallest-id neighbour on a shortest
    path. Returns (path, tie_steps): the vertex list (empty if unreachable)
    and how many steps had more than one shortest-path neighbour to choose from.
    """
    n = indptr.shape[0] - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    live = np.isfinite(wgt)
    graph = sparse.csr_matrix((wgt[live], (rows[live], nbr[live])), shape=(n, n))
    dist = scipy_dijkstra(graph, indices=dst)
    if not np.isfinite(dist[src]):
        return [], 0
    path, tie_steps = [src], 0
    while path[-1] != dst:
        u = path[-1]
        row = range(indptr[u], indptr[u + 1])
        on_path = [int(nbr[k]) for k in row if wgt[k] + dist[nbr[k]] == dist[u]]
        tie_steps += len(on_path) > 1
        path.append(on_path[0])
    return path, tie_steps


def _pair_edges_reference(pos, range_km):
    """Double loop over i < j with d2 summed as dx*dx + dy*dy + dz*dz."""
    r2 = range_km * range_km
    out_i, out_j, out_d2 = [], [], []
    for i in range(len(pos) - 1):
        for j in range(i + 1, len(pos)):
            dx = pos[i, 0] - pos[j, 0]
            dy = pos[i, 1] - pos[j, 1]
            dz = pos[i, 2] - pos[j, 2]
            d2 = dx * dx + dy * dy + dz * dz
            if d2 <= r2:
                out_i.append(i)
                out_j.append(j)
                out_d2.append(d2)
    return (
        np.array(out_i, np.int32),
        np.array(out_j, np.int32),
        np.array(out_d2, np.float64),
    )


@pytest.mark.parametrize("n", [0, 1, 2, 5, 120])
def test_pair_edges_bit_equal_to_double_loop(n):
    pos = np.random.default_rng(11 + n).uniform(-7000, 7000, (n, 3))
    got = kernels.pair_edges(pos, 4000.0)
    want = _pair_edges_reference(pos, 4000.0)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def test_pair_edges_boundary_inclusive():
    pos = np.array([[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0], [0.0, 2500.0, 0.0]])
    i, j, d2 = kernels.pair_edges(pos, 1000.0)
    assert list(zip(i.tolist(), j.tolist())) == [(0, 1)]
    assert d2[0] == 1000.0**2


def test_shortest_route_matches_scipy_distances():
    """Exact paths equal the full-settle reference, ties and dead ends included."""
    rng = np.random.default_rng(17)
    ties = unreachable = 0
    for _ in range(60):
        n = int(rng.integers(3, 40))
        indptr, nbr, wgt = _random_csr(
            rng, n, extra_edges=int(rng.integers(0, 2 * n)),
            levels=int(rng.choice([1, 4, 512])), inf_fraction=float(rng.choice([0.0, 0.3])),
        )
        pairs = [(0, n - 1)] + [tuple(rng.choice(n, 2, replace=False)) for _ in range(5)]
        for src, dst in pairs:
            want, tie_steps = reference_route(indptr, nbr, wgt, int(src), int(dst))
            got = kernels.shortest_route(indptr, nbr, wgt, src, dst)
            assert got.tolist() == want, (n, src, dst)
            ties += tie_steps > 0
            unreachable += not want
    assert ties > 20 and unreachable > 5  # both the tie-break and a drained heap ran


def test_unreachable_returns_empty():
    # nodes 0 and 1 joined by parallel arcs, node 2 isolated
    indptr = np.array([0, 2, 4, 4], np.int64)
    nbr = np.array([1, 1, 0, 0], np.int32)
    wgt = np.array([1.0, 2.0, 1.0, 2.0])
    assert kernels.shortest_route(indptr, nbr, wgt, 0, 2).size == 0
    assert np.array_equal(kernels.shortest_route(indptr, nbr, wgt, 0, 1), [0, 1])


def test_infinite_weights_disable_arcs():
    # 0-1-2 path where the direct 0-2 arc is disabled by +inf
    indptr = np.array([0, 2, 4, 6], np.int64)
    nbr = np.array([1, 2, 0, 2, 0, 1], np.int32)
    wgt = np.array([1.0, np.inf, 1.0, 1.0, np.inf, 1.0])
    assert np.array_equal(kernels.shortest_route(indptr, nbr, wgt, 0, 2), [0, 1, 2])
