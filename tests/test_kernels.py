"""Correctness of the hot kernels against plain references."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from lislsim import kernels
from lislsim.config import default_config
from lislsim.constellation import satellite_positions

from conftest import one_slot, one_slot_edges


def _random_edges(rng, n, extra_edges, levels=512, inf_fraction=0.0, stations=0):
    """Edges (u < v, sorted by (u, v)) of a graph on satellites 0..n-stations-1,
    a backbone path plus random chords, and stations n-stations..n-1 each
    joined to up to three satellites, so a station is always the v end.

    Weights are 1 + k/128 for k < levels, so sums are exact and a small
    ``levels`` gives many equal-cost paths; ``inf_fraction`` of the edges
    are disabled with +inf, which can disconnect the graph.
    """
    sats = n - stations
    edges = {(a, a + 1): 1.0 + float(rng.integers(0, levels)) / 128.0 for a in range(sats - 1)}
    for _ in range(extra_edges):
        a, b = sorted(rng.integers(0, sats, 2).tolist())
        if a != b:
            edges[(a, b)] = 1.0 + float(rng.integers(0, levels)) / 128.0
    for gs in range(sats, n):
        for sat in rng.choice(sats, size=int(rng.integers(0, 4)), replace=False).tolist():
            edges[(sat, gs)] = 1.0 + float(rng.integers(0, levels)) / 128.0
    for key in edges:
        if rng.random() < inf_fraction:
            edges[key] = np.inf
    keys = sorted(edges)
    u = np.array([a for a, _ in keys], np.int64)
    v = np.array([b for _, b in keys], np.int64)
    return u, v, np.array([edges[key] for key in keys], np.float64)


def edge_halves(u, v, w, n):
    """The slot ``kernels.shortest_route`` takes, of edges u < v sorted by
    (u, v) with weights w over n nodes: ((down_ptr, down_edges, up_ptr), u,
    v, w), laid out as ``Snapshot.csr`` lays it out. A lexsort by (v, u)
    lists the edges of each node's lower neighbours."""
    down_ptr, up_ptr = (np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=n))])
                        for ends in (v, u))
    return (down_ptr, np.lexsort((u, v)), up_ptr), u, v, w


def snapshot_halves(snap, costs=None):
    """The slot of a snapshot as ``routing.dijkstra`` hands it to the kernel."""
    return snap.csr(), snap.u, snap.v, snap.delay_ms if costs is None else costs


def reference_route(u, v, w, n, src, dst):
    """Full-settle reference for ``kernels.shortest_route`` on the edges
    (u, v) with weights w over n nodes.

    Distances to ``dst`` over every node come from scipy's Dijkstra; the
    walk from ``src`` then steps to the smallest-id neighbour on a shortest
    path. Returns (path, tie_steps): the vertex list (empty if unreachable)
    and how many steps had more than one shortest-path neighbour to choose from.
    """
    u, v = np.asarray(u, np.int64), np.asarray(v, np.int64)
    live = np.isfinite(w)
    graph = sparse.csr_matrix((w[live], (u[live], v[live])), shape=(n, n))
    dist = scipy_dijkstra(graph, directed=False, indices=dst)
    if not np.isfinite(dist[src]):
        return [], 0
    path, tie_steps = [src], 0
    while path[-1] != dst:
        x = path[-1]
        ends = (u == x) | (v == x)
        nbr, wgt = np.where(u == x, v, u)[ends], w[ends]
        order = np.argsort(nbr)
        on_path = [int(y) for y, c in zip(nbr[order], wgt[order]) if c + dist[y] == dist[x]]
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


def _pair_edges_dense(pos, range_km):
    """All-pairs distance matrix cut to its upper triangle (the former kernel)."""
    pos = np.ascontiguousarray(pos, dtype=np.float64)
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


def assert_bit_equal(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 5, 120])
def test_pair_edges_bit_equal_to_double_loop(n):
    pos = np.random.default_rng(11 + n).uniform(-7000, 7000, (n, 3))
    assert_bit_equal(kernels.pair_edges(pos, 4000.0), _pair_edges_reference(pos, 4000.0))


# Six pairs at exactly 1000 km: along each axis and along a 600-800-1000 triangle.
AT_RANGE = np.array([[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0], [600.0, 800.0, 0.0],
                     [600.0, 800.0, 1000.0], [-1000.0, 0.0, 0.0], [0.0, 0.0, 1000.0]])


def _grid_edge_cases():
    """Positions and ranges at the edges of the kernel's cell grid."""
    rng = np.random.default_rng(5)
    lattice = 1000.0 * rng.integers(-3, 4, (150, 3)).astype(np.float64)
    near = lattice + rng.choice([-1.0, 0.0, 1.0], lattice.shape) * np.spacing(lattice)
    cloud = rng.uniform(-7000, 7000, (60, 3))
    twins = np.repeat(cloud[:20], 3, axis=0)
    shell = rng.normal(size=(200, 3))
    shell *= 6921.0 / np.linalg.norm(shell, axis=1, keepdims=True)
    tiny_pairs = np.concatenate([shell, shell[:50] + rng.uniform(-4e-4, 4e-4, (50, 3))])
    # a pair within range whose rounded cell coordinates ((x - lo) / range)
    # floor two apart: a cell side of exactly the range would lose it
    rounding = np.array([[-11763.283854846784, 0.0, 0.0], [-1339.6574913469403, 0.0, 0.0],
                         [745.0677813530285, 0.0, 0.0]])
    return [
        pytest.param(lattice, 1000.0, id="cell-boundaries"),
        pytest.param(near, 1000.0, id="next-to-boundaries"),
        pytest.param(lattice / 2.0 + 250.0, 500.0, id="half-cell-lattice"),
        pytest.param(twins, 2500.0, id="duplicates"),
        pytest.param(rng.uniform(100.0, 190.0, (80, 3)), 100.0, id="one-cell"),
        pytest.param(cloud, 1e5, id="range-above-extent"),
        pytest.param(cloud[:30], np.inf, id="infinite-range"),
        pytest.param(tiny_pairs, 1e-3, id="side-cap"),
        pytest.param(twins, 0.0, id="zero-range-duplicates"),
        pytest.param(np.full((3, 3), 42.0), 0.0, id="zero-range-zero-extent"),
        pytest.param(rounding, 2084.725272699969, id="rounding-two-cells-apart"),
        pytest.param(np.array([[0.0, 0.0, 0.0], [5000.0, 0.0, 0.0]]), 1000.0, id="two-apart"),
        pytest.param(AT_RANGE, 1000.0, id="at-range"),
    ]


@pytest.mark.parametrize("pos,range_km", _grid_edge_cases())
def test_pair_edges_grid_edge_cases(pos, range_km):
    want = _pair_edges_reference(pos, range_km)
    assert_bit_equal(kernels.pair_edges(pos, range_km), want)
    assert want[0].size > 0 or len(pos) < 3  # every larger case has pairs to find


def test_pair_edges_exact_range_pairs_kept():
    i, j, d2 = kernels.pair_edges(AT_RANGE, 1000.0)
    exact = {(a, b) for a, b, d in zip(i.tolist(), j.tolist(), d2) if d == 1000.0**2}
    assert exact == {(0, 1), (0, 2), (0, 4), (0, 5), (2, 3), (3, 5)}


@pytest.mark.parametrize("pos,range_km", [
    (np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]), 1.0),
    (np.array([[0.0, 0.0, 0.0], [np.inf, 0.0, 0.0]]), 1.0),
    (np.zeros((2, 3)), np.nan),
    (np.zeros((2, 3)), -1.0),
], ids=["nan-position", "inf-position", "nan-range", "negative-range"])
def test_pair_edges_rejects_unusable_input(pos, range_km):
    with pytest.raises(ValueError, match="finite positions"):
        kernels.pair_edges(pos, range_km)


def test_pair_edges_bit_equal_to_dense_on_stock_slots():
    """Every 20th slot of the stock shell (30 slots) against the dense scan."""
    cfg = default_config()
    for slot in range(1, cfg.scenario.num_slots + 1, 20):
        pos = satellite_positions(cfg.constellation, slot, cfg.scenario.slot_duration_s)
        want = _pair_edges_dense(pos, cfg.scenario.lisl_range_km)
        assert want[0].size > 10_000
        assert_bit_equal(kernels.pair_edges(pos, cfg.scenario.lisl_range_km), want)


def _gated_candidates(monkeypatch, pos, range_km):
    """The candidate id arrays of each ``pairs_in_range`` call of one ``pair_edges``."""
    calls = []
    gate = kernels.pairs_in_range

    def record(p, i, j, r):
        calls.append((i, j))
        return gate(p, i, j, r)

    monkeypatch.setattr(kernels, "pairs_in_range", record)
    got = kernels.pair_edges(pos, range_km)
    monkeypatch.undo()
    return got, calls


def _stock_slot_1():
    cfg = default_config()
    return satellite_positions(cfg.constellation, 1, cfg.scenario.slot_duration_s)


def test_pair_edges_gates_one_offset_at_a_time(monkeypatch):
    """One gate per half-shell offset, on int32 candidate ids: a stock list
    build (1650 km) holds one offset's candidates, not all 14."""
    pos = _stock_slot_1()
    got, calls = _gated_candidates(monkeypatch, pos, 1650.0)
    assert len(calls) == 14
    assert all(i.dtype == j.dtype == np.int32 for i, j in calls)
    sizes = [i.size for i, _ in calls]
    assert 60_000 < sum(sizes) < 90_000 and max(sizes) < sum(sizes) / 4, sizes
    assert_bit_equal(got, _pair_edges_dense(pos, 1650.0))


def test_pair_edges_candidate_budget(monkeypatch):
    """The budget caps the candidates summed over the offsets, inclusive."""
    pos = _stock_slot_1()
    want, calls = _gated_candidates(monkeypatch, pos, 1650.0)
    total = sum(i.size for i, _ in calls)
    assert total < kernels.MAX_CANDIDATES // 100  # the budget sits far above stock
    monkeypatch.setattr(kernels, "MAX_CANDIDATES", total)
    assert_bit_equal(kernels.pair_edges(pos, 1650.0), want)
    monkeypatch.setattr(kernels, "MAX_CANDIDATES", total - 1)
    with pytest.raises(ValueError, match=f"more than {total - 1} candidate pairs"):
        kernels.pair_edges(pos, 1650.0)


def test_pair_edges_boundary_inclusive():
    pos = np.array([[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0], [0.0, 2500.0, 0.0]])
    i, j, d2 = kernels.pair_edges(pos, 1000.0)
    assert list(zip(i.tolist(), j.tolist())) == [(0, 1)]
    assert d2[0] == 1000.0**2


def test_shortest_route_matches_scipy_distances():
    """Exact paths equal the full-settle reference, ties and dead ends
    included. The foreign stations of each pair are barred by ``relays``
    in the kernel and through their edges in the reference."""
    rng = np.random.default_rng(17)
    ties = unreachable = disabled = 0
    for _ in range(60):
        n = int(rng.integers(3, 40))
        stations = int(rng.integers(0, 4))
        u, v, w = _random_edges(
            rng, n + stations, extra_edges=int(rng.integers(0, 2 * n)),
            levels=int(rng.choice([1, 4, 512])), inf_fraction=float(rng.choice([0.0, 0.3])),
            stations=stations,
        )
        n += stations
        halves = edge_halves(u, v, w, n)
        (_, _, up_ptr), *_ = halves
        assert np.all(up_ptr[n - stations:] == up_ptr[-1])  # a station has no up arc
        pairs = [(0, n - 1)] + [tuple(rng.choice(n, 2, replace=False).tolist()) for _ in range(5)]
        for src, dst in pairs:
            foreign = [g for g in range(n - stations, n) if g not in (src, dst)]
            barred = np.where(np.isin(u, foreign) | np.isin(v, foreign), np.inf, w)
            want, tie_steps = reference_route(u, v, barred, n, src, dst)
            disabled += not np.array_equal(barred, w)
            got = kernels.shortest_route(*halves, src, dst, n - stations)
            assert got == tuple(want), (n, src, dst)
            ties += tie_steps > 0
            unreachable += not want
    # the tie-break, a drained heap and a barred station each ran
    assert ties > 20 and unreachable > 5 and disabled > 20, (ties, unreachable, disabled)


# satellites 0-2 and stations 3-5: the 0-1 link costs 10 and the detour 0-5-1
# through station 5 costs 2; satellite 2 reaches the others through 5 alone
RELAY_EDGES = {(0, 1): 10.0, (0, 3): 1.0, (0, 5): 1.0, (1, 4): 1.0, (1, 5): 1.0, (2, 5): 1.0}


@pytest.mark.parametrize("src, dst, barred, detour", [
    (3, 4, (3, 0, 1, 4), (3, 0, 5, 1, 4)),
    (4, 3, (4, 1, 0, 3), (4, 1, 5, 0, 3)),
    (0, 1, (0, 1), (0, 5, 1)),
    (1, 0, (1, 0), (1, 5, 0)),
    (2, 1, (), (2, 5, 1)),
], ids=["stations", "stations-reversed", "satellites", "satellites-reversed", "cut-off"])
def test_foreign_station_never_relays(src, dst, barred, detour):
    """A station other than src and dst (at or above ``relays``) is never
    walked onto, even where it offers the strictly cheapest detour, which
    the search takes once every node relays."""
    u, v = (np.array(ends) for ends in zip(*RELAY_EDGES))
    halves = edge_halves(u, v, np.array(list(RELAY_EDGES.values())), 6)
    assert kernels.shortest_route(*halves, src, dst, 6) == detour
    assert kernels.shortest_route(*halves, src, dst, 3) == barred


def test_unreachable_returns_empty():
    # nodes 0 and 1 joined by parallel edges, node 2 isolated
    halves = edge_halves(np.array([0, 0]), np.array([1, 1]), np.array([1.0, 2.0]), 3)
    assert kernels.shortest_route(*halves, 0, 2, 3) == ()
    assert kernels.shortest_route(*halves, 0, 1, 3) == (0, 1)


def test_infinite_weights_disable_arcs():
    # 0-1-2 path where the direct 0-2 edge is disabled by +inf
    halves = edge_halves(np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([1.0, np.inf, 1.0]), 3)
    assert kernels.shortest_route(*halves, 0, 2, 3) == (0, 1, 2)


def _routes_by_width(halves, src, dst, relays):
    """The route for the slot's pointers, edge order and end ids given as
    uint16, int32 and int64 arrays, one per width."""
    (down_ptr, down_edges, up_ptr), u, v, costs = halves
    return {
        np.dtype(t).name: kernels.shortest_route(
            (down_ptr.astype(t), down_edges.astype(t), up_ptr.astype(t)),
            u.astype(t), v.astype(t), costs, src, dst, relays)
        for t in (np.uint16, np.int32, np.int64)
    }


@settings(max_examples=60, deadline=None)
@given(one_slot_edges(), st.data())
def test_shortest_route_reads_any_integer_width(slot, data):
    edges, sats, stations = slot
    n = sats + stations
    assume(n >= 2)
    snap = one_slot(edges, num_nodes=n, num_satellites=sats)
    halves = snapshot_halves(snap)
    src, dst = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    want = kernels.shortest_route(*halves, src, dst, sats)  # as Snapshot.csr gives it
    foreign = [g for g in range(sats, n) if g not in (src, dst)]
    barred = np.where(np.isin(snap.v, foreign), np.inf, snap.delay_ms)  # a station is a v end
    assert want == tuple(reference_route(snap.u, snap.v, barred, n, src, dst)[0])
    routes = _routes_by_width(halves, src, dst, sats)
    assert routes == dict.fromkeys(routes, want)


def test_shortest_route_reads_the_top_uint16_id():
    # 0 - 65535 - 1 costs 2 and the direct 0 - 1 costs 5: a wrapped id would lose the detour
    n = 65_536
    snap = one_slot({(0, n - 1): 1.0, (1, n - 1): 1.0, (0, 1): 5.0}, num_nodes=n)
    halves = snapshot_halves(snap)
    assert snap.v.dtype == np.uint16 and snap.v.max() == n - 1
    widths = ("uint16", "int32", "int64")
    assert _routes_by_width(halves, 0, 1, n) == dict.fromkeys(widths, (0, n - 1, 1))
    assert _routes_by_width(halves, 1, 0, n) == dict.fromkeys(widths, (1, n - 1, 0))
