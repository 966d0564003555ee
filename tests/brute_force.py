"""Exhaustive cross-checks of ``lislsim.oracle``: brute-force optima, route
enumeration on small series, the exact optimum over every route, and random
delay matrices; plus per-edge references for the edge lifetimes and ISASR, a
one-slot edge builder for ``constellation.slot_edges``, and a line-by-line
series file reader for ``topology.import_series``."""

from __future__ import annotations

import itertools

import numpy as np

from lislsim import kernels
from lislsim.constellation import ScenarioParams, delay_ms
from lislsim.metrics import slot_order_sum
from lislsim.oracle import route_delay_matrix, validate_delay_matrix
from lislsim.routing import Route, dijkstra
from lislsim.topology import SeriesFormatError, SnapshotSeries, _read_header

# Most assignments ``brute_force_optimal`` enumerates (routes ** slots).
BRUTE_FORCE_CAP = 10_000_000


class OracleSizeError(ValueError):
    """Instance exceeds the enumeration caps."""


def row_cost(rows: np.ndarray, d: np.ndarray, eta_s_ms: float) -> float:
    """Total delay of each slot's route row plus eta_s per change of row (ms).

    Delays are summed with ``metrics.slot_order_sum``, then the penalty is
    added, so independently computed optima compare with zero tolerance.
    """
    rows = np.asarray(rows)
    total = slot_order_sum(d[rows, np.arange(rows.size)])
    return total + eta_s_ms * int((rows[1:] != rows[:-1]).sum())


def brute_force_optimal(d: np.ndarray, eta_s_ms: float, cap: int = BRUTE_FORCE_CAP) -> np.ndarray:
    """Each slot's route row in an exhaustive optimum (independent oracle).

    Enumerates the product of each slot's existing routes in chunks;
    refuses instances with K^N beyond `cap`.
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
    return best_rows


def enumerate_routes(
    series: SnapshotSeries,
    src: int,
    dst: int,
    hop_limit: int,
    max_routes: int = 200_000,
) -> tuple[list[Route], np.ndarray]:
    """All simple routes up to hop_limit edges existing in >= 1 slot, plus D.

    The search runs over the union graph of all slots; D is
    ``oracle.route_delay_matrix`` of the routes found. Routes are returned
    in lexicographic vertex order. Ground stations other than src/dst are
    never traversed.
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
    d = route_delay_matrix(series, found)
    alive = np.isfinite(d).any(axis=1)
    if not alive.any():
        raise ValueError("no routes exist between the endpoints")
    return [r for r, keep in zip(found, alive) if keep], d[alive]


def exact_optimum(
    series: SnapshotSeries, src: int, dst: int, eta_s_ms: float
) -> list[tuple[int, int, float]]:
    """The least cost (delays plus eta_s per route change) over every route,
    on each stretch of reachable slots: ``(first slot, last slot, cost)``.

    Each stretch, from slot a, takes the segment recurrence
    ``OPT[j] = min_i OPT[i-1] + eta_s*[i>a] + SP(i, j)``, where ``SP(i, j)``
    is the least delay sum over slots i..j among the ``enumerate_routes``
    routes (every simple route) that exist in each of them. No switch is
    charged across an unreachable slot, as ``metrics.evaluate`` charges none.
    """
    _, d = enumerate_routes(series, src, dst, hop_limit=series.roster.num_nodes - 1)
    covered = np.concatenate(([0], np.isfinite(d).any(axis=0), [0])).astype(np.int8)
    bounds = np.flatnonzero(np.diff(covered))
    stretches = []
    for a, b in zip(bounds[::2].tolist(), bounds[1::2].tolist()):  # slots a..b-1, 0-based
        opt = [0.0]  # opt[k]: the least cost of slots a..a+k-1
        for j in range(a, b):
            opt.append(min(
                opt[i - a] + (eta_s_ms if i > a else 0.0) + d[:, i:j + 1].sum(axis=1).min()
                for i in range(a, j + 1)
            ))
        stretches.append((a + 1, b, opt[-1]))
    return stretches


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


def reference_run_last(series: SnapshotSeries, edge: tuple[int, int], slot: int) -> int:
    """Brute force: scan forward from `slot` while the edge stays present."""
    last = slot
    while (last < series.num_slots
           and series.snapshot(last + 1).route_delay(Route(edge)) is not None):
        last += 1
    return last


def reference_isasr(
    series: SnapshotSeries, src: int, dst: int, eta_s_ms: float, gamma: float,
    cost_thrsh_ms: float,
) -> list[Route | None]:
    """Each slot's ISASR route, with every cost computed edge by edge.

    Activeness is kept per canonical edge in a dict (absent means eta_s),
    and run ends come from ``reference_run_last``'s forward scan.
    """
    n = series.num_slots
    activeness: dict[tuple[int, int], float] = {}
    routes: list[Route | None] = []
    for snap in series.snapshots:
        costs = []
        for edge, delay in zip(zip(snap.u.tolist(), snap.v.tolist()), snap.delay_ms.tolist()):
            last = reference_run_last(series, edge, snap.slot)
            cost_st = 0.0 if last == n else eta_s_ms / (last - snap.slot + 1.0)
            if max(edge) < snap.num_satellites and cost_st >= cost_thrsh_ms:
                costs.append(np.inf)
            else:
                costs.append(delay + gamma * (cost_st + activeness.get(edge, eta_s_ms)))
        route = dijkstra(snap, src, dst, cost_override=costs)
        routes.append(route)
        if route is not None:
            pairs = [(min(a, b), max(a, b)) for a, b in zip(route.nodes, route.nodes[1:])]
            ends = [reference_run_last(series, e, snap.slot) for e in pairs]
            for edge in pairs:
                activeness[edge] = eta_s_ms if min(ends) == snap.slot else 0.0
    return routes


def build_snapshot(
    sat_pos: np.ndarray,
    gs_ids: np.ndarray,
    gs_pos: np.ndarray,
    scenario: ScenarioParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge columns ``(u, v, delay_ms)`` of all feasible edges among the given nodes.

    ``sat_pos`` holds one row per satellite, whose node id is its row index;
    ground station ``gs_ids[k]`` sits at ``gs_pos[k]``. Satellite pairs come
    from a fresh ``kernels.pair_edges`` at the LISL range; station-satellite
    pairs from a dense station x satellite matrix of squared distances, kept
    within the GS range (both inclusive) in (station, satellite) order.
    """
    sat_pos = np.asarray(sat_pos, dtype=np.float64).reshape(-1, 3)
    gs_ids = np.asarray(gs_ids, dtype=np.int64)
    gs_pos = np.asarray(gs_pos, dtype=np.float64).reshape(-1, 3)
    si, sj, sat_d2 = kernels.pair_edges(sat_pos, scenario.lisl_range_km)
    gs_d2 = (gs_pos[:, 0][:, None] - sat_pos[:, 0][None, :]) ** 2
    gs_d2 += (gs_pos[:, 1][:, None] - sat_pos[:, 1][None, :]) ** 2
    gs_d2 += (gs_pos[:, 2][:, None] - sat_pos[:, 2][None, :]) ** 2
    gi, gj = np.nonzero(gs_d2 <= scenario.gs_range_km * scenario.gs_range_km)
    u = np.concatenate([si, gj.astype(np.int32)])
    v = np.concatenate([sj, gs_ids[gi]])
    dist = np.sqrt(np.concatenate([sat_d2, gs_d2[gi, gj]]))
    return u, v, delay_ms(dist, scenario.node_delay_ms)


_RECORD = np.dtype([("u", "i8"), ("v", "i8"), ("delay_ps", "i8")])


def _reference_slots(numbered_lines, num_slots: int):
    """Each slot's ``(u, v, delay_ms)`` columns, yielded at its last record,
    from ``(line number, line)`` pairs; each fault raised at its line."""
    slot = want = 0
    records: list[tuple[int, int, int]] = []
    for number, text in numbered_lines:
        fields = text.split()
        if not fields:
            continue
        if fields[0] == "slot":
            if len(fields) != 3 or not all(f.isascii() and f.isdigit() for f in fields[1:]):
                raise ValueError(f"line {number}: bad slot header {' '.join(fields)!r}, "
                                 "want 'slot <k> <n>'")
            if len(records) < want:
                raise ValueError(f"line {number}: slot {slot} has {len(records)} records, "
                                 f"but its header says {want}")
            k = int(fields[1])
            if k != slot + 1:
                raise ValueError(f"line {number}: expected slot {slot + 1}, got slot {k}")
            if k > num_slots:
                raise ValueError(f"line {number}: slot {k}, but the scenario header "
                                 f"says {num_slots} slots")
            slot, want, records = k, int(fields[2]), []
        elif len(records) == want:
            if not slot:
                raise ValueError(f"line {number}: edge record before the first slot header")
            raise ValueError(f"line {number}: slot {slot} has more records than the {want} "
                             "its header says")
        else:
            try:
                records.append(np.loadtxt([text], dtype=_RECORD, comments=None).item())
            except ValueError:
                raise ValueError(f"line {number}: malformed edge record {text.strip()!r}") from None
        if len(records) == want:
            u, v, delay_ps = (np.array(col, np.int64) for col in zip(*records)) if records \
                else ((), (), ())
            yield u, v, np.asarray(delay_ps) / 1e9
    if len(records) < want:
        raise ValueError(f"end of file: slot {slot} has {len(records)} records, "
                         f"but its header says {want}")
    if slot < num_slots:
        raise ValueError(f"file covers slots 1..{slot} but the scenario header says {num_slots}")


def import_series_reference(path) -> SnapshotSeries:
    """A plain line-by-line reader: each line a slot header or a record that
    ``np.loadtxt`` parses alone, and each slot to ``SnapshotSeries`` once its
    last record is read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            scenario, roster, line = _read_header(fh)
            numbered = enumerate(itertools.chain([line], fh), start=4 + len(roster.ground_stations))
            return SnapshotSeries(scenario, roster, _reference_slots(numbered, scenario.num_slots))
    except ValueError as exc:  # includes bad UTF-8
        raise SeriesFormatError(str(exc)) from exc
