"""Time-sliced network topology: snapshots, edge lifetimes, and file I/O.

A :class:`SnapshotSeries` is the simulator's central dataset: one immutable
:class:`Snapshot` per slot plus the node roster. :class:`LinkDetails` holds,
for every edge of every slot, a series-wide edge id and the last slot of its
current run of consecutive slots: the lifetimes that the lifetime-aware
routing algorithms consume. ``export_series``/``import_series`` define the
line-oriented interchange format for externally generated topologies.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .constellation import GroundStation, ScenarioParams


class SeriesFormatError(ValueError):
    """Raised when a snapshot-series file fails validation."""


def _pack_keys(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (u.astype(np.int64) << 32) | v.astype(np.int64)


class Snapshot:
    """All feasible edges at one slot, keyed by canonical (min, max) pair.

    Edge arrays are sorted by (u, v) and immutable; delays are in ms,
    strictly positive, and quantized to 9 fractional digits. ``num_satellites``
    splits the id space: ids below it are satellites, the rest are ground
    stations (which may only appear as route endpoints, so every edge has a
    satellite end).
    """

    __slots__ = ("slot", "u", "v", "delay_ms", "num_nodes", "num_satellites", "_keys", "_csr")

    def __init__(self, slot, u, v, delay_ms, num_nodes, num_satellites=None):
        if slot < 1:
            raise ValueError("slots are 1-based")
        u = np.asarray(u)
        v = np.asarray(v)
        delay_ms = np.round(np.asarray(delay_ms, dtype=np.float64), 9)
        if not (u.shape == v.shape == delay_ms.shape):
            raise ValueError(f"slot {slot}: edge arrays must have equal length")
        if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= num_nodes):
            raise ValueError(f"slot {slot}: unknown node id outside the node id range")
        u = u.astype(np.int32)
        v = v.astype(np.int32)
        num_satellites = num_nodes if num_satellites is None else num_satellites
        if u.size:
            if np.any(u == v):
                raise ValueError(f"slot {slot}: self-loops are not allowed")
            lo = np.minimum(u, v)
            hi = np.maximum(u, v)
            if np.any(lo >= num_satellites):
                raise ValueError(f"slot {slot}: edge between two non-satellites (ground-to-ground)")
            order = np.lexsort((hi, lo))
            u, v, delay_ms = lo[order], hi[order], delay_ms[order]
            keys = _pack_keys(u, v)
            if np.any(np.diff(keys) == 0):
                raise ValueError(f"slot {slot}: duplicate edge within a slot")
            if not np.all(np.isfinite(delay_ms)) or np.any(delay_ms <= 0):
                raise ValueError(f"slot {slot}: non-positive delay")
        else:
            keys = np.empty(0, np.int64)
        self.slot = int(slot)
        self.u = u
        self.v = v
        self.delay_ms = delay_ms
        self.num_nodes = int(num_nodes)
        self.num_satellites = int(num_satellites)
        self._keys = keys
        self._csr = None
        for arr in (self.u, self.v, self.delay_ms, self._keys):
            arr.setflags(write=False)

    @classmethod
    def from_edges(
        cls,
        slot: int,
        edges: Mapping[tuple[int, int], float],
        num_nodes: int,
        num_satellites: int | None = None,
    ) -> "Snapshot":
        items = list(edges.items())
        u = np.array([min(a, b) for (a, b), _ in items], dtype=np.int32)
        v = np.array([max(a, b) for (a, b), _ in items], dtype=np.int32)
        d = np.array([w for _, w in items], dtype=np.float64)
        return cls(slot, u, v, d, num_nodes, num_satellites)

    @property
    def edge_count(self) -> int:
        return self.u.size

    def edge_positions(self, pairs: Iterable[tuple[int, int]]) -> np.ndarray:
        """Indices of canonical pairs in the edge arrays, -1 when absent."""
        pairs = list(pairs)
        if not pairs:
            return np.empty(0, np.int64)
        if self._keys.size == 0:
            return np.full(len(pairs), -1, np.int64)
        a = np.array([min(p) for p in pairs], np.int64)
        b = np.array([max(p) for p in pairs], np.int64)
        want = (a << 32) | b
        pos = np.searchsorted(self._keys, want)
        pos[pos >= self._keys.size] = -1
        hit = (pos >= 0) & (self._keys[pos] == want)
        return np.where(hit, pos, -1)

    def contains_route(self, route) -> bool:
        return bool(np.all(self.edge_positions(route.canonical_edges) >= 0))

    def route_delay(self, route) -> float | None:
        """Sum of this slot's original delays along the route, None if broken."""
        pos = self.edge_positions(route.canonical_edges)
        if np.any(pos < 0):
            return None
        return float(np.sum(self.delay_ms[pos]))

    def csr(self):
        """Cached symmetric CSR adjacency: (indptr, neighbours, arc_edge_index).

        Neighbours of each node are in ascending id order; ``arc_edge_index``
        maps each arc back to its canonical edge for cost lookups.
        """
        if self._csr is None:
            e = self.edge_count
            src = np.concatenate([self.u, self.v]).astype(np.int64)
            dst = np.concatenate([self.v, self.u]).astype(np.int64)
            eid = np.concatenate([np.arange(e), np.arange(e)])
            order = np.lexsort((dst, src))
            nbr = dst[order].astype(np.int32)
            arc_eid = eid[order]
            counts = np.bincount(src, minlength=self.num_nodes)
            indptr = np.zeros(self.num_nodes + 1, np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._csr = (indptr, nbr, arc_eid)
        return self._csr

    def __eq__(self, other):
        if not isinstance(other, Snapshot):
            return NotImplemented
        return (
            self.slot == other.slot
            and self.num_nodes == other.num_nodes
            and self.num_satellites == other.num_satellites
            and np.array_equal(self.u, other.u)
            and np.array_equal(self.v, other.v)
            and np.array_equal(self.delay_ms, other.delay_ms)
        )

    def __repr__(self):
        return f"Snapshot(slot={self.slot}, edges={self.edge_count})"


@dataclass(frozen=True)
class NodeRoster:
    """Node id space: satellites occupy 0..num_satellites-1, then stations."""

    num_satellites: int
    ground_stations: tuple[GroundStation, ...] = ()

    def __post_init__(self):
        if self.num_satellites < 0:
            raise ValueError("the satellite count cannot be negative")
        ids = [gs.id for gs in self.ground_stations]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate ground station ids")
        names = [gs.name for gs in self.ground_stations]
        if len(set(names)) != len(names):
            raise ValueError("duplicate ground station names")
        if any(i < self.num_satellites for i in ids):
            raise ValueError("ground station ids must come after all satellite ids")

    @property
    def num_nodes(self) -> int:
        top = max((gs.id for gs in self.ground_stations), default=self.num_satellites - 1)
        return max(top + 1, self.num_satellites)

    def station(self, name: str) -> GroundStation:
        for gs in self.ground_stations:
            if gs.name == name:
                return gs
        raise KeyError(f"no ground station named {name!r}")


class SnapshotSeries:
    """Scenario parameters, node roster, and one snapshot per slot 1..N."""

    __slots__ = ("scenario", "roster", "snapshots")

    def __init__(self, scenario: ScenarioParams, roster: NodeRoster, snapshots: list[Snapshot]):
        if len(snapshots) != scenario.num_slots:
            raise ValueError(
                f"expected {scenario.num_slots} snapshots, got {len(snapshots)}"
            )
        sats = roster.num_satellites
        stations = [gs.id for gs in roster.ground_stations]
        for i, snap in enumerate(snapshots, start=1):
            if snap.slot != i:
                raise ValueError("non-consecutive slots")
            if snap.num_satellites != sats or snap.num_nodes != roster.num_nodes:
                raise ValueError(f"slot {i}: node id space differs from the roster's")
            # Snapshot rejects ground-to-ground edges, so only v may be a station
            if not np.isin(snap.v[snap.v >= sats], stations).all():
                raise ValueError(f"slot {i}: unknown node id, neither satellite nor station")
        self.scenario = scenario
        self.roster = roster
        self.snapshots = list(snapshots)

    @property
    def num_slots(self) -> int:
        return self.scenario.num_slots

    def snapshot(self, slot: int) -> Snapshot:
        if not 1 <= slot <= self.num_slots:
            raise IndexError(f"slot {slot} outside 1..{self.num_slots}")
        return self.snapshots[slot - 1]

    def __eq__(self, other):
        if not isinstance(other, SnapshotSeries):
            return NotImplemented
        return (
            self.scenario == other.scenario
            and self.roster == other.roster
            and self.snapshots == other.snapshots
        )

    def __repr__(self):
        return (
            f"SnapshotSeries(slots={self.num_slots}, sats={self.roster.num_satellites}, "
            f"gs={len(self.roster.ground_stations)})"
        )


@dataclass(frozen=True, eq=False)  # array fields: compare identity, not contents
class LinkDetails:
    """Per-slot edge lifetimes, each array aligned with that slot's edge order.

    ``edge_uids_by_slot[k][i]`` is a series-wide id of the canonical edge
    ``(u[i], v[i])`` of snapshot ``k + 1``; ``run_last_by_slot[k][i]`` is the
    last slot of the run of consecutive slots containing it, and
    ``global_last[uid]`` the edge's last slot anywhere in the series.
    """

    num_slots: int
    num_edges: int
    edge_uids_by_slot: tuple[np.ndarray, ...]
    run_last_by_slot: tuple[np.ndarray, ...]
    global_last: np.ndarray


def build_link_details(series: SnapshotSeries) -> LinkDetails:
    """Edge ids and run ends of every edge record in a series."""
    counts = [snap.edge_count for snap in series.snapshots]
    keys = np.concatenate([snap._keys for snap in series.snapshots])
    slots = np.repeat(np.arange(1, series.num_slots + 1, dtype=np.int32), counts)
    order = np.argsort(keys, kind="stable")  # stable keeps slots ascending per edge
    skey = keys[order]
    sslot = slots[order]

    new_edge = np.ones(keys.size, bool)
    new_edge[1:] = skey[1:] != skey[:-1]
    new_run = new_edge.copy()
    new_run[1:] |= sslot[1:] != sslot[:-1] + 1
    edge_end = np.ones(keys.size, bool)
    edge_end[:-1] = new_edge[1:]
    run_end = np.ones(keys.size, bool)
    run_end[:-1] = new_run[1:]

    # scatter uid and containing-run end back to snapshot edge order
    uid = np.empty(keys.size, np.int64)
    uid[order] = np.cumsum(new_edge) - 1
    run_last = np.empty(keys.size, np.int32)
    run_last[order] = sslot[run_end][np.cumsum(new_run) - 1]
    global_last = sslot[edge_end]
    splits = np.cumsum(counts)[:-1]
    return LinkDetails(
        num_slots=series.num_slots,
        num_edges=global_last.size,
        edge_uids_by_slot=tuple(np.split(uid, splits)),
        run_last_by_slot=tuple(np.split(run_last, splits)),
        global_last=global_last,
    )


# ---------------------------------------------------------------------------
# On-disk snapshot series format
# ---------------------------------------------------------------------------
#
# UTF-8 text, line oriented:
#   lislsim-series v1
#   scenario lisl_range_km=... gs_range_km=... node_delay_ms=... \
#            slot_duration_s=... num_slots=...
#   satellites <count>
#   gs <id> <name> <latitude> <longitude>          (one line per station)
#   <slot> <u> <v> <delay_ms>                      (edge records, canonical order)
# A slot with no edges is represented by the single record "<slot> - - -".

_MAGIC = "lislsim-series v1"


def export_series(series: SnapshotSeries, path) -> None:
    """Write a series to its line-oriented text format (lossless).

    Slots are formatted and written one at a time, so memory stays bounded
    by the largest slot rather than by the file's text.
    """
    sc = series.scenario
    lines = [_MAGIC]
    lines.append(
        "scenario "
        f"lisl_range_km={sc.lisl_range_km!r} gs_range_km={sc.gs_range_km!r} "
        f"node_delay_ms={sc.node_delay_ms!r} slot_duration_s={sc.slot_duration_s!r} "
        f"num_slots={sc.num_slots}"
    )
    lines.append(f"satellites {series.roster.num_satellites}")
    for gs in series.roster.ground_stations:
        lines.append(f"gs {gs.id} {gs.name} {gs.latitude_deg!r} {gs.longitude_deg!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
        for snap in series.snapshots:
            n = snap.edge_count
            if n == 0:
                fh.write(f"{snap.slot} - - -\n")
                continue
            rec = [snap.slot] * (4 * n)
            rec[1::4] = snap.u.tolist()
            rec[2::4] = snap.v.tolist()
            rec[3::4] = snap.delay_ms.tolist()
            fh.write(("%d %d %d %.9f\n" * n) % tuple(rec))


def _parse_scenario_line(line: str) -> ScenarioParams:
    fields = {}
    for token in line.split()[1:]:
        if "=" not in token:
            raise ValueError(f"malformed scenario field {token!r}")
        k, val = token.split("=", 1)
        fields[k] = val
    try:
        return ScenarioParams(
            lisl_range_km=float(fields["lisl_range_km"]),
            gs_range_km=float(fields["gs_range_km"]),
            node_delay_ms=float(fields["node_delay_ms"]),
            slot_duration_s=float(fields["slot_duration_s"]),
            num_slots=int(fields["num_slots"]),
        )
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad scenario header: {exc}") from exc


def _read_header(fh) -> tuple[ScenarioParams, NodeRoster, str]:
    """Magic, scenario, satellite and station lines, plus the first line after them."""
    if fh.readline().rstrip("\n") != _MAGIC:
        raise ValueError("not a lislsim series file (bad magic line)")
    line = fh.readline()
    if not line.startswith("scenario "):
        raise ValueError("missing scenario header")
    scenario = _parse_scenario_line(line)
    line = fh.readline()
    if not line.startswith("satellites "):
        raise ValueError("missing satellites header")
    try:
        num_sats = int(line.split()[1])
    except (IndexError, ValueError) as exc:
        raise ValueError("bad satellites header") from exc

    stations = []
    line = fh.readline()
    while line.startswith("gs "):
        try:
            _, gs_id, name, lat, lon = line.split()
            stations.append(GroundStation(int(gs_id), name, float(lat), float(lon)))
        except ValueError as exc:
            raise ValueError(f"bad ground station line {line.rstrip()!r}: {exc}") from exc
        line = fh.readline()
    return scenario, NodeRoster(num_sats, tuple(stations)), line


_RECORD = np.dtype([("slot", "i8"), ("u", "i8"), ("v", "i8"), ("delay", "f8")])


def _edge_lines(lines, markers: list[str]):
    """Lines for ``np.loadtxt``; each ``"<slot> - - -"`` marker is appended to
    ``markers`` and becomes the sentinel record ``"<slot> -1 -1 nan"``."""
    for line in lines:
        if "-" in line:
            parts = line.split()
            if parts[1:] == ["-", "-", "-"]:
                markers.append(line)
                line = f"{parts[0]} -1 -1 nan"
        yield line


def import_series(path) -> SnapshotSeries:
    """Parse and fully validate a series file; raises only SeriesFormatError.

    One ``np.loadtxt`` call reads every edge record; the slot column is then
    checked and cut into snapshots, and ``Snapshot``/``SnapshotSeries`` apply
    the edge rules.
    """
    markers: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            scenario, roster, line = _read_header(fh)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # a file without records
                    rec = np.loadtxt(
                        _edge_lines(itertools.chain([line], fh), markers),
                        dtype=_RECORD, comments=None, ndmin=1,
                    )
            except ValueError as exc:
                raise ValueError(f"malformed edge record: {exc}") from exc
        slot = rec["slot"]
        steps = np.diff(slot)
        if np.any(steps < 0):
            raise ValueError("slots out of order")
        if np.any(slot[:1] != 1) or np.any(steps > 1):
            raise ValueError("non-consecutive slots")
        last = int(slot[-1]) if slot.size else 0
        if last != scenario.num_slots:
            raise ValueError(f"file covers slots 1..{last} but header says {scenario.num_slots}")
        is_marker = (rec["u"] == -1) & (rec["v"] == -1) & np.isnan(rec["delay"])
        if np.count_nonzero(is_marker) != len(markers):
            raise ValueError("unknown node id -1")
        per_slot = np.diff(np.searchsorted(slot, np.arange(1, last + 2)))
        marked = slot[is_marker]
        crowded = marked[per_slot[marked - 1] > 1]
        if crowded.size:
            raise ValueError(f"empty-slot marker for non-empty slot {crowded[0]}")

        rec = rec[~is_marker]
        bounds = np.searchsorted(rec["slot"], np.arange(1, last + 2))
        u, v, delay = rec["u"], rec["v"], rec["delay"]
        snapshots = [
            Snapshot(k, u[lo:hi], v[lo:hi], delay[lo:hi], roster.num_nodes, roster.num_satellites)
            for k, lo, hi in zip(range(1, last + 1), bounds[:-1], bounds[1:])
        ]
        return SnapshotSeries(scenario=scenario, roster=roster, snapshots=snapshots)
    except ValueError as exc:  # includes bad UTF-8 and records np.loadtxt cannot parse
        raise SeriesFormatError(str(exc)) from exc
