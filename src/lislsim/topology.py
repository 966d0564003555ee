"""Time-sliced network topology: the snapshot series, edge lifetimes, and file I/O.

A :class:`SnapshotSeries` is the simulator's central dataset and the one
owner of its edges: the node roster plus slot offsets and ``u``, ``v``,
``delay_ms`` columns, validated and put in canonical order once. Each slot
is seen through a read-only :class:`Snapshot` view. On first use the series
also computes the lifetimes that the lifetime-aware routing algorithms
consume: for every edge record a series-wide edge id and the last slot of
its run of consecutive slots. ``export_series``/``import_series`` define
the line-oriented interchange format for externally generated topologies.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .constellation import GroundStation, ScenarioParams, field_values


class SeriesFormatError(ValueError):
    """Raised when a snapshot-series file fails validation."""


def _pack_keys(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (u.astype(np.int64) << 32) | v


class Snapshot:
    """Read-only view of one slot of a :class:`SnapshotSeries`.

    ``u``, ``v`` and ``delay_ms`` are zero-copy slices of the series'
    columns: canonical (min, max) pairs sorted by (u, v), delays in ms.
    ``num_satellites`` splits the id space: ids below it are satellites, the
    rest are ground stations (which may only appear as route endpoints, so
    every edge has a satellite end). Only the series creates snapshots.
    """

    __slots__ = ("slot", "u", "v", "delay_ms", "num_nodes", "num_satellites",
                 "_series", "_span", "_csr")

    def __init__(self, series: "SnapshotSeries", slot: int):
        span = slice(int(series.offsets[slot - 1]), int(series.offsets[slot]))
        self.slot = slot
        self.u = series.u[span]
        self.v = series.v[span]
        self.delay_ms = series.delay_ms[span]
        self.num_nodes = series.roster.num_nodes
        self.num_satellites = series.roster.num_satellites
        self._series = series
        self._span = span
        self._csr = None

    @property
    def edge_count(self) -> int:
        return self.u.size

    @property
    def uids(self) -> np.ndarray:
        """Series-wide id of each edge's canonical pair."""
        return self._series.lifetimes()[0][self._span]

    @property
    def run_last(self) -> np.ndarray:
        """Last slot of the run of consecutive slots containing each edge."""
        return self._series.lifetimes()[1][self._span]

    def edge_positions(self, pairs: Iterable[tuple[int, int]]) -> np.ndarray:
        """Indices of canonical pairs in the edge arrays, -1 when absent."""
        pairs = list(pairs)
        if not pairs:
            return np.empty(0, np.int64)
        if self.edge_count == 0:
            return np.full(len(pairs), -1, np.int64)
        keys = self._series._edge_keys()[self._span]
        a = np.array([min(p) for p in pairs], np.int64)
        b = np.array([max(p) for p in pairs], np.int64)
        want = (a << 32) | b
        pos = np.searchsorted(keys, want)
        pos[pos >= keys.size] = -1
        hit = (pos >= 0) & (keys[pos] == want)
        return np.where(hit, pos, -1)

    def route_delay(self, route) -> float | None:
        """Sum of this slot's original delays along the route, None if broken."""
        pos = self.edge_positions(route.canonical_edges)
        if np.any(pos < 0):
            return None
        return float(np.sum(self.delay_ms[pos]))

    def csr(self):
        """Cached symmetric CSR adjacency: (indptr, neighbours, arc_edge_index).

        Neighbours of each node are in ascending id order; ``arc_edge_index``
        (int32) maps each arc back to its canonical edge for cost lookups.
        The arcs are listed v -> u, then u -> v, and stably sorted by source:
        the edges are sorted by (u, v), so a node's lower neighbours come
        first and ascend, then its higher ones.
        """
        if self._csr is None:
            e = self.edge_count
            src = np.concatenate([self.v, self.u])
            order = np.argsort(src, kind="stable")
            nbr = np.concatenate([self.u, self.v])[order]
            arc_eid = np.tile(np.arange(e, dtype=np.int32), 2)[order]
            indptr = np.zeros(self.num_nodes + 1, np.int64)
            np.cumsum(np.bincount(src, minlength=self.num_nodes), out=indptr[1:])
            self._csr = (indptr, nbr, arc_eid)
        return self._csr

    def __repr__(self):
        return f"Snapshot(slot={self.slot}, edges={self.edge_count})"


@dataclass(frozen=True)
class NodeRoster:
    """Node id space: satellites are 0..S-1 and the G stations S..S+G-1, in any order."""

    num_satellites: int
    ground_stations: tuple[GroundStation, ...] = ()

    def __post_init__(self):
        if self.num_satellites < 0:
            raise ValueError("the satellite count cannot be negative")
        ids = sorted(gs.id for gs in self.ground_stations)
        if ids != list(range(self.num_satellites, self.num_nodes)):
            raise ValueError(
                f"ground station ids must be {self.num_satellites}..{self.num_nodes - 1}, "
                "one each, right after the satellite ids"
            )
        names = [gs.name for gs in self.ground_stations]
        if len(set(names)) != len(names):
            raise ValueError("duplicate ground station names")
        if self.num_nodes > 2**31:
            raise ValueError("node ids must fit in int32")

    @property
    def num_nodes(self) -> int:
        return self.num_satellites + len(self.ground_stations)

    def station(self, name: str) -> GroundStation:
        for gs in self.ground_stations:
            if gs.name == name:
                return gs
        raise KeyError(f"no ground station named {name!r}")


def _edge_problem(roster: NodeRoster, lo, hi, keys, delay) -> str | None:
    """The first edge rule that one slot's sorted (min, max) records break."""
    if lo.min() < 0 or hi.max() >= roster.num_nodes:
        return "unknown node id outside the node id range"
    if np.any(lo == hi):
        return "self-loops are not allowed"
    if lo.max() >= roster.num_satellites:
        return "edge between two non-satellites (ground-to-ground)"
    if np.any(keys[1:] == keys[:-1]):
        return "duplicate edge within a slot"
    if not (np.isfinite(delay).all() and (delay > 0).all()):
        return "non-positive delay"
    return None


class SnapshotSeries:
    """Scenario parameters, node roster, and the edges of slots 1..N.

    The edges of slot k are records ``offsets[k-1]:offsets[k]`` of the
    ``u``, ``v`` and ``delay_ms`` columns. The constructor is the one home of
    the edge rules: every endpoint is a satellite or a roster station, no
    self-loop, no ground-to-ground edge, no duplicate edge in a slot, and a
    finite positive delay once quantized to 9 fractional digits. It keeps
    its own read-only copy of the columns, each edge as its (min, max) pair
    and each slot sorted by (u, v); a slot is sorted only when its records
    are not in that order already.
    """

    __slots__ = ("scenario", "roster", "offsets", "u", "v", "delay_ms", "snapshots",
                 "_keys", "_runs")

    def __init__(self, scenario: ScenarioParams, roster: NodeRoster, offsets, u, v, delay_ms):
        n = scenario.num_slots
        offsets = np.array(offsets, dtype=np.int64)
        u, v, delay_ms = np.asarray(u), np.asarray(v), np.asarray(delay_ms, dtype=np.float64)
        if offsets.shape != (n + 1,):
            raise ValueError(f"expected offsets of {n} slots, got {offsets.size - 1}")
        if (offsets[0] != 0 or np.any(np.diff(offsets) < 0)
                or not u.shape == v.shape == delay_ms.shape == (offsets[-1],)):
            raise ValueError("edge columns do not match the slot offsets")
        self.u = np.empty(u.size, np.int32)
        self.v = np.empty(u.size, np.int32)
        self.delay_ms = np.empty(u.size, np.float64)
        for slot in range(1, n + 1):
            span = slice(offsets[slot - 1], offsets[slot])
            if span.start == span.stop:
                continue
            lo, hi = np.minimum(u[span], v[span]), np.maximum(u[span], v[span])
            delay = np.round(delay_ms[span], 9)
            keys = _pack_keys(lo, hi)
            if np.any(keys[1:] <= keys[:-1]):  # not yet sorted by (u, v)
                order = np.argsort(keys, kind="stable")
                keys, lo, hi, delay = keys[order], lo[order], hi[order], delay[order]
            problem = _edge_problem(roster, lo, hi, keys, delay)
            if problem:
                raise ValueError(f"slot {slot}: {problem}")
            self.u[span], self.v[span], self.delay_ms[span] = lo, hi, delay
        self.scenario = scenario
        self.roster = roster
        self.offsets = offsets
        for arr in (self.offsets, self.u, self.v, self.delay_ms):
            arr.setflags(write=False)
        self._keys = None
        self._runs = None
        self.snapshots = tuple(Snapshot(self, slot) for slot in range(1, n + 1))

    @property
    def num_slots(self) -> int:
        return self.scenario.num_slots

    def snapshot(self, slot: int) -> Snapshot:
        if not 1 <= slot <= self.num_slots:
            raise IndexError(f"slot {slot} outside 1..{self.num_slots}")
        return self.snapshots[slot - 1]

    def _edge_keys(self) -> np.ndarray:
        """Packed (u, v) key of every edge record, built on first use."""
        if self._keys is None:
            self._keys = _pack_keys(self.u, self.v)
            self._keys.setflags(write=False)
        return self._keys

    def lifetimes(self) -> tuple[np.ndarray, np.ndarray]:
        """Per record: edge uid and the last slot of its run. Computed once.

        The uid is the rank of the record's packed key among the distinct
        keys. Slots are walked backwards, and a record continues a run when
        its edge was seen in the next slot, so only per-uid state spans slots.
        """
        if self._runs is None:
            keys = self._edge_keys()
            ordered = np.sort(keys)  # np.unique is several times slower here
            first = np.ones(keys.size, bool)
            first[1:] = ordered[1:] != ordered[:-1]
            uid = np.searchsorted(ordered[first], keys)
            run_last = np.empty(keys.size, np.int32)
            next_seen = np.zeros(uid.max(initial=-1) + 1, np.int32)  # earliest slot seen so far
            run_end = np.zeros_like(next_seen)  # run end of that sighting
            for slot in range(self.num_slots, 0, -1):
                span = slice(self.offsets[slot - 1], self.offsets[slot])
                ids = uid[span]
                ends = np.where(next_seen[ids] == slot + 1, run_end[ids], slot)
                run_last[span] = run_end[ids] = ends
                next_seen[ids] = slot
            self._runs = (uid, run_last)
        return self._runs

    def __eq__(self, other):
        if not isinstance(other, SnapshotSeries):
            return NotImplemented
        return (
            self.scenario == other.scenario
            and self.roster == other.roster
            and all(np.array_equal(getattr(self, col), getattr(other, col))
                    for col in ("offsets", "u", "v", "delay_ms"))
        )

    def __repr__(self):
        return (
            f"SnapshotSeries(slots={self.num_slots}, sats={self.roster.num_satellites}, "
            f"gs={len(self.roster.ground_stations)})"
        )


# ---------------------------------------------------------------------------
# On-disk snapshot series format
# ---------------------------------------------------------------------------
#
# UTF-8 text, line oriented:
#   lislsim-series v1
#   scenario lisl_range_km=... gs_range_km=... node_delay_ms=... \
#            slot_duration_s=... num_slots=...   (each ScenarioParams field once)
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
    lines.append(" ".join(["scenario"] + [f"{f.name}={getattr(sc, f.name)}" for f in fields(sc)]))
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
    items = [token.partition("=")[::2] for token in line.split()[1:]]
    values = field_values(ScenarioParams, items, "scenario header")
    missing = [f.name for f in fields(ScenarioParams) if f.name not in values]
    if missing:
        raise ValueError(f"scenario header lacks {', '.join(missing)}")
    return ScenarioParams(**values)


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
        _, count = line.split()  # exactly "satellites <count>"
        num_sats = int(count)
    except ValueError as exc:
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

    One ``np.loadtxt`` call reads every edge record; the importer checks the
    slot column and ``SnapshotSeries`` applies the edge rules.
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

        if markers:
            rec = rec[~is_marker]
        offsets = np.searchsorted(rec["slot"], np.arange(1, last + 2))
        return SnapshotSeries(scenario, roster, offsets, rec["u"], rec["v"], rec["delay"])
    except ValueError as exc:  # includes bad UTF-8 and records np.loadtxt cannot parse
        raise SeriesFormatError(str(exc)) from exc
