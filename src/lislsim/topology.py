"""Time-sliced network topology: the snapshot series, edge lifetimes, and file I/O.

A :class:`SnapshotSeries` is the simulator's central dataset and the one
owner of its edges: the node roster plus slot offsets, the ``keys`` column
and the ``delay_ms`` column, validated and put in canonical order once. An
edge is its packed (u, v) key (``pack_keys``), by which every slot is
sorted; ``u`` and ``v`` are zero-copy views of the key's two halves. Node
ids are 16-bit, so a roster holds at most ``MAX_NODES`` nodes, every id
column is uint16 and every key uint32.
Each slot is seen through a read-only :class:`Snapshot` view, and
``Snapshot.positions(keys)`` finds edges in it. On first use the series also
computes the edge lifetimes that ISASR reads: each record's last slot of its
run of consecutive slots. The constructor and ``export_series`` take the
same raw ``(u, v, delay_ms)`` columns of each slot and read them through
``_canonical_slots``, the one home of the slot-count and edge rules.
``export_series``/``import_series`` define the line-oriented interchange
format for externally generated topologies, series format v2: each slot a
``slot <k> <n>`` header over its ``n`` records ``<u> <v> <delay_ps>``, the
delay in integer picoseconds. The writer writes each slot as it arrives, so
``generate`` never holds a series, and the reader hands each slot to the
constructor once its last record is read, so an import holds the columns
plus about one block of text and one slot.
"""

from __future__ import annotations

import errno
import functools
import itertools
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from .constellation import GroundStation, ScenarioParams, field_values


class SeriesFormatError(ValueError):
    """Raised when a snapshot-series file fails validation."""


class MissingEdgeError(ValueError):
    """A schedule names a route that is broken in its slot."""


def _uint_for(largest: int) -> np.dtype:
    """The narrowest unsigned dtype that holds 0..``largest``."""
    return np.min_scalar_type(max(largest, 0))


# Node ids are 16-bit: the Starlink filings total ~42,000 satellites, and a
# uint32 key packs two ids, little-endian so that its low half comes first.
MAX_NODES = 2**16
_ID, _KEY = np.dtype("<u2"), np.dtype("<u4")


def pack_keys(lo, hi) -> np.ndarray:
    """Packed uint32 key of each canonical pair (lo < hi) of node ids: lo in
    the high half, hi in the low one.

    Ids outside 0..MAX_NODES-1 wrap, so the caller checks them first.
    """
    keys = np.asarray(lo).astype(_KEY)
    keys <<= 16
    return np.bitwise_or(keys, hi, out=keys, dtype=_KEY, casting="unsafe")


def _unsigned(ids: np.ndarray) -> np.ndarray:
    """Integer ids viewed as the unsigned ints of their width, so that one
    ``max()`` checks both bounds: a negative id reads as one beyond them all."""
    return ids.view(ids.dtype.str.replace("i", "u"))


def _halves(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (lo, hi) halves of a contiguous packed-key array, as zero-copy views."""
    pairs = keys.view(np.dtype([("hi", _ID), ("lo", _ID)]))  # hi: the low half, first
    return pairs["lo"], pairs["hi"]


class Snapshot:
    """Read-only view of one slot of a :class:`SnapshotSeries`.

    ``keys``, ``u``, ``v`` and ``delay_ms`` are zero-copy slices of the series'
    columns: sorted keys of canonical (min, max) pairs, their halves, delays in ms.
    ``num_satellites`` splits the id space: ids below it are satellites, the
    rest are ground stations (which may only appear as route endpoints, so
    every edge has a satellite end). Only the series creates snapshots.
    """

    __slots__ = ("slot", "keys", "u", "v", "delay_ms", "num_nodes", "num_satellites",
                 "_series", "_span", "_csr")

    def __init__(self, series: "SnapshotSeries", slot: int):
        span = slice(int(series.offsets[slot - 1]), int(series.offsets[slot]))
        self.slot = slot
        self.keys = series.keys[span]
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
        return self.keys.size

    @property
    def run_last(self) -> np.ndarray:
        """Last slot of the run of consecutive slots containing each edge."""
        return self._series.run_last()[self._span]

    def positions(self, keys: np.ndarray) -> np.ndarray:
        """Indices of packed (u, v) keys in this slot's edges, -1 when absent.

        Keys of the column's dtype are searched as they are; any other dtype
        makes ``searchsorted`` cast the slot's whole key column.
        """
        if self.keys.size == 0:  # self.keys[pos] below needs a key to read
            return np.full(len(keys), -1, np.int64)
        pos = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        return np.where(self.keys[pos] == keys, pos, -1)

    def route_delay(self, route) -> float | None:
        """Sum of this slot's original delays along the route, None if broken."""
        pos = self.positions(route.keys)
        if np.any(pos < 0):
            return None
        return float(np.sum(self.delay_ms[pos]))

    def csr(self):
        """Cached adjacency in two CSR halves: (down_ptr, down_edges, up_ptr).

        The edges are sorted by (u, v) with u < v, so the edges whose u is x
        are a contiguous run, ``up_ptr[x]:up_ptr[x+1]``, and their v are x's
        higher neighbours in ascending order. ``down_edges`` is the stable
        argsort of v: its slice ``down_ptr[x]:down_ptr[x+1]`` holds the edges
        whose v is x, in ascending u, so their u are x's lower neighbours in
        ascending order. Node x's neighbours are therefore
        ``u[down_edges[down_ptr[x]:down_ptr[x+1]]]`` and then
        ``v[up_ptr[x]:up_ptr[x+1]]``, in ascending id order, each an edge
        index for cost lookups. ``down_edges`` is ``_uint_for(edge_count - 1)``
        and the pointers, the two rows of one array, ``_uint_for(edge_count)``:
        uint16 each in a stock slot, 2 bytes an edge plus 4 a node.
        """
        if self._csr is None:
            start = self._series._clock()
            e = self.edge_count
            ptr = np.zeros((2, self.num_nodes + 1), _uint_for(e))
            for row, ends in zip(ptr, (self.v, self.u)):
                np.cumsum(np.bincount(ends, minlength=self.num_nodes), out=row[1:])
            # numpy radix-sorts 8- and 16-bit keys
            down_edges = np.argsort(self.v, kind="stable").astype(_uint_for(e - 1))
            self._csr = (ptr[0], down_edges, ptr[1])
            self._series.build_s += self._series._clock() - start
        return self._csr

    def __repr__(self):
        return f"Snapshot(slot={self.slot}, edges={self.edge_count})"


@dataclass(frozen=True)
class NodeRoster:
    """Node id space: satellites are 0..S-1 and the G stations S..S+G-1, in any
    order, at most ``MAX_NODES`` ids in all."""

    num_satellites: int
    ground_stations: tuple[GroundStation, ...] = ()

    def __post_init__(self):
        if self.num_satellites < 0:
            raise ValueError("the satellite count cannot be negative")
        if self.num_nodes > MAX_NODES:
            raise ValueError(f"at most {MAX_NODES} nodes: node ids are 16-bit")
        ids = sorted(gs.id for gs in self.ground_stations)
        if ids != list(range(self.num_satellites, self.num_nodes)):
            raise ValueError(
                f"ground station ids must be {self.num_satellites}..{self.num_nodes - 1}, "
                "one each, right after the satellite ids"
            )
        names = [gs.name for gs in self.ground_stations]
        if len(set(names)) != len(names):
            raise ValueError("duplicate ground station names")

    @property
    def num_nodes(self) -> int:
        return self.num_satellites + len(self.ground_stations)

    def station(self, name: str) -> GroundStation:
        for gs in self.ground_stations:
            if gs.name == name:
                return gs
        raise KeyError(f"no ground station named {name!r}")


# Below 1e6 ms a delay is under 10**15 integer picoseconds, the series
# file's delay field, well inside the integers float64 holds exactly:
# rint(d * 1e9) of a 9-digit delay d is exact, delay_ps / 1e9 reads it back
# bit for bit, and the writer's two parts of it, split at 10**8, each fit
# the uint32 its chunk arithmetic runs in.
MAX_DELAY_MS = 1e6


def _edge_problem(roster: NodeRoster, u, v, keys, delay) -> str | None:
    """The first edge rule after the id range that one slot's records break:
    ``u`` and ``v`` are their ids, ``keys`` the sorted packed keys and
    ``delay`` the delays in key order."""
    if np.any(u == v):
        return "self-loops are not allowed"
    if keys[-1] >> 16 >= roster.num_satellites:  # the largest lo
        return "edge between two non-satellites (ground-to-ground)"
    if np.any(keys[1:] == keys[:-1]):
        return "duplicate edge within a slot"
    low, high = delay.min(), delay.max()  # both NaN when any delay is
    if not (low > 0 and high < np.inf):
        return "non-positive delay"
    if high >= MAX_DELAY_MS:
        return f"delay not below the {MAX_DELAY_MS:.0f} ms limit"
    return None


def _canonical_slots(roster: NodeRoster, num_slots: int, slots):
    """Each of the ``num_slots`` raw ``(u, v, delay_ms)`` slots, slot 1 first,
    as ``(slot, keys, delay_ms)``: sorted packed (min, max) keys and delays
    quantized to 9 fractional digits, so that the series file round-trips
    bit-exactly. Both sinks read their slots through it. The keys are packed
    once the ids are known to be in range.

    A slot is sorted (stably) only when its records are not in key order
    already. Raises ``ValueError("slot k: ...")`` naming the first edge rule
    a slot breaks, or when its columns are not 1-D of one length, or when
    its ids are not integers (bool included). Empty columns of any dtype are
    an empty slot. A slot count other than ``num_slots`` raises
    ``ValueError("expected N slots, got M")``; at most one slot past it is
    read.
    """
    slot = 0
    for slot, edges in enumerate(itertools.islice(slots, num_slots + 1), start=1):
        if slot > num_slots:
            raise ValueError(f"expected {num_slots} slots, got {slot} or more")
        u, v, delay_ms = edges
        u, v, delay_ms = np.asarray(u), np.asarray(v), np.asarray(delay_ms, dtype=np.float64)
        if not u.shape == v.shape == delay_ms.shape == (u.size,):
            raise ValueError(f"slot {slot}: edge columns differ in length")
        if u.size and not (u.dtype.kind in "iu" and v.dtype.kind in "iu"):
            raise ValueError(f"slot {slot}: node ids must be integers")
        if u.size and max(_unsigned(u).max(), _unsigned(v).max()) >= roster.num_nodes:
            raise ValueError(f"slot {slot}: unknown node id outside the node id range")
        u, v = u.astype(_ID, copy=False), v.astype(_ID, copy=False)  # exact for ids in range
        keys = pack_keys(np.minimum(u, v), np.maximum(u, v))
        delay = np.round(delay_ms, 9)
        if np.any(keys[1:] <= keys[:-1]):  # not yet sorted by (u, v)
            order = np.argsort(keys, kind="stable")
            keys, delay = keys[order], delay[order]
        problem = _edge_problem(roster, u, v, keys, delay) if keys.size else None
        if problem:
            raise ValueError(f"slot {slot}: {problem}")
        yield slot, keys, delay
    if slot < num_slots:
        raise ValueError(f"expected {num_slots} slots, got {slot}")


class SnapshotSeries:
    """Scenario parameters, node roster, and the edges of slots 1..N.

    Built from the raw ``(u, v, delay_ms)`` columns of each slot, slot 1
    first. The edges of slot k are records ``offsets[k-1]:offsets[k]`` of the
    read-only ``keys`` (uint32) and ``delay_ms`` columns, 12 bytes a
    record; ``u`` and ``v`` are uint16 views of the keys' halves. Each slot
    passes ``_canonical_slots``, the one home of the edge rules: every
    endpoint is an integer id of a satellite or a roster station, no
    self-loop, no ground-to-ground edge, no duplicate edge in a slot, and a
    finite positive delay below ``MAX_DELAY_MS`` once quantized to 9
    fractional digits. ``build_s`` sums the seconds of the lazy builds:
    the lifetimes and each slot's CSR. ``reused_s`` sums the recorded seconds
    of every ``memo`` hit, and ``charged_s()`` is the CPU seconds of the
    process less ``build_s`` plus ``reused_s``.
    """

    __slots__ = ("scenario", "roster", "offsets", "keys", "u", "v", "delay_ms", "snapshots",
                 "build_s", "reused_s", "_runs", "_memo")

    def __init__(self, scenario: ScenarioParams, roster: NodeRoster, slots):
        """Take each slot as it arrives, canonical, into the columns.

        The columns grow by an eighth when a slot does not fit and are
        trimmed to the records at the end, and a raw slot is dropped once it
        is copied, so memory stays at the columns plus about one slot.
        """
        keys, delay_ms = np.empty(0, _KEY), np.empty(0, np.float64)
        offsets = [0]
        for _, slot_keys, slot_delay in _canonical_slots(roster, scenario.num_slots, slots):
            start, end = offsets[-1], offsets[-1] + slot_keys.size
            if end > keys.size:  # by an eighth: resize writes zeros over the new tail
                size = max(end, keys.size + keys.size // 8)
                keys.resize(size, refcheck=False)  # a realloc: nothing views the columns yet
                delay_ms.resize(size, refcheck=False)
            keys[start:end], delay_ms[start:end] = slot_keys, slot_delay
            offsets.append(end)
        keys.resize(offsets[-1], refcheck=False)
        delay_ms.resize(offsets[-1], refcheck=False)
        self.scenario = scenario
        self.roster = roster
        self.offsets = np.array(offsets, np.int64)
        self.keys, self.delay_ms = keys, delay_ms
        for arr in (self.offsets, self.keys, self.delay_ms):
            arr.setflags(write=False)
        self.u, self.v = _halves(self.keys)
        self._runs = None
        self.build_s = self.reused_s = 0.0
        self._memo = {}
        self.snapshots = tuple(Snapshot(self, slot) for slot in range(1, scenario.num_slots + 1))

    @property
    def num_slots(self) -> int:
        return self.scenario.num_slots

    def snapshot(self, slot: int) -> Snapshot:
        if not 1 <= slot <= self.num_slots:
            raise IndexError(f"slot {slot} outside 1..{self.num_slots}")
        return self.snapshots[slot - 1]

    # CPU seconds, the one clock of the builds and runtimes: the process holds one thread
    # (the package keeps OpenBLAS to one) and a run does no I/O, so a busy host does not
    # inflate it
    _clock = staticmethod(time.process_time)

    def charged_s(self) -> float:
        """The clock of every runtime: a difference of two readings charges a run
        what it would cost alone, whichever run built or computed what it reads."""
        return self._clock() - self.build_s + self.reused_s

    def memo(self, key, compute):
        """``compute()``, run once per key and stored with the ``charged_s`` it took;
        a later call with the key returns it and adds those seconds to ``reused_s``.
        A key names what it holds: ``("ilsr", src, dst)``, ``("alpr", slot, src, dst)``."""
        entry = self._memo.get(key)
        if entry is None:
            start = self.charged_s()
            value = compute()
            entry = self._memo[key] = value, self.charged_s() - start
        else:
            self.reused_s += entry[1]
        return entry[0]

    def run_last(self) -> np.ndarray:
        """Per record: the last slot of its edge's run of consecutive slots,
        as ``_uint_for(num_slots)``: uint8 below 256 slots, uint16 below 65,536.

        Computed once, walking the slots backwards: a record whose key is in
        the next slot takes that record's run end, any other its own slot.
        """
        if self._runs is None:
            start = self._clock()
            run_last = np.empty(self.keys.size, _uint_for(self.num_slots))
            for snap in reversed(self.snapshots):
                ends = run_last[snap._span]
                ends[:] = snap.slot
                if snap.slot < self.num_slots:
                    later = self.snapshots[snap.slot]
                    pos = later.positions(snap.keys)
                    ends[pos >= 0] = run_last[later._span][pos[pos >= 0]]
            run_last.setflags(write=False)
            self._runs = run_last
            self.build_s += self._clock() - start
        return self._runs

    def __eq__(self, other):
        if not isinstance(other, SnapshotSeries):
            return NotImplemented
        return (
            self.scenario == other.scenario
            and self.roster == other.roster
            and all(np.array_equal(getattr(self, col), getattr(other, col))
                    for col in ("offsets", "keys", "delay_ms"))
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
#   lislsim-series v2
#   scenario lisl_range_km=... gs_range_km=... node_delay_ms=... \
#            slot_duration_s=... num_slots=...   (each ScenarioParams field once)
#   satellites <count>
#   gs <id> <name> <latitude> <longitude>          (one line per station)
#   slot <k> <n>                                   (slots 1..num_slots, each once)
#   <u> <v> <delay_ps>                             (exactly n edge records, canonical order)
# delay_ps is the delay in integer picoseconds, rint(delay_ms * 1e9), and
# the reader takes delay_ps / 1e9. A slot with no edges is "slot <k> 0".

_MAGIC = "lislsim-series v2"


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of each of 0..9999 as one uint32 in memory order:
    zero-padded (``0042``), and with leading zeros as NUL bytes (``\\0\\042``;
    0 keeps its last digit). Built on the first export, so a process that writes
    no series never builds them."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    padded = np.empty((10, 10, 10, 10, 4), np.uint8)  # by thousands, ..., ones, then char
    for k in range(4):  # built in place: temporaries would grow the heap ~5x the tables
        padded[..., k] = digits.reshape((10,) + (1,) * (3 - k))
    led = padded.copy()
    for k in range(3):  # char k leads with a zero where digits 0..k are all zero
        led[(0,) * (k + 1)][..., k] = 0
    tables = padded.reshape(-1, 4).view(np.uint32)[:, 0], led.reshape(-1, 4).view(np.uint32)[:, 0]
    for table in tables:
        table.setflags(write=False)
    return tables


def _put_field(rows: np.ndarray, x: np.ndarray, width: int) -> None:
    """Write the decimal text of the non-negative ints ``x``, below 10**16,
    right-aligned into the ``4 * width`` uint8 columns of ``rows``, one value a
    row, its leading zeros as NUL bytes.

    Chunk j (least significant first) of each value is written as one uint32
    from a digit table: zero-padded below the value's top chunk, NUL-led at
    it, and all NUL above it. Where the column's min and max show that a chunk
    is one kind for every row, as every chunk is at stock, one table writes it.
    """
    padded, led = _digit_tables()
    if width > 2:  # two base-10**8 digits, so that the chunk arithmetic is uint32
        high = x // 10**8
        parts = [(x - high * 10**8).astype(np.uint32), high.astype(np.uint32)]
        del high
    else:
        parts = [x.astype(np.uint32, copy=False)]
    low = int(x.min())
    for j in range(width):
        part = parts[j // 2]
        if j % 2:
            chunk = part // 10**4
        elif j + 1 < width:
            chunk = part - part // 10**4 * 10**4  # numpy divides by a constant fast, % it does not
        else:  # the column's top chunk, so the part is below 10**4
            chunk = part
        at = 4 * (width - 1 - j)
        out = rows[:, at:at + 4].view(np.uint32)[:, 0]
        place = 10 ** (4 * j + 4)
        # a chunk is below 10**4, so "clip" clips nothing; it lets take write into out unbuffered
        if low >= place:  # every value has a chunk above this one
            np.take(padded, chunk, out=out, mode="clip")
            continue
        np.take(led, chunk, out=out, mode="clip")
        if j + 1 < width:  # the values with a chunk above this one
            np.copyto(out, padded.take(chunk, mode="clip"), where=x >= place)
        if j and low < place // 10**4:  # the values that end below this chunk
            out[x < place // 10**4] = 0


def _slot_records(keys: np.ndarray, delay_ms: np.ndarray) -> bytearray:
    """The ``"%d %d %d\\n"`` records ``u v delay_ps`` of one canonical,
    non-empty slot, the delay in integer picoseconds.

    The records are the rows of one byte buffer: each field as many whole
    4-digit chunks wide as its largest value needs (``_put_field``), then its
    separator. The NUL bytes of the leading zeros are stripped last, once the
    slot's columns are freed, so a slot peaks at its buffer plus its text.
    """
    lo, hi = _halves(keys)
    columns = [lo, hi, np.rint(delay_ms * 1e9).astype(np.int64)]
    widths = [-(-len(str(int(x.max()))) // 4) for x in columns]
    ends = list(itertools.accumulate(4 * width + 1 for width in widths))  # past each separator
    text = bytearray(keys.size * ends[-1])
    rows = np.frombuffer(text, np.uint8).reshape(keys.size, ends[-1])
    for x, width, end in zip(columns, widths, ends):
        _put_field(rows[:, end - 1 - 4 * width:end - 1], x, width)
    for end, byte in zip(ends, b"  \n"):
        rows[:, end - 1] = byte
    del rows, columns
    return text.translate(None, b"\0")


def export_series(slots, path, scenario: ScenarioParams, roster: NodeRoster) -> int:
    """Write raw ``(u, v, delay_ms)`` slot columns, slot 1 first, as a series
    file; returns the number of edge records.

    Each slot passes ``_canonical_slots``, as in ``SnapshotSeries``, and is
    written as it arrives, so memory stays bounded by one slot. The text goes
    to a sibling file that replaces ``path`` once all ``scenario.num_slots``
    slots are written: a run that fails, or brings another count, leaves
    ``path`` as it was. At most one slot past the count is read, and none
    when ``path`` is a directory, which raises ``IsADirectoryError``.
    """
    if os.path.isdir(path):  # os.replace would refuse it only after the last slot
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
    lines = [_MAGIC]
    lines.append(" ".join(["scenario"] + [f"{f.name}={getattr(scenario, f.name)}"
                                          for f in fields(scenario)]))
    lines.append(f"satellites {roster.num_satellites}")
    for gs in roster.ground_stations:
        lines.append(f"gs {gs.id} {gs.name} {gs.latitude_deg!r} {gs.longitude_deg!r}")
    partial = f"{os.fspath(path)}.partial"
    records = 0
    try:
        with open(partial, "wb") as fh:
            fh.write(("\n".join(lines) + "\n").encode("utf-8"))
            for slot, keys, delay_ms in _canonical_slots(roster, scenario.num_slots, slots):
                fh.write(b"slot %d %d\n" % (slot, keys.size))
                if keys.size:
                    fh.write(_slot_records(keys, delay_ms))
                records += keys.size
        os.replace(partial, path)
    except BaseException:
        if os.path.exists(partial):
            os.unlink(partial)
        raise
    return records


def _parse_scenario_line(line: str) -> ScenarioParams:
    items = [token.partition("=")[::2] for token in line.split()[1:]]
    values = field_values(ScenarioParams, items, "scenario header")
    missing = [f.name for f in fields(ScenarioParams) if f.name not in values]
    if missing:
        raise ValueError(f"scenario header lacks {', '.join(missing)}")
    return ScenarioParams(**values)


def _read_header(fh) -> tuple[ScenarioParams, NodeRoster, str]:
    """Magic, scenario, satellite and station lines, plus the first line after them."""
    magic = fh.readline().rstrip("\n")
    if magic.startswith("lislsim-series ") and magic != _MAGIC:
        raise ValueError(f"{magic!r} files are not read: this version reads {_MAGIC!r}; "
                         "write the series again with `lislsim generate`")
    if magic != _MAGIC:
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


_RECORD = np.dtype([("u", "i8"), ("v", "i8"), ("delay_ps", "i8")])

# Characters of record text parsed at a time. ``np.loadtxt`` takes each run of
# records in a block as its list of lines: a stock block is ~3,300 lines of
# ~19 characters, held as ~230 KiB of str objects and their list.
_BLOCK = 2**16


def _blocks(fh, text: str):
    """``text`` and then the rest of ``fh``, in blocks of whole lines: each
    ``_BLOCK`` characters and the rest of the line the last of them is in."""
    while text := text + fh.read(_BLOCK) + fh.readline():
        yield text
        text = ""


def _pieces(blocks):
    """The record section in file order: each slot header as its list of
    fields, and the text between headers as a run of lines, a str (empty or
    whitespace-only when there are no records there).

    A header is a line whose first field is ``slot``. A record holds only
    digits, signs and whitespace, so a search for ``s`` finds every header.
    A block without one is its one run, not a copy.
    """
    for text in blocks:
        done = 0
        at = text.find("s")  # one character: a memchr
        while at >= 0:
            start = text.rfind("\n", 0, at) + 1
            end = text.find("\n", at) + 1 or len(text)
            fields = text[start:end].split()
            if fields[0] == "slot":
                yield text[done:start]
                yield fields
                done = end
            at = text.find("s", end)
        yield text[done:]


def _compact(rec: np.ndarray) -> tuple[np.ndarray, ...]:
    """Records as contiguous ``(u, v, delay_ms)`` columns: an id column within
    the 16-bit ids takes uint16, any other stays int64, and the delay is
    ``delay_ps / 1e9``. 12 bytes a record, where the parsed records take 24."""
    columns = []
    for col in (rec["u"], rec["v"]):
        in_range = _unsigned(col).max() < MAX_NODES
        columns.append(col.astype(_ID if in_range else np.int64))
    return (*columns, rec["delay_ps"] / 1e9)


def _run_columns(run: str, room: int):
    """The compact columns of a run's first ``room`` records (None if it has
    none); the index and text of the line after them that is a record past
    ``room`` or malformed (None if none); and the run's count of LFs.

    The run goes to ``np.loadtxt`` as its lines, split at LF only: text mode
    made every line end LF, and ``splitlines()`` would also cut at "\\x0b",
    "\\x85"..., which are whitespace.
    """
    lines = run.split("\n")
    if not run or run.isspace():  # np.loadtxt would warn of a run without records
        return None, None, len(lines) - 1
    try:
        rec, bad = np.loadtxt(lines, dtype=_RECORD, comments=None, ndmin=1), None
    except ValueError:  # parsed again a line at a time, up to the first malformed one
        good = []
        for bad, text in enumerate(lines):
            try:
                if text.strip():
                    good.append(np.loadtxt([text], dtype=_RECORD, comments=None).item())
            except ValueError:
                break
        rec = np.array(good, _RECORD)
    if rec.size > room:
        bad = [i for i, text in enumerate(lines) if text.strip()][room]
    columns = _compact(rec[:room]) if rec.size and room else None
    return columns, None if bad is None else (bad, lines[bad].strip()), len(lines) - 1


def _slot_columns(pieces, line: int, num_slots: int):
    """The raw ``(u, v, delay_ms)`` columns of slots 1..``num_slots``, each
    yielded once its last record is read, from the pieces of the record section.

    A slot's records may run on over any number of blocks. Each fault is
    raised at its line, in file order: a header that is not ``slot <k> <n>``
    in decimal digits, a slot whose records fall short of its header's count
    (at the next header or the end of the file), a header other than the next
    slot or past ``num_slots``, a malformed record, a record past its slot's
    count or before the first header, and fewer slots than ``num_slots``. The
    consumer applies a slot's edge rules when it is yielded, so they rank at
    the slot's last record. ``line`` is the number of the first piece's line.
    """
    slot = want = have = 0  # the open slot, the records its header says, those read
    parts: list[tuple[np.ndarray, ...]] = []  # columns of the open slot's records
    for piece in pieces:
        if isinstance(piece, list):  # a slot header's fields
            header = piece
            if len(header) != 3 or not all(f.isascii() and f.isdigit() for f in header[1:]):
                raise ValueError(f"line {line}: bad slot header {' '.join(header)!r}, "
                                 "want 'slot <k> <n>'")
            if have < want:
                raise ValueError(f"line {line}: slot {slot} has {have} records, "
                                 f"but its header says {want}")
            k, n = int(header[1]), int(header[2])
            if k != slot + 1:
                raise ValueError(f"line {line}: expected slot {slot + 1}, got slot {k}")
            if k > num_slots:
                raise ValueError(f"line {line}: slot {k}, but the scenario header "
                                 f"says {num_slots} slots")
            slot, want, have, line = k, n, 0, line + 1
            if not n:
                yield (), (), ()
            continue
        columns, bad, newlines = _run_columns(piece, want - have)
        if columns:
            parts.append(columns)
            have += columns[0].size
            if have == want:
                yield parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))
                parts = []
        if bad:
            where, text = f"line {line + bad[0]}", bad[1]
            if have < want:
                raise ValueError(f"{where}: malformed edge record {text!r}")
            if not slot:
                raise ValueError(f"{where}: edge record before the first slot header")
            raise ValueError(f"{where}: slot {slot} has more records than the {want} "
                             "its header says")
        line += newlines
    if have < want:
        raise ValueError(f"end of file: slot {slot} has {have} records, "
                         f"but its header says {want}")
    if slot < num_slots:
        raise ValueError(f"file covers slots 1..{slot} but the scenario header says {num_slots}")


def import_series(path) -> SnapshotSeries:
    """Parse and fully validate a series file.

    Raises ``SeriesFormatError`` for any fault in the file's bytes, and
    ``OSError`` for a path that cannot be opened or read (missing, or a
    directory). The records are read a block of whole lines at a time, and
    each run of them between slot headers goes to one ``np.loadtxt`` call as
    its lines. Each slot goes to ``SnapshotSeries`` once its last record is
    read, into its growing columns, so the import holds the columns plus
    about one block and one slot. ``SnapshotSeries`` applies the edge rules.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            scenario, roster, line = _read_header(fh)
            first = 4 + len(roster.ground_stations)  # the number of `line`
            slots = _slot_columns(_pieces(_blocks(fh, line)), first, scenario.num_slots)
            return SnapshotSeries(scenario, roster, slots)
    except ValueError as exc:  # includes bad UTF-8 and records np.loadtxt cannot parse
        raise SeriesFormatError(str(exc)) from exc
