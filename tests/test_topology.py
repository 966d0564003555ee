"""Snapshots, lifetime indexing, and the series file format."""

import gc
import itertools
import re
import tracemalloc
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lislsim import topology
from lislsim.constellation import ConstellationParams, GroundStation, ScenarioParams
from lislsim.cli import main
from lislsim.constellation import generate_series
from lislsim.topology import (
    SeriesFormatError,
    SnapshotSeries,
    NodeRoster,
    export_series,
    import_series,
)
from lislsim.routing import Route

from brute_force import import_series_reference, reference_run_last
from conftest import head_series, one_slot, one_slot_edges, pair_positions, save_series
from toyseries import dominance_toy_series, series_from_edges


def edge_delay(snap, a, b):
    """Delay of the edge (a, b) in a snapshot, None when it is absent."""
    return snap.route_delay(Route((a, b)))


def slots_series(slot_lists: dict[tuple[int, int], list[int]], num_slots: int):
    """Series whose edge existence follows the given slot lists exactly."""
    per_slot: list[dict[tuple[int, int], float]] = [dict() for _ in range(num_slots)]
    for edge, slots in slot_lists.items():
        for s in slots:
            per_slot[s - 1][edge] = 1.5
    return series_from_edges(per_slot, num_satellites=8)


class TestSnapshot:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            one_slot({(2, 2): 1.0}, num_nodes=3)

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            one_slot({(0, 1): 1.0, (1, 0): 2.0}, num_nodes=2)

    def test_rejects_non_positive_delay(self):
        with pytest.raises(ValueError, match="non-positive delay"):
            one_slot({(0, 1): 0.0}, num_nodes=2)
        with pytest.raises(ValueError, match="non-positive delay"):
            one_slot({(0, 1): -3.0}, num_nodes=2)

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError, match="id range"):
            one_slot({(0, 7): 1.0}, num_nodes=3)
        with pytest.raises(ValueError, match="id range"):
            one_slot({(0, -1): 1.0}, num_nodes=3)
        with pytest.raises(ValueError, match="id range"):
            one_slot({(0, 2**32 + 1): 1.0}, num_nodes=3)  # would wrap in int32

    def test_canonicalizes_reversed_pairs(self):
        snap = one_slot({(3, 1): 2.0}, num_nodes=4)
        assert edge_delay(snap, 1, 3) is not None and edge_delay(snap, 3, 1) is not None
        assert edge_delay(snap, 3, 1) == 2.0

    def test_delays_quantized_to_nine_digits(self):
        snap = one_slot({(0, 1): 1.23456789012345}, num_nodes=2)
        assert edge_delay(snap, 0, 1) == round(1.23456789012345, 9)

    def test_route_delay_none_when_edge_missing(self):
        snap = one_slot({(0, 1): 1.0, (1, 2): 2.0}, num_nodes=4)
        assert snap.route_delay(Route((0, 1, 2))) == 3.0
        assert snap.route_delay(Route((0, 1, 3))) is None


# raw (u, v, delay_ms) slot columns: one good edge, a self-loop, and columns
# of 3 u values against 1 v value, which would broadcast into three edges
_EDGE = ([0], [1], [1.0])
_SELF_LOOP = ([2], [2], [1.0])
_BROADCAST = ([0, 1, 2], [3], [1.0, 1.0, 1.0])


class TestSeriesInput:
    """The constructor takes exactly ``num_slots`` raw slots of 1-D columns."""

    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_wrong_slot_count_rejected(self, count):
        scenario = ScenarioParams(1.0, 1.0, 0.0, 1.0, num_slots=3)
        with pytest.raises(ValueError, match=f"expected 3 slots, got {count}"):
            SnapshotSeries(scenario, NodeRoster(4), [_EDGE] * count)

    @pytest.mark.parametrize("slot", [
        _BROADCAST, ([0], [1], [1.0, 2.0]), ([[0]], [[1]], [[1.0]]), (0, 1, 1.0),
    ], ids=["u-longer-than-v", "delay-longer", "two-d", "scalars"])
    def test_columns_of_different_shape_rejected(self, slot):
        scenario = ScenarioParams(1.0, 1.0, 0.0, 1.0, num_slots=2)
        with pytest.raises(ValueError, match="slot 2: edge columns differ in length"):
            SnapshotSeries(scenario, NodeRoster(4), [_EDGE, slot])

    def test_memory_is_the_columns_and_about_one_slot(self, stock_head):
        head = head_series(stock_head, 12)

        def raw(snaps):  # fresh columns for each slot, as a slot generator makes them
            return ((snap.u.astype(np.int64), snap.v.astype(np.int64), snap.delay_ms.copy())
                    for snap in snaps)

        big = max(head.snapshots, key=lambda snap: snap.edge_count)
        one = _peak_bytes(SnapshotSeries, replace(head.scenario, num_slots=1), head.roster, raw([big]))
        peak = _peak_bytes(SnapshotSeries, head.scenario, head.roster, raw(head.snapshots))
        # the former constructor, which held every raw slot, peaked 6.1 MB over the columns here
        assert peak < head.keys.nbytes + head.delay_ms.nbytes + 1.5 * one, (peak, one)


def _through_sink(sink, tmp_path, slots) -> SnapshotSeries:
    """A three-slot series over 4 satellites, built or written and read back."""
    scenario = ScenarioParams(1.0, 1.0, 0.0, 1.0, num_slots=3)
    if sink == "constructor":
        return SnapshotSeries(scenario, NodeRoster(4), slots)
    path = tmp_path / "sink.series"
    try:
        export_series(slots, path, scenario, NodeRoster(4))
    finally:
        assert list(tmp_path.iterdir()) in ([], [path])  # no .partial left behind
    return import_series(path)


def _counted(slots, drawn: list):
    """``slots``, appending each to ``drawn``; fails past one slot too many."""
    for slot in slots:
        drawn.append(slot)
        assert len(drawn) <= 4, "a sink read past one slot too many"
        yield slot


@pytest.mark.parametrize("sink", ["constructor", "export"])
class TestBothSinks:
    """Both series sinks apply one set of column rules and read at most one extra slot."""

    @pytest.mark.parametrize("slot,error", [
        (([0.0], [1.0], [1.0]), "node ids must be integers"),
        (([False], [True], [1.0]), "node ids must be integers"),
        ((np.array([0], np.uint64), np.array([2**63], np.uint64), [1.0]), "unknown node id"),
    ], ids=["float-ids", "bool-ids", "uint64-id-past-int64"])
    def test_ids_must_be_integers_in_range(self, sink, tmp_path, slot, error):
        with pytest.raises(ValueError, match=f"slot 2: {error}"):
            _through_sink(sink, tmp_path, [_EDGE, slot, _EDGE])

    def test_uint64_ids_and_empty_lists_accepted(self, sink, tmp_path):
        uint64_edge = (np.array([1], np.uint64), np.array([0], np.uint64), [1.0])
        got = _through_sink(sink, tmp_path, [uint64_edge, ([], [], []), _EDGE])
        want = series_from_edges([{(0, 1): 1.0}, {}, {(0, 1): 1.0}], num_satellites=4)
        for col in ("offsets", "keys", "delay_ms"):
            assert np.array_equal(getattr(got, col), getattr(want, col)), col

    def test_endless_slots_read_one_past_the_count(self, sink, tmp_path):
        drawn = []
        with pytest.raises(ValueError, match="expected 3 slots, got 4 or more"):
            _through_sink(sink, tmp_path, _counted(itertools.repeat(_EDGE), drawn))
        assert len(drawn) == 4

    @pytest.mark.parametrize("slot", [([0], [1]), ([0], [1], [1.0], [1.0])],
                             ids=["two-columns", "four-columns"])
    def test_slot_of_other_than_three_columns_rejected(self, sink, tmp_path, slot):
        with pytest.raises(ValueError, match=r"values to unpack \(expected 3"):
            _through_sink(sink, tmp_path, [_EDGE, slot, _EDGE])


class TestRoster:
    def test_station_ids_must_follow_satellites(self):
        with pytest.raises(ValueError):
            NodeRoster(4, (GroundStation(id=2, name="x", latitude_deg=0, longitude_deg=0),))

    def test_ground_to_ground_edges_rejected(self):
        stations = (
            GroundStation(id=2, name="a", latitude_deg=0, longitude_deg=0),
            GroundStation(id=3, name="b", latitude_deg=0, longitude_deg=1),
        )
        with pytest.raises(ValueError, match="ground-to-ground"):
            series_from_edges([{(2, 3): 1.0}], num_satellites=2, ground_stations=stations)

    def test_negative_satellite_count_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            NodeRoster(-3)

    def test_gap_ids_rejected_consistently(self, tmp_path):
        # stations 3 and 5 over satellites 0..2 leave id 4 unassigned
        stations = (
            GroundStation(id=3, name="a", latitude_deg=0, longitude_deg=0),
            GroundStation(id=5, name="b", latitude_deg=0, longitude_deg=1),
        )
        with pytest.raises(ValueError, match="must be 3..4"):
            NodeRoster(3, stations)
        path = tmp_path / "gap.series"
        path.write_text(HEADER + "satellites 3\ngs 3 a 0.0 0.0\ngs 5 b 0.0 1.0\n1 1 5 1.0\n2 - - -\n")
        with pytest.raises(SeriesFormatError, match="must be 3..4"):
            import_series(path)

    def test_station_ids_in_any_order(self):
        stations = (
            GroundStation(id=4, name="a", latitude_deg=0, longitude_deg=0),
            GroundStation(id=3, name="b", latitude_deg=0, longitude_deg=1),
        )
        assert NodeRoster(3, stations).num_nodes == 5


def assert_matches_reference(series):
    """run_last agrees with brute-force scans."""
    for snap in series.snapshots:
        run_last = snap.run_last
        assert run_last.shape == snap.u.shape
        for k, edge in enumerate(zip(snap.u.tolist(), snap.v.tolist())):
            assert run_last[k] == reference_run_last(series, edge, snap.slot)


def run_last_at(series, edge, slot):
    snap = series.snapshot(slot)
    return int(snap.run_last[pair_positions(snap, [edge])[0]])


class TestLinkDetails:
    def test_example_slot_list(self):
        series = slots_series({(0, 1): [3, 4, 5, 9, 10]}, num_slots=12)
        ends = [run_last_at(series, (0, 1), s) for s in (3, 4, 5, 9, 10)]
        assert ends == [5, 5, 5, 10, 10]

    def test_permanent_edge(self):
        series = slots_series({(0, 1): list(range(1, 13))}, num_slots=12)
        assert run_last_at(series, (0, 1), 5) == 12

    def test_containing_run(self):
        series = slots_series({(0, 1): [3, 4, 5, 9, 10]}, num_slots=12)
        assert run_last_at(series, (0, 1), 4) == 5

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(4, 7)),
            st.sets(st.integers(1, 15), min_size=1),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_duality_and_run_maximality(self, table):
        series = slots_series({e: sorted(s) for e, s in table.items()}, num_slots=15)
        assert_matches_reference(series)

    def test_per_slot_arrays_align_with_snapshots(self):
        series = dominance_toy_series()
        assert_matches_reference(series)

    def test_series_without_edges(self):
        series = slots_series({}, num_slots=3)
        assert [snap.run_last.size for snap in series.snapshots] == [0, 0, 0]

    @pytest.mark.parametrize("num_slots,width", [(255, "uint8"), (256, "uint16")],
                             ids=["uint8", "uint16"])
    def test_width_holds_the_last_slot(self, num_slots, width):
        # short runs everywhere, and one run that ends at the horizon
        series = slots_series({
            (0, 1): [s for s in range(1, num_slots + 1) if s % 3],
            (1, 2): [num_slots - 2, num_slots - 1, num_slots],
        }, num_slots=num_slots)
        assert series.run_last().dtype == width and series.run_last().max() == num_slots
        assert_matches_reference(series)


@pytest.mark.parametrize("slot", [0, 7], ids=["slot-0", "past-the-last"])
def test_snapshot_outside_the_slots_raises(slot):
    with pytest.raises(IndexError, match=f"slot {slot} outside 1..6"):
        dominance_toy_series().snapshot(slot)


class TestColumnViews:
    def test_snapshots_are_slices_of_the_series_columns(self, tmp_path):
        shell = ConstellationParams(2, 5, 53.0, 550.0)
        stations = [GroundStation(id=10, name="a", latitude_deg=45.0, longitude_deg=7.0)]
        scenario = ScenarioParams(
            lisl_range_km=4500.0, gs_range_km=1200.0, node_delay_ms=1.0,
            slot_duration_s=30.0, num_slots=3,
        )
        generated = generate_series(shell, stations, scenario)
        save_series(generated, tmp_path / "gen.series")
        imported = import_series(tmp_path / "gen.series")
        for series in (generated, imported, dominance_toy_series()):
            for half in (series.u, series.v):  # one integer edge column
                assert np.shares_memory(half, series.keys)
            for col in ("keys", "u", "v", "delay_ms"):
                assert not getattr(series, col).flags.writeable
            for snap in series.snapshots:
                assert snap.edge_count > 0
                for col in ("keys", "u", "v", "delay_ms"):
                    assert np.shares_memory(getattr(snap, col), getattr(series, col))
                    assert not getattr(snap, col).flags.writeable
                absent = np.array([snap.keys[0] - 1, snap.keys[-1] + 1])
                assert snap.positions(absent).tolist() == [-1, -1]
                assert snap.positions(snap.keys).tolist() == list(range(snap.edge_count))
        empty = series_from_edges([{}], num_satellites=2).snapshot(1)
        assert empty.positions(generated.keys[:3]).tolist() == [-1, -1, -1]


class TestSeriesFile:
    def test_round_trip_toy(self, tmp_path):
        series = dominance_toy_series()
        path = tmp_path / "toy.series"
        save_series(series, path)
        assert import_series(path) == series

    def test_round_trip_generated(self, tmp_path):
        shell = ConstellationParams(2, 5, 53.0, 550.0)
        stations = [GroundStation(id=10, name="a", latitude_deg=45.0, longitude_deg=7.0)]
        scenario = ScenarioParams(
            lisl_range_km=4500.0, gs_range_km=1200.0, node_delay_ms=1.0,
            slot_duration_s=30.0, num_slots=5,
        )
        series = generate_series(shell, stations, scenario)
        path = tmp_path / "gen.series"
        save_series(series, path)
        again = import_series(path)
        assert again == series
        # and the round trip is a fixed point of itself
        path2 = tmp_path / "gen2.series"
        save_series(again, path2)
        assert path2.read_text() == path.read_text()

    def test_round_trip_empty_slot(self, tmp_path):
        series = series_from_edges([{(0, 1): 1.0}, {}, {(0, 1): 2.0}], num_satellites=2)
        path = tmp_path / "gap.series"
        save_series(series, path)
        assert import_series(path) == series

    def test_shuffled_records_import_canonical(self, tmp_path):
        # exported files are already canonical, so only a hand-made file
        # reaches the path that swaps endpoints and sorts a slot
        series = dominance_toy_series()
        save_series(series, tmp_path / "canonical.series")
        lines = (tmp_path / "canonical.series").read_text().splitlines()
        header, records = lines[:5], lines[5:]
        assert header[-1].startswith("gs 7 ") and records[0].startswith("1 ")
        rng = np.random.default_rng(5)
        shuffled = []
        for slot in range(1, series.num_slots + 1):
            in_slot = [r.split() for r in records if r.split()[0] == str(slot)]
            for i in rng.permutation(len(in_slot)):
                k, a, b, d = in_slot[i]
                shuffled.append(" ".join((k, b, a, d) if rng.random() < 0.5 else (k, a, b, d)))
        fields = [[int(x) for x in r.split()[:3]] for r in shuffled]
        assert any(a > b for _, a, b in fields)  # some endpoints swapped
        assert any(x[:2] > y[:2] for x, y in zip(fields, fields[1:]) if x[0] == y[0])
        (tmp_path / "shuffled.series").write_text("\n".join(header + shuffled) + "\n")
        again = import_series(tmp_path / "shuffled.series")
        assert again == series
        save_series(again, tmp_path / "again.series")
        canonical = (tmp_path / "canonical.series").read_bytes()
        assert (tmp_path / "again.series").read_bytes() == canonical

    def test_non_consecutive_slots_rejected(self, tmp_path):
        series = series_from_edges([{(0, 1): 1.0}, {(0, 1): 1.5}], num_satellites=2)
        path = tmp_path / "bad.series"
        save_series(series, path)
        text = path.read_text().splitlines()
        text = [ln for ln in text if not ln.startswith("2 ")]
        text[1] = text[1].replace("num_slots=2", "num_slots=3")
        text.append("3 0 1 1.500000000")
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(SeriesFormatError, match="non-consecutive slots"):
            import_series(path)

    def test_non_positive_delay_rejected(self, tmp_path):
        path = tmp_path / "neg.series"
        path.write_text(
            "lislsim-series v1\n"
            "scenario lisl_range_km=1.0 gs_range_km=1.0 node_delay_ms=0.0 "
            "slot_duration_s=1.0 num_slots=1\n"
            "satellites 2\n"
            "1 0 1 -1.0\n"
        )
        with pytest.raises(SeriesFormatError, match="non-positive delay"):
            import_series(path)

    def test_duplicate_edge_rejected(self, tmp_path):
        path = tmp_path / "dup.series"
        path.write_text(
            "lislsim-series v1\n"
            "scenario lisl_range_km=1.0 gs_range_km=1.0 node_delay_ms=0.0 "
            "slot_duration_s=1.0 num_slots=1\n"
            "satellites 2\n"
            "1 0 1 1.0\n"
            "1 1 0 2.0\n"
        )
        with pytest.raises(SeriesFormatError, match="duplicate edge"):
            import_series(path)

    def test_unknown_node_rejected(self, tmp_path):
        path = tmp_path / "unknown.series"
        path.write_text(
            "lislsim-series v1\n"
            "scenario lisl_range_km=1.0 gs_range_km=1.0 node_delay_ms=0.0 "
            "slot_duration_s=1.0 num_slots=1\n"
            "satellites 2\n"
            "1 0 5 1.0\n"
        )
        with pytest.raises(SeriesFormatError, match="unknown node id"):
            import_series(path)

    def test_delay_at_the_limit_rejected(self, tmp_path):
        path = tmp_path / "far.series"
        path.write_text(
            "lislsim-series v1\n"
            "scenario lisl_range_km=1.0 gs_range_km=1.0 node_delay_ms=0.0 "
            "slot_duration_s=1.0 num_slots=1\n"
            "satellites 2\n"
            "1 0 1 1000000.0\n"
        )
        with pytest.raises(SeriesFormatError, match="slot 1: delay not below the 1000000 ms limit"):
            import_series(path)

    def test_extreme_delays_round_trip_byte_exactly(self, tmp_path):
        series = series_from_edges([{(0, 1): 999999.999999999, (1, 2): 1e-9}], num_satellites=3)
        save_series(series, tmp_path / "a.series")
        text = (tmp_path / "a.series").read_text()
        assert text.endswith("\n1 0 1 999999.999999999\n1 1 2 0.000000001\n")
        again = import_series(tmp_path / "a.series")
        assert again == series
        save_series(again, tmp_path / "b.series")
        assert (tmp_path / "b.series").read_bytes() == (tmp_path / "a.series").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.series"
        path.write_text("something else\n")
        with pytest.raises(SeriesFormatError, match="magic"):
            import_series(path)

    def test_slot_count_mismatch_rejected(self, tmp_path):
        series = series_from_edges([{(0, 1): 1.0}], num_satellites=2)
        path = tmp_path / "short.series"
        save_series(series, path)
        text = path.read_text().replace("num_slots=1", "num_slots=2")
        path.write_text(text)
        with pytest.raises(SeriesFormatError, match="header says 2"):
            import_series(path)


def _export_series_reference(series, path) -> None:
    """The former writer: one f-string per record, the file joined as one string."""
    sc = series.scenario
    lines = ["lislsim-series v1"]
    lines.append(
        "scenario "
        f"lisl_range_km={sc.lisl_range_km!r} gs_range_km={sc.gs_range_km!r} "
        f"node_delay_ms={sc.node_delay_ms!r} slot_duration_s={sc.slot_duration_s!r} "
        f"num_slots={sc.num_slots}"
    )
    lines.append(f"satellites {series.roster.num_satellites}")
    for gs in series.roster.ground_stations:
        lines.append(f"gs {gs.id} {gs.name} {gs.latitude_deg!r} {gs.longitude_deg!r}")
    out = ["\n".join(lines), "\n"]
    for snap in series.snapshots:
        if snap.edge_count == 0:
            out.append(f"{snap.slot} - - -\n")
            continue
        slot = snap.slot
        rows = "\n".join(
            f"{slot} {a} {b} {d:.9f}" for a, b, d in zip(snap.u, snap.v, snap.delay_ms)
        )
        out.append(rows)
        out.append("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(out))


def _peak_bytes(write, *args) -> int:
    # a full collection empties the interpreter's free lists, so every object
    # the call makes is counted, whatever the tests before it left there
    gc.collect()
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _generate(folder, num_slots: int):
    """``lislsim generate`` of the first ``num_slots`` stock slots."""
    cfg = folder / f"stock{num_slots}.ini"
    cfg.write_text(f"[scenario]\nnum_slots = {num_slots}\n")
    assert main(["generate", "--config", str(cfg), "--out", str(folder / "gen.series")]) == 0


# Delays over (0, 1e6) ms: any float, the two extremes of 9-digit text, and
# values halfway between two 9-digit delays, the hardest to round.
_DELAYS = st.one_of(
    st.floats(min_value=1e-9, max_value=999999.999999999),
    st.sampled_from([1e-9, 999999.999999999]),
    st.integers(1, 10**15 - 2).map(lambda k: (k + 0.5) / 1e9),
)
_PAIRS = st.lists(st.integers(0, 2**16 - 1), min_size=2, max_size=2, unique=True).map(
    lambda pair: tuple(sorted(pair))
)


class TestExportWriter:
    def test_toy_series_with_empty_slots_byte_identical(self, tmp_path):
        stations = (GroundStation(id=3, name="g", latitude_deg=-12.5, longitude_deg=180.0),)
        series = series_from_edges(
            [{}, {(0, 1): 1.0, (1, 3): 0.123456789}, {}, {}, {(0, 2): 1e-9, (0, 1): 12345.5}],
            num_satellites=3, ground_stations=stations, node_delay_ms=0.25,
        )
        for name, toy in (("gaps", series), ("dominance", dominance_toy_series())):
            save_series(toy, tmp_path / f"{name}.new")
            _export_series_reference(toy, tmp_path / f"{name}.old")
            assert (tmp_path / f"{name}.new").read_bytes() == (tmp_path / f"{name}.old").read_bytes()
        assert "\n1 - - -\n" in (tmp_path / "gaps.new").read_text()

    def test_stock_slots_byte_identical(self, stock_head, tmp_path):
        save_series(stock_head, tmp_path / "new.series")
        _export_series_reference(stock_head, tmp_path / "old.series")
        assert (tmp_path / "new.series").read_bytes() == (tmp_path / "old.series").read_bytes()

    def test_memory_bounded_by_one_slot(self, stock_head, tmp_path):
        # four slots: a writer that holds the whole text peaks at ~2.7x one slot
        head = head_series(stock_head, 4)
        big = max(head.snapshots, key=lambda snap: snap.edge_count)
        one = SnapshotSeries(
            replace(head.scenario, num_slots=1), head.roster, [(big.u, big.v, big.delay_ms)]
        )
        one_peak = _peak_bytes(save_series, one, tmp_path / "one.series")
        all_peak = _peak_bytes(save_series, head, tmp_path / "all.series")
        assert all_peak < 1.5 * one_peak, (all_peak, one_peak)
        # the command streams its slots; one that held the series peaked 2.1x higher at 12
        peaks = [_peak_bytes(_generate, tmp_path, n) for n in (3, 12)]
        assert max(peaks) < 1.5 * min(peaks), peaks

    @pytest.mark.parametrize("slots,error", [
        ([_EDGE] * 2, "expected 3 slots, got 2"),
        ([_EDGE] * 4, "expected 3 slots, got 4"),
        ([_EDGE, _SELF_LOOP, _EDGE], "slot 2: self-loops are not allowed"),
        ([_EDGE, _EDGE, _BROADCAST], "slot 3: edge columns differ in length"),
    ], ids=["too-few-slots", "too-many-slots", "self-loop", "u-longer-than-v"])
    def test_rejected_slots_keep_the_old_file(self, tmp_path, slots, error):
        series = series_from_edges([{(0, 1): 1.0}] * 3, num_satellites=4)
        path = tmp_path / "kept.series"
        save_series(series, path)
        old = path.read_bytes()
        with pytest.raises(ValueError, match=error):
            export_series(slots, path, series.scenario, series.roster)
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]  # no .partial left behind
        assert import_series(path) == series

    def test_directory_target_refused_before_any_slot(self, tmp_path):
        folder = tmp_path / "folder"
        folder.mkdir()
        drawn = []
        scenario = ScenarioParams(1.0, 1.0, 0.0, 1.0, num_slots=3)
        with pytest.raises(IsADirectoryError, match="Is a directory"):
            export_series(_counted([_EDGE] * 3, drawn), folder, scenario, NodeRoster(4))
        assert drawn == []
        assert list(tmp_path.iterdir()) == [folder]  # no .partial beside it
        assert list(folder.iterdir()) == []

    @given(st.lists(st.dictionaries(_PAIRS, _DELAYS, max_size=6), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_reference_writer(self, tmp_path_factory, per_slot):
        series = series_from_edges(per_slot, num_satellites=2**16)
        folder = tmp_path_factory.mktemp("writer")
        save_series(series, folder / "new.series")
        _export_series_reference(series, folder / "old.series")
        assert (folder / "new.series").read_bytes() == (folder / "old.series").read_bytes()


def narrowest_uint(largest: int) -> np.dtype:
    """The first of uint8, 16, 32 and 64 that holds 0..largest."""
    return next(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                if np.iinfo(t).max >= largest)


def reference_csr(snap):
    """The full CSR built with a two-key lexsort over (source, neighbour), in
    int64: (indptr, neighbours, edge id of each arc)."""
    e = snap.edge_count
    src = np.concatenate([snap.u, snap.v]).astype(np.int64)
    dst = np.concatenate([snap.v, snap.u]).astype(np.int64)
    eid = np.concatenate([np.arange(e), np.arange(e)])
    order = np.lexsort((dst, src))
    indptr = np.zeros(snap.num_nodes + 1, np.int64)
    np.cumsum(np.bincount(src, minlength=snap.num_nodes), out=indptr[1:])
    return indptr, dst[order], eid[order]


def assert_csr_valid(snap):
    """Each array of the halves is in the narrowest unsigned dtype for its
    largest possible value, and per node the down neighbours (all lower)
    followed by the up neighbours (all higher) are the reference's row in
    order, with matching edge ids."""
    csr = snap.csr()
    n, e = snap.num_nodes, snap.edge_count
    for got, largest in zip(csr, (e, e - 1, e)):
        assert got.dtype == narrowest_uint(largest), (got.dtype, largest)
    down_ptr, down_edges, up_ptr = (a.astype(np.int64) for a in csr)  # so that differences do not wrap
    assert down_ptr[0] == up_ptr[0] == 0 and down_ptr[-1] == up_ptr[-1] == e
    assert np.array_equal(np.sort(down_edges), np.arange(e))  # each edge once in the down half
    u, v = snap.u.astype(np.int64), snap.v.astype(np.int64)
    indptr, nbr, eid = reference_csr(snap)
    for node in range(n):
        down = down_edges[down_ptr[node]:down_ptr[node + 1]]
        up = np.arange(up_ptr[node], up_ptr[node + 1])
        assert np.all(v[down] == node) and np.all(u[up] == node), node
        neighbours = np.concatenate([u[down], v[up]])
        assert np.all(np.diff(neighbours) > 0), node
        row = slice(indptr[node], indptr[node + 1])
        assert np.array_equal(neighbours, nbr[row]), node
        assert np.array_equal(np.concatenate([down, up]), eid[row]), node


def first_pairs(num_edges: int, num_nodes: int = 400) -> dict[tuple[int, int], float]:
    """The first ``num_edges`` of the (i, j) pairs, i < j < num_nodes, in key order."""
    a, b = np.triu_indices(num_nodes, 1)
    return dict.fromkeys(zip(a[:num_edges].tolist(), b[:num_edges].tolist()), 1.0)


class TestCsr:
    """``Snapshot.csr()``: each node's down then up half is its row of the full
    CSR, ascending, each edge once a half."""

    @pytest.mark.parametrize(
        "edges,sats,stations",
        [({}, 0, 0), ({}, 5, 1), ({(0, 1): 1.0}, 2, 0), ({(3, 1): 1.0}, 4, 0),
         ({(2, 1): 1.0, (1, 0): 2.0}, 3, 0), ({(2, 0): 1.0, (1, 2): 2.0}, 2, 1)],
        ids=["no-nodes", "empty-slot", "one-edge", "one-edge-isolated", "path",
             "station-edges"],
    )
    def test_small_slots(self, edges, sats, stations):
        assert_csr_valid(one_slot(edges, num_nodes=sats + stations, num_satellites=sats))

    @settings(max_examples=60, deadline=None)
    @given(one_slot_edges())
    def test_random_slots(self, slot):
        edges, sats, stations = slot
        assert_csr_valid(one_slot(edges, num_nodes=sats + stations, num_satellites=sats))

    @pytest.mark.parametrize("num_nodes,width", [(65_536, "uint16")], ids=["uint16"])
    def test_sort_key_widths(self, num_nodes, width):
        top = num_nodes - 1
        edges = {(0, 255): 1.0, (0, 256): 2.0, (255, 256): 3.0, (0, top): 4.0,
                 (256, top): 5.0, (1, 255): 6.0}
        snap = one_slot(edges, num_nodes=num_nodes)
        assert snap.v.dtype == width  # the argsort's key, the top id included
        assert_csr_valid(snap)

    @pytest.mark.parametrize("num_edges,arrays,width", [
        (65_535, (0, 2), "uint16"), (65_536, (0, 2), "uint32"),
        (65_536, (1,), "uint16"), (65_537, (1,), "uint32"),
    ], ids=["offsets-uint16", "offsets-uint32", "arc-ids-uint16", "arc-ids-uint32"])
    def test_edge_count_widths(self, num_edges, arrays, width):
        """The offsets (both pointer rows) hold up to edge_count, the arc ids
        (the down half's edge ids) up to edge_count - 1."""
        snap = one_slot(first_pairs(num_edges), num_nodes=400)
        assert [snap.csr()[array].dtype for array in arrays] == [width] * len(arrays)
        assert_csr_valid(snap)

    def test_stock_slots(self, stock_head):
        for snap in stock_head.snapshots[::5]:
            assert snap.edge_count > 10_000
            assert_csr_valid(snap)

    def test_routing_state_takes_the_narrow_widths(self, stock_head):
        """Held after the builds, net of what was held before them: every
        slot's CSR halves at 2 bytes an edge plus 4 a node (the full CSR took
        8 and 2; 16 and 8 with int32 ids and int64 offsets), and ``run_last``
        at 1 byte a record over these 20 slots (4 as int32). Python objects
        may add 1 KiB a slot (a tuple, array headers) and 4 KiB to ``run_last``."""
        head = head_series(stock_head, 20)
        records, nodes = head.keys.size, head.roster.num_nodes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for snap in head.snapshots:
                snap.csr()
            csr_bytes = tracemalloc.get_traced_memory()[0] - before
            head.run_last()
            run_bytes = tracemalloc.get_traced_memory()[0] - before - csr_bytes
        finally:
            tracemalloc.stop()
        assert csr_bytes <= 2 * records + head.num_slots * (4 * (nodes + 1) + 1024), csr_bytes
        assert run_bytes <= records + 4096, run_bytes


HEADER = (
    "lislsim-series v1\n"
    "scenario lisl_range_km=1.0 gs_range_km=1.0 node_delay_ms=0.0 "
    "slot_duration_s=1.0 num_slots=2\n"
)


class TestImportContract:
    """Every bad file ends in SeriesFormatError, whatever is wrong with it."""

    @pytest.mark.parametrize(
        "body,message",
        [
            ("satellites -3\n1 - - -\n2 - - -\n", "negative"),
            ("satellites 2 7\n1 - - -\n2 - - -\n", "bad satellites header"),
            ("satellites 2\ngs 2 a 0.0 0.0\ngs 2 b 0.0 1.0\n1 - - -\n2 - - -\n", "ids"),
            ("satellites 2\ngs 2 a 0.0 0.0\ngs 3 a 0.0 1.0\n1 - - -\n2 - - -\n", "names"),
            ("satellites 2\ngs 1 a 0.0 0.0\n1 - - -\n2 - - -\n", "must be 2..2"),
            ("satellites 2\n0 0 1 1.0\n1 0 1 1.0\n2 0 1 1.0\n", "non-consecutive"),
            ("satellites 2\n1 0 1 1.0\n3 0 1 1.0\n", "non-consecutive"),
            ("satellites 2\n2 0 1 1.0\n1 0 1 1.0\n", "out of order"),
            ("satellites 2\n1 - - -\n1 0 1 1.0\n2 - - -\n", "marker for non-empty slot 1"),
            ("satellites 2\n1 0 1 1.0\n1 - - -\n2 - - -\n", "marker for non-empty slot 1"),
            ("satellites 2\n1 - - -\n2 - - -\n2 - - -\n", "marker for non-empty slot 2"),
            ("satellites 2\n1 - 1 -\n2 - - -\n", "malformed edge record"),
            ("satellites 2\n1 - - -\n2 -1 -1 nan\n", "unknown node id"),
            ("satellites 2\n1 0 -1 2.0\n2 - - -\n", "unknown node id"),
            ("satellites 2\n1 0 1 nan\n2 - - -\n", "non-positive delay"),
            ("satellites 2\n1 0 1 inf\n2 - - -\n", "non-positive delay"),
            ("satellites 2\n1 0 1 1.0 7\n2 - - -\n", "malformed edge record"),
            ("satellites 2\n1 0 1.5 1.0\n2 - - -\n", "malformed edge record"),
            ("satellites 2\n1 0 1 1.0 # note\n2 - - -\n", "malformed edge record"),
            ("satellites 2\n", "header says 2"),
            ("satellites 5000000000\n1 0 4294967297 1.5\n2 - - -\n", "at most 65536 nodes"),
        ],
        ids=[
            "negative-satellites", "satellites-two-counts", "duplicate-station-id", "duplicate-station-name",
            "station-id-below-satellites", "slot-0", "slot-gap", "slots-out-of-order",
            "marker-then-edge", "edge-then-marker", "marker-twice", "malformed-marker",
            "forged-marker", "negative-endpoint", "nan-delay", "inf-delay", "extra-field",
            "float-node-id", "trailing-comment", "no-records", "ids-beyond-int32",
        ],
    )
    def test_bad_file_raises_format_error(self, tmp_path, body, message):
        path = tmp_path / "bad.series"
        path.write_text(HEADER + body)
        with pytest.raises(SeriesFormatError, match=message):
            import_series(path)

    @pytest.mark.parametrize(
        "fields,message",
        [
            ("num_slots=1 num_slots=2", "repeated key 'num_slots'"),
            ("num_slots=2 bogus=7", "unknown key 'bogus'"),
            ("num_slots=2 malformed", "unknown key 'malformed'"),
            ("", "lacks num_slots"),
            ("num_slots=two", "num_slots in scenario header"),
        ],
        ids=["repeated", "unknown", "no-equals", "missing", "bad-value"],
    )
    def test_bad_scenario_fields_raise_format_error(self, tmp_path, fields, message):
        path = tmp_path / "header.series"
        path.write_text(
            "lislsim-series v1\n"
            "scenario lisl_range_km=1.0 gs_range_km=1.0 node_delay_ms=0.0 "
            f"slot_duration_s=1.0 {fields}\n"
            "satellites 2\n1 - - -\n2 - - -\n"
        )
        with pytest.raises(SeriesFormatError, match=message):
            import_series(path)

    @pytest.mark.parametrize(
        "data",
        [
            b"\xfflislsim-series v1\n",
            HEADER.encode() + b"satellites 2\n1 0 1 1.0\n2 0 1 1.0\xff\n",
        ],
        ids=["header", "edge-record"],
    )
    def test_non_utf8_bytes_raise_format_error(self, tmp_path, data):
        path = tmp_path / "binary.series"
        path.write_bytes(data)
        with pytest.raises(SeriesFormatError, match="utf-8"):
            import_series(path)

    def test_blank_lines_between_records_ignored(self, tmp_path):
        path = tmp_path / "blank.series"
        path.write_text(HEADER + "satellites 2\n1 0 1 1.0\n\n  \n2 - - -\n\n")
        series = import_series(path)
        assert [snap.edge_count for snap in series.snapshots] == [1, 0]


MUTANT_TOKENS = ("-", "-1", "nan", "inf", "1.0", "#")


def mutants(lines: list[str]):
    """Every file one mutation away: a line inserted blank, dropped or
    duplicated, or one token dropped, duplicated or replaced."""
    for i, line in enumerate(lines):
        yield lines[:i] + [""] + lines[i:]
        yield lines[:i] + lines[i + 1:]
        yield lines[: i + 1] + lines[i:]
        tokens = line.split(" ")
        for j in range(len(tokens)):
            variants = [tokens[:j] + tokens[j + 1:], tokens[: j + 1] + tokens[j:]]
            variants += [tokens[:j] + [tok] + tokens[j + 1:] for tok in MUTANT_TOKENS]
            for variant in variants:
                yield lines[:i] + [" ".join(variant)] + lines[i + 1:]


def assert_fixed_point_or_format_error(path, folder):
    """The file imports to a series whose re-export is a fixed point, or it
    raises SeriesFormatError; any other exception fails the caller."""
    try:
        imported = import_series(path)
    except SeriesFormatError:
        return
    save_series(imported, folder / "c.series")
    again = import_series(folder / "c.series")
    assert again == imported
    save_series(again, folder / "d.series")
    assert (folder / "d.series").read_bytes() == (folder / "c.series").read_bytes()


FUZZ_STATIONS = (
    GroundStation(id=6, name="src", latitude_deg=0.0, longitude_deg=0.0),
    GroundStation(id=7, name="dst", latitude_deg=0.0, longitude_deg=10.0),
)


class TestParserFuzz:
    def test_every_single_mutation_of_toy_files(self, tmp_path):
        gap = series_from_edges(
            [{(0, 6): 1.5, (1, 7): 2.25}, {}, {(0, 1): 3.0}, {}],
            num_satellites=6, ground_stations=FUZZ_STATIONS,
        )
        for series in (dominance_toy_series(), gap):
            save_series(series, tmp_path / "a.series")
            lines = (tmp_path / "a.series").read_text().splitlines()
            for n, mutant in enumerate(mutants(lines)):
                (tmp_path / "b.series").write_text("\n".join(mutant) + "\n")
                assert_fixed_point_or_format_error(tmp_path / "b.series", tmp_path)
            assert n > 300

    @given(
        per_slot=st.lists(
            st.dictionaries(  # satellites 0..5, stations 6 and 7; {} is an empty slot
                st.tuples(st.integers(0, 3), st.integers(4, 7)),
                st.sampled_from([0.5, 1.25, 3.0, 17.015625]),
                max_size=3,
            ),
            min_size=1,
            max_size=4,
        ),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_mutations_import_to_a_fixed_point_or_raise(
        self, tmp_path_factory, per_slot, data
    ):
        series = series_from_edges(per_slot, num_satellites=6, ground_stations=FUZZ_STATIONS)
        folder = tmp_path_factory.mktemp("fuzz")
        save_series(series, folder / "a.series")
        lines = (folder / "a.series").read_text().splitlines()
        for _ in range(data.draw(st.integers(1, 3))):
            lines = data.draw(st.sampled_from(list(mutants(lines))))
        (folder / "b.series").write_text("\n".join(lines) + "\n")
        assert_fixed_point_or_format_error(folder / "b.series", folder)


class TestRoundTripProperty:
    @given(
        st.lists(
            st.dictionaries(
                st.tuples(st.integers(0, 3), st.integers(4, 7)),
                st.floats(min_value=1e-6, max_value=1e5, allow_nan=False),
                max_size=5,
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_delays_round_trip(self, tmp_path_factory, per_slot):
        series = series_from_edges(
            [dict(edges) for edges in per_slot], num_satellites=8
        )
        path = tmp_path_factory.mktemp("rt") / "x.series"
        save_series(series, path)
        assert import_series(path) == series


def _outcome(read, path):
    """What a reader makes of a file: its series' parts, or its error message."""
    try:
        series = read(path)
    except SeriesFormatError as exc:
        return str(exc)
    return (series.scenario, series.roster,
            *(getattr(series, col).tolist() for col in ("offsets", "keys", "delay_ms")))


def _blocks_of(path, block: int) -> list[str]:
    """The blocks of record text the reader cuts a series file into."""
    with patch.object(topology, "_BLOCK", block), open(path, encoding="utf-8") as fh:
        return list(topology._blocks(fh, topology._read_header(fh)[2]))


BLOCK_SIZES = range(8, 97)


def _same_at_every_block_size(path):
    """The outcome of the one-pass reader, after checking that the block
    reader has it at every size in ``BLOCK_SIZES``."""
    want = _outcome(import_series_reference, path)
    for block in BLOCK_SIZES:
        with patch.object(topology, "_BLOCK", block):
            assert _outcome(import_series, path) == want, block
    return want


def _opens_a_block(path, line: str) -> bool:
    """Whether ``line`` is the first line of a block, other than the first, at some size."""
    return any(text.startswith(line) for block in BLOCK_SIZES
               for text in _blocks_of(path, block)[1:])


class TestBlockReader:
    """``import_series`` parses the records in blocks; where they are cut never shows."""

    def _canonical(self, tmp_path) -> tuple[str, str]:
        """The header and the records of a toy file with empty slots and stations."""
        series = series_from_edges(
            [{(0, 6): 1.5, (1, 7): 0.123456789}, {}, {(0, 1): 3.0, (2, 3): 17.015625}, {}],
            num_satellites=6, ground_stations=FUZZ_STATIONS,
        )
        save_series(series, tmp_path / "lf.series")
        lines = (tmp_path / "lf.series").read_text().splitlines(keepends=True)
        head = 3 + len(FUZZ_STATIONS)
        return "".join(lines[:head]), "".join(lines[head:])

    @pytest.mark.parametrize("variant", [
        lambda head, rec: (head + rec).replace("\n", "\r\n"),
        lambda head, rec: (head + rec).replace("\n", "\r"),
        lambda head, rec: head + rec.replace(" ", "\t"),
        lambda head, rec: head + re.sub(r"^", " \t ", rec, flags=re.M),
        lambda head, rec: head + rec.replace("\n", "\n \t\n\n"),
        lambda head, rec: (head + rec).rstrip("\n"),
        lambda head, rec: head + re.sub(r"\.0+$|(\.\d+)$", r"\1e0", rec, flags=re.M),
        lambda head, rec: (head + re.sub(r"^|$", "\t", rec.replace(" ", " \t"), flags=re.M)
                           ).replace("\n", "\r").rstrip("\r"),
    ], ids=["crlf", "cr", "tabs", "leading-whitespace", "whitespace-only-lines",
            "no-final-newline", "exponent-delays", "cr-tabs-no-final-newline"])
    def test_text_variants_import_equal_to_the_lf_file(self, tmp_path, variant):
        head, records = self._canonical(tmp_path)
        path = tmp_path / "variant.series"
        path.write_bytes(variant(head, records).encode())
        assert _same_at_every_block_size(path) == _outcome(import_series, tmp_path / "lf.series")

    def test_imports_the_shortest_cr_lines(self, tmp_path):
        path = tmp_path / "short.series"
        records = "\r".join(["1 0 1 1", "1 0 2 1", "1 1 2 1", "2 - - -"]).encode()
        path.write_bytes((HEADER + "satellites 3\n").replace("\n", "\r").encode() + records)
        series = import_series(path)
        assert [snap.edge_count for snap in series.snapshots] == [3, 0]

    @given(
        per_slot=st.lists(
            st.dictionaries(  # satellites 0..5, stations 6 and 7; {} is an empty slot
                st.tuples(st.integers(0, 3), st.integers(4, 7)),
                st.sampled_from([0.5, 1.25, 3.0, 17.015625]),
                max_size=3,
            ),
            min_size=1,
            max_size=4,
        ),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_one_pass_reader(self, tmp_path_factory, per_slot, data):
        series = series_from_edges(per_slot, num_satellites=6, ground_stations=FUZZ_STATIONS)
        folder = tmp_path_factory.mktemp("blocks")
        save_series(series, folder / "a.series")
        lines = (folder / "a.series").read_text().splitlines()
        head = 3 + len(FUZZ_STATIONS)
        space = st.sampled_from(["", " ", "\t", " \t "])
        for i in range(len(lines) - 1, head - 1, -1):  # extra whitespace in and between records
            sep = data.draw(st.sampled_from([" ", "\t", "  "]))
            lines[i] = data.draw(space) + sep.join(lines[i].split()) + data.draw(space)
            if data.draw(st.booleans()):
                lines.insert(i, data.draw(space))
        lines = data.draw(st.just(lines) | st.sampled_from(list(mutants(lines))))
        path = folder / "b.series"
        path.write_text("\n".join(lines) + "\n")
        want = _outcome(import_series_reference, path)
        with patch.object(topology, "_BLOCK", data.draw(st.integers(8, 256))):
            assert _outcome(import_series, path) == want

    def test_marker_first_and_last_in_a_block(self, tmp_path):
        path = tmp_path / "markers.series"
        path.write_text(HEADER.replace("num_slots=2", "num_slots=4") + "satellites 3\n"
                        "1 0 1 1.5\n1 0 2 1.5\n1 1 2 0.25\n2 - - -\n3 0 1 1.5\n3 1 2 0.25\n"
                        "4 - - -\n")
        got = _same_at_every_block_size(path)
        assert got[2] == [0, 3, 3, 5, 5]  # offsets: slots 2 and 4 are empty
        assert _opens_a_block(path, "2 - - -\n") and _opens_a_block(path, "4 - - -")
        assert any(text.endswith("\n2 - - -\n") for block in BLOCK_SIZES
                   for text in _blocks_of(path, block)[:-1])

    def test_slot_over_three_blocks(self, tmp_path):
        path = tmp_path / "long.series"
        path.write_text(HEADER + "satellites 9\n"
                        + "".join(f"1 0 {v} 1.5\n" for v in range(1, 9)) + "2 - - -\n")
        assert _same_at_every_block_size(path)[2] == [0, 8, 8]
        assert sum(text.startswith("1 ") for text in _blocks_of(path, 24)) >= 3

    @pytest.mark.parametrize("records,second,message", [
        ("1 0 1 1.0\n2 0 1 1.0\n2 - - -\n", "2 - - -", "empty-slot marker for non-empty slot 2"),
        ("1 0 1 1.0\n2 0 1 1.0\n1 0 2 1.0\n", "1 0 2", "slots out of order"),
        ("2 0 1 1.0\n2 0 2 1.0\n1 0 1 1.0\n", "1 0 1", "slots out of order"),
        ("1 0 1 1.0\n1 0 2 1.0\n3 0 1 1.0\n", "3 0 1", "non-consecutive slots"),
    ], ids=["marker-after-edge", "slot-back", "first-slot-2-then-back", "slot-gap"])
    def test_faults_split_across_a_boundary(self, tmp_path, records, second, message):
        path = tmp_path / "split.series"
        path.write_text(HEADER + "satellites 2\n" + records)
        assert _same_at_every_block_size(path) == message
        assert _opens_a_block(path, second)

    def test_peak_over_the_grown_columns_does_not_grow_with_slots(self, stock_head, tmp_path):
        # the columns grow by an eighth at a time, so before the final trim
        # they hold at most 9/8 of the records; the rest is a constant
        extra = []
        for n in (3, 12, 20):
            path = tmp_path / f"head{n}.series"
            head = head_series(stock_head, n)
            save_series(head, path)
            columns = head.keys.nbytes + head.delay_ms.nbytes
            extra.append(_peak_bytes(import_series, path) - columns * 9 // 8)
        # the one-pass reader held every record, 32 bytes each, on top, and
        # columns reserved from the file size held about 3.3 times the records;
        # one-sided: an extra that shrinks with the slots is no growth
        assert max(extra[1:]) < 1.2 * extra[0], extra

    def test_import_holds_12_bytes_a_record_and_little_more(self, stock_head, tmp_path):
        """20 stock slots: the columns take 12 bytes a record (a uint32 key
        and a float64 delay), and the import peaks under 2 MiB over them.
        With int64 keys (16 bytes a record) and each slot kept as parsed
        32-byte records until canonicalised, it peaked 2.55 MiB over."""
        path = tmp_path / "head20.series"
        save_series(stock_head, path)
        tracemalloc.start()
        try:
            series = import_series(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = series.keys.nbytes + series.delay_ms.nbytes
        assert series.keys.dtype == "<u4" and columns == 12 * series.keys.size
        assert peak - columns < 2 * 2**20, peak - columns

    def test_header_slot_count_sizes_nothing(self, tmp_path):
        path = tmp_path / "huge.series"
        path.write_text(HEADER.replace("num_slots=2", "num_slots=1000000000000000")
                        + "satellites 2\n1 0 1 1.0\n2 - - -\n")
        tracemalloc.start()
        try:
            with pytest.raises(SeriesFormatError, match="header says 1000000000000000"):
                import_series(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak
