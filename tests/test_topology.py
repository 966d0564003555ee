"""Snapshots, lifetime indexing, and the series file format."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lislsim.constellation import ConstellationParams, GroundStation, ScenarioParams
from lislsim.config import default_config
from lislsim.constellation import generate_series
from lislsim.topology import (
    SeriesFormatError,
    SnapshotSeries,
    NodeRoster,
    export_series,
    import_series,
)
from lislsim.routing import Route

from conftest import head_series, one_slot
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


def reference_run_last(series, edge, slot):
    """Brute force: scan forward from `slot` while the edge stays present."""
    last = slot
    while last < series.num_slots and edge_delay(series.snapshot(last + 1), *edge) is not None:
        last += 1
    return last


def assert_matches_reference(series):
    """run_last and uid identity agree with brute-force scans."""
    seen_uid = {}
    for snap in series.snapshots:
        uids, run_last = snap.uids, snap.run_last
        assert uids.shape == run_last.shape == snap.u.shape
        for k, edge in enumerate(zip(snap.u.tolist(), snap.v.tolist())):
            assert run_last[k] == reference_run_last(series, edge, snap.slot)
            assert seen_uid.setdefault(edge, int(uids[k])) == uids[k]
    # same uid <=> same canonical edge, numbered 0..num_edges-1
    assert sorted(seen_uid.values()) == list(range(len(seen_uid)))


def run_last_at(series, edge, slot):
    snap = series.snapshot(slot)
    return int(snap.run_last[snap.edge_positions([edge])[0]])


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
        assert [snap.uids.size for snap in series.snapshots] == [0, 0, 0]


class TestColumnViews:
    def test_snapshots_are_slices_of_the_series_columns(self, tmp_path):
        shell = ConstellationParams(2, 5, 53.0, 550.0)
        stations = [GroundStation(id=10, name="a", latitude_deg=45.0, longitude_deg=7.0)]
        scenario = ScenarioParams(
            lisl_range_km=4500.0, gs_range_km=1200.0, node_delay_ms=1.0,
            slot_duration_s=30.0, num_slots=3,
        )
        generated = generate_series(shell, stations, scenario)
        export_series(generated, tmp_path / "gen.series")
        imported = import_series(tmp_path / "gen.series")
        for series in (generated, imported, dominance_toy_series()):
            for snap in series.snapshots:
                assert snap.edge_count > 0
                for col in ("u", "v", "delay_ms"):
                    assert np.shares_memory(getattr(snap, col), getattr(series, col))
                    assert not getattr(snap, col).flags.writeable


class TestSeriesFile:
    def test_round_trip_toy(self, tmp_path):
        series = dominance_toy_series()
        path = tmp_path / "toy.series"
        export_series(series, path)
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
        export_series(series, path)
        again = import_series(path)
        assert again == series
        # and the round trip is a fixed point of itself
        path2 = tmp_path / "gen2.series"
        export_series(again, path2)
        assert path2.read_text() == path.read_text()

    def test_round_trip_empty_slot(self, tmp_path):
        series = series_from_edges([{(0, 1): 1.0}, {}, {(0, 1): 2.0}], num_satellites=2)
        path = tmp_path / "gap.series"
        export_series(series, path)
        assert import_series(path) == series

    def test_shuffled_records_import_canonical(self, tmp_path):
        # exported files are already canonical, so only a hand-made file
        # reaches the path that swaps endpoints and sorts a slot
        series = dominance_toy_series()
        export_series(series, tmp_path / "canonical.series")
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
        export_series(again, tmp_path / "again.series")
        canonical = (tmp_path / "canonical.series").read_bytes()
        assert (tmp_path / "again.series").read_bytes() == canonical

    def test_non_consecutive_slots_rejected(self, tmp_path):
        series = series_from_edges([{(0, 1): 1.0}, {(0, 1): 1.5}], num_satellites=2)
        path = tmp_path / "bad.series"
        export_series(series, path)
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

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.series"
        path.write_text("something else\n")
        with pytest.raises(SeriesFormatError, match="magic"):
            import_series(path)

    def test_slot_count_mismatch_rejected(self, tmp_path):
        series = series_from_edges([{(0, 1): 1.0}], num_satellites=2)
        path = tmp_path / "short.series"
        export_series(series, path)
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


@pytest.fixture(scope="module")
def stock_head():
    """The first 20 slots of the stock scenario (~370k edge records)."""
    cfg = default_config()
    scenario = replace(cfg.scenario, num_slots=20)
    return generate_series(cfg.constellation, list(cfg.ground_stations), scenario)


def _export_peak_bytes(series, path) -> int:
    tracemalloc.start()
    try:
        export_series(series, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestExportWriter:
    def test_toy_series_with_empty_slots_byte_identical(self, tmp_path):
        stations = (GroundStation(id=3, name="g", latitude_deg=-12.5, longitude_deg=180.0),)
        series = series_from_edges(
            [{}, {(0, 1): 1.0, (1, 3): 0.123456789}, {}, {}, {(0, 2): 1e-9, (0, 1): 12345.5}],
            num_satellites=3, ground_stations=stations, node_delay_ms=0.25,
        )
        for name, toy in (("gaps", series), ("dominance", dominance_toy_series())):
            export_series(toy, tmp_path / f"{name}.new")
            _export_series_reference(toy, tmp_path / f"{name}.old")
            assert (tmp_path / f"{name}.new").read_bytes() == (tmp_path / f"{name}.old").read_bytes()
        assert "\n1 - - -\n" in (tmp_path / "gaps.new").read_text()

    def test_stock_slots_byte_identical(self, stock_head, tmp_path):
        export_series(stock_head, tmp_path / "new.series")
        _export_series_reference(stock_head, tmp_path / "old.series")
        assert (tmp_path / "new.series").read_bytes() == (tmp_path / "old.series").read_bytes()

    def test_memory_bounded_by_one_slot(self, stock_head, tmp_path):
        # four slots: a writer that holds the whole text peaks at ~2.7x one slot
        head = head_series(stock_head, 4)
        big = max(head.snapshots, key=lambda snap: snap.edge_count)
        one = SnapshotSeries(
            replace(head.scenario, num_slots=1), head.roster,
            [0, big.edge_count], big.u, big.v, big.delay_ms,
        )
        one_peak = _export_peak_bytes(one, tmp_path / "one.series")
        all_peak = _export_peak_bytes(head, tmp_path / "all.series")
        assert all_peak < 1.5 * one_peak, (all_peak, one_peak)


def reference_csr(snap):
    """The CSR built with a two-key lexsort over (source, neighbour)."""
    e = snap.edge_count
    src = np.concatenate([snap.u, snap.v]).astype(np.int64)
    dst = np.concatenate([snap.v, snap.u]).astype(np.int64)
    eid = np.concatenate([np.arange(e), np.arange(e)])
    order = np.lexsort((dst, src))
    indptr = np.zeros(snap.num_nodes + 1, np.int64)
    np.cumsum(np.bincount(src, minlength=snap.num_nodes), out=indptr[1:])
    return indptr, dst[order].astype(np.int32), eid[order].astype(np.int32)


def assert_csr_valid(snap):
    indptr, nbr, arc_eid = snap.csr()
    n, e = snap.num_nodes, snap.edge_count
    degree = np.bincount(np.concatenate([snap.u, snap.v]), minlength=n)
    assert indptr[0] == 0 and np.array_equal(np.diff(indptr), degree)
    for node in range(n):
        assert np.all(np.diff(nbr[indptr[node]:indptr[node + 1]]) > 0), node
    # every edge is exactly two arcs, one from each end, mapping back to it
    assert np.array_equal(np.bincount(arc_eid, minlength=e), np.full(e, 2))
    rows = np.repeat(np.arange(n), degree)
    ends = np.sort(np.stack([rows, nbr]), axis=0)
    assert np.array_equal(ends, np.stack([snap.u[arc_eid], snap.v[arc_eid]]))
    for got, want in zip((indptr, nbr, arc_eid), reference_csr(snap)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@st.composite
def one_slot_edges(draw):
    """(edges, satellites, stations) of one slot: random edges among the
    satellites and between satellites and stations, of mean degree up to
    about a stock slot's (~24); nodes without edges are common."""
    sats = draw(st.integers(0, 150))
    stations = draw(st.integers(0, 3))
    degree = draw(st.sampled_from([0.0, 0.1, 2.0, 24.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = {}
    if sats > 1:
        a, b = np.triu_indices(sats, 1)
        keep = rng.random(a.size) < degree / (sats - 1)
        edges.update({(i, j): 1.0 for i, j in zip(a[keep].tolist(), b[keep].tolist())})
    for gs in range(sats, sats + stations):
        for sat in rng.choice(sats, size=min(sats, int(rng.integers(0, 4))), replace=False):
            edges[(gs, int(sat)) if rng.random() < 0.5 else (int(sat), gs)] = 1.0
    for key in edges:
        edges[key] = float(rng.uniform(0.5, 20.0))
    return edges, sats, stations


class TestCsr:
    """``Snapshot.csr()``: degrees, ascending neighbours, two arcs per edge."""

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

    def test_stock_slots(self, stock_head):
        for snap in stock_head.snapshots[::5]:
            assert snap.edge_count > 10_000
            assert_csr_valid(snap)


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
            ("satellites 5000000000\n1 0 4294967297 1.5\n2 - - -\n", "int32"),
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
    export_series(imported, folder / "c.series")
    again = import_series(folder / "c.series")
    assert again == imported
    export_series(again, folder / "d.series")
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
            export_series(series, tmp_path / "a.series")
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
        export_series(series, folder / "a.series")
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
        export_series(series, path)
        assert import_series(path) == series
