"""Snapshots, lifetime indexing, and the series file format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lislsim.constellation import ConstellationParams, GroundStation, ScenarioParams
from lislsim.constellation import generate_series
from lislsim.topology import (
    SeriesFormatError,
    Snapshot,
    NodeRoster,
    build_link_details,
    export_series,
    import_series,
)
from lislsim.toyseries import dominance_toy_series, series_from_edges


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
            Snapshot.from_edges(1, {(2, 2): 1.0}, num_nodes=3)

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            Snapshot(1, [0, 1], [1, 0], [1.0, 2.0], num_nodes=2)

    def test_rejects_non_positive_delay(self):
        with pytest.raises(ValueError, match="non-positive delay"):
            Snapshot.from_edges(1, {(0, 1): 0.0}, num_nodes=2)
        with pytest.raises(ValueError, match="non-positive delay"):
            Snapshot.from_edges(1, {(0, 1): -3.0}, num_nodes=2)

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError, match="id range"):
            Snapshot.from_edges(1, {(0, 7): 1.0}, num_nodes=3)

    def test_canonicalizes_reversed_pairs(self):
        snap = Snapshot.from_edges(1, {(3, 1): 2.0}, num_nodes=4)
        assert snap.has_edge(1, 3) and snap.has_edge(3, 1)
        assert snap.delay_of(3, 1) == 2.0

    def test_delays_quantized_to_nine_digits(self):
        snap = Snapshot.from_edges(1, {(0, 1): 1.23456789012345}, num_nodes=2)
        assert snap.delay_of(0, 1) == round(1.23456789012345, 9)

    def test_route_delay_none_when_edge_missing(self):
        from lislsim.routing import Route

        snap = Snapshot.from_edges(1, {(0, 1): 1.0, (1, 2): 2.0}, num_nodes=4)
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


def reference_run_last(series, edge, slot):
    """Brute force: scan forward from `slot` while the edge stays present."""
    last = slot
    while last < series.num_slots and series.snapshot(last + 1).has_edge(*edge):
        last += 1
    return last


def assert_matches_reference(series, details):
    """run_last, global_last and uid identity agree with brute-force scans."""
    assert details.num_slots == series.num_slots
    seen_uid = {}
    for snap in series.snapshots:
        uids = details.edge_uids_by_slot[snap.slot - 1]
        run_last = details.run_last_by_slot[snap.slot - 1]
        assert uids.shape == run_last.shape == snap.u.shape
        for k, edge in enumerate(zip(snap.u.tolist(), snap.v.tolist())):
            assert run_last[k] == reference_run_last(series, edge, snap.slot)
            present = [s.slot for s in series.snapshots if s.has_edge(*edge)]
            assert details.global_last[uids[k]] == present[-1]
            assert seen_uid.setdefault(edge, int(uids[k])) == uids[k]
    # same uid <=> same canonical edge, numbered 0..num_edges-1
    assert sorted(seen_uid.values()) == list(range(details.num_edges))
    assert details.global_last.shape == (details.num_edges,)


def run_last_at(details, series, edge, slot):
    pos = int(series.snapshot(slot).edge_positions([edge])[0])
    return int(details.run_last_by_slot[slot - 1][pos])


class TestLinkDetails:
    def test_example_slot_list(self):
        series = slots_series({(0, 1): [3, 4, 5, 9, 10]}, num_slots=12)
        details = build_link_details(series)
        ends = [run_last_at(details, series, (0, 1), s) for s in (3, 4, 5, 9, 10)]
        assert ends == [5, 5, 5, 10, 10]
        assert details.num_edges == 1 and details.global_last.tolist() == [10]

    def test_permanent_edge(self):
        series = slots_series({(0, 1): list(range(1, 13))}, num_slots=12)
        details = build_link_details(series)
        assert run_last_at(details, series, (0, 1), 5) == 12

    def test_containing_run(self):
        series = slots_series({(0, 1): [3, 4, 5, 9, 10]}, num_slots=12)
        details = build_link_details(series)
        assert run_last_at(details, series, (0, 1), 4) == 5

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
        assert_matches_reference(series, build_link_details(series))

    def test_per_slot_arrays_align_with_snapshots(self):
        series = dominance_toy_series()
        assert_matches_reference(series, build_link_details(series))

    def test_series_without_edges(self):
        series = slots_series({}, num_slots=3)
        details = build_link_details(series)
        assert details.num_edges == 0
        assert [a.size for a in details.edge_uids_by_slot] == [0, 0, 0]


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
