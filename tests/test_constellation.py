"""Orbit propagation, ground station motion, and snapshot construction."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lislsim.constellation import (
    MOTION_SLACK_KM,
    MU_EARTH_KM3_S2,
    SIDEREAL_DAY_S,
    SPEED_OF_LIGHT_KM_S,
    ConstellationParams,
    GroundStation,
    ScenarioParams,
    generate_series,
    ground_station_position,
    satellite_positions,
    slot_edges,
)
from lislsim.routing import Route
from lislsim.topology import NodeRoster, SnapshotSeries

from brute_force import build_snapshot


def edge_delay(snap, a, b):
    """Delay of the edge (a, b) in a snapshot, None when it is absent."""
    return snap.route_delay(Route((a, b)))


STARLINK_SHELL = ConstellationParams(
    num_planes=24, sats_per_plane=66, inclination_deg=53.0, altitude_km=550.0
)


def scenario(**overrides) -> ScenarioParams:
    base = dict(
        lisl_range_km=1500.0, gs_range_km=1000.0, node_delay_ms=1.0,
        slot_duration_s=1.0, num_slots=1,
    )
    base.update(overrides)
    return ScenarioParams(**base)


class TestParams:
    @pytest.mark.parametrize("name", ["", "new york"], ids=["empty", "with-space"])
    def test_station_name_refused(self, name):
        with pytest.raises(ValueError, match="ground station names must be non-empty and space-free"):
            GroundStation(0, name, 0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstellationParams(0, 66, 53.0, 550.0)
        with pytest.raises(ValueError):
            ConstellationParams(24, 66, 190.0, 550.0)
        with pytest.raises(ValueError):
            ConstellationParams(24, 66, 53.0, -1.0)
        with pytest.raises(ValueError):
            GroundStation(0, "x", 91.0, 0.0)
        with pytest.raises(ValueError):
            GroundStation(0, "x", 0.0, -180.0)
        with pytest.raises(ValueError):
            scenario(num_slots=0)
        with pytest.raises(ValueError):
            scenario(lisl_range_km=0.0)

    def test_orbital_speed_matches_published_value(self):
        # sqrt(mu / 6921) for the 550 km shell, 7.6 km/s to one decimal
        speed = STARLINK_SHELL.orbit_radius_km * STARLINK_SHELL.mean_motion_rad_s
        assert speed == pytest.approx(7.59, abs=0.005)
        assert round(speed, 1) == 7.6


class TestPropagate:
    def test_count_and_radius(self):
        pos = satellite_positions(STARLINK_SHELL, 1, 1.0)
        assert pos.shape == (24 * 66, 3)
        for row in pos[:: 97]:
            r = math.sqrt(sum(c * c for c in row))
            assert abs(r - 6921.0) < 1e-6

    def test_radius_holds_over_time(self):
        for slot in (1, 50, 600):
            pos = satellite_positions(STARLINK_SHELL, slot, 1.0)
            radii = np.linalg.norm(pos, axis=1)
            assert np.all(np.abs(radii - 6921.0) < 1e-6)

    def test_full_period_returns_to_start(self):
        # one slot per orbital period: slot 2 must match slot 1
        r = STARLINK_SHELL.orbit_radius_km
        period = 2.0 * math.pi * math.sqrt(r**3 / MU_EARTH_KM3_S2)
        assert period == pytest.approx(5731, abs=1.0)
        p1 = satellite_positions(STARLINK_SHELL, 1, period)
        p2 = satellite_positions(STARLINK_SHELL, 2, period)
        assert np.max(np.abs(p1 - p2)) < 1e-6

    def test_equatorial_plane_geometry(self):
        flat = ConstellationParams(1, 4, 0.0, 550.0)
        pos = satellite_positions(flat, 1, 1.0)
        r = flat.orbit_radius_km
        np.testing.assert_allclose(pos[0], [r, 0, 0], atol=1e-9)
        np.testing.assert_allclose(pos[1], [0, r, 0], atol=1e-9)
        assert np.all(np.abs(pos[:, 2]) < 1e-9)

    def test_phasing_factor_offsets_planes(self):
        shell = ConstellationParams(2, 4, 53.0, 550.0, phasing_factor=1)
        pos = satellite_positions(shell, 1, 1.0)
        # plane 1 satellites are shifted by F*360/(P*S) = 45 deg in phase
        base = ConstellationParams(2, 4, 53.0, 550.0, phasing_factor=0)
        pos0 = satellite_positions(base, 1, 1.0)
        assert not np.allclose(pos[4:], pos0[4:])
        np.testing.assert_allclose(pos[:4], pos0[:4])

    def test_slot_must_be_positive(self):
        with pytest.raises(ValueError):
            satellite_positions(STARLINK_SHELL, 0, 1.0)


class TestGroundStation:
    def test_reference_point(self):
        gs = GroundStation(0, "ref", 0.0, 0.0)
        pos = ground_station_position(gs, 1, 1.0)
        np.testing.assert_allclose(pos, (6371.0, 0.0, 0.0), atol=1e-12)

    def test_pole_is_rotation_invariant(self):
        gs = GroundStation(0, "pole", 90.0, 12.0)
        for slot in (1, 7, 1234):
            pos = ground_station_position(gs, slot, 13.0)
            np.testing.assert_allclose(pos, (0.0, 0.0, 6371.0), atol=1e-9)

    def test_quarter_sidereal_rotation(self):
        gs = GroundStation(0, "ref", 0.0, 0.0)
        pos = ground_station_position(gs, 2, SIDEREAL_DAY_S / 4.0)
        np.testing.assert_allclose(pos, (0.0, 6371.0, 0.0), atol=1e-3)


def _snapshot(sat_pos, gs=(), sc=None):
    """Slot-1 snapshot of satellites 0..S-1 at ``sat_pos`` and ``(id, position)`` stations."""
    sc = sc or scenario()
    gs_ids = [node_id for node_id, _ in gs]
    gs_pos = [pos for _, pos in gs]
    roster = NodeRoster(len(sat_pos), tuple(GroundStation(i, f"gs{i}", 0.0, 0.0) for i in gs_ids))
    return SnapshotSeries(sc, roster, [build_snapshot(sat_pos, gs_ids, gs_pos, sc)]).snapshot(1)


class TestBuildSnapshot:
    def test_delay_arithmetic(self):
        snap = _snapshot([(0, 0, 0), (1000.0, 0, 0)])
        expected = 1000.0 / SPEED_OF_LIGHT_KM_S * 1000.0 + 1.0
        assert edge_delay(snap, 0, 1) == pytest.approx(expected, abs=1e-9)
        assert edge_delay(snap, 0, 1) == pytest.approx(4.336, abs=5e-4)

    def test_out_of_range_pair_is_dropped(self):
        snap = _snapshot([(0, 0, 0), (1600.0, 0, 0)])
        assert snap.edge_count == 0

    def test_ground_range_boundary_is_inclusive(self):
        snap = _snapshot([(7371.0, 0, 0)], gs=[(1, (6371.0, 0, 0))])
        assert edge_delay(snap, 0, 1) is not None
        just_out = _snapshot([(7371.0 + 1e-6, 0, 0)], gs=[(1, (6371.0, 0, 0))])
        assert just_out.edge_count == 0

    def test_no_ground_to_ground_edges(self):
        snap = _snapshot([(7000.0, 0, 0)], gs=[(1, (6371.0, 0, 0)), (2, (6372.0, 0, 0))])
        assert edge_delay(snap, 1, 2) is None

    def test_canonical_ordering_and_determinism(self):
        rng = np.random.default_rng(2)
        sat_pos = rng.uniform(-7000, 7000, (30, 3))
        a = _snapshot(sat_pos, sc=scenario(lisl_range_km=6000.0))
        b = _snapshot(sat_pos, sc=scenario(lisl_range_km=6000.0))
        for col in ("u", "v", "delay_ms"):
            np.testing.assert_array_equal(getattr(a, col), getattr(b, col))
        assert np.all(a.u < a.v)
        keys = (a.u.astype(np.int64) << 32) | a.v
        assert np.all(np.diff(keys) > 0)

    def test_range_soundness_and_delay_bounds(self):
        rng = np.random.default_rng(3)
        sc = scenario(lisl_range_km=5000.0, gs_range_km=2000.0)
        sat_pos = rng.uniform(-8000, 8000, (40, 3))
        gs = [(40 + i, rng.uniform(-8000, 8000, 3)) for i in range(3)]
        snap = _snapshot(sat_pos, gs=gs, sc=sc)
        pos = dict(enumerate(sat_pos)) | dict(gs)
        gs_ids = {40, 41, 42}
        for a, b, d in zip(snap.u, snap.v, snap.delay_ms):
            dist = float(np.linalg.norm(pos[int(a)] - pos[int(b)]))
            limit = sc.gs_range_km if (int(a) in gs_ids or int(b) in gs_ids) else sc.lisl_range_km
            assert dist <= limit + 1e-9
            assert d >= sc.node_delay_ms
            assert d <= limit / SPEED_OF_LIGHT_KM_S * 1000.0 + sc.node_delay_ms + 1e-9


class TestGenerateSeries:
    def test_small_series_shape(self):
        shell = ConstellationParams(3, 6, 53.0, 550.0)
        stations = [
            GroundStation(id=18, name="a", latitude_deg=10.0, longitude_deg=20.0),
            GroundStation(id=19, name="b", latitude_deg=-30.0, longitude_deg=50.0),
        ]
        sc = scenario(num_slots=4, lisl_range_km=4000.0, gs_range_km=1500.0)
        series = generate_series(shell, stations, sc)
        assert series.num_slots == 4
        assert series.roster.num_satellites == 18
        assert [s.slot for s in series.snapshots] == [1, 2, 3, 4]
        assert all(s.num_satellites == 18 for s in series.snapshots)

    def test_polar_station_sees_no_equatorial_satellite(self):
        # one equatorial plane; a polar station is ~9400 km from any satellite
        shell = ConstellationParams(1, 8, 0.0, 550.0)
        stations = [GroundStation(id=8, name="pole", latitude_deg=90.0, longitude_deg=0.0)]
        series = generate_series(shell, stations, scenario(num_slots=2))
        for snap in series.snapshots:
            assert not any(int(u) == 8 or int(v) == 8 for u, v in zip(snap.u, snap.v))


@st.composite
def small_shells(draw):
    """A Walker shell of at most 200 satellites at any inclination and altitude."""
    planes = draw(st.integers(1, 12))
    return ConstellationParams(
        num_planes=planes,
        sats_per_plane=draw(st.integers(1, 200 // planes)),
        inclination_deg=draw(st.floats(0.0, 180.0)),
        altitude_km=draw(st.floats(200.0, 2500.0)),
        phasing_factor=draw(st.integers(0, planes - 1)),
        epoch_raan_offset_deg=draw(st.floats(0.0, 360.0)),
    )


# 0.05 s to 900 s, log-uniform: a neighbour list serves from hundreds of slots down to 1
slot_durations = st.floats(math.log(0.05), math.log(900.0)).map(math.exp)


class TestNeighbourList:
    @given(
        shell=small_shells(),
        slot_duration_s=slot_durations,
        num_slots=st.integers(1, 40),
        lisl_range_km=st.floats(100.0, 12000.0),
        stations=st.lists(st.tuples(st.floats(-90.0, 90.0), st.floats(-179.0, 180.0)), max_size=2),
        reverse_ids=st.booleans(),
    )
    # pairs in crossing planes close in at nearly 2*r*n here: a list that
    # trusted a bound of r*n a slot would miss pairs at slots 7 to 11
    @example(
        shell=ConstellationParams(6, 8, 80.0, 550.0, phasing_factor=1),
        slot_duration_s=5.0, num_slots=30, lisl_range_km=4000.0, stations=[(40.7, -74.0)],
        reverse_ids=False,
    )
    @example(
        shell=ConstellationParams(6, 8, 80.0, 550.0, phasing_factor=1),
        slot_duration_s=5.0, num_slots=3, lisl_range_km=4000.0, stations=[], reverse_ids=False,
    )
    # both stations see satellites in every slot, so swapped ids show in the columns
    @example(
        shell=ConstellationParams(12, 16, 53.0, 550.0),
        slot_duration_s=30.0, num_slots=4, lisl_range_km=2000.0,
        stations=[(10.0, 20.0), (-30.0, 50.0)], reverse_ids=True,
    )
    @settings(max_examples=150, deadline=None)
    def test_slot_edges_equal_fresh_snapshots(
        self, shell, slot_duration_s, num_slots, lisl_range_km, stations, reverse_ids
    ):
        sc = scenario(lisl_range_km=lisl_range_km, gs_range_km=2000.0,
                      slot_duration_s=slot_duration_s, num_slots=num_slots)
        ids = range(shell.num_satellites, shell.num_satellites + len(stations))
        ground = [
            GroundStation(gs_id, f"gs{k}", lat, lon)
            for k, (gs_id, (lat, lon)) in enumerate(zip(reversed(ids) if reverse_ids else ids, stations))
        ]
        gs_ids = [gs.id for gs in ground]
        got = list(slot_edges(shell, ground, sc))
        assert len(got) == num_slots
        for slot, columns in enumerate(got, start=1):
            gs_pos = [ground_station_position(gs, slot, slot_duration_s) for gs in ground]
            sat_pos = satellite_positions(shell, slot, slot_duration_s)
            want = build_snapshot(sat_pos, gs_ids, gs_pos, sc)
            for a, b in zip(columns, want):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()

    @given(
        shell=small_shells(),
        slot_duration_s=slot_durations,
        slots=st.tuples(st.integers(1, 40), st.integers(0, 40)),
    )
    @settings(max_examples=150, deadline=None)
    def test_motion_bound(self, shell, slot_duration_s, slots):
        # the list's invariant: a satellite moves at most r*n*dt a slot, as the
        # crow flies; each satellite of a pair gets half of the slack
        s0, ahead = slots
        start = satellite_positions(shell, s0, slot_duration_s)
        end = satellite_positions(shell, s0 + ahead, slot_duration_s)
        arc_km = shell.orbit_radius_km * shell.mean_motion_rad_s * ahead * slot_duration_s
        moved = np.sqrt(((end - start) ** 2).sum(axis=1))
        assert moved.max() <= arc_km + MOTION_SLACK_KM / 2
