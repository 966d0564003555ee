"""Orbit propagation, ground station motion, and snapshot construction."""

import math

import numpy as np
import pytest

from lislsim.constellation import (
    MU_EARTH_KM3_S2,
    SIDEREAL_DAY_S,
    SPEED_OF_LIGHT_KM_S,
    ConstellationParams,
    GroundStation,
    ScenarioParams,
    build_snapshot,
    generate_series,
    ground_station_position,
    satellite_positions,
)
from lislsim.routing import Route
from lislsim.topology import NodeRoster, SnapshotSeries


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
    u, v, d = build_snapshot(sat_pos, gs_ids, gs_pos, sc)
    roster = NodeRoster(len(sat_pos), tuple(GroundStation(i, f"gs{i}", 0.0, 0.0) for i in gs_ids))
    return SnapshotSeries(sc, roster, [0, u.size], u, v, d).snapshot(1)


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
