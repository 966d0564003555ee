"""Walker-Delta constellation geometry and per-slot topology snapshots.

Satellites move on circular Keplerian orbits around a spherical Earth;
ground stations ride the Earth's sidereal rotation. A snapshot of the
network at a slot contains every feasible laser inter-satellite link and
ground-satellite link, each carrying a propagation-plus-node delay in ms.
``slot_edges`` builds every slot of a shell: one range gate,
``kernels.pairs_in_range``, keeps both link kinds, and the satellite pairs
it gates come from one neighbour list that serves several slots (see there).

``field_values`` reads parameter dataclasses from text by their field
annotations; the config reader and the series-file header share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import kernels

MU_EARTH_KM3_S2 = 398600.4418
EARTH_RADIUS_KM = 6371.0
SIDEREAL_DAY_S = 86164.0
SPEED_OF_LIGHT_KM_S = 299792.458


@dataclass(frozen=True)
class ConstellationParams:
    """Walker-Delta shell definition."""

    num_planes: int
    sats_per_plane: int
    inclination_deg: float
    altitude_km: float
    phasing_factor: int = 0
    epoch_raan_offset_deg: float = 0.0

    def __post_init__(self):
        if self.num_planes < 1 or self.sats_per_plane < 1:
            raise ValueError("num_planes and sats_per_plane must be >= 1")
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise ValueError("inclination must lie in [0, 180] degrees")
        if not (math.isfinite(self.altitude_km) and self.altitude_km > 0):
            raise ValueError("altitude must be finite and positive")
        if not math.isfinite(self.epoch_raan_offset_deg):
            raise ValueError("epoch RAAN offset must be finite")

    @property
    def num_satellites(self) -> int:
        return self.num_planes * self.sats_per_plane

    @property
    def orbit_radius_km(self) -> float:
        return EARTH_RADIUS_KM + self.altitude_km

    @property
    def mean_motion_rad_s(self) -> float:
        r = self.orbit_radius_km
        return float(np.sqrt(MU_EARTH_KM3_S2 / (r * r * r)))


@dataclass(frozen=True)
class GroundStation:
    """A fixed Earth terminal identified by an integer node id."""

    id: int
    name: str
    latitude_deg: float
    longitude_deg: float

    def __post_init__(self):
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude_deg}")
        if not -180.0 < self.longitude_deg <= 180.0:
            raise ValueError(f"longitude out of range: {self.longitude_deg}")
        if " " in self.name or not self.name:
            raise ValueError("ground station names must be non-empty and space-free")


@dataclass(frozen=True)
class ScenarioParams:
    """Link ranges, fixed per-edge node delay, and the slot grid."""

    lisl_range_km: float
    gs_range_km: float
    node_delay_ms: float
    slot_duration_s: float
    num_slots: int

    def __post_init__(self):
        if not all(math.isfinite(r) and r > 0 for r in (self.lisl_range_km, self.gs_range_km)):
            raise ValueError("link ranges must be finite and positive")
        if not (math.isfinite(self.node_delay_ms) and self.node_delay_ms >= 0):
            raise ValueError("node delay must be finite and non-negative")
        if not (math.isfinite(self.slot_duration_s) and self.slot_duration_s > 0):
            raise ValueError("slot duration must be finite and positive")
        if self.num_slots < 1:
            raise ValueError("need at least one time slot")


def auto_float(text: str) -> float | None:
    """``None`` for ``auto``, else the float."""
    return None if text.strip().lower() == "auto" else float(text)


# Text parser per parameter-field annotation; lists split on commas and spaces.
TEXT_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "tuple[float, ...]": lambda text: tuple(float(tok) for tok in text.replace(",", " ").split()),
    "tuple[str, ...]": lambda text: tuple(text.replace(",", " ").split()),
    "tuple[float | None, ...]": lambda text: tuple(map(auto_float, text.replace(",", " ").split())),
}


def field_values(cls, items, where: str) -> dict:
    """Keyword arguments for the parameter dataclass ``cls`` from ``(key, text)`` pairs.

    Each key must name a field whose annotation has a text parser, and may
    appear once; anything else raises ValueError naming ``where``.
    """
    types = {f.name: f.type for f in fields(cls) if f.type in TEXT_PARSERS}
    values = {}
    for key, text in items:
        if key not in types:
            raise ValueError(f"unknown key {key!r} in {where}")
        if key in values:
            raise ValueError(f"repeated key {key!r} in {where}")
        try:
            values[key] = TEXT_PARSERS[types[key]](text)
        except ValueError as exc:
            raise ValueError(f"{key} in {where}: {exc}") from exc
    return values


def _slot_time_s(slot: int, slot_duration_s: float) -> float:
    if slot < 1:
        raise ValueError("slots are 1-based")
    return (slot - 1) * slot_duration_s


def satellite_positions(params: ConstellationParams, slot: int, slot_duration_s: float) -> np.ndarray:
    """(num_satellites, 3) ECI positions in km, plane-major node order."""
    t = _slot_time_s(slot, slot_duration_s)
    p = np.arange(params.num_planes, dtype=np.float64)
    s = np.arange(params.sats_per_plane, dtype=np.float64)
    raan = np.deg2rad(params.epoch_raan_offset_deg + p * 360.0 / params.num_planes)
    phase0 = np.deg2rad(
        s[None, :] * 360.0 / params.sats_per_plane
        + p[:, None] * params.phasing_factor * 360.0 / (params.num_planes * params.sats_per_plane)
    )
    u = phase0 + params.mean_motion_rad_s * t
    cos_u, sin_u = np.cos(u), np.sin(u)
    cos_o, sin_o = np.cos(raan)[:, None], np.sin(raan)[:, None]
    inc = np.deg2rad(params.inclination_deg)
    cos_i, sin_i = np.cos(inc), np.sin(inc)
    r = params.orbit_radius_km
    x = r * (cos_o * cos_u - sin_o * sin_u * cos_i)
    y = r * (sin_o * cos_u + cos_o * sin_u * cos_i)
    z = r * (sin_u * sin_i)
    return np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)


def ground_station_position(gs: GroundStation, slot: int, slot_duration_s: float) -> np.ndarray:
    """Position (km) of a ground station on the rotating spherical Earth."""
    t = _slot_time_s(slot, slot_duration_s)
    lon = np.deg2rad(gs.longitude_deg + 360.0 / SIDEREAL_DAY_S * t)
    lat = np.deg2rad(gs.latitude_deg)
    return np.array(
        [
            EARTH_RADIUS_KM * np.cos(lat) * np.cos(lon),
            EARTH_RADIUS_KM * np.cos(lat) * np.sin(lon),
            EARTH_RADIUS_KM * np.sin(lat),
        ]
    )


def delay_ms(distance_km: np.ndarray, node_delay_ms: float) -> np.ndarray:
    """Edge cost: light travel time plus the fixed node delay, in ms."""
    return distance_km / SPEED_OF_LIGHT_KM_S * 1000.0 + node_delay_ms


# The satellite neighbour list's skin, as a share of the laser range. At the
# stock shell (1500 km, 1 s slots, pairs close in by at most 15.2 km a slot)
# one list serves 10 slots. 600 stock slots took 1.0 s at 5%, 0.76 s at 10%
# and 0.64-0.74 s at 20-40% on a 2-core host; a list build's grid
# candidates, and so its memory, grow with the cube of R + skin.
SKIN_FRACTION = 0.1

# Slack (km) on the motion bound for rounding in the computed positions and
# distances. A position is r times products of cos and sin of the phase
# u = phase0 + n*t, so it is off by a few ulps of r plus r times the ulp of u:
# about 1e-12 km at r = 7000 km, 5e-8 km once t is a year (u ~ 3.5e4 rad).
# The bound compares a pair's distances at two slots: four positions and two
# square roots of d2, each a few ulps of ~1e3 km. 1 m exceeds all of that
# until u nears 1e8 rad. A list outlives a slot only while 2*r*n*dt is under
# the skin (slots under ~80 s at a 12,000 km range), so no run of practical
# length gets there.
MOTION_SLACK_KM = 1e-3


def slot_edges(
    params: ConstellationParams,
    ground_stations: list[GroundStation],
    scenario: ScenarioParams,
):
    """Propagate the constellation and yield each slot's edge columns
    ``(u, v, delay_ms)``, slot 1 first.

    A satellite's id is its row in ``satellite_positions``. Each slot stacks
    the satellite positions and then the station positions into one array,
    and ``kernels.pairs_in_range`` gates both link kinds on it: satellite
    pairs at the laser range R, and every (station, satellite) pair,
    station-major, at the GS range (both inclusive). Ground stations never
    connect to each other. ``SnapshotSeries`` and ``export_series`` put the
    edges in canonical order and quantize the delays.

    The satellite pairs come from one neighbour list with a skin (a Verlet
    list). ``kernels.pair_edges`` lists every pair within ``R + skin`` of
    each other at slot b, and each slot s keeps the listed pairs within R.
    Orbits are circular, so over ``k`` slots a satellite's chord is at most
    its arc ``r*n*k*dt`` and a pair's distance changes by at most twice
    that. The list therefore holds every pair in range at slot s while
    ``2*r*n*(s - b)*dt + MOTION_SLACK_KM <= skin``, and is rebuilt at the
    first slot that breaks this (every slot, for slots long enough). Both
    steps compute d2 with the same arithmetic, so the satellite pairs are
    bit-equal to a fresh ``pair_edges`` at R on each slot's positions.
    """
    num_sats = params.num_satellites
    gs_ids = np.array([gs.id for gs in ground_stations], dtype=np.int64)
    gs_rows = np.repeat(np.arange(num_sats, num_sats + gs_ids.size), num_sats)
    gs_sats = np.tile(np.arange(num_sats, dtype=np.int32), gs_ids.size)
    range_km = scenario.lisl_range_km
    skin_km = SKIN_FRACTION * range_km
    closing_km = 2.0 * params.orbit_radius_km * params.mean_motion_rad_s * scenario.slot_duration_s
    built = 0
    for slot in range(1, scenario.num_slots + 1):
        sat_pos = satellite_positions(params, slot, scenario.slot_duration_s)
        if not built or closing_km * (slot - built) + MOTION_SLACK_KM > skin_km:
            near_i, near_j, _ = kernels.pair_edges(sat_pos, range_km + skin_km)
            built = slot
        pos = np.vstack(
            [sat_pos]
            + [ground_station_position(gs, slot, scenario.slot_duration_s) for gs in ground_stations]
        )
        si, sj, sat_d2 = kernels.pairs_in_range(pos, near_i, near_j, range_km)
        gi, gj, gs_d2 = kernels.pairs_in_range(pos, gs_rows, gs_sats, scenario.gs_range_km)
        dist = np.sqrt(np.concatenate([sat_d2, gs_d2]))
        yield (
            np.concatenate([si, gj]),
            np.concatenate([sj, gs_ids[gi - num_sats]]),
            delay_ms(dist, scenario.node_delay_ms),
        )


def generate_series(
    params: ConstellationParams,
    ground_stations: list[GroundStation],
    scenario: ScenarioParams,
):
    """The series of every slot's edges, held in memory."""
    from .topology import NodeRoster, SnapshotSeries

    roster = NodeRoster(params.num_satellites, tuple(ground_stations))
    return SnapshotSeries(scenario, roster, slot_edges(params, ground_stations, scenario))
