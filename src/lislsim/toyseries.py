"""Hand-built snapshot series for verification harnesses and tests."""

from __future__ import annotations

import numpy as np

from .constellation import GroundStation, ScenarioParams
from .topology import NodeRoster, SnapshotSeries


def series_from_edges(
    slot_edges: list[dict[tuple[int, int], float]],
    num_satellites: int,
    ground_stations: tuple[GroundStation, ...] = (),
    slot_duration_s: float = 1.0,
    node_delay_ms: float = 0.0,
) -> SnapshotSeries:
    """Series built directly from per-slot edge dictionaries.

    Link ranges in the scenario header are placeholders; they only matter
    for series generated from constellation geometry.
    """
    roster = NodeRoster(num_satellites=num_satellites, ground_stations=ground_stations)
    scenario = ScenarioParams(
        lisl_range_km=1e6,
        gs_range_km=1e6,
        node_delay_ms=node_delay_ms,
        slot_duration_s=slot_duration_s,
        num_slots=len(slot_edges),
    )
    pairs = [pair for edges in slot_edges for pair in edges]
    delays = [w for edges in slot_edges for w in edges.values()]
    u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    offsets = np.cumsum([0] + [len(edges) for edges in slot_edges])
    return SnapshotSeries(scenario, roster, offsets, u, v, delays)


def dominance_toy_series() -> SnapshotSeries:
    """Six-slot, eight-node series whose full route set is enumerable.

    Satellites 0..5 relay between ground stations 6 (source) and 7
    (destination); several mid-network edges appear and expire so that the
    four algorithms produce different schedules. All delays are exact
    binary fractions.
    """
    base = {
        (0, 6): 2.0,
        (1, 6): 2.5,
        (4, 7): 2.0,
        (5, 7): 2.5,
        (1, 5): 3.0,
        (0, 2): 1.0,
        (2, 5): 1.5,
    }
    per_slot: list[dict[tuple[int, int], float]] = []
    for slot in range(1, 7):
        edges = dict(base)
        if slot <= 3:
            edges[(0, 4)] = (2.0, 2.25, 3.5)[slot - 1]
        if slot >= 2:
            edges[(0, 5)] = 2.75
        if slot >= 4:
            edges[(1, 4)] = 2.5
        per_slot.append(edges)
    stations = (
        GroundStation(id=6, name="src", latitude_deg=0.0, longitude_deg=0.0),
        GroundStation(id=7, name="dst", latitude_deg=0.0, longitude_deg=10.0),
    )
    return series_from_edges(per_slot, num_satellites=6, ground_stations=stations)
