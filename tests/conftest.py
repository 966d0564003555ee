"""Shared fixtures: hand-built snapshots and series with known answers."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

# one verdict line per acceptance criterion, echoed after the test summary
CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)

from lislsim.constellation import GroundStation
from lislsim.topology import Snapshot, SnapshotSeries
from lislsim.toyseries import dominance_toy_series, series_from_edges

# Per-slot end-to-end delays of the four-route worked example (route id ->
# delay list; routes expire after their last listed slot). Every value is
# expected to be recovered exactly when split across two half-delay edges.
WORKED_EXAMPLE_DELAYS = {
    1: (26.0, 26.5, 26.8, 27.0, 27.2, 27.4),
    2: (26.5, 26.6, 27.2, 27.6, 27.8, 28.1, 28.3, 28.4, 28.7, 28.9, 29.1),
    3: (26.6, 26.9, 27.5, 27.8, 28.0, 28.1, 28.4),
    4: (27.1, 27.2, 27.4, 27.9, 28.2, 28.4, 28.7, 28.9),
}


def square_edges(cheap: float = 4.0, dear: float = 5.0) -> dict[tuple[int, int], float]:
    """Diamond graph 0 -> {1, 2} -> 3 with the branch via 2 cheaper."""
    return {(0, 1): dear, (1, 3): dear, (0, 2): cheap, (2, 3): cheap}


def one_slot(edges: dict[tuple[int, int], float], num_nodes: int,
             num_satellites: int | None = None) -> Snapshot:
    """The snapshot of a one-slot series; ids from num_satellites up are stations."""
    sats = num_nodes if num_satellites is None else num_satellites
    stations = tuple(GroundStation(i, f"gs{i}", 0.0, 0.0) for i in range(sats, num_nodes))
    return series_from_edges([edges], num_satellites=sats, ground_stations=stations).snapshot(1)


def head_series(series: SnapshotSeries, num_slots: int) -> SnapshotSeries:
    """The first ``num_slots`` slots of a series."""
    end = series.offsets[num_slots]
    return SnapshotSeries(
        replace(series.scenario, num_slots=num_slots), series.roster,
        series.offsets[: num_slots + 1], series.u[:end], series.v[:end], series.delay_ms[:end],
    )


@pytest.fixture
def square_snapshot() -> Snapshot:
    return one_slot(square_edges(), num_nodes=4)


@pytest.fixture
def tie_snapshot() -> Snapshot:
    return one_slot(square_edges(cheap=5.0, dear=5.0), num_nodes=4)


def worked_example_series():
    """Series realizing the four-route worked example.

    Satellites 0..3 each carry one two-hop route between ground stations
    4 (source) and 5 (destination); both edges of route k hold half of the
    route's end-to-end delay, so per-slot route delays match the table
    exactly (halving and re-adding doubles is lossless in binary).
    """
    n = max(len(v) for v in WORKED_EXAMPLE_DELAYS.values())
    per_slot = []
    for slot in range(1, n + 1):
        edges = {}
        for rid, delays in WORKED_EXAMPLE_DELAYS.items():
            if slot <= len(delays):
                half = delays[slot - 1] / 2.0
                sat = rid - 1
                edges[(sat, 4)] = half
                edges[(sat, 5)] = half
        per_slot.append(edges)
    stations = (
        GroundStation(id=4, name="src", latitude_deg=0.0, longitude_deg=0.0),
        GroundStation(id=5, name="dst", latitude_deg=0.0, longitude_deg=10.0),
    )
    return series_from_edges(per_slot, num_satellites=4, ground_stations=stations)


@pytest.fixture
def table_series():
    return worked_example_series()


@pytest.fixture
def toy_series():
    return dominance_toy_series()


def random_series(rng: np.random.Generator, num_nodes: int = 8, num_slots: int = 10,
                  edge_prob: float = 0.45):
    """Random connected-ish toy series with binary-exact delays."""
    per_slot = []
    for _ in range(num_slots):
        edges = {}
        for a in range(num_nodes):
            for b in range(a + 1, num_nodes):
                if rng.random() < edge_prob:
                    edges[(a, b)] = 1.0 + float(rng.integers(0, 1024)) / 256.0
        # stable backbone path keeps every slot connected
        for a in range(num_nodes - 1):
            edges.setdefault((a, a + 1), 4.0)
        per_slot.append(edges)
    return series_from_edges(per_slot, num_satellites=num_nodes)


EQ4_DELAYS = np.array(
    [
        [26.0, 27.0, 28.0, np.inf],
        [27.0, 26.0, 25.0, 25.0],
        [np.inf, 28.0, 27.0, 26.0],
    ]
)

EQ4_SELECTION = np.array(
    [
        [1, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ],
    dtype=np.int8,
)


@pytest.fixture
def eq4():
    return EQ4_DELAYS.copy(), EQ4_SELECTION.copy()
