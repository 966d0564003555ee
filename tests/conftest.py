"""Shared fixtures: hand-built snapshots and series with known answers."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

# one verdict line per acceptance criterion, echoed after the test summary
CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)

from lislsim.cli import WORKED_EXAMPLE_DELAYS
from lislsim.config import default_config
from lislsim.constellation import GroundStation, generate_series
from lislsim.topology import Snapshot, SnapshotSeries, export_series, pack_keys

from toyseries import dominance_toy_series, series_from_edges


def square_edges(cheap: float = 4.0, dear: float = 5.0) -> dict[tuple[int, int], float]:
    """Diamond graph 0 -> {1, 2} -> 3 with the branch via 2 cheaper."""
    return {(0, 1): dear, (1, 3): dear, (0, 2): cheap, (2, 3): cheap}


def one_slot(edges: dict[tuple[int, int], float], num_nodes: int,
             num_satellites: int | None = None) -> Snapshot:
    """The snapshot of a one-slot series; ids from num_satellites up are stations."""
    sats = num_nodes if num_satellites is None else num_satellites
    stations = tuple(GroundStation(i, f"gs{i}", 0.0, 0.0) for i in range(sats, num_nodes))
    return series_from_edges([edges], num_satellites=sats, ground_stations=stations).snapshot(1)


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


def edge_pairs(route) -> list[tuple[int, int]]:
    """The route's edges as canonical (min, max) pairs, in hop order."""
    return [(min(a, b), max(a, b)) for a, b in zip(route.nodes, route.nodes[1:])]


def pair_positions(snap: Snapshot, pairs) -> np.ndarray:
    """Indices of canonical (min, max) pairs in the snapshot's edges, -1 when absent."""
    lo, hi = np.array(list(pairs), np.int64).reshape(-1, 2).T
    return snap.positions(pack_keys(lo, hi))


def head_series(series: SnapshotSeries, num_slots: int) -> SnapshotSeries:
    """The first ``num_slots`` slots of a series."""
    return SnapshotSeries(
        replace(series.scenario, num_slots=num_slots), series.roster,
        ((snap.u, snap.v, snap.delay_ms) for snap in series.snapshots[:num_slots]),
    )


def save_series(series: SnapshotSeries, path) -> int:
    """Write a held series through the slot writer; returns its record count."""
    slots = ((snap.u, snap.v, snap.delay_ms) for snap in series.snapshots)
    return export_series(slots, path, series.scenario, series.roster)


def slot_routes(schedule) -> list:
    """Each slot's route (None where unreachable), read from the schedule's table."""
    return [None if row < 0 else schedule.route_table[row] for row in schedule.index]


def decision_slots(schedule) -> list[int]:
    """The slots a hold loop (ILPR, ALPR) picked at: slot 1, each slot after an
    unreachable one, and each slot whose route differs from the slot before's
    (the held route broke there, so it cannot be picked again)."""
    idx = schedule.index
    return [1] + [i + 1 for i in range(1, idx.size) if idx[i - 1] < 0 or idx[i] != idx[i - 1]]


@pytest.fixture(scope="session")
def stock_head() -> SnapshotSeries:
    """The first 20 slots of the stock scenario (~370k edge records)."""
    cfg = default_config()
    scenario = replace(cfg.scenario, num_slots=20)
    return generate_series(cfg.constellation, list(cfg.ground_stations), scenario)


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

# each slot's route row: route 0 twice, then routes 1 and 2 (two switches)
EQ4_SELECTION = np.array([0, 0, 1, 2])


@pytest.fixture
def eq4():
    return EQ4_DELAYS.copy(), EQ4_SELECTION.copy()
