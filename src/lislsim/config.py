"""Experiment configuration: INI-style files with nested sections.

``load_config`` reads a config file; ``default_config`` carries the stock
scenario (a 24x66 Walker shell at 550 km / 53 deg, 1500 km laser range,
1000 km ground range, 1 ms node delay, 600 one-second slots) with New York,
London, and Hanoi as the default ground stations.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace

from .constellation import (
    TEXT_PARSERS, ConstellationParams, GroundStation, ScenarioParams, field_values,
)

# the names routing.run_algorithm dispatches, in the default sweep order
ALGORITHMS = ("ilsr", "ilpr", "alpr", "isasr")

DEFAULT_GROUND_STATIONS = (
    ("new_york", 40.7128, -74.0060),
    ("london", 51.5074, -0.1278),
    ("hanoi", 21.0285, 105.8542),
)


# about 32 years, so ISASR's edge costs delay + gamma * (cost_st + cost_act) stay below ~2e24,
# far from overflow; at such costs the ms delays round away, and the route search still ends
MAX_SETUP_MS = 1e12


def check_routing_values(eta_s_ms=(), qos_ms=(), gamma_ms=(), cost_thrsh_ms=None) -> None:
    """Raise ValueError unless every given routing parameter is usable.

    Setup delays must be positive and each gamma non-negative (or ``None``), both
    at most ``MAX_SETUP_MS``; QoS thresholds finite and positive, and the ISASR
    cost threshold positive (``inf`` allowed).
    """
    if not all(0 < e <= MAX_SETUP_MS for e in eta_s_ms):
        raise ValueError("every setup-delay value must be positive and at most "
                         f"{MAX_SETUP_MS:g} ms")
    if not all(math.isfinite(q) and q > 0 for q in qos_ms):
        raise ValueError("QoS thresholds must be finite and positive")
    if not all(g is None or 0 <= g <= MAX_SETUP_MS for g in gamma_ms):
        raise ValueError(f"gamma must be non-negative and at most {MAX_SETUP_MS:g} ms")
    if cost_thrsh_ms is not None and not cost_thrsh_ms > 0:
        raise ValueError("cost threshold must be positive")


def resolve_gamma(gamma: float | None, eta_s_ms: float) -> float:
    """An ISASR weight in ms: ``None`` (``auto``) means the setup delay itself."""
    return eta_s_ms if gamma is None else gamma


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs: geometry, scenario, endpoints, and sweeps."""

    constellation: ConstellationParams
    scenario: ScenarioParams
    ground_stations: tuple[GroundStation, ...]
    source: str
    destination: str
    algorithms: tuple[str, ...] = ALGORITHMS
    eta_s_ms: tuple[float, ...] = (1.0, 10.0, 100.0, 1000.0)
    gamma: tuple[float | None, ...] = (None,)  # ISASR weights in ms; None (``auto``): eta_s
    cost_thrsh_ms: float = 100.0
    qos_ms: tuple[float, ...] = (27.0, 30.0, 35.0, 40.0)
    histogram_bin_ms: float = 0.25

    def __post_init__(self):
        check_routing_values(
            eta_s_ms=self.eta_s_ms, qos_ms=self.qos_ms,
            gamma_ms=self.gamma, cost_thrsh_ms=self.cost_thrsh_ms,
        )
        if not (self.algorithms and self.eta_s_ms and self.gamma):
            raise ValueError("need at least one algorithm, one setup delay and one gamma")
        for what, values in (("algorithm", self.algorithms), ("setup delay", self.eta_s_ms),
                             ("gamma", self.gamma)):
            if len(set(values)) < len(values):
                raise ValueError(f"a {what} is listed twice: {', '.join(map(str, values))}")
        if len(self.gamma) > 1 and "isasr" not in self.algorithms:
            raise ValueError("a gamma list needs isasr among the algorithms")
        if len(self.qos_ms) != len(self.eta_s_ms):
            raise ValueError("qos_ms must pair one threshold with each eta_s value")
        if not (math.isfinite(self.histogram_bin_ms) and self.histogram_bin_ms > 0):
            raise ValueError("histogram bin width must be finite and positive")
        names = [gs.name for gs in self.ground_stations]
        for endpoint in (self.source, self.destination):
            if endpoint not in names:
                raise ValueError(f"endpoint {endpoint!r} is not a configured ground station")
        if self.source == self.destination:
            raise ValueError("source and destination must differ")
        bad = set(self.algorithms) - set(ALGORITHMS)
        if bad:
            raise ValueError(f"unknown algorithms: {sorted(bad)}")

    def qos_for(self, eta_s_ms: float) -> tuple[float, ...]:
        """The QoS threshold paired with a setup delay, or every threshold for an unpaired one."""
        return tuple(q for e, q in zip(self.eta_s_ms, self.qos_ms) if e == eta_s_ms) or self.qos_ms

    def gamma_for(self, eta_s_ms: float) -> tuple[float, ...]:
        """The ISASR weights at a setup delay, ``auto`` resolved to it."""
        return tuple(resolve_gamma(g, eta_s_ms) for g in self.gamma)


def default_config() -> ExperimentConfig:
    constellation = ConstellationParams(
        num_planes=24, sats_per_plane=66, inclination_deg=53.0, altitude_km=550.0
    )
    scenario = ScenarioParams(
        lisl_range_km=1500.0,
        gs_range_km=1000.0,
        node_delay_ms=1.0,
        slot_duration_s=1.0,
        num_slots=600,
    )
    return ExperimentConfig(
        constellation=constellation,
        scenario=scenario,
        ground_stations=_stations(constellation.num_satellites, DEFAULT_GROUND_STATIONS),
        source="new_york",
        destination="london",
    )


def _stations(num_satellites: int, entries) -> tuple[GroundStation, ...]:
    """Stations from (name, lat, lon) entries, numbered right after the satellites."""
    return tuple(
        GroundStation(id=num_satellites + i, name=name, latitude_deg=lat, longitude_deg=lon)
        for i, (name, lat, lon) in enumerate(entries)
    )


_SECTIONS = ("constellation", "scenario", "ground_stations", "run")


def load_config(path) -> ExperimentConfig:
    """Parse an INI config; unspecified values fall back to the defaults.

    Sections and keys are the fields of the parameter dataclasses; an
    unknown section or key, and every other failure, raises ValueError.
    """
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ValueError(f"cannot read config file {path!r}")
        return _from_parser(parser)
    except configparser.Error as exc:
        raise ValueError(f"malformed config file {path!r}: {exc}") from exc


def _from_parser(parser: configparser.ConfigParser) -> ExperimentConfig:
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ValueError(f"unknown config section [{name}]")

    def values(name: str, cls) -> dict:  # a missing section still has the [DEFAULT] keys
        items = parser.items(name if parser.has_section(name) else parser.default_section)
        return field_values(cls, items, f"[{name}]")

    base = default_config()
    constellation = replace(base.constellation, **values("constellation", ConstellationParams))
    entries = DEFAULT_GROUND_STATIONS
    if parser.has_section("ground_stations"):
        entries = []
        for name, value in parser.items("ground_stations"):
            coords = TEXT_PARSERS["tuple[float, ...]"](value)
            if len(coords) != 2:
                raise ValueError(f"ground station {name!r} needs 'lat, lon'")
            entries.append((name, *coords))
    return replace(
        base,
        constellation=constellation,
        scenario=replace(base.scenario, **values("scenario", ScenarioParams)),
        ground_stations=_stations(constellation.num_satellites, entries),
        **values("run", ExperimentConfig),
    )
