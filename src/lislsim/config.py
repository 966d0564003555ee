"""Experiment configuration: INI-style files with nested sections.

``load_config`` reads a config file; ``default_config`` carries the stock
scenario (a 24x66 Walker shell at 550 km / 53 deg, 1500 km laser range,
1000 km ground range, 1 ms node delay, 600 one-second slots) with New York,
London, and Hanoi as the default ground stations.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .constellation import ConstellationParams, GroundStation, ScenarioParams

DEFAULT_GROUND_STATIONS = (
    ("new_york", 40.7128, -74.0060),
    ("london", 51.5074, -0.1278),
    ("hanoi", 21.0285, 105.8542),
)


@dataclass(frozen=True)
class OracleConfig:
    """Caps and distribution for randomized oracle cross-checks."""

    instances: int = 1000
    max_routes: int = 4
    max_slots: int = 6
    delay_low_ms: float = 20.0
    delay_high_ms: float = 40.0
    inf_fraction: float = 0.2
    eta_s_ms: tuple[float, ...] = (0.0, 1.0, 10.0, 100.0, 1000.0)

    def __post_init__(self):
        if self.instances < 1 or self.max_routes < 1 or self.max_slots < 1:
            raise ValueError("oracle caps must be positive")
        if not 0 <= self.inf_fraction < 1:
            raise ValueError("inf_fraction must lie in [0, 1)")
        if not (
            math.isfinite(self.delay_high_ms) and 0 <= self.delay_low_ms <= self.delay_high_ms
        ):
            raise ValueError("oracle delay bounds must be finite with 0 <= low <= high")
        if not all(math.isfinite(e) and e >= 0 for e in self.eta_s_ms):
            raise ValueError("oracle setup delays must be finite and non-negative")


def check_routing_values(eta_s_ms=(), qos_ms=(), gamma_ms=None, cost_thrsh_ms=None) -> None:
    """Raise ValueError unless every given routing parameter is usable.

    Setup delays and QoS thresholds must be finite and positive, gamma finite
    and non-negative, and the ISASR cost threshold positive (``inf`` allowed).
    """
    if not all(math.isfinite(e) and e > 0 for e in eta_s_ms):
        raise ValueError("every setup-delay value must be finite and positive")
    if not all(math.isfinite(q) and q > 0 for q in qos_ms):
        raise ValueError("QoS thresholds must be finite and positive")
    if gamma_ms is not None and not (math.isfinite(gamma_ms) and gamma_ms >= 0):
        raise ValueError("gamma must be finite and non-negative")
    if cost_thrsh_ms is not None and not cost_thrsh_ms > 0:
        raise ValueError("cost threshold must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs: geometry, scenario, endpoints, and sweeps."""

    constellation: ConstellationParams
    scenario: ScenarioParams
    ground_stations: tuple[GroundStation, ...]
    source: str
    destination: str
    algorithms: tuple[str, ...] = ("ilsr", "ilpr", "alpr", "isasr")
    eta_s_ms: tuple[float, ...] = (1.0, 10.0, 100.0, 1000.0)
    gamma_ms: float | None = None  # None: gamma tracks eta_s
    cost_thrsh_ms: float = 100.0
    qos_ms: tuple[float, ...] = (27.0, 30.0, 35.0, 40.0)
    reset_dropped_edges: bool = False
    global_lifetimes: bool = False
    histogram_bin_ms: float = 0.25
    seed: int = 1
    oracle: OracleConfig = OracleConfig()

    def __post_init__(self):
        check_routing_values(
            eta_s_ms=self.eta_s_ms, qos_ms=self.qos_ms,
            gamma_ms=self.gamma_ms, cost_thrsh_ms=self.cost_thrsh_ms,
        )
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
        known = {"ilsr", "ilpr", "alpr", "isasr"}
        bad = set(self.algorithms) - known
        if bad:
            raise ValueError(f"unknown algorithms: {sorted(bad)}")

    def qos_for(self, eta_s_ms: float) -> float:
        """QoS threshold paired with a setup-delay value."""
        for e, q in zip(self.eta_s_ms, self.qos_ms):
            if e == eta_s_ms:
                return q
        raise KeyError(f"no QoS threshold paired with eta_s={eta_s_ms}")

    def gamma_for(self, eta_s_ms: float) -> float:
        return eta_s_ms if self.gamma_ms is None else self.gamma_ms


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


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _names(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.replace(",", " ").split())


def _gamma(text: str) -> float | None:
    return None if text.strip().lower() == "auto" else float(text)


def _parsed(section, key: str, parse, default):
    """``parse`` of the key's text, or ``default`` when the section lacks the key."""
    return parse(section[key]) if key in section else default


def load_config(path) -> ExperimentConfig:
    """Parse an INI config; unspecified values fall back to the defaults.

    Every failure, including a malformed file, raises ValueError.
    """
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ValueError(f"cannot read config file {path!r}")
        return _from_parser(parser)
    except configparser.Error as exc:
        raise ValueError(f"malformed config file {path!r}: {exc}") from exc


def _from_parser(parser: configparser.ConfigParser) -> ExperimentConfig:
    base = default_config()

    cp = parser["constellation"] if parser.has_section("constellation") else {}
    constellation = ConstellationParams(
        num_planes=int(cp.get("num_planes", base.constellation.num_planes)),
        sats_per_plane=int(cp.get("sats_per_plane", base.constellation.sats_per_plane)),
        inclination_deg=float(cp.get("inclination_deg", base.constellation.inclination_deg)),
        altitude_km=float(cp.get("altitude_km", base.constellation.altitude_km)),
        phasing_factor=int(cp.get("phasing_factor", base.constellation.phasing_factor)),
        epoch_raan_offset_deg=float(
            cp.get("epoch_raan_offset_deg", base.constellation.epoch_raan_offset_deg)
        ),
    )
    sp = parser["scenario"] if parser.has_section("scenario") else {}
    scenario = ScenarioParams(
        lisl_range_km=float(sp.get("lisl_range_km", base.scenario.lisl_range_km)),
        gs_range_km=float(sp.get("gs_range_km", base.scenario.gs_range_km)),
        node_delay_ms=float(sp.get("node_delay_ms", base.scenario.node_delay_ms)),
        slot_duration_s=float(sp.get("slot_duration_s", base.scenario.slot_duration_s)),
        num_slots=int(sp.get("num_slots", base.scenario.num_slots)),
    )

    entries = DEFAULT_GROUND_STATIONS
    if parser.has_section("ground_stations"):
        entries = []
        for name, value in parser.items("ground_stations"):
            coords = _floats(value)
            if len(coords) != 2:
                raise ValueError(f"ground station {name!r} needs 'lat, lon'")
            entries.append((name, *coords))

    run = parser["run"] if parser.has_section("run") else {}
    orc = parser["oracle"] if parser.has_section("oracle") else {}
    base_oracle = base.oracle
    oracle_cfg = OracleConfig(
        instances=int(orc.get("instances", base_oracle.instances)),
        max_routes=int(orc.get("max_routes", base_oracle.max_routes)),
        max_slots=int(orc.get("max_slots", base_oracle.max_slots)),
        delay_low_ms=float(orc.get("delay_low_ms", base_oracle.delay_low_ms)),
        delay_high_ms=float(orc.get("delay_high_ms", base_oracle.delay_high_ms)),
        inf_fraction=float(orc.get("inf_fraction", base_oracle.inf_fraction)),
        eta_s_ms=_parsed(orc, "eta_s_ms", _floats, base_oracle.eta_s_ms),
    )

    return ExperimentConfig(
        constellation=constellation,
        scenario=scenario,
        ground_stations=_stations(constellation.num_satellites, entries),
        source=run.get("source", base.source),
        destination=run.get("destination", base.destination),
        algorithms=_parsed(run, "algorithms", _names, base.algorithms),
        eta_s_ms=_parsed(run, "eta_s_ms", _floats, base.eta_s_ms),
        gamma_ms=_parsed(run, "gamma", _gamma, base.gamma_ms),
        cost_thrsh_ms=float(run.get("cost_thrsh_ms", base.cost_thrsh_ms)),
        qos_ms=_parsed(run, "qos_ms", _floats, base.qos_ms),
        reset_dropped_edges=_parsed(run, "reset_dropped_edges", _bool, base.reset_dropped_edges),
        global_lifetimes=_parsed(run, "global_lifetimes", _bool, base.global_lifetimes),
        histogram_bin_ms=float(run.get("histogram_bin_ms", base.histogram_bin_ms)),
        seed=int(run.get("seed", base.seed)),
        oracle=oracle_cfg,
    )


def _bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")

