"""lislsim: routing over time-sliced LEO constellations with dynamic laser links."""

__version__ = "0.1.0"

from .constellation import (
    ConstellationParams,
    GroundStation,
    ScenarioParams,
    build_snapshot,
    generate_series,
)
from .topology import (
    NodeRoster,
    SeriesFormatError,
    Snapshot,
    SnapshotSeries,
    export_series,
    import_series,
)
from .routing import (
    Route,
    RoutingSchedule,
    alpr,
    alpr_average_latency,
    dijkstra,
    disjoint_routes,
    ilpr,
    ilsr,
    isasr,
    isasr_stability_cost,
    route_lifetime,
    run_algorithm,
)
from .oracle import (
    brute_force_optimal,
    dp_optimal,
    enumerate_routes,
    selection_cost,
)
from .metrics import (
    MetricsReport,
    average_jitter,
    evaluate,
    histogram,
    outage_probability,
)
from .config import ExperimentConfig, OracleConfig, default_config, load_config
