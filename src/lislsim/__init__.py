"""lislsim: routing over time-sliced LEO constellations with dynamic laser links."""

__version__ = "0.1.0"

import os

# lislsim makes no BLAS call, so numpy need not start OpenBLAS worker threads (~70 ms)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .constellation import (
    ConstellationParams,
    GroundStation,
    ScenarioParams,
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
    run_algorithm,
)
from .oracle import (
    dp_optimal,
    optimum_schedule,
    route_delay_matrix,
)
from .metrics import (
    MetricsReport,
    average_jitter,
    evaluate,
    histogram,
    outage_probability,
)
from .config import ExperimentConfig, default_config, load_config
