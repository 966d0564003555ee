"""lislsim: routing over time-sliced LEO constellations with dynamic laser links.

Each exported name is imported from its submodule on first use, so a process
loads only the modules it runs: ``import lislsim`` alone imports no numpy.
"""

import os

# lislsim makes no BLAS call, so numpy need not start OpenBLAS worker threads (~70 ms)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import importlib

__version__ = "0.1.0"

# every exported name -> the submodule that defines it
_exports = {
    name: module
    for module, names in (
        ("constellation", ("ConstellationParams", "GroundStation", "ScenarioParams",
                           "generate_series")),
        ("topology", ("NodeRoster", "SeriesFormatError", "Snapshot", "SnapshotSeries",
                      "export_series", "import_series")),
        ("routing", ("Route", "RoutingSchedule", "alpr", "alpr_average_latency", "dijkstra",
                     "disjoint_routes", "ilpr", "ilsr", "isasr", "isasr_stability_cost",
                     "run_algorithm")),
        ("oracle", ("dp_optimal", "optimum_schedule", "route_delay_matrix")),
        ("metrics", ("MetricsReport", "average_jitter", "evaluate", "histogram",
                     "outage_probability")),
        ("config", ("ExperimentConfig", "default_config", "load_config")),
    )
    for name in names
}

__all__ = list(_exports)


def __getattr__(name):
    if name not in _exports:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_exports[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
