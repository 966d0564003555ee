#!/usr/bin/env python3
"""Traced run of one lislsim CLI command, inside this interpreter.

Wraps the public functions of each lislsim module from outside (no file
under ``src/`` changes), calls ``lislsim.cli.main`` with the given
arguments, and writes the per-function spans and counters as JSON::

    python3 perfbench/tracer.py --src SRC --out SPANS.json -- generate --config c.ini --out s.series

With ``--kernels CONFIG`` it instead times the two hot kernels on one slot
of the configured shell (the single-slot numbers that
``benchmarks/bench_kernels.py`` used to print), for every backend that
imports.

A wrapped name is patched wherever lislsim modules hold it (``cli.import_series``
as well as ``topology.import_series``), so callers that imported the name
directly are traced too. A function that no longer exists is reported in
``absent`` instead of failing the run.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable


def _mb(num_bytes: float) -> float:
    return num_bytes / 1e6


def path_bytes(path) -> int:
    """Size of a file, or of every file under a directory."""
    p = Path(path)
    if p.is_dir():
        return sum(f.stat().st_size for f in p.rglob("*") if f.is_file())
    return p.stat().st_size if p.exists() else 0


def _arg(args, kwargs, index: int, name: str):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


class Tracer:
    """Inclusive and self time, call counts and extra counters per wrapped name.

    Spans nest through a stack of child-time accumulators; time covered by
    outermost spans is summed in ``covered_s`` so that the untraced rest of
    the command can be reported as the CLI's own time.
    """

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self.covered_s = 0.0
        self._stack: list[float] = []

    def wrap(self, name: str, fn: Callable, on_exit: Callable | None = None) -> Callable:
        stats = self.stats.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                stats["s"] += elapsed
                stats["self_s"] += elapsed - child
                stats["calls"] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    self.covered_s += elapsed
            if on_exit is not None:
                on_exit(stats, args, kwargs, result, elapsed)
            return result

        return wrapper


@dataclass(frozen=True)
class Target:
    """A public lislsim callable to wrap: ``module`` and a dotted ``attr`` path."""

    module: str
    attr: str
    on_exit: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def _count_pairs(stats, args, kwargs, result, elapsed):
    pos = _arg(args, kwargs, 0, "pos")
    n = len(pos)
    stats["pairs"] = stats.get("pairs", 0) + n * (n - 1) // 2


def _count_arcs(stats, args, kwargs, result, elapsed):
    stats["arcs"] = stats.get("arcs", 0) + len(_arg(args, kwargs, 1, "nbr"))


def _count_written(stats, args, kwargs, result, elapsed):
    stats["bytes"] = stats.get("bytes", 0) + path_bytes(_arg(args, kwargs, 1, "path"))


def _count_read(stats, args, kwargs, result, elapsed):
    stats["bytes"] = stats.get("bytes", 0) + path_bytes(_arg(args, kwargs, 0, "path"))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    stats["rss_mb"] = max(stats.get("rss_mb", 0.0), _mb(rss_kb * 1024))


class _CellCounter:
    """Per-algorithm time of ``run_algorithm`` and the distinct schedules it made."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.schedules: set = set()

    def __call__(self, stats, args, kwargs, result, elapsed):
        name = str(_arg(args, kwargs, 0, "name"))
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
        routes = getattr(result, "routes", None)
        key = repr(result) if routes is None else tuple(
            None if r is None else tuple(r.nodes) for r in routes
        )
        self.schedules.add((name, key))


def default_targets(cells: _CellCounter) -> list[Target]:
    return [
        Target("constellation", "generate_series"),
        Target("constellation", "propagate"),
        Target("constellation", "build_snapshot"),
        Target("kernels", "pair_edges", _count_pairs),
        Target("kernels", "cross_edges"),
        Target("kernels", "shortest_route", _count_arcs),
        Target("topology", "export_series", _count_written),
        Target("topology", "import_series", _count_read),
        Target("topology", "build_link_details"),
        Target("topology", "Snapshot.csr"),
        Target("routing", "run_algorithm", cells),
        Target("routing", "dijkstra"),
        Target("routing", "disjoint_routes"),
        Target("metrics", "evaluate"),
        Target("cli", "write_schedule"),
    ]


def install(tracer: Tracer, targets: list[Target], package: str = "lislsim") -> list[str]:
    """Wrap every target that exists; return the names of those that do not."""
    absent = []
    for target in targets:
        try:
            owner = importlib.import_module(f"{package}.{target.module}")
        except ImportError:
            absent.append(target.name)
            continue
        *path, last = target.attr.split(".")
        container = owner
        for part in path:
            container = getattr(container, part, None)
        fn = getattr(container, last, None) if container is not None else None
        if not callable(fn):
            absent.append(target.name)
            continue
        wrapper = tracer.wrap(target.name, fn, target.on_exit)
        if isinstance(container, type):
            setattr(container, last, wrapper)
            continue
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
    return absent


def check_source(src: str) -> None:
    """Exit if the imported lislsim package lies outside ``src``."""
    import lislsim

    where = Path(lislsim.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise SystemExit(f"lislsim resolves to {where}, outside {src}")


def traced_command(src: str, argv: list[str]) -> tuple[int, dict]:
    import lislsim.cli

    check_source(src)
    tracer = Tracer()
    cells = _CellCounter()
    absent = install(tracer, default_targets(cells))
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    code = lislsim.cli.main(argv)
    main_s = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    return code, {
        "main_s": main_s,
        "cpu_s": cpu_s,
        "covered_s": tracer.covered_s,
        "stats": tracer.stats,
        "algorithm_s": cells.seconds,
        "cells_distinct": len(cells.schedules),
        "absent": absent,
    }


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernel_slot_bench(src: str, config_path: str, repeats: int = 7) -> dict:
    """Median single-slot time of each hot kernel, per importable backend."""
    from lislsim import constellation, kernels
    from lislsim.config import load_config

    check_source(src)
    cfg = load_config(config_path)
    result: dict = {"ms": {}, "absent": []}
    try:
        pos = constellation.satellite_positions(cfg.constellation, 1, cfg.scenario.slot_duration_s)
        series = constellation.generate_series(
            cfg.constellation, list(cfg.ground_stations), replace(cfg.scenario, num_slots=1)
        )
        snap = series.snapshot(1)
        indptr, nbr, arc_eid = snap.csr()
        wgt = snap.delay_ms[arc_eid]
        src_id = series.roster.station(cfg.source).id
        dst_id = series.roster.station(cfg.destination).id
    except (AttributeError, TypeError) as exc:
        result["absent"].append(f"slot inputs: {exc}")
        return result
    range_km = cfg.scenario.lisl_range_km
    set_backend = getattr(kernels, "set_backend", None)
    active = getattr(kernels, "active_backend", lambda: "default")()
    backends = [active]
    if set_backend is not None and getattr(kernels, "HAVE_NUMBA", False):
        backends = sorted({active, "numba", "numpy"})
    calls = {
        "pair_edges": lambda: kernels.pair_edges(pos, range_km),
        "shortest_route": lambda: kernels.shortest_route(indptr, nbr, wgt, src_id, dst_id),
    }
    try:
        for backend in backends:
            if set_backend is not None:
                set_backend(backend)
            for kernel, call in calls.items():
                try:
                    call()  # warm-up: JIT compile or cache load
                    result["ms"][f"{kernel}.{backend}"] = _median_time(call, repeats) * 1e3
                except (AttributeError, TypeError) as exc:
                    result["absent"].append(f"{kernel}.{backend}: {exc}")
    finally:
        if set_backend is not None:
            set_backend(active)
    result["active"] = active
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that must hold lislsim")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--kernels", metavar="CONFIG", help="time the kernels on one slot")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then lislsim arguments")
    args = parser.parse_args()
    if args.kernels:
        code, payload = 0, kernel_slot_bench(args.src, args.kernels)
    else:
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        code, payload = traced_command(args.src, argv)
    Path(args.out).write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
