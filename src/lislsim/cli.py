"""Experiment runner CLI.

Subcommands::

    generate  build a snapshot-series dataset from a config
    run       one algorithm on one series: metrics report + schedule file
    sweep     all configured (algorithm, setup-delay) cells into one table, and
              each against the exact optimum over the routes the cells use
    table2    replay the built-in four-route worked example of the
              lifetime-averaged route selection rule

Exit status: 0 ok, 1 validation/usage error or out of memory, 2 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .config import (
    ALGORITHMS, ExperimentConfig, check_routing_values, default_config, load_config,
)
from .constellation import field_values, slot_edges
from .topology import MissingEdgeError, NodeRoster, export_series, import_series

# routing, metrics, oracle and json load inside the commands that run them: a process
# starts afresh for every command, and ``generate`` uses none of them
if TYPE_CHECKING:
    from .routing import RoutingSchedule

# Four-route worked example: per-slot end-to-end delays (ms) of candidate
# routes with different lifetimes, used by the `table2` subcommand and the
# golden tests of the lifetime-averaged selection rule.
WORKED_EXAMPLE_DELAYS = {
    1: (26.0, 26.5, 26.8, 27.0, 27.2, 27.4),
    2: (26.5, 26.6, 27.2, 27.6, 27.8, 28.1, 28.3, 28.4, 28.7, 28.9, 29.1),
    3: (26.6, 26.9, 27.5, 27.8, 28.0, 28.1, 28.4),
    4: (27.1, 27.2, 27.4, 27.9, 28.2, 28.4, 28.7, 28.9),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load(args) -> ExperimentConfig:
    """The config with ``--gamma`` and ``--cost-thrsh`` read as its ``[run]`` keys
    of the same names (each flag's dest), then checked again."""
    cfg = load_config(args.config) if args.config else default_config()
    flags = [(key, text) for key, text in vars(args).items()
             if key in ("gamma", "cost_thrsh_ms") and text is not None]
    return dataclasses.replace(cfg, **field_values(ExperimentConfig, flags, "a flag"))


def schedule_text(schedule: RoutingSchedule) -> str:
    """Schedule file: header + one `slot delay route` record per slot.

    Deliberately algorithm-agnostic so that two algorithms producing the
    same schedule write byte-identical files.
    """
    lines = [
        f"schedule v1 source={schedule.source} destination={schedule.destination} "
        f"num_slots={schedule.num_slots}"
    ]
    for i, (row, delay) in enumerate(zip(schedule.index, schedule.delay_ms), start=1):
        if row < 0:
            lines.append(f"{i} - -")
        else:
            lines.append(f"{i} {delay:.9f} {schedule.route_table[row]}")
    return "\n".join(lines) + "\n"


def _manifest(cfg: ExperimentConfig, extra: dict) -> str:
    import json

    def plain(value):  # RFC 8259 has no Infinity: a non-finite float as its config text, "inf"
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [plain(item) for item in value]
        return str(value) if isinstance(value, float) and not math.isfinite(value) else value

    payload = {"tool": "lislsim", "version": __version__, "config": dataclasses.asdict(cfg)}
    payload.update(extra)
    return json.dumps(plain(payload), indent=2, allow_nan=False) + "\n"


def _write(out, texts: dict[str, str]) -> None:
    """Create ``out`` and write each text into it; every text is rendered first,
    so a command that fails before writing leaves no directory."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text, encoding="utf-8")


def cmd_generate(args) -> int:
    """Build, check and write one slot at a time; a failed run removes the folders it made."""
    cfg = _load(args)
    roster = NodeRoster(cfg.constellation.num_satellites, tuple(cfg.ground_stations))
    out = Path(args.out)
    made = [folder for folder in out.parents if not folder.exists()]  # deepest first
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        slots = slot_edges(cfg.constellation, list(cfg.ground_stations), cfg.scenario)
        records = export_series(slots, out, cfg.scenario, roster)
    except BaseException:
        for folder in made:
            with contextlib.suppress(OSError):
                folder.rmdir()
        raise
    print(
        f"wrote {out}: {cfg.constellation.num_satellites} satellites, "
        f"{len(cfg.ground_stations)} ground stations, {cfg.scenario.num_slots} slots, "
        f"{records} edge records"
    )
    return 0


def cmd_run(args) -> int:
    from . import metrics

    cfg = _load(args)
    eta_s = args.eta_s if args.eta_s is not None else cfg.eta_s_ms[0]
    check_routing_values(eta_s_ms=(eta_s,))
    gamma, *more = cfg.gamma_for(eta_s)
    if more:
        raise ValueError("run takes one gamma value")
    cells = [(args.algorithm, eta_s, gamma)]
    *_, schedule, runtime = next(_cell_schedules(cfg, cells, import_series(args.series)))
    report = metrics.evaluate(schedule, eta_s, qos_ms=cfg.qos_for(eta_s), runtime_s=runtime)
    texts = {"report.txt": report.to_text(), "latency_series.tsv": report.latency_table(),
             "schedule.txt": schedule_text(schedule)}
    if report.coverage:
        texts["histogram.tsv"] = report.histogram_table(cfg.histogram_bin_ms)
    texts["manifest.json"] = _manifest(
        cfg, {"command": "run", "algorithm": args.algorithm, "eta_s_ms": eta_s}
    )
    _write(args.out, texts)
    sys.stdout.write(texts["report.txt"])
    if report.coverage == 0:
        print("error: destination unreachable in every slot", file=sys.stderr)
        return 1
    _warn_unreachable(schedule)
    return 0


def _warn_unreachable(schedule: RoutingSchedule) -> None:
    gaps = schedule.unreachable_slots()
    if gaps:
        more = "..." if len(gaps) > 10 else ""
        print(f"warning: {len(gaps)} unreachable slots: {gaps[:10]}{more}", file=sys.stderr)


_SWEEP_COLUMNS = (
    "algorithm\teta_s_ms\tgamma_ms\tmean_eta_le_ms\tmean_eta_delay_ms\t"
    "route_change_rate_pct\tqos_ms\toutage_probability\taverage_jitter_ms\tcoverage"
)


def _cells(cfg: ExperimentConfig) -> list[tuple[str, float, float]]:
    """(algorithm, eta_s, gamma) of every configured cell, each once: ISASR takes
    every gamma, the other algorithms the first."""
    return list(dict.fromkeys(
        (name, eta_s, gamma)
        for name in cfg.algorithms
        for eta_s in cfg.eta_s_ms
        for gamma in cfg.gamma_for(eta_s)[:None if name == "isasr" else 1]
    ))


def _cell_schedules(cfg, cells, series):
    """Each cell with its schedule and runtime. A runtime is a difference of
    ``series.charged_s()``: it leaves out the series' lazy builds and includes the
    recorded seconds of what it reuses, so a cell reads what it costs run alone."""
    from .routing import run_algorithm

    src = series.roster.station(cfg.source).id
    dst = series.roster.station(cfg.destination).id
    for name, eta_s, gamma in cells:
        start = series.charged_s()
        schedule = run_algorithm(name, series, src, dst, eta_s,
                                 gamma=gamma, cost_thrsh_ms=cfg.cost_thrsh_ms)
        yield name, eta_s, gamma, schedule, series.charged_s() - start


# the bound of both checks: an identity residual, and a cell's mean below the optimum's
_CHECK_BOUND_MS = 1e-9

_GAP_COLUMNS = "algorithm\teta_s_ms\tgamma_ms\tmean_eta_le_ms\toptimum_mean_eta_le_ms\tgap_ms"


def cmd_sweep(args) -> int:
    """Every configured cell into ``sweep.tsv``, and its mean latency against the
    exact optimum over the routes the cells use into ``gap.tsv``.

    That optimum bounds the true one from above, so each gap is a lower bound
    on the heuristic's true gap. A cell whose identity residual reaches
    ``_CHECK_BOUND_MS``, or that beats the optimum by more than it, fails with exit 2.
    """
    from . import metrics, oracle

    cfg = _load(args)
    cells = _cells(cfg)
    series = import_series(args.series)
    rows, timing_rows, reports, failures = [], [], [], []
    routes = {}  # every cell's routes, in first-use order
    for name, eta_s, gamma, schedule, runtime in _cell_schedules(cfg, cells, series):
        report = metrics.evaluate(schedule, eta_s, qos_ms=cfg.qos_for(eta_s))
        qos, outage = report.outage[0]
        cell = f"{name}\t{eta_s:g}\t{gamma:g}\t{report.mean_eta_le_ms:.9f}"  # both tables' head
        rows.append(
            f"{cell}\t{report.mean_eta_delay_ms:.9f}\t{report.route_change_rate_pct:.9f}\t"
            f"{qos:g}\t{outage:.9f}\t{report.average_jitter_ms:.9f}\t{report.coverage}"
        )
        timing_rows.append(f"{name}\t{eta_s:g}\t{gamma:g}\t{runtime:.6f}")
        reports.append((name, eta_s, cell, report))
        routes |= dict.fromkeys(schedule.route_table)
        if report.identity_residual() >= _CHECK_BOUND_MS:
            failures.append(f"identity violation: {name} eta_s={eta_s} "
                            f"residual={report.identity_residual()}")

    routes = list(routes)
    src, dst = series.roster.station(cfg.source).id, series.roster.station(cfg.destination).id
    d = oracle.route_delay_matrix(series, routes)
    optima = {eta_s: oracle.optimum_schedule(series, src, dst, routes, d, eta_s)
              for eta_s in cfg.eta_s_ms}
    best = {eta_s: metrics.evaluate(optimum, eta_s) for eta_s, optimum in optima.items()}
    gap_rows = []
    for name, eta_s, cell, report in reports:
        optimum = best[eta_s]
        gap = report.mean_eta_le_ms - optimum.mean_eta_le_ms
        gap_rows.append(f"{cell}\t{optimum.mean_eta_le_ms:.9f}\t{gap:.9f}")
        if report.coverage < optimum.coverage:
            # a slot the heuristic skips adds no delay to its mean
            print(
                f"warning: {name} eta_s={eta_s:g} reaches {report.coverage} of the optimum's "
                f"{optimum.coverage} slots; its gap is not checked", file=sys.stderr,
            )
        elif gap < -_CHECK_BOUND_MS:
            failures.append(f"optimum violation: {name} eta_s={eta_s:g} "
                            f"mean {report.mean_eta_le_ms!r} < {optimum.mean_eta_le_ms!r}")

    _write(args.out, {
        "sweep.tsv": "\n".join([_SWEEP_COLUMNS, *rows]) + "\n",
        "gap.tsv": "\n".join([_GAP_COLUMNS, *gap_rows]) + "\n",
        "timings.tsv": "\n".join(["algorithm\teta_s_ms\tgamma_ms\truntime_s", *timing_rows]) + "\n",
        "manifest.json": _manifest(
            cfg, {"command": "sweep", "cells": len(cells), "candidate_routes": len(routes)}
        ),
    })
    print("\n".join([_SWEEP_COLUMNS, *rows]))
    _warn_unreachable(optima[cfg.eta_s_ms[0]])
    for failure in failures:
        print(failure, file=sys.stderr)
    return 2 if failures else 0


def cmd_table2(args) -> int:
    from .routing import alpr_average_latency

    eta_values = (1.0, 1000.0) if args.eta_s is None else (args.eta_s,)
    check_routing_values(eta_s_ms=eta_values)
    averages = {rid: [alpr_average_latency(delays, e) for e in eta_values]
                for rid, delays in WORKED_EXAMPLE_DELAYS.items()}
    print("route\t" + "\t".join(f"avg_ms@eta_s={e:g}" for e in eta_values))
    for rid, avgs in averages.items():
        print(f"route {rid}\t" + "\t".join(f"{avg:.2f}" for avg in avgs))
    for i, eta_s in enumerate(eta_values):
        # min keeps the first of equal averages, the listed order, which is ALPR's ``nodes``
        # tie-break for the worked example read as the equal-hop routes (4, rid - 1, 5)
        rid = min(averages, key=lambda r: averages[r][i])
        print(f"selected@eta_s={eta_s:g}: route {rid} ({averages[rid][i]:.2f} ms average)")
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="lislsim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lislsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="build a snapshot series dataset")
    p_gen.add_argument("--config", default=None)
    p_gen.add_argument("--out", required=True, help="series file to write")
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="run one algorithm and report metrics")
    p_run.add_argument("--config", default=None)
    p_run.add_argument("--series", required=True)
    p_run.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p_run.add_argument("--eta-s", type=float, default=None, help="setup delay (ms)")
    p_run.add_argument("--gamma", default=None, help="ISASR weight (ms) or 'auto'")
    p_run.add_argument("--cost-thrsh", dest="cost_thrsh_ms", help="ISASR threshold (ms or inf)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run all configured cells and their optimum gaps")
    p_sweep.add_argument("--config", default=None)
    p_sweep.add_argument("--series", required=True)
    p_sweep.add_argument("--gamma", default=None,
                         help="ISASR weights (ms or 'auto'); a comma list sweeps ISASR")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_t2 = sub.add_parser("table2", help="replay the four-route worked example")
    p_t2.add_argument("--eta-s", type=float, default=None)
    p_t2.set_defaults(func=cmd_table2)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is its message's repr, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2 if isinstance(exc, MissingEdgeError) else 1  # 2: a schedule failed its check
    except MemoryError as exc:  # a backstop: numpy names the allocation, a bare one says nothing
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
