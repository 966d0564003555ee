"""Experiment runner CLI.

Subcommands::

    generate  build a snapshot-series dataset from a config
    run       one algorithm on one series: metrics report + schedule file
    sweep     all configured (algorithm, setup-delay) cells into one table
    oracle    randomized cross-check of the exact optimizer + dominance checks
    table2    replay the built-in four-route worked example of the
              lifetime-averaged route selection rule

Exit status: 0 ok, 1 validation/usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, metrics, oracle
from .config import ExperimentConfig, check_routing_values, default_config, load_config
from .constellation import auto_float, generate_series
from .routing import (
    ALGORITHMS, ETA_BLIND_ALGORITHMS, LIFETIME_ALGORITHMS, RoutingSchedule, run_algorithm,
)
from .topology import export_series, import_series

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
    cfg = load_config(args.config) if args.config else default_config()
    return cfg


def write_schedule(schedule: RoutingSchedule, path) -> None:
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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _manifest(cfg: ExperimentConfig, extra: dict) -> str:
    payload = {"tool": "lislsim", "version": __version__, "config": dataclasses.asdict(cfg)}
    payload.update(extra)
    return json.dumps(payload, indent=2) + "\n"


def _timed_run(cfg, name, series, src, dst, eta_s, gamma, cost_thrsh):
    """One routing run, its schedule's delays included, timed without the lifetime build."""
    if name in LIFETIME_ALGORITHMS:
        series.lifetimes()
    start = time.perf_counter()
    schedule = run_algorithm(
        name, series, src, dst, eta_s,
        gamma=gamma, cost_thrsh_ms=cost_thrsh,
        reset_dropped_edges=cfg.reset_dropped_edges,
        global_lifetimes=cfg.global_lifetimes,
    )
    return schedule, time.perf_counter() - start


def cmd_generate(args) -> int:
    cfg = _load(args)
    series = generate_series(cfg.constellation, list(cfg.ground_stations), cfg.scenario)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    export_series(series, out)
    total_edges = sum(s.edge_count for s in series.snapshots)
    print(
        f"wrote {out}: {cfg.constellation.num_satellites} satellites, "
        f"{len(cfg.ground_stations)} ground stations, {series.num_slots} slots, "
        f"{total_edges} edge records"
    )
    return 0


def _resolve_endpoints(cfg, series):
    src = series.roster.station(cfg.source).id
    dst = series.roster.station(cfg.destination).id
    return src, dst


def cmd_run(args) -> int:
    cfg = _load(args)
    eta_s = args.eta_s if args.eta_s is not None else cfg.eta_s_ms[0]
    gamma = _gamma_value(args.gamma, cfg, eta_s)
    cost_thrsh = args.cost_thrsh if args.cost_thrsh is not None else cfg.cost_thrsh_ms
    check_routing_values(eta_s_ms=(eta_s,), gamma_ms=gamma, cost_thrsh_ms=cost_thrsh)
    series = import_series(args.series)
    src, dst = _resolve_endpoints(cfg, series)
    schedule, runtime = _timed_run(cfg, args.algorithm, series, src, dst, eta_s, gamma, cost_thrsh)
    try:
        qos = (cfg.qos_for(eta_s),)
    except KeyError:
        qos = cfg.qos_ms
    report = metrics.evaluate(
        schedule, eta_s, qos_ms=qos,
        histogram_bin_ms=cfg.histogram_bin_ms, runtime_s=runtime,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(report.to_text(), encoding="utf-8")
    (out / "latency_series.tsv").write_text(report.latency_table(), encoding="utf-8")
    if report.coverage:
        (out / "histogram.tsv").write_text(report.histogram_table(), encoding="utf-8")
    write_schedule(schedule, out / "schedule.txt")
    (out / "manifest.json").write_text(
        _manifest(cfg, {"command": "run", "algorithm": args.algorithm, "eta_s_ms": eta_s}),
        encoding="utf-8",
    )
    sys.stdout.write(report.to_text())
    if report.coverage == 0:
        print("error: destination unreachable in every slot", file=sys.stderr)
        return 1
    gaps = schedule.unreachable_slots()
    if gaps:
        more = "..." if len(gaps) > 10 else ""
        print(f"warning: {len(gaps)} unreachable slots: {gaps[:10]}{more}", file=sys.stderr)
    return 0


def _gamma_value(flag: str | None, cfg: ExperimentConfig, eta_s: float) -> float:
    gamma = cfg.gamma if flag is None else auto_float(flag)
    return eta_s if gamma is None else gamma


_SWEEP_COLUMNS = (
    "algorithm\teta_s_ms\tgamma_ms\tmean_eta_le_ms\tmean_eta_delay_ms\t"
    "route_change_rate_pct\tqos_ms\toutage_probability\taverage_jitter_ms\tcoverage"
)


def cmd_sweep(args) -> int:
    cfg = _load(args)
    gamma_values = None
    if args.gamma is not None and "," in args.gamma:
        gamma_values = tuple(float(tok) for tok in args.gamma.split(","))

    cells = []
    for name in cfg.algorithms:
        for eta_s in cfg.eta_s_ms:
            if name == "isasr" and gamma_values is not None:
                for g in gamma_values:
                    cells.append((name, eta_s, g))
            elif gamma_values is not None:
                cells.append((name, eta_s, cfg.gamma_for(eta_s)))
            else:
                cells.append((name, eta_s, _gamma_value(args.gamma, cfg, eta_s)))
    for _, _, gamma in cells:
        check_routing_values(gamma_ms=gamma)

    series = import_series(args.series)
    src, dst = _resolve_endpoints(cfg, series)

    rows, timing_rows, failures = [], [], []
    eta_blind_runs = {}  # ILSR/ILPR: one schedule and runtime for every eta_s row
    for name, eta_s, gamma in cells:
        if name in eta_blind_runs:
            schedule, runtime = eta_blind_runs[name]
        else:
            schedule, runtime = _timed_run(
                cfg, name, series, src, dst, eta_s, gamma, cfg.cost_thrsh_ms
            )
            if name in ETA_BLIND_ALGORITHMS:
                eta_blind_runs[name] = schedule, runtime
        report = metrics.evaluate(
            schedule, eta_s, qos_ms=(cfg.qos_for(eta_s),),
            histogram_bin_ms=cfg.histogram_bin_ms, runtime_s=runtime,
        )
        qos, outage = report.outage[0]
        rows.append(
            f"{name}\t{eta_s:g}\t{gamma:g}\t{report.mean_eta_le_ms:.9f}\t"
            f"{report.mean_eta_delay_ms:.9f}\t{report.route_change_rate_pct:.9f}\t"
            f"{qos:g}\t{outage:.9f}\t{report.average_jitter_ms:.9f}\t{report.coverage}"
        )
        timing_rows.append(f"{name}\t{eta_s:g}\t{gamma:g}\t{report.runtime_s:.6f}")
        if report.identity_residual() >= 1e-9:
            failures.append((name, eta_s, report.identity_residual()))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.tsv").write_text("\n".join([_SWEEP_COLUMNS, *rows]) + "\n", encoding="utf-8")
    (out / "timings.tsv").write_text(
        "\n".join(["algorithm\teta_s_ms\tgamma_ms\truntime_s", *timing_rows]) + "\n",
        encoding="utf-8",
    )
    (out / "manifest.json").write_text(
        _manifest(cfg, {"command": "sweep", "cells": len(cells)}), encoding="utf-8"
    )
    print("\n".join([_SWEEP_COLUMNS, *rows]))
    if failures:
        for name, eta_s, resid in failures:
            print(f"identity violation: {name} eta_s={eta_s} residual={resid}", file=sys.stderr)
        return 2
    return 0


def cmd_oracle(args) -> int:
    cfg = _load(args)
    seed = args.seed if args.seed is not None else cfg.seed
    rng = np.random.default_rng(seed)
    oc = cfg.oracle
    lines: list[str] = []

    def emit(line: str) -> None:
        lines.append(line)
        print(line)

    def finish(code: int) -> int:
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            status = "ok" if code == 0 else "FAILED"
            (out / "oracle_report.txt").write_text(
                "\n".join([f"verification {status} (seed {seed})", *lines]) + "\n",
                encoding="utf-8",
            )
        return code

    # golden instance: 3 routes x 4 slots with known optima
    d_example = np.array(
        [
            [26.0, 27.0, 28.0, np.inf],
            [27.0, 26.0, 25.0, 25.0],
            [np.inf, 28.0, 27.0, 26.0],
        ]
    )
    for eta_s, expected in ((0.0, 102.0), (1.0, 103.0), (1000.0, 103.0)):
        _, got = oracle.dp_optimal(d_example, eta_s)
        _, bf = oracle.brute_force_optimal(d_example, eta_s)
        if got != expected or bf != expected:
            emit(
                f"FAIL golden instance: eta_s={eta_s} dp={got} brute={bf} expected={expected}"
            )
            return finish(2)
    emit("golden instance ok: costs 102/103/103 at eta_s 0/1/1000")

    for i in range(oc.instances):
        d = oracle.random_delay_matrix(
            rng,
            max_routes=oc.max_routes,
            max_slots=oc.max_slots,
            delay_low_ms=oc.delay_low_ms,
            delay_high_ms=oc.delay_high_ms,
            inf_fraction=oc.inf_fraction,
        )
        for eta_s in oc.eta_s_ms:
            _, dp_cost = oracle.dp_optimal(d, eta_s)
            _, bf_cost = oracle.brute_force_optimal(d, eta_s)
            if dp_cost != bf_cost:
                emit(
                    f"FAIL instance {i} (seed {seed}): eta_s={eta_s} "
                    f"dp={dp_cost!r} brute={bf_cost!r}"
                )
                return finish(2)
    emit(f"{oc.instances} random instances x {len(oc.eta_s_ms)} eta_s values: dp == brute force")

    # heuristic dominance on an enumerable toy series
    from .toyseries import dominance_toy_series

    series = dominance_toy_series()
    src, dst = 6, 7
    _, d = oracle.enumerate_routes(series, src, dst, hop_limit=4)
    violations = []
    for eta_s in (1.0, 10.0, 100.0):
        _, optimal = oracle.dp_optimal(d, eta_s)
        for name in ALGORITHMS:
            schedule = run_algorithm(name, series, src, dst, eta_s, cost_thrsh_ms=math.inf)
            cost = metrics.evaluate(schedule, eta_s).eta_le_ms
            if cost < optimal:
                violations.append((name, eta_s, cost, optimal))
    if violations:
        for v in violations:
            emit(f"FAIL dominance: {v}")
        return finish(2)
    emit("heuristics never beat the exact optimum on the toy instance")
    return finish(0)


def cmd_table2(args) -> int:
    eta_values = (1.0, 1000.0) if args.eta_s is None else (args.eta_s,)
    print("route\t" + "\t".join(f"avg_ms@eta_s={e:g}" for e in eta_values))
    selections = {}
    for rid, delays in WORKED_EXAMPLE_DELAYS.items():
        cells = []
        for eta_s in eta_values:
            avg = (eta_s + sum(delays)) / len(delays)
            cells.append(f"{avg:.2f}")
            best = selections.get(eta_s)
            if best is None or avg < best[1]:
                selections[eta_s] = (rid, avg)
        print(f"route {rid}\t" + "\t".join(cells))
    for eta_s, (rid, avg) in selections.items():
        print(f"selected@eta_s={eta_s:g}: route {rid} ({avg:.2f} ms average)")
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
    p_run.add_argument("--cost-thrsh", type=float, default=None, help="ISASR threshold (ms or inf)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run all configured algorithm/eta_s cells")
    p_sweep.add_argument("--config", default=None)
    p_sweep.add_argument("--series", required=True)
    p_sweep.add_argument("--gamma", default=None,
                         help="ISASR weight: 'auto', one value, or comma list to sweep")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="cross-check the exact optimizer")
    p_oracle.add_argument("--config", default=None)
    p_oracle.add_argument("--seed", type=int, default=None)
    p_oracle.add_argument("--out", default=None, help="directory for the verification report")
    p_oracle.set_defaults(func=cmd_oracle)

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
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
