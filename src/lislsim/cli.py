"""Experiment runner CLI.

Subcommands::

    generate  build a snapshot-series dataset from a config
    run       one algorithm on one series: metrics report + schedule file
    sweep     all configured (algorithm, setup-delay) cells into one table
    oracle    every configured cell against the exact optimum over the routes
              the cells use: gap.tsv, exit 2 when a heuristic beats it
    table2    replay the built-in four-route worked example of the
              lifetime-averaged route selection rule

Exit status: 0 ok, 1 validation/usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

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
    """The config with a single ``--gamma`` value and ``--cost-thrsh`` applied,
    checked again; a ``sweep --gamma`` list leaves ``gamma`` as the file sets it."""
    cfg = load_config(args.config) if args.config else default_config()
    flags = {}
    gamma = getattr(args, "gamma", None)
    if gamma is not None and not (args.command == "sweep" and "," in gamma):
        flags["gamma"] = auto_float(gamma)
    if getattr(args, "cost_thrsh", None) is not None:
        flags["cost_thrsh_ms"] = args.cost_thrsh
    return dataclasses.replace(cfg, **flags)


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
    check_routing_values(eta_s_ms=(eta_s,))
    cells = [(args.algorithm, eta_s, cfg.gamma_for(eta_s))]
    series = import_series(args.series)
    src, dst = _resolve_endpoints(cfg, series)
    *_, schedule, runtime = next(_cell_schedules(cfg, cells, series, src, dst))
    try:
        qos = (cfg.qos_for(eta_s),)
    except KeyError:
        qos = cfg.qos_ms
    report = metrics.evaluate(
        schedule, eta_s, qos_ms=qos,
        histogram_bin_ms=cfg.histogram_bin_ms, runtime_s=runtime,
    )
    texts = {"report.txt": report.to_text(), "latency_series.tsv": report.latency_table()}
    if report.coverage:
        texts["histogram.tsv"] = report.histogram_table()
    texts["manifest.json"] = _manifest(
        cfg, {"command": "run", "algorithm": args.algorithm, "eta_s_ms": eta_s}
    )
    out = Path(args.out)  # created only once every text above rendered
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text, encoding="utf-8")
    write_schedule(schedule, out / "schedule.txt")
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


def _cells(cfg: ExperimentConfig, gamma_flag: str | None) -> list[tuple[str, float, float]]:
    """(algorithm, eta_s, gamma) of every configured cell; a ``--gamma`` list sweeps ISASR."""
    gamma_values = None
    if gamma_flag is not None and "," in gamma_flag:
        gamma_values = tuple(float(tok) for tok in gamma_flag.split(","))
        if len(set(gamma_values)) < len(gamma_values):
            raise ValueError(f"a gamma value is listed twice: {gamma_flag}")
    cells = []
    for name in cfg.algorithms:
        for eta_s in cfg.eta_s_ms:
            if name == "isasr" and gamma_values is not None:
                cells.extend((name, eta_s, g) for g in gamma_values)
            else:
                cells.append((name, eta_s, cfg.gamma_for(eta_s)))
    for _, _, gamma in cells:
        check_routing_values(gamma_ms=gamma)
    return cells


def _cell_schedules(cfg, cells, series, src, dst):
    """Each cell with its schedule and runtime; ILSR/ILPR run once for every eta_s.
    The lifetime build, which only ``LIFETIME_ALGORITHMS`` need, runs before the clock."""
    eta_blind_runs = {}
    for name, eta_s, gamma in cells:
        run = eta_blind_runs.get(name)
        if run is None:
            if name in LIFETIME_ALGORITHMS:
                series.lifetimes()
            start = time.perf_counter()
            schedule = run_algorithm(
                name, series, src, dst, eta_s,
                gamma=gamma, cost_thrsh_ms=cfg.cost_thrsh_ms,
            )
            run = schedule, time.perf_counter() - start
            if name in ETA_BLIND_ALGORITHMS:
                eta_blind_runs[name] = run
        yield name, eta_s, gamma, *run


def cmd_sweep(args) -> int:
    cfg = _load(args)
    cells = _cells(cfg, args.gamma)
    series = import_series(args.series)
    src, dst = _resolve_endpoints(cfg, series)

    rows, timing_rows, failures = [], [], []
    for name, eta_s, gamma, schedule, runtime in _cell_schedules(cfg, cells, series, src, dst):
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


_GAP_COLUMNS = "algorithm\teta_s_ms\tgamma_ms\tmean_eta_le_ms\toptimum_mean_eta_le_ms\tgap_ms"


def cmd_oracle(args) -> int:
    """Each cell's mean latency against the exact optimum over the routes the cells use.

    That optimum bounds the true one from above, so each gap is a lower
    bound on the heuristic's true gap. A heuristic that beats it by more
    than 1e-9 ms (the bound of ``sweep``'s identity check) fails with exit 2.
    """
    cfg = _load(args)
    cells = _cells(cfg, None)
    series = import_series(args.series)
    src, dst = _resolve_endpoints(cfg, series)
    runs = [run[:4] for run in _cell_schedules(cfg, cells, series, src, dst)]
    routes = list(dict.fromkeys(r for *_, schedule in runs for r in schedule.route_table))
    if not routes:
        raise ValueError("destination unreachable in every slot")
    d = oracle.route_delay_matrix(series, routes)
    optima = {
        eta_s: oracle.optimum_schedule(series, src, dst, routes, d, eta_s)
        for eta_s in cfg.eta_s_ms
    }

    rows, violations = [], []
    for name, eta_s, gamma, schedule in runs:
        report = metrics.evaluate(schedule, eta_s)
        best = metrics.evaluate(optima[eta_s], eta_s)
        gap = report.mean_eta_le_ms - best.mean_eta_le_ms
        rows.append(
            f"{name}\t{eta_s:g}\t{gamma:g}\t{report.mean_eta_le_ms:.9f}\t"
            f"{best.mean_eta_le_ms:.9f}\t{gap:.9f}"
        )
        if report.coverage < best.coverage:
            # a slot the heuristic skips adds no delay to its mean
            print(
                f"warning: {name} eta_s={eta_s:g} reaches {report.coverage} of the optimum's "
                f"{best.coverage} slots; its gap is not checked", file=sys.stderr,
            )
        elif gap < -1e-9:
            violations.append((name, eta_s, report.mean_eta_le_ms, best.mean_eta_le_ms))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "gap.tsv").write_text("\n".join([_GAP_COLUMNS, *rows]) + "\n", encoding="utf-8")
    (out / "manifest.json").write_text(
        _manifest(cfg, {"command": "oracle", "cells": len(cells), "candidate_routes": len(routes)}),
        encoding="utf-8",
    )
    print("\n".join([_GAP_COLUMNS, *rows]))
    _warn_unreachable(optima[cfg.eta_s_ms[0]])
    for name, eta_s, mean, optimum in violations:
        print(f"optimum violation: {name} eta_s={eta_s:g} mean {mean!r} < {optimum!r}",
              file=sys.stderr)
    return 2 if violations else 0


def cmd_table2(args) -> int:
    eta_values = (1.0, 1000.0) if args.eta_s is None else (args.eta_s,)
    check_routing_values(eta_s_ms=eta_values)
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

    p_oracle = sub.add_parser("oracle", help="check every cell against the exact optimum")
    p_oracle.add_argument("--config", default=None)
    p_oracle.add_argument("--series", required=True)
    p_oracle.add_argument("--out", required=True, help="output directory")
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
