#!/usr/bin/env python3
"""Self-test of the benchmark's checks, on two-slot versions of its workloads.

    python3 perfbench/selftest.py

Shows that a corrupted output counts as a failed command (against recorded
digests and, without them, against the invariants), that tracing tolerates
a function that no longer exists, that the code-under-test guard refuses a
lislsim that does not come from the checkout, and that BENCHMARK.json
matches what run.py reports. Exits 1 on the first check that does not hold.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import run
import tracer

SEED = 7
SLOTS = 2


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)
    print(f"ok   {message}")


def edit(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    if old not in text:
        raise RuntimeError(f"{old!r} not found in {path}")
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def change_last_digit(path: Path) -> None:
    """Subtle corruption: the last digit of the file's second-to-last line."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    line = lines[-2].rstrip("\n")
    lines[-2] = line[:-1] + ("1" if line[-1] != "1" else "2") + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def drop_last_line(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def drop_last_slot(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(ln for ln in lines if not ln.startswith(f"{SLOTS} ")),
                    encoding="utf-8")


def direct_route(ctx):
    """Invariant-breaking corruption: slot 1 routed over a ground-to-ground edge."""
    path = ctx.out / "schedule.txt"
    src, dst = run.station_ids(ctx.input_series)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = f"1 1.000000000 {src}-{dst}\n"
    path.write_text("".join(lines), encoding="utf-8")


# workload -> (file, subtle corruption, invariant-breaking corruption)
CORRUPTIONS = {
    "generate": ("topology.series", change_last_digit,
                 lambda ctx: drop_last_slot(ctx.out / "topology.series")),
    "sweep": ("sweep.tsv", change_last_digit, lambda ctx: drop_last_line(ctx.out / "sweep.tsv")),
    "run-alpr": ("report.txt", lambda p: edit(p, "algorithm alpr", "algorithm ALPR"), direct_route),
}


def corrupting(clock, mutate):
    """A runner that runs the command, then applies ``mutate`` to its outputs."""
    def runner(argv, timeout_s):
        outcome = clock.launcher.run(argv, timeout_s)
        mutate()
        return outcome
    return runner


class FixedClock(run.HostClock):
    """Skips the calibration runs: only the checks are under test here."""

    def calibrate(self) -> None:
        self.calibrations.append(run.CALIBRATION_REF_S)


def failures(samples) -> tuple[int, int]:
    return sum(1 for s in samples if s.problems), len(samples)


def check_workload(name: str, work: Path, launcher: run.Launcher) -> None:
    workload = replace(run.WORKLOADS[name], slots=SLOTS)
    ctxs = run.contexts(workload, SEED, work, None)[:1]
    ctx = ctxs[0]
    clock = FixedClock(launcher, time.perf_counter() + 120)
    run.setup(ctxs, clock)

    samples = run.measure(ctxs, 0.0, clock)
    check(failures(samples) == (0, 1), f"{name}: clean outputs pass the invariants")
    _, ctx.reference = run.check_outputs(ctx)

    samples = run.measure(ctxs, 0.0, clock)
    check(failures(samples) == (0, 1), f"{name}: clean outputs match the recorded digests")

    filename, subtle, breaking = CORRUPTIONS[name]
    runner = corrupting(clock, lambda: subtle(ctx.out / filename))
    samples = run.measure(ctxs, 0.0, clock, runner)
    check(failures(samples) == (1, 1), f"{name}: a changed {filename} fails the digest check")

    ctx.reference = None
    runner = corrupting(clock, lambda: breaking(ctx))
    samples = run.measure(ctxs, 0.0, clock, runner)
    check(failures(samples) == (1, 1), f"{name}: an invariant-breaking output fails without digests")
    metrics = run.end_to_end_metrics(workload, samples, [1.0], 1.0)
    check(metrics["ok_ops_frac"] == 0.0, f"{name}: the failure shows in ok_ops_frac")


def check_tracing() -> None:
    run.import_lislsim()
    import lislsim.cli
    import lislsim.topology

    original = lislsim.topology.import_series
    t = tracer.Tracer()
    absent = tracer.install(t, [
        tracer.Target("topology", "import_series"),
        tracer.Target("topology", "no_such_function"),
        tracer.Target("no_such_module", "anything"),
    ])
    try:
        check(absent == ["topology.no_such_function", "no_such_module.anything"],
              "tracing reports missing functions as absent instead of failing")
        check(lislsim.cli.import_series is lislsim.topology.import_series is not original,
              "tracing patches a name where callers look it up (cli.import_series)")
    finally:
        for module in (lislsim, lislsim.cli, lislsim.topology):
            module.import_series = original


def check_contract() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
          and {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
          and [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json names the workloads and metrics that run.py reports")


def check_guard(work: Path) -> None:
    fake = work / "src"
    (fake / "lislsim").mkdir(parents=True)  # a directory, not the package
    real = run.SRC
    run.SRC = fake
    try:
        run.provenance()
        refused = False
    except run.BenchError:
        refused = True
    finally:
        run.SRC = real
    check(refused, "the guard refuses a lislsim that is not the checkout's package")


def main() -> int:
    run.STATE.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.STATE))
    launcher = run.Launcher(work)
    try:
        for name in run.WORKLOADS:
            wdir = work / name
            wdir.mkdir()
            check_workload(name, wdir, launcher)
        check_tracing()
        check_guard(work)
        check_contract()
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
