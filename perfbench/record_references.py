#!/usr/bin/env python3
"""Record the reference output digests of the seeds the benchmark ships.

    python3 perfbench/record_references.py --seeds 0-29

Runs each workload's command once per input of each seed, checks the
outputs' invariants and writes their digests to perfbench/references.json.
Run it only at a commit whose outputs are meant to be the reference: a
benchmark run then counts every command whose outputs differ from these
digests as failed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def lislsim(*args) -> list[str]:
    return [sys.executable, "-m", "lislsim.cli", *map(str, args)]


def record_seed(seed: int, work, launcher: run.Launcher) -> dict:
    """Digests of every workload's outputs for each input of one seed."""
    entry = {}
    generated = {}  # (horizon, input) -> series written by the generate workload
    deadline = time.perf_counter() + 600
    for workload in run.WORKLOADS.values():
        wdir = work / workload.name
        wdir.mkdir(parents=True)
        digests = []
        for i, ctx in enumerate(run.contexts(workload, seed, wdir, None)):
            if workload.name != "generate":
                if (workload.slots, i) in generated:
                    ctx.series = generated[workload.slots, i]
                else:
                    outcome = launcher.run(lislsim("generate", "--config", ctx.config,
                                                   "--out", ctx.series),
                                           deadline - time.perf_counter())
                    if outcome.code != 0:
                        raise run.BenchError(f"seed {seed}: generate failed: {outcome.stderr}")
                ctx.input_series = run.load_series(ctx.series)
            ctx.out = wdir / f"out-{i}"
            ctx.out.mkdir()
            argv = lislsim(*run.cli_args(workload.name, ctx.config, ctx.series, ctx.out))
            outcome = launcher.run(argv, deadline - time.perf_counter())
            if outcome.code != 0:
                raise run.BenchError(f"seed {seed} {workload.name}: exit {outcome.code}: "
                                     f"{outcome.stderr}")
            problems, digest = run.check_outputs(ctx)
            if problems:
                raise run.BenchError(f"seed {seed} {workload.name}: {problems}")
            if workload.name == "generate":
                generated[workload.slots, i] = ctx.out / "topology.series"
            else:
                digest["input_series"] = run.series_digest(ctx.input_series)
            digests.append(digest)
        entry[workload.name] = digests
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-29", help="inclusive range, e.g. 0-29")
    args = parser.parse_args()
    work = run.STATE / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launcher = run.Launcher(work)
    seeds = {}
    try:
        info = run.provenance()
        for seed in parse_seeds(args.seeds):
            seeds[str(seed)] = record_seed(seed, work / f"seed-{seed}", launcher)
            shutil.rmtree(work / f"seed-{seed}")
            print(f"seed {seed} recorded", flush=True)
    except run.BenchError as exc:
        print(f"record_references: {exc}", file=sys.stderr)
        return 2
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    payload = {
        "recorded_with": {k: info[k] for k in ("git_sha", "src_sha256", "python", "numpy",
                                               "backend")},
        "inputs": run.INPUTS,
        "slots": {w.name: w.slots for w in run.WORKLOADS.values()},
        "seeds": seeds,
    }
    run.REFERENCES.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"wrote {run.REFERENCES} ({len(seeds)} seeds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
