#!/usr/bin/env python3
"""End-to-end benchmark of the lislsim CLI.

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 25 --trace 0

Workloads (closed loop, one client, one command at a time, each command in
a fresh interpreter; see perfbench/README.md for why each exists):

* ``generate``  -- ``lislsim generate`` writes a series file.
* ``sweep``     -- ``lislsim sweep``: 4 algorithms x 4 setup delays.
* ``run-alpr``  -- ``lislsim run --algorithm alpr --eta-s 1000``.

The seed only draws the shell's epoch RAAN offsets: each run cycles
through three topologies of the stock 24x66 shell. The program receives
nothing but the config files written here (and the series file its
command reads). Times are normalised by a calibration run after each
command (see HostClock).

``--trace 0`` repeats the command for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` does the same untraced loop, then one
traced run of the command (perfbench/tracer.py) and reports the per-layer
metrics. Every command's outputs are checked; the last stdout line is the
JSON result. ``--workload all`` runs the three workloads in turn and
prints one table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import path_bytes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
REFERENCES = HERE / "references.json"

INPUTS = 3  # topologies per run; set-up builds each once
CALIBRATION_REF_S = 1.0  # normalised times are seconds on a host that calibrates in 1 s
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
PLANE_SPACING_DEG = 15.0  # 360 deg / 24 planes
ALGORITHMS = ("ilsr", "ilpr", "alpr", "isasr")
ETA_S_MS = (1.0, 10.0, 100.0, 1000.0)
NOT_CHECKED = ("timings.tsv", "manifest.json")  # wall-clock content, never digested


@dataclass(frozen=True)
class Workload:
    name: str
    slots: int  # horizon; per-slot cost is what the workload measures


# Horizons are sized so that one command takes 1-4 s on a 2-core host:
# long enough that interpreter start is a minor share, short enough that a
# 25 s run holds six or more commands. Why each workload exists is in
# BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (Workload("generate", 20), Workload("sweep", 10),
                                 Workload("run-alpr", 20))}

# End-to-end metrics: name -> unit. The order is the order printed.
END_TO_END = {
    "slots_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "series_mb": "MB",
    "ok_ops_frac": "ratio",
}

# Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "constellation.generate_series.s": "s",
    "constellation.propagate.s": "s",
    "constellation.build_snapshot.s": "s",
    "constellation.self_s": "s",
    "kernels.pair_edges.s": "s",
    "kernels.pair_edges.calls": "count",
    "kernels.pair_edges.pairs": "count",
    "kernels.cross_edges.s": "s",
    "kernels.shortest_route.s": "s",
    "kernels.shortest_route.calls": "count",
    "kernels.shortest_route.arcs": "count",
    "kernels.self_s": "s",
    "kernels.slot.pair_edges.ms": "ms",
    "kernels.slot.shortest_route.ms": "ms",
    "topology.export_series.s": "s",
    "topology.export_series.mb_per_s": "MB/s",
    "topology.import_series.s": "s",
    "topology.import_series.mb_per_s": "MB/s",
    "topology.import_series.rss_mb": "MB",
    "topology.build_link_details.s": "s",
    "topology.Snapshot.csr.s": "s",
    "topology.Snapshot.csr.calls": "count",
    "topology.self_s": "s",
    "routing.run_algorithm.ilsr.s": "s",
    "routing.run_algorithm.ilpr.s": "s",
    "routing.run_algorithm.alpr.s": "s",
    "routing.run_algorithm.isasr.s": "s",
    "routing.dijkstra.s": "s",
    "routing.dijkstra.calls": "count",
    "routing.disjoint_routes.s": "s",
    "routing.disjoint_routes.calls": "count",
    "routing.cells": "count",
    "routing.cells_distinct": "count",
    "routing.self_s": "s",
    "metrics.evaluate.s": "s",
    "metrics.evaluate.calls": "count",
    "metrics.self_s": "s",
    "cli.write_schedule.s": "s",
    "cli.self_s": "s",
    "cli.cpu_s": "s",
    "cli.wall_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_frac": "ratio",
}
LAYERS = ("constellation", "kernels", "topology", "routing", "metrics")


class BenchError(Exception):
    """The benchmark cannot produce a result (exit code 2, nothing printed)."""


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def raan_offsets_deg(seed: int) -> list[float]:
    """The run's epoch RAAN offsets, drawn uniformly from [0, one plane spacing)."""
    rng = random.Random(seed)
    return [rng.random() * PLANE_SPACING_DEG for _ in range(INPUTS)]


def config_text(raan_offset_deg: float, slots: int) -> str:
    """The stock scenario, spelled out, with a RAAN offset and a horizon."""
    return f"""[constellation]
num_planes = 24
sats_per_plane = 66
inclination_deg = 53
altitude_km = 550
phasing_factor = 0
epoch_raan_offset_deg = {raan_offset_deg!r}

[scenario]
lisl_range_km = 1500
gs_range_km = 1000
node_delay_ms = 1
slot_duration_s = 1
num_slots = {slots}

[ground_stations]
new_york = 40.7128, -74.0060
london = 51.5074, -0.1278
hanoi = 21.0285, 105.8542

[run]
source = new_york
destination = london
algorithms = {", ".join(ALGORITHMS)}
eta_s_ms = {", ".join(f"{e:g}" for e in ETA_S_MS)}
qos_ms = 27, 30, 35, 40
gamma = auto
cost_thrsh_ms = 100
"""


def cli_args(workload: str, config: Path, series: Path, out: Path) -> list[str]:
    """Arguments of the workload's lislsim command."""
    if workload == "generate":
        return ["generate", "--config", str(config), "--out", str(out / "topology.series")]
    if workload == "sweep":
        return ["sweep", "--config", str(config), "--series", str(series), "--out", str(out)]
    return [
        "run", "--config", str(config), "--series", str(series),
        "--algorithm", "alpr", "--eta-s", "1000", "--out", str(out),
    ]


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    code: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    stderr: str


def child_env() -> dict[str, str]:
    """Environment that makes ``import lislsim`` resolve to this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """Runs timed processes through perfbench/launcher.py (see there for why).

    Start it before this process imports any series. Each run's stderr goes
    to ``workdir/stderr.txt``; its tail is kept in the outcome.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], cwd=ROOT, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], timeout_s: float) -> Outcome:
        err = self.workdir / "stderr.txt"
        request = {"argv": argv, "cwd": str(ROOT), "timeout_s": timeout_s, "stderr": str(err)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise BenchError("the launcher process exited")
        result = json.loads(line)
        return Outcome(stderr=err.read_text(encoding="utf-8", errors="replace")[-2000:],
                       **result)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


PROBE = r"""
import json, sys
import lislsim, numpy
info = {"lislsim": lislsim.__file__, "python": sys.version.split()[0], "numpy": numpy.__version__}
for name in ("scipy", "numba"):
    try:
        info[name] = __import__(name).__version__
    except ImportError:
        info[name] = None
try:
    from lislsim import kernels
    info["backend"] = kernels.active_backend()
except (ImportError, AttributeError):
    info["backend"] = None
print(json.dumps(info))
"""


def provenance() -> dict:
    """Versions and host facts; raises BenchError if lislsim is not this checkout's."""
    if not (SRC / "lislsim").is_dir():
        raise BenchError(f"no lislsim package under {SRC}")
    try:
        probe = subprocess.run(
            [sys.executable, "-c", PROBE], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=60,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("probing the lislsim import timed out") from exc
    if probe.returncode != 0:
        raise BenchError(f"cannot import lislsim: {probe.stderr.strip()[-500:]}")
    info = json.loads(probe.stdout.strip().splitlines()[-1])
    where = info["lislsim"] and Path(info["lislsim"]).resolve()
    if not where or SRC.resolve() not in where.parents:
        raise BenchError(f"lislsim resolves to {where}, outside the checkout's {SRC}")
    info["git_sha"] = None
    if (ROOT / ".git").exists():  # a bare checkout has no sha; never ask a parent repo
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            info["git_sha"] = sha.stdout.strip() if sha.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "lislsim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    info["nproc"] = len(os.sched_getaffinity(0))
    info["LISLSIM_BACKEND"] = os.environ.get("LISLSIM_BACKEND")
    info["numba_imports"] = info.pop("numba") is not None
    return info


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    return sha256_bytes(path.read_bytes())


def report_digest(path: Path) -> str:
    """Digest of report.txt without its wall-clock ``runtime`` line."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    return sha256_bytes("".join(ln for ln in lines if not ln.startswith("runtime ")).encode())


def import_lislsim():
    """The checkout's lislsim package, imported into this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lislsim.topology

    where = Path(lislsim.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"lislsim resolves to {where}, outside the checkout's {SRC}")
    return lislsim


def load_series(path: Path):
    return import_lislsim().topology.import_series(path)


def series_digest(series) -> str:
    """Content digest of a series, independent of its file format and dtypes."""
    import numpy as np

    h = hashlib.sha256()
    sc = series.scenario
    h.update(repr((sc.lisl_range_km, sc.gs_range_km, sc.node_delay_ms,
                   sc.slot_duration_s, sc.num_slots)).encode())
    roster = series.roster
    h.update(repr((roster.num_satellites, [
        (gs.id, gs.name, gs.latitude_deg, gs.longitude_deg) for gs in roster.ground_stations
    ])).encode())
    for slot in range(1, series.num_slots + 1):
        snap = series.snapshot(slot)
        u = np.asarray(snap.u, dtype="<i8")
        v = np.asarray(snap.v, dtype="<i8")
        d = np.asarray(snap.delay_ms, dtype="<f8")
        order = np.lexsort((v, u))
        for arr in (u[order], v[order], d[order]):
            h.update(arr.tobytes())
        h.update(b"|")
    return h.hexdigest()


def series_problems(series, slots: int) -> list[str]:
    """Invariants of a generated series of the stock shell."""
    import numpy as np

    problems = []
    if series.num_slots != slots:
        problems.append(f"series has {series.num_slots} slots, expected {slots}")
    if series.roster.num_satellites != 24 * 66:
        problems.append(f"series has {series.roster.num_satellites} satellites")
    names = [gs.name for gs in series.roster.ground_stations]
    if names != ["new_york", "london", "hanoi"]:
        problems.append(f"series stations are {names}")
    node_delay = series.scenario.node_delay_ms
    num_nodes = series.roster.num_nodes
    for slot in range(1, series.num_slots + 1):
        snap = series.snapshot(slot)
        u, v, d = np.asarray(snap.u), np.asarray(snap.v), np.asarray(snap.delay_ms)
        if u.size == 0:
            problems.append(f"slot {slot} has no edges")
        elif not (np.all(u < v) and v.max() < num_nodes and np.all(d >= node_delay)):
            problems.append(f"slot {slot} has an out-of-range edge or delay")
    return problems


def station_ids(series) -> tuple[int, int]:
    return series.roster.station("new_york").id, series.roster.station("london").id


def schedule_problems(text: str, series) -> list[str]:
    """Every scheduled route starts and ends at the endpoints and exists in its slot."""
    import numpy as np

    src, dst = station_ids(series)
    lines = text.splitlines()
    header = f"schedule v1 source={src} destination={dst} num_slots={series.num_slots}"
    if not lines or lines[0] != header:
        return [f"schedule header {lines[:1]} != {header!r}"]
    if len(lines) != series.num_slots + 1:
        return [f"schedule has {len(lines) - 1} slots, expected {series.num_slots}"]
    problems = []
    for line in lines[1:]:
        parts = line.split()
        slot = int(parts[0])
        if parts[2] == "-":
            continue
        nodes = [int(x) for x in parts[2].split("-")]
        snap = series.snapshot(slot)
        keys = np.asarray(snap.u, np.int64) * (1 << 32) + np.asarray(snap.v, np.int64)
        a = np.minimum(nodes[:-1], nodes[1:]).astype(np.int64)
        b = np.maximum(nodes[:-1], nodes[1:]).astype(np.int64)
        pos = np.searchsorted(keys, a * (1 << 32) + b)
        pos[pos >= keys.size] = 0
        found = keys[pos] == a * (1 << 32) + b
        if nodes[0] != src or nodes[-1] != dst or len(set(nodes)) != len(nodes):
            problems.append(f"slot {slot}: route {parts[2]} is not a simple {src}->{dst} path")
        elif not found.all():
            problems.append(f"slot {slot}: route uses an edge absent from the slot")
        elif abs(float(np.sum(np.asarray(snap.delay_ms)[pos])) - float(parts[1])) > 1e-6:
            problems.append(f"slot {slot}: scheduled delay {parts[1]} != sum of edge delays")
    return problems


SWEEP_HEADER = (
    "algorithm\teta_s_ms\tgamma_ms\tmean_eta_le_ms\tmean_eta_delay_ms\t"
    "route_change_rate_pct\tqos_ms\toutage_probability\taverage_jitter_ms\tcoverage"
)


def sweep_problems(text: str, slots: int) -> list[str]:
    """One row per cell in order; identities that hold for any topology."""
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return ["sweep.tsv header differs"]
    rows = [ln.split("\t") for ln in lines[1:]]
    cells = [(a, e) for a in ALGORITHMS for e in ETA_S_MS]
    if [(r[0], float(r[1])) for r in rows] != cells:
        return ["sweep.tsv rows are not the 16 configured cells in order"]
    problems = []
    for alg, eta, _, le, delay, rate, *_, cov in rows:
        if not 0 < int(cov) <= slots:
            problems.append(f"{alg}@{eta}: coverage {cov}")
        if abs(float(le) - (float(delay) + float(eta) * float(rate) / 100.0)) > 1e-6:
            problems.append(f"{alg}@{eta}: mean latency identity fails")
    for alg in ("ilsr", "ilpr"):  # these ignore the setup delay
        if len({(r[4], r[5]) for r in rows if r[0] == alg}) != 1:
            problems.append(f"{alg} delay or change rate depends on eta_s")
    return problems


@dataclass
class Context:
    """One input of a workload: its config, the series its command reads,
    and the digests recorded for its outputs (None when not shipped)."""

    workload: Workload
    config: Path
    series: Path
    out: Path
    reference: dict[str, str] | None = None
    input_series: object = None  # imported input of sweep / run-alpr


def contexts(workload: Workload, seed: int, work: Path,
             references: list[dict] | None) -> list[Context]:
    """The run's inputs, with their config files written."""
    ctxs = []
    for i, offset in enumerate(raan_offsets_deg(seed)):
        config = work / f"config-{i}.ini"
        config.write_text(config_text(offset, workload.slots), encoding="utf-8")
        ctxs.append(Context(workload, config, work / f"input-{i}.series", work / "out",
                            references[i] if references else None))
    return ctxs


def check_outputs(ctx: Context) -> tuple[list[str], dict[str, str]]:
    """Invariant problems of the outputs in ``ctx.out``, and the digests that
    are compared with the recorded references."""
    out = ctx.out
    if ctx.workload.name == "generate":
        series = load_series(out / "topology.series")
        return series_problems(series, ctx.workload.slots), {"series": series_digest(series)}
    if ctx.workload.name == "sweep":
        text = (out / "sweep.tsv").read_text(encoding="utf-8")
        return sweep_problems(text, ctx.workload.slots), {"sweep.tsv": sha256_bytes(text.encode())}
    text = (out / "schedule.txt").read_text(encoding="utf-8")
    return schedule_problems(text, ctx.input_series), {
        "schedule.txt": sha256_bytes(text.encode()),
        "report.txt": report_digest(out / "report.txt"),
    }


def identity_digests(out: Path) -> dict[str, str]:
    """Byte digests of every output but NOT_CHECKED, report.txt without its runtime."""
    digests = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name not in NOT_CHECKED:
            rel = path.relative_to(out).as_posix()
            digests[rel] = report_digest(path) if path.name == "report.txt" else sha256_file(path)
    return digests


class Judge:
    """Decides whether the outputs of one input's command are correct.

    Outputs are compared with the references recorded for the input when
    the benchmark ships them; otherwise the first outputs that pass the
    invariant checks become the expectation for the rest of the run.
    Invariants are checked whenever outputs not seen before appear.
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.expected = None if ctx.reference is None else {
            k: v for k, v in ctx.reference.items() if k != "input_series"
        }
        self._accepted: set[str] = set()

    def __call__(self, identity: dict[str, str]) -> list[str]:
        key = json.dumps(identity, sort_keys=True)
        if key in self._accepted:
            return []
        try:
            problems, content = check_outputs(self.ctx)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        if self.expected is None:
            if not problems:
                self.expected = content
        else:
            problems += [
                f"{name} differs from the expected digest"
                for name, digest in self.expected.items()
                if content.get(name) != digest
            ]
        if not problems:
            self._accepted.add(key)
        return problems


def load_references(workload: Workload, seed: int) -> list[dict] | None:
    """Digests recorded for each input of this workload and seed, if shipped."""
    if not REFERENCES.exists():
        return None
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    if refs["slots"].get(workload.name) != workload.slots or refs["inputs"] != INPUTS:
        raise BenchError(f"references.json was recorded for another {workload.name} set-up")
    return refs["seeds"].get(str(seed), {}).get(workload.name)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class HostClock:
    """Runs the timed processes and, after each, the fixed calibration program.

    The shared host changes speed by 20% and more within tens of seconds, so
    raw wall times drift from run to run far beyond any useful bound.
    perfbench/calibrate.py does fixed work that never changes, interleaved
    with the commands so that it samples the same host conditions; the
    run's times are scaled by CALIBRATION_REF_S over its mean calibration
    time. A single calibration is too noisy to normalise its neighbour, so
    the scale is one factor per run: normalised seconds are seconds on a
    host that runs the calibration in CALIBRATION_REF_S.
    """

    def __init__(self, launcher: Launcher, deadline: float):
        self.launcher = launcher
        self.deadline = deadline
        self.calibrations: list[float] = []
        self.calibrate()

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def calibrate(self) -> None:
        outcome = self.launcher.run([sys.executable, str(HERE / "calibrate.py")],
                                    self.remaining())
        if outcome.code != 0:
            raise BenchError(f"calibration run failed: {outcome.stderr}")
        self.calibrations.append(outcome.wall_s)

    def run(self, argv: list[str], runner=None) -> Outcome:
        """Run one timed process, then one calibration."""
        outcome = (runner or self.launcher.run)(argv, self.remaining())
        self.calibrate()
        return outcome

    def scale(self) -> float:
        """Factor from this run's seconds to seconds on the reference host."""
        return CALIBRATION_REF_S / statistics.mean(self.calibrations)


@dataclass
class Sample:
    index: int  # which input
    outcome: Outcome
    problems: list[str]
    series_mb: float = math.nan
    identity: dict[str, str] = field(default_factory=dict)


def setup(ctxs: list[Context], clock: HostClock) -> tuple[list[float], list[str]]:
    """Prepare the workload once per input; raw wall times and problems.

    For ``generate`` the set-up is a cold interpreter start plus
    ``import lislsim.cli``; for the others it is the ``lislsim generate``
    call that writes the input series, which is then imported and checked.
    """
    argvs = [
        [sys.executable, "-c", "import lislsim.cli"] if ctx.workload.name == "generate"
        else [sys.executable, "-m", "lislsim.cli", "generate",
              "--config", str(ctx.config), "--out", str(ctx.series)]
        for ctx in ctxs
    ]
    walls, problems = [], []
    for argv in argvs:
        outcome = clock.launcher.run(argv, clock.remaining())
        if outcome.code != 0:
            raise BenchError(f"set-up failed with exit code {outcome.code}: {outcome.stderr}")
        walls.append(outcome.wall_s)
    clock.calibrate()
    for ctx in ctxs:
        if ctx.workload.name != "generate":
            ctx.input_series = load_series(ctx.series)
            problems += series_problems(ctx.input_series, ctx.workload.slots)
            expected = (ctx.reference or {}).get("input_series")
            if expected and series_digest(ctx.input_series) != expected:
                problems.append(f"{ctx.series.name} differs from the expected digest")
    return walls, problems


def measure(ctxs: list[Context], seconds: float, clock: HostClock,
            runner=None) -> list[Sample]:
    """Closed loop over the inputs in turn: the next command starts as soon as
    the previous one is checked."""
    judges = [Judge(ctx) for ctx in ctxs]
    samples: list[Sample] = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        if clock.remaining() < 1.0:
            break
        index = len(samples) % len(ctxs)
        ctx = ctxs[index]
        shutil.rmtree(ctx.out, ignore_errors=True)
        ctx.out.mkdir(parents=True)
        argv = [sys.executable, "-m", "lislsim.cli"] + cli_args(
            ctx.workload.name, ctx.config, ctx.series, ctx.out)
        outcome = clock.run(argv, runner)
        if outcome.code != 0:
            samples.append(Sample(index, outcome, [f"exit code {outcome.code}: {outcome.stderr}"]))
            continue
        series = ctx.out / "topology.series" if ctx.workload.name == "generate" else ctx.series
        identity = identity_digests(ctx.out)
        samples.append(Sample(index, outcome, judges[index](identity),
                              path_bytes(series) / 1e6, identity))
    return samples


def end_to_end_metrics(workload: Workload, samples: list[Sample], setup_walls: list[float],
                       scale: float) -> dict[str, float]:
    """Closed-loop throughput over all checked commands, normalised by ``scale``."""
    good = [s for s in samples if not s.problems] or samples
    failed = sum(1 for s in samples if s.problems)
    busy_s = sum(s.outcome.wall_s for s in good) * scale
    return {
        "slots_per_s": workload.slots * len(good) / busy_s,
        "peak_rss_mb": statistics.median(s.outcome.rss_mb for s in good),
        "setup_s": statistics.median(setup_walls) * scale,
        "series_mb": statistics.median(s.series_mb for s in good),
        "ok_ops_frac": 1.0 - failed / len(samples),
    }


def traced_run(ctx: Context, clock: HostClock) -> tuple[Outcome, dict, dict[str, str]]:
    """One traced run of the command: outcome, spans, output digests."""
    out = ctx.out.parent / "traced"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spans_path = ctx.out.parent / "spans.json"
    argv = [sys.executable, str(HERE / "tracer.py"), "--src", str(SRC),
            "--out", str(spans_path), "--"] + cli_args(
        ctx.workload.name, ctx.config, ctx.series, out)
    outcome = clock.launcher.run(argv, clock.remaining())
    spans = json.loads(spans_path.read_text(encoding="utf-8")) if spans_path.exists() else {}
    return outcome, spans, identity_digests(out)


def kernel_slot_times(ctx: Context, clock: HostClock) -> dict:
    path = ctx.out.parent / "kernels.json"
    argv = [sys.executable, str(HERE / "tracer.py"), "--src", str(SRC),
            "--out", str(path), "--kernels", str(ctx.config)]
    outcome = clock.launcher.run(argv, clock.remaining())
    if outcome.code != 0 or not path.exists():
        return {"ms": {}, "absent": [f"kernel slot bench failed: {outcome.stderr}"]}
    return json.loads(path.read_text(encoding="utf-8"))


def layer_metrics(spans: dict, traced_wall_s: float, overhead_frac: float,
                  kernels: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the traced run; absent functions read 0."""
    stats = spans.get("stats", {})

    def get(name: str, key: str = "s") -> float:
        return float(stats.get(name, {}).get(key, 0.0))

    def rate(name: str) -> float:
        seconds = get(name)
        return get(name, "bytes") / 1e6 / seconds if seconds > 0 else 0.0

    m: dict[str, float] = {}
    for metric in PER_LAYER:
        base, _, key = metric.rpartition(".")
        if key in ("s", "calls", "pairs", "arcs") and base in stats:
            m[metric] = get(base, key)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            v["self_s"] for k, v in stats.items() if k.startswith(layer + ".")
        )
    for name in ALGORITHMS:
        m[f"routing.run_algorithm.{name}.s"] = float(spans.get("algorithm_s", {}).get(name, 0.0))
    m["topology.export_series.mb_per_s"] = rate("topology.export_series")
    m["topology.import_series.mb_per_s"] = rate("topology.import_series")
    m["topology.import_series.rss_mb"] = get("topology.import_series", "rss_mb")
    m["routing.cells"] = get("routing.run_algorithm", "calls")
    m["routing.cells_distinct"] = float(spans.get("cells_distinct", 0))
    m["cli.self_s"] = traced_wall_s - float(spans.get("covered_s", 0.0))
    m["cli.cpu_s"] = float(spans.get("cpu_s", 0.0))
    m["cli.wall_s"] = traced_wall_s
    m["cli.startup_s"] = traced_wall_s - float(spans.get("main_s", 0.0))
    m["trace.overhead_frac"] = overhead_frac
    active = kernels.get("active")
    for kernel in ("pair_edges", "shortest_route"):
        m[f"kernels.slot.{kernel}.ms"] = float(kernels.get("ms", {}).get(f"{kernel}.{active}", 0.0))
    absent = list(spans.get("absent", [])) + list(kernels.get("absent", []))
    return {name: float(m.get(name, 0.0)) for name in PER_LAYER}, absent


def dominant_layer(spans: dict, wall_s: float) -> tuple[str, float]:
    """Wrapped function with the largest self time, and its share of the wall time."""
    stats = spans.get("stats", {})
    if not stats:
        return "cli.self_s", 1.0
    name = max(stats, key=lambda k: stats[k]["self_s"])
    return name, stats[name]["self_s"] / wall_s


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Everything one run measures and checks, as a dict (see main for the output)."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    info = provenance()
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launcher = Launcher(work)
    try:
        ctxs = contexts(workload, seed, work, load_references(workload, seed))
        clock = HostClock(launcher, deadline)
        setup_walls, problems = setup(ctxs, clock)
        samples = measure(ctxs, seconds, clock)
        result = {
            "workload": workload.name,
            "seed": seed,
            "slots": workload.slots,
            "raan_offsets_deg": raan_offsets_deg(seed),
            "seconds": seconds,
            "provenance": info,
            "reference": "recorded" if ctxs[0].reference else "invariants only",
            "setup_walls_s": setup_walls,
            "samples": [
                {"input": s.index, "wall_s": s.outcome.wall_s, "rss_mb": s.outcome.rss_mb,
                 "cpu_s": s.outcome.cpu_s, "problems": s.problems}
                for s in samples
            ],
            "calibration_s": clock.calibrations,
            "scale": clock.scale(),
            "attempted": len(samples),
            "failed": sum(1 for s in samples if s.problems),
            "end_to_end": end_to_end_metrics(workload, samples, setup_walls, clock.scale()),
            "problems": problems,
        }
        if trace:
            outcome, spans, identity = traced_run(ctxs[0], clock)
            if outcome.code != 0:
                problems.append(f"traced run failed: {outcome.stderr}")
            elif identity != next(
                (s.identity for s in reversed(samples) if s.index == 0 and not s.problems), None
            ):
                problems.append("traced run wrote different outputs than the untraced run")
            overhead = outcome.wall_s / statistics.mean(
                s.outcome.wall_s for s in samples if s.index == 0) - 1.0
            kernels = kernel_slot_times(ctxs[0], clock)
            layers, absent = layer_metrics(spans, outcome.wall_s, overhead, kernels)
            result.update(
                per_layer=layers, absent=absent, spans=spans, kernels=kernels,
                dominant=dominant_layer(spans, outcome.wall_s),
            )
        result["correct"] = result["failed"] == 0 and not problems
        return result
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)


def print_result(result: dict, trace: bool) -> None:
    info = result["provenance"]
    print(f"# workload {result['workload']} seed {result['seed']}: {result['slots']} slots, "
          f"RAAN offsets {', '.join(f'{x:.4f}' for x in result['raan_offsets_deg'])} deg, "
          f"checked against "
          f"{result['reference']}")
    print("# provenance " + json.dumps(info, sort_keys=True))
    walls = sorted(s["wall_s"] for s in result["samples"])
    print(f"# {len(walls)} commands, raw wall s min/median/max "
          f"{walls[0]:.3f}/{statistics.median(walls):.3f}/{walls[-1]:.3f}")
    cal = result["calibration_s"]
    print(f"# {len(cal)} calibration runs, mean {statistics.mean(cal):.3f} s: "
          f"times are scaled by {result['scale']:.4f}")
    for name, unit in END_TO_END.items():
        print(f"{name:<34} {result['end_to_end'][name]:>14.6g} {unit}")
    print(f"{'failed_ops_frac':<34} {result['failed'] / result['attempted']:>14.6g} ratio")
    if trace:
        for name, unit in PER_LAYER.items():
            print(f"{name:<34} {result['per_layer'][name]:>14.6g} {unit}")
        for name, value in sorted(result["kernels"].get("ms", {}).items()):
            print(f"# kernels.slot.{name} {value:.3f} ms")
        layer, share = result["dominant"]
        print(f"# dominant layer (self time): {layer} {share:.1%} of the traced wall time")
        if result["absent"]:
            print("# absent, reported as 0: " + ", ".join(result["absent"]))
    for problem in result["problems"] + [p for s in result["samples"] for p in s["problems"]]:
        print(f"# problem: {problem}")


def save_result(result: dict, trace: bool) -> None:
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{result['workload']}-seed{result['seed']}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1, default=str), encoding="utf-8")


def contract_line(result: dict, trace: bool) -> str:
    names = PER_LAYER if trace else END_TO_END
    values = result["per_layer"] if trace else result["end_to_end"]
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names.items()},
    })


def print_table(results: list[dict]) -> None:
    names = [r["workload"] for r in results]
    print(f"{'metric':<20} {'unit':<6} " + " ".join(f"{n:>12}" for n in names))
    rows = [(name, unit, [r["end_to_end"][name] for r in results])
            for name, unit in END_TO_END.items()]
    rows.append(("failed_ops_frac", "ratio", [r["failed"] / r["attempted"] for r in results]))
    for name, unit, values in rows:
        print(f"{name:<20} {unit:<6} " + " ".join(f"{v:>12.6g}" for v in values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = []
        for name in names:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            save_result(result, bool(args.trace))
            print_result(result, bool(args.trace))
            results.append(result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print_table(results)
        return 0 if all(r["correct"] for r in results) else 1
    print(contract_line(results[0], bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
