"""End-to-end CLI coverage: generate, run, sweep, table2."""

import ast
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import lislsim
from lislsim.cli import main, schedule_text
from lislsim.config import ExperimentConfig, load_config
from lislsim.constellation import field_values, generate_series, slot_edges
from lislsim.topology import import_series
from lislsim.routing import ALGORITHMS, ilsr

from conftest import decision_slots, save_series, slot_routes
from toyseries import dominance_toy_series, series_from_edges

TINY_CONFIG = """
[constellation]
num_planes = 1
sats_per_plane = 8
inclination_deg = 0
altitude_km = 550

[scenario]
lisl_range_km = 6000
gs_range_km = 4000
node_delay_ms = 1
slot_duration_s = 30
num_slots = 6

[ground_stations]
alpha = 0.0, 0.0
bravo = 0.0, 90.0

[run]
source = alpha
destination = bravo
algorithms = ilsr, ilpr, alpr, isasr
eta_s_ms = 1, 1000
qos_ms = 30, 60
cost_thrsh_ms = 100
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_CONFIG)
    return path


@pytest.fixture
def tiny_series(tmp_path, tiny_config):
    out = tmp_path / "tiny.series"
    assert main(["generate", "--config", str(tiny_config), "--out", str(out)]) == 0
    return out


class TestGenerate:
    def test_writes_importable_series(self, tiny_series):
        series = import_series(tiny_series)
        assert series.num_slots == 6
        assert series.roster.num_satellites == 8
        assert {gs.name for gs in series.roster.ground_stations} == {"alpha", "bravo"}

    def test_idempotent_for_identical_config(self, tmp_path, tiny_config, tiny_series):
        out2 = tmp_path / "again.series"
        assert main(["generate", "--config", str(tiny_config), "--out", str(out2)]) == 0
        assert out2.read_text() == tiny_series.read_text()

    def test_writes_the_bytes_of_the_held_series(self, tmp_path, stock_head):
        cfg = tmp_path / "stock20.ini"
        cfg.write_text("[scenario]\nnum_slots = 20\n")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "cli.series")]) == 0
        save_series(stock_head, tmp_path / "held.series")
        assert (tmp_path / "cli.series").read_bytes() == (tmp_path / "held.series").read_bytes()

    def test_every_slot_empty_writes_the_markers(self, tmp_path):
        cfg = tmp_path / "empty.ini"
        cfg.write_text(TINY_CONFIG.replace("range_km = 6000", "range_km = 1")
                       .replace("range_km = 4000", "range_km = 1"))
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "cli.series")]) == 0
        c = load_config(cfg)
        held = generate_series(c.constellation, list(c.ground_stations), c.scenario)
        save_series(held, tmp_path / "held.series")
        text = (tmp_path / "cli.series").read_text()
        assert text == (tmp_path / "held.series").read_text()
        assert text.endswith("".join(f"{slot} - - -\n" for slot in range(1, 7)))

    def test_failure_keeps_the_old_file(self, tmp_path, capsys):
        # every delay exceeds the 1e6 ms limit, so slot 1 fails after the writer opened
        cfg = tmp_path / "far.ini"
        cfg.write_text(TINY_CONFIG.replace("node_delay_ms = 1\n", "node_delay_ms = 1e6\n"))
        folder = tmp_path / "out"
        folder.mkdir()
        out = folder / "old.series"
        out.write_bytes(b"an earlier series\n")
        # the folders this run makes for its --out are removed again, deepest first
        for path in (out, folder / "new" / "sub" / "x.series"):
            assert main(["generate", "--config", str(cfg), "--out", str(path)]) == 1
            assert capsys.readouterr().err == (
                "error: slot 1: delay not below the 1000000 ms limit\n"
            )
        assert out.read_bytes() == b"an earlier series\n"
        assert [p.name for p in folder.iterdir()] == ["old.series"]

    def test_directory_out_fails_before_any_slot(self, tmp_path, tiny_config, capsys,
                                                 monkeypatch):
        drawn = []

        def counted_slots(*args):
            for slot in slot_edges(*args):
                drawn.append(slot)
                yield slot

        monkeypatch.setattr(lislsim.cli, "slot_edges", counted_slots)
        folder = tmp_path / "taken"
        folder.mkdir()
        assert main(["generate", "--config", str(tiny_config), "--out", str(folder)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{folder}'\n"
        assert drawn == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken", "tiny.ini"]
        assert list(folder.iterdir()) == []


class TestRun:
    def test_report_and_schedule_files(self, tmp_path, tiny_config, tiny_series):
        out = tmp_path / "run_out"
        rc = main([
            "run", "--config", str(tiny_config), "--series", str(tiny_series),
            "--algorithm", "ilsr", "--eta-s", "1000", "--out", str(out),
        ])
        assert rc == 0
        report = (out / "report.txt").read_text()
        assert "eta_le" in report and "route_change_rate" in report
        assert (out / "schedule.txt").exists()
        assert (out / "manifest.json").exists()
        assert (out / "latency_series.tsv").exists()

    def test_isasr_reduction_writes_identical_schedule_file(
        self, tmp_path, tiny_config, tiny_series
    ):
        out_a = tmp_path / "ilsr_out"
        out_b = tmp_path / "isasr_out"
        assert main([
            "run", "--config", str(tiny_config), "--series", str(tiny_series),
            "--algorithm", "ilsr", "--eta-s", "1000", "--out", str(out_a),
        ]) == 0
        assert main([
            "run", "--config", str(tiny_config), "--series", str(tiny_series),
            "--algorithm", "isasr", "--eta-s", "1000", "--gamma", "0",
            "--cost-thrsh", "inf", "--out", str(out_b),
        ]) == 0
        assert (out_a / "schedule.txt").read_text() == (out_b / "schedule.txt").read_text()

    def test_unreachable_everywhere_exits_nonzero(self, tmp_path, tiny_config):
        # ground range too small for any ground-satellite link
        no_links = TINY_CONFIG.replace("gs_range_km = 4000", "gs_range_km = 100")
        cfg = tmp_path / "nolinks.ini"
        cfg.write_text(no_links)
        series = tmp_path / "nolinks.series"
        assert main(["generate", "--config", str(cfg), "--out", str(series)]) == 0
        out = tmp_path / "nolinks_out"
        rc = main([
            "run", "--config", str(cfg), "--series", str(series),
            "--algorithm", "ilsr", "--out", str(out),
        ])
        assert rc == 1
        assert "coverage 0" in (out / "report.txt").read_text()

    def test_unpaired_setup_delay_reports_every_qos_threshold(
        self, tmp_path, tiny_config, tiny_series
    ):
        # eta_s 7 is not in eta_s_ms = 1, 1000, so no qos_ms value pairs with it
        out = tmp_path / "run_out"
        assert main([
            "run", "--config", str(tiny_config), "--series", str(tiny_series),
            "--algorithm", "ilsr", "--eta-s", "7", "--out", str(out),
        ]) == 0
        outages = [line.split()[0] for line in (out / "report.txt").read_text().splitlines()
                   if line.startswith("outage@")]
        assert outages == ["outage@30.000000000ms", "outage@60.000000000ms"]

    @pytest.mark.parametrize("gaps, listed", [
        ((2, 4), "[2, 4]"),
        (tuple(range(2, 13)), "[2, 3, 4, 5, 6, 7, 8, 9, 10, 11]..."),
    ])
    def test_partly_unreachable_run_warns_with_the_gap_slots(
        self, tmp_path, tiny_config, capsys, gaps, listed
    ):
        from lislsim.constellation import GroundStation

        stations = (GroundStation(1, "alpha", 0.0, 0.0), GroundStation(2, "bravo", 0.0, 90.0))
        per_slot = [
            {(0, 1): 1.0} if slot in gaps else {(0, 1): 1.0, (0, 2): 1.0}
            for slot in range(1, 14)
        ]
        series = tmp_path / "gappy.series"
        save_series(series_from_edges(per_slot, 1, stations), series)
        assert main([
            "run", "--config", str(tiny_config), "--series", str(series),
            "--algorithm", "ilsr", "--out", str(tmp_path / "out"),
        ]) == 0
        warning = f"warning: {len(gaps)} unreachable slots: {listed}\n"
        assert capsys.readouterr().err == warning

    def test_manifest_records_the_full_config(self, tmp_path, tiny_series):
        cfg = tmp_path / "thrsh.ini"
        cfg.write_text(TINY_CONFIG.replace("cost_thrsh_ms = 100", "cost_thrsh_ms = 50"))
        out = tmp_path / "thrsh_out"
        assert main([
            "run", "--config", str(cfg), "--series", str(tiny_series),
            "--algorithm", "isasr", "--eta-s", "1000", "--out", str(out),
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["cost_thrsh_ms"] == 50.0
        assert "seed" not in manifest["config"] and "oracle" not in manifest["config"]
        assert manifest["config"]["histogram_bin_ms"] == 0.25

    def test_manifest_writes_an_infinite_value_as_its_config_text(self, tmp_path, toy_sweep_argv):
        # RFC 8259 JSON has no Infinity or NaN: a strict reader must accept the manifest
        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        assert main(toy_sweep_argv) == 0
        text = (tmp_path / "sweep" / "manifest.json").read_text()
        config = json.loads(text, parse_constant=refuse)["config"]
        assert config["cost_thrsh_ms"] == "inf"
        assert field_values(ExperimentConfig, [("cost_thrsh_ms", config["cost_thrsh_ms"])],
                            "the manifest") == {"cost_thrsh_ms": math.inf}

    def test_manifest_records_the_flag_values(self, tmp_path, tiny_config, tiny_series):
        out = tmp_path / "flags_out"
        assert main([
            "run", "--config", str(tiny_config), "--series", str(tiny_series),
            "--algorithm", "isasr", "--gamma", "3", "--cost-thrsh", "5", "--out", str(out),
        ]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["gamma"], config["cost_thrsh_ms"]) == ([3.0], 5.0)

    @pytest.mark.parametrize("argv, config_edit", [
        (["--gamma", "1,2"], None),
        ([], ("[run]\n", "[run]\ngamma = 1, 2\n")),
    ], ids=["flag", "config"])
    def test_more_than_one_gamma_exits_1(self, tmp_path, tiny_series, capsys, argv, config_edit):
        cfg = tmp_path / "gammas.ini"
        cfg.write_text(TINY_CONFIG if config_edit is None else TINY_CONFIG.replace(*config_edit))
        out = tmp_path / "gammas_out"
        assert main([
            "run", "--config", str(cfg), "--series", str(tiny_series),
            "--algorithm", "isasr", *argv, "--out", str(out),
        ]) == 1
        assert capsys.readouterr().err == "error: run takes one gamma value\n"
        assert not out.exists()

    def test_missing_series_is_validation_error(self, tmp_path, tiny_config):
        rc = main([
            "run", "--config", str(tiny_config), "--series", str(tmp_path / "nope"),
            "--algorithm", "ilsr", "--out", str(tmp_path / "x"),
        ])
        assert rc == 1

    def test_directory_series_is_validation_error(self, tmp_path, tiny_config, capsys):
        rc = main([
            "run", "--config", str(tiny_config), "--series", str(tmp_path),
            "--algorithm", "ilsr", "--out", str(tmp_path / "x"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert not (tmp_path / "x").exists()


class TestSweep:
    def test_table_shape_and_reproducibility(self, tmp_path, tiny_config, tiny_series):
        out1 = tmp_path / "sweep1"
        out2 = tmp_path / "sweep2"
        for out in (out1, out2):
            rc = main([
                "sweep", "--config", str(tiny_config), "--series", str(tiny_series),
                "--out", str(out),
            ])
            assert rc == 0
        table = (out1 / "sweep.tsv").read_text().splitlines()
        assert table[0].startswith("algorithm\teta_s_ms")
        assert len(table) == 1 + 4 * 2  # four algorithms x two eta_s values
        assert (out1 / "sweep.tsv").read_text() == (out2 / "sweep.tsv").read_text()
        assert (out1 / "timings.tsv").exists()

    def test_gamma_sweep_rows(self, tmp_path, tiny_config, tiny_series):
        out = tmp_path / "gsweep"
        rc = main([
            "sweep", "--config", str(tiny_config), "--series", str(tiny_series),
            "--gamma", "0.5,5,50", "--out", str(out),
        ])
        assert rc == 0
        rows = (out / "sweep.tsv").read_text().splitlines()[1:]
        isasr_rows = [r for r in rows if r.startswith("isasr")]
        assert len(isasr_rows) == 2 * 3  # two eta_s x three gamma values
        # a list sweeps ISASR only; the other cells run with its first gamma
        assert {r.split("\t")[2] for r in rows if not r.startswith("isasr")} == {"0.5"}
        assert json.loads((out / "manifest.json").read_text())["config"]["gamma"] == [0.5, 5, 50]

    def test_manifest_records_a_single_gamma(self, tmp_path, tiny_config, tiny_series):
        out = tmp_path / "g5"
        assert main([
            "sweep", "--config", str(tiny_config), "--series", str(tiny_series),
            "--gamma", "5", "--out", str(out),
        ]) == 0
        rows = (out / "sweep.tsv").read_text().splitlines()[1:]
        assert {r.split("\t")[2] for r in rows} == {"5"}
        assert json.loads((out / "manifest.json").read_text())["config"]["gamma"] == [5.0]

    def _isasr_cells(self, out):
        rows = (out / "sweep.tsv").read_text().splitlines()[1:]
        return [tuple(r.split("\t")[1:3]) for r in rows if r.startswith("isasr")]

    def test_auto_in_a_gamma_list_is_each_setup_delay(self, tmp_path, tiny_config, tiny_series):
        out = tmp_path / "auto5"
        assert main([
            "sweep", "--config", str(tiny_config), "--series", str(tiny_series),
            "--gamma", "auto,5", "--out", str(out),
        ]) == 0
        assert self._isasr_cells(out) == [("1", "1"), ("1", "5"), ("1000", "1000"), ("1000", "5")]

    def test_a_cell_listed_twice_runs_once(self, tmp_path, tiny_series):
        cfg = tmp_path / "auto5.ini"
        cfg.write_text(TINY_CONFIG.replace("eta_s_ms = 1, 1000", "eta_s_ms = 5, 1000\ngamma = auto, 5"))
        out = tmp_path / "auto5"
        assert main([
            "sweep", "--config", str(cfg), "--series", str(tiny_series), "--out", str(out),
        ]) == 0
        assert self._isasr_cells(out) == [("5", "5"), ("1000", "1000"), ("1000", "5")]

    def test_a_gamma_flag_is_the_config_key(self, tmp_path, tiny_config, tiny_series):
        cfg = tmp_path / "gammas.ini"
        cfg.write_text(TINY_CONFIG.replace("[run]\n", "[run]\ngamma = 1, 10\n"))
        by_flag, by_key = tmp_path / "flag", tmp_path / "key"
        assert main([
            "sweep", "--config", str(tiny_config), "--series", str(tiny_series),
            "--gamma", "1,10", "--out", str(by_flag),
        ]) == 0
        assert main([
            "sweep", "--config", str(cfg), "--series", str(tiny_series), "--out", str(by_key),
        ]) == 0
        for name in ("sweep.tsv", "manifest.json"):
            assert (by_flag / name).read_bytes() == (by_key / name).read_bytes(), name


def _count_runs(monkeypatch):
    """Record the algorithm name of every schedule routing computes (a memo hit
    computes none)."""
    import lislsim.routing as routing_mod

    calls = []

    def counted(name):
        real = getattr(routing_mod, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ALGORITHMS:
        monkeypatch.setattr(routing_mod, name, counted(name))
    return calls


def _busy_wait(seconds):
    """Spend ``seconds`` of CPU time: runtimes read CPU seconds, which a sleep does not use."""
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def _report_values(text):
    """`key value unit` lines of report.txt as a dict of value strings."""
    return dict(line.split()[:2] for line in text.splitlines())


class TestSweepReuse:
    def test_eta_blind_schedules_computed_once(self, tmp_path, tiny_config, tiny_series, monkeypatch):
        calls = _count_runs(monkeypatch)
        assert main([
            "sweep", "--config", str(tiny_config), "--series", str(tiny_series),
            "--out", str(tmp_path / "sweep"),
        ]) == 0
        # 4 algorithms x 2 eta_s = 8 cells; ILSR and ILPR run once each
        assert Counter(calls) == {"ilsr": 1, "ilpr": 1, "alpr": 2, "isasr": 2}

    def test_gamma_list_keeps_one_run_per_eta_blind_algorithm(
        self, tmp_path, tiny_config, tiny_series, monkeypatch
    ):
        calls = _count_runs(monkeypatch)
        assert main([
            "sweep", "--config", str(tiny_config), "--series", str(tiny_series),
            "--gamma", "1,10", "--out", str(tmp_path / "gsweep"),
        ]) == 0
        assert Counter(calls) == {"ilsr": 1, "ilpr": 1, "alpr": 2, "isasr": 4}

    def test_reused_rows_equal_single_runs(self, tmp_path, tiny_config, tiny_series):
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--config", str(tiny_config), "--series", str(tiny_series),
            "--out", str(out),
        ]) == 0
        header, *rows = (out / "sweep.tsv").read_text().splitlines()
        columns = header.split("\t")
        timings = [r.split("\t") for r in (out / "timings.tsv").read_text().splitlines()[1:]]
        assert len(timings) == len(rows) == 8
        for name in ("ilsr", "ilpr"):
            cells = [dict(zip(columns, r.split("\t"))) for r in rows if r.startswith(name + "\t")]
            assert [c["eta_s_ms"] for c in cells] == ["1", "1000"]
            for cell in cells:
                run_out = tmp_path / f"{name}_{cell['eta_s_ms']}"
                assert main([
                    "run", "--config", str(tiny_config), "--series", str(tiny_series),
                    "--algorithm", name, "--eta-s", cell["eta_s_ms"], "--out", str(run_out),
                ]) == 0
                report = _report_values((run_out / "report.txt").read_text())
                assert cell["mean_eta_le_ms"] == report["mean_eta_le"]
                assert cell["mean_eta_delay_ms"] == report["mean_eta_delay"]
                assert cell["route_change_rate_pct"] == report["route_change_rate"]
                assert cell["outage_probability"] == report[f"outage@{float(cell['qos_ms']):.9f}ms"]
                assert cell["average_jitter_ms"] == report["average_jitter"]
                assert cell["coverage"] == report["coverage"]


# the dominance toy series' stations as endpoints; its delays are exact binary fractions
TOY_CONFIG = """
[ground_stations]
src = 0, 0
dst = 0, 10

[run]
source = src
destination = dst
eta_s_ms = 1, 10, 100
qos_ms = 30, 35, 40
cost_thrsh_ms = inf
"""


@pytest.fixture
def toy_sweep_argv(tmp_path):
    """`sweep` on the exported dominance toy series, writing to tmp_path/sweep."""
    cfg, series = tmp_path / "toy.ini", tmp_path / "toy.series"
    cfg.write_text(TOY_CONFIG)
    save_series(dominance_toy_series(), series)
    return ["sweep", "--config", str(cfg), "--series", str(series), "--out", str(tmp_path / "sweep")]


def _rows(out, name="gap.tsv"):
    header, *rows = (out / name).read_text().splitlines()
    return [dict(zip(header.split("\t"), row.split("\t"))) for row in rows]


def _penalty_blind_optimum(monkeypatch):
    """Make the optimum cheapest-per-slot: it ignores the setup penalty, so ALPR beats it."""
    import lislsim.oracle as oracle_mod

    def cheapest_per_slot(d, eta_s_ms):
        return np.argmin(d, axis=0)

    monkeypatch.setattr(oracle_mod, "dp_optimal", cheapest_per_slot)


class TestSweepGapTable:
    """``sweep`` checks every cell against the exact optimum over the routes the cells use."""

    def test_runs_green(self, tmp_path, toy_sweep_argv, capsys):
        assert main(toy_sweep_argv) == 0
        rows = _rows(tmp_path / "sweep")
        assert [(r["algorithm"], r["eta_s_ms"]) for r in rows] == [
            (name, eta) for name in ("ilsr", "ilpr", "alpr", "isasr") for eta in ("1", "10", "100")
        ]
        assert all(float(r["gap_ms"]) >= 0 for r in rows)
        manifest = json.loads((tmp_path / "sweep" / "manifest.json").read_text())
        assert manifest["command"] == "sweep" and manifest["cells"] == 12
        assert manifest["candidate_routes"] >= 1
        out, err = capsys.readouterr()
        assert err == ""
        assert out == (tmp_path / "sweep" / "sweep.tsv").read_text()  # stdout is sweep.tsv alone

    def test_one_evaluation_feeds_both_tables(self, tmp_path, tiny_config, tiny_series,
                                              monkeypatch):
        import lislsim.metrics as metrics_mod

        calls = []
        real = metrics_mod.evaluate

        def counted(schedule, *args, **kwargs):
            calls.append(schedule.algorithm)
            return real(schedule, *args, **kwargs)

        monkeypatch.setattr(metrics_mod, "evaluate", counted)
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--config", str(tiny_config), "--series", str(tiny_series), "--out", str(out),
        ]) == 0
        cells, gaps = _rows(out, "sweep.tsv"), _rows(out)
        assert len(cells) == len(gaps) == 8
        for cell, gap in zip(cells, gaps):
            for column in ("algorithm", "eta_s_ms", "gamma_ms", "mean_eta_le_ms"):
                assert cell[column] == gap[column], column
        # each cell once, then the optimum once for each of the two eta_s
        assert Counter(calls) == {"ilsr": 2, "ilpr": 2, "alpr": 2, "isasr": 2, "optimum": 2}

    def test_a_penalty_blind_optimum_is_beaten_and_exits_2(
        self, tmp_path, toy_sweep_argv, capsys, monkeypatch
    ):
        _penalty_blind_optimum(monkeypatch)
        assert main(toy_sweep_argv) == 2
        alpr_10 = next(r for r in _rows(tmp_path / "sweep")
                       if (r["algorithm"], r["eta_s_ms"]) == ("alpr", "10"))
        # eta_le over the six slots: ALPR 48.0, the mutant's optimum 50.25
        assert float(alpr_10["mean_eta_le_ms"]) * 6 == pytest.approx(48.0)
        assert float(alpr_10["optimum_mean_eta_le_ms"]) * 6 == pytest.approx(50.25)
        assert "optimum violation: alpr eta_s=10 " in capsys.readouterr().err

    def test_both_failure_kinds_in_one_run(self, tmp_path, toy_sweep_argv, capsys, monkeypatch):
        from lislsim.metrics import MetricsReport

        _penalty_blind_optimum(monkeypatch)
        real = MetricsReport.identity_residual

        def one_cell_off(report):
            off = (report.algorithm, report.eta_s_ms) == ("ilsr", 1.0)
            return 1e-9 if off else real(report)

        monkeypatch.setattr(MetricsReport, "identity_residual", one_cell_off)
        assert main(toy_sweep_argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("identity violation: ")] == [
            "identity violation: ilsr eta_s=1.0 residual=1e-09"
        ]
        assert any(line.startswith("optimum violation: alpr eta_s=10 ") for line in err), err

    def test_optimum_charges_no_switch_across_a_gap(self, tmp_path, tiny_config, capsys):
        from lislsim.constellation import GroundStation

        # route a = 2-0-3 is cheaper before the slot-4 gap, b = 2-1-3 after it;
        # a DP that charged a switch across the gap would keep a at eta_s 1000
        stations = (GroundStation(2, "alpha", 0.0, 0.0), GroundStation(3, "bravo", 0.0, 90.0))
        a_cheap = {(0, 2): 1.0, (0, 3): 1.0, (1, 2): 1.5, (1, 3): 1.5}
        b_cheap = {(0, 2): 1.5, (0, 3): 1.5, (1, 2): 1.0, (1, 3): 1.0}
        per_slot = [a_cheap] * 3 + [{(0, 2): 1.0, (1, 2): 1.5}] + [b_cheap] * 3
        series = tmp_path / "gappy.series"
        save_series(series_from_edges(per_slot, 2, stations), series)
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--config", str(tiny_config), "--series", str(series), "--out", str(out),
        ]) == 0
        rows = _rows(out)
        assert len(rows) == 8
        assert {r["optimum_mean_eta_le_ms"] for r in rows} == {f"{12 / 7:.9f}"}
        assert {r["gap_ms"] for r in rows} == {"0.000000000"}
        assert capsys.readouterr().err == "warning: 1 unreachable slots: [4]\n"

    def test_unreachable_everywhere_gives_zero_gaps(self, tmp_path, capsys):
        cfg = tmp_path / "nolinks.ini"
        cfg.write_text(TINY_CONFIG.replace("gs_range_km = 4000", "gs_range_km = 1"))
        series = tmp_path / "nolinks.series"
        assert main(["generate", "--config", str(cfg), "--out", str(series)]) == 0
        capsys.readouterr()
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--config", str(cfg), "--series", str(series), "--out", str(out),
        ]) == 0
        rows = _rows(out)
        assert len(rows) == 8
        assert {r["gap_ms"] for r in rows} == {"0.000000000"}
        assert json.loads((out / "manifest.json").read_text())["candidate_routes"] == 0
        assert capsys.readouterr().err == "warning: 6 unreachable slots: [1, 2, 3, 4, 5, 6]\n"

    def test_a_heuristic_that_skips_a_reachable_slot_is_not_checked(
        self, tmp_path, tiny_config, capsys
    ):
        from lislsim.constellation import GroundStation

        # slot 1's only route crosses the expiring edge 0-1, which ISASR
        # prunes at eta_s 1000; skipping that slot lowers its mean
        stations = (GroundStation(2, "alpha", 0.0, 0.0), GroundStation(3, "bravo", 0.0, 90.0))
        per_slot = [{(0, 2): 1.0, (0, 1): 1.0, (1, 3): 1.0}]
        per_slot += [{(0, 2): 1.0, (0, 3): 1.0, (1, 3): 1.0}] * 2
        series = tmp_path / "pruned.series"
        save_series(series_from_edges(per_slot, 2, stations), series)
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--config", str(tiny_config), "--series", str(series), "--out", str(out),
        ]) == 0
        isasr_1000 = _rows(out)[-1]
        assert isasr_1000["algorithm"] == "isasr" and float(isasr_1000["gap_ms"]) < 0
        assert capsys.readouterr().err == (
            "warning: isasr eta_s=1000 reaches 2 of the optimum's 3 slots; its gap is not checked\n"
        )


class TestTable2:
    def test_golden_averages_and_selections(self, capsys):
        rc = main(["table2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "26.98" in out and "193.48" in out
        assert "28.02" in out and "118.84" in out
        assert "27.76" in out and "170.47" in out
        assert "28.10" in out and "152.98" in out
        assert "selected@eta_s=1: route 1" in out
        assert "selected@eta_s=1000: route 2" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-5", "0"])
    def test_bad_setup_delay_exits_1(self, capsys, value):
        assert main(["table2", "--eta-s", value]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "setup-delay" in err


def schedule_file_routes(text):
    """Header tokens and per-slot route node tuples (None for '-') of a schedule file's text."""
    header, *records = text.splitlines()
    routes = []
    for record in records:
        route = record.split()[2]
        routes.append(None if route == "-" else tuple(int(n) for n in route.split("-")))
    return header.split(), routes


class TestScheduleFileHelpers:
    def test_round_trip(self):
        series = dominance_toy_series()
        schedule = ilsr(series, 6, 7)
        header, routes = schedule_file_routes(schedule_text(schedule))
        assert routes == [r.nodes if r else None for r in slot_routes(schedule)]
        assert "source=6" in header and "destination=7" in header


class TestBadUsage:
    def test_unknown_algorithm_flag(self, tmp_path, tiny_config, tiny_series):
        rc = main([
            "run", "--config", str(tiny_config), "--series", str(tiny_series),
            "--algorithm", "bgp", "--out", str(tmp_path / "x"),
        ])
        assert rc == 1

    def test_non_utf8_series_exits_1(self, tmp_path, tiny_config, tiny_series, capsys):
        latin1 = tmp_path / "latin1.series"
        latin1.write_bytes(tiny_series.read_bytes().replace(b"gs 9 bravo", b"gs 9 br\xe4vo"))
        rc = main([
            "run", "--config", str(tiny_config), "--series", str(latin1),
            "--algorithm", "ilsr", "--out", str(tmp_path / "x"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "utf-8" in err

    def test_delay_at_the_limit_exits_1(self, tmp_path, tiny_config, capsys):
        far = tmp_path / "far.series"
        far.write_text(
            "lislsim-series v1\n"
            "scenario lisl_range_km=1.0 gs_range_km=1.0 node_delay_ms=0.0 "
            "slot_duration_s=1.0 num_slots=1\n"
            "satellites 2\n"
            "1 0 1 1000000.0\n"
        )
        rc = main([
            "run", "--config", str(tiny_config), "--series", str(far),
            "--algorithm", "ilsr", "--out", str(tmp_path / "x"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: slot 1: delay not below the 1000000 ms")
        assert not (tmp_path / "x").exists()

    def test_bad_config_value(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[scenario]\nnum_slots = 0\n")
        rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "s")])
        assert rc == 1

    @pytest.mark.parametrize("command", [["run", "--algorithm", "ilsr"], ["sweep"]],
                             ids=["run", "sweep"])
    def test_endpoint_missing_from_the_series_exits_1(self, tmp_path, tiny_series, capsys,
                                                      command):
        # the config lists paris, so it loads; the series was generated without it
        cfg = tmp_path / "paris.ini"
        cfg.write_text(TINY_CONFIG.replace("bravo = 0.0, 90.0\n",
                                           "bravo = 0.0, 90.0\nparis = 48.9, 2.4\n")
                       .replace("source = alpha", "source = paris"))
        out = tmp_path / "out"
        rc = main([*command, "--config", str(cfg), "--series", str(tiny_series),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: no ground station named 'paris'\n"
        assert not out.exists()


class TestMalformedConfigFile:
    @pytest.mark.parametrize(
        "text",
        [
            "num_slots = 6\n",
            "[scenario]\nnum_slots = 6\n[scenario]\nnum_slots = 7\n",
            "[scenario]\nnum_slots = 6\nnum_slots = 7\n",
            "[run]\nsource = %(nowhere)s\n",
        ],
        ids=["no-section-header", "duplicate-section", "duplicate-option", "bad-interpolation"],
    )
    def test_run_exits_1_without_traceback(self, tmp_path, tiny_series, capsys, text):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        rc = main([
            "run", "--config", str(cfg), "--series", str(tiny_series),
            "--algorithm", "ilsr", "--out", str(tmp_path / "x"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestUnknownConfigNames:
    @pytest.mark.parametrize(
        "edit",
        [
            ("[constellation]\n", "[constellation]\nbogus = 7\n"),
            ("[scenario]\n", "[scenario]\nbogus = 7\n"),
            ("[run]\n", "[run]\nbogus = 7\n"),
            ("[run]\n", "[oracle]\ninstances = 25\n[run]\n"),
            ("[run]\n", "[run]\nseed = 1\n"),
            ("[run]\n", "[DEFAULT]\nbogus = 7\n[run]\n"),
            ("[scenario]\n", "[sceanrio]\nnum_slots = 2\n[scenario]\n"),
            ("[run]\n", "[run]\nreset_dropped_edges = false\n"),
            ("[run]\n", "[run]\nglobal_lifetimes = false\n"),
        ],
        ids=["constellation", "scenario", "run", "oracle", "run-seed", "default", "section",
             "run-reset-dropped-edges", "run-global-lifetimes"],
    )
    def test_generate_exits_1(self, tmp_path, capsys, edit):
        cfg = tmp_path / "names.ini"
        cfg.write_text(TINY_CONFIG.replace(*edit))
        out = tmp_path / "names.series"
        rc = main(["generate", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown ")
        assert any(name in err for name in (
            "bogus", "oracle", "seed", "sceanrio", "reset_dropped_edges", "global_lifetimes",
        ))
        assert not out.exists()


class TestCandidateBudget:
    def test_one_cell_shell_exits_1_before_it_allocates(self, tmp_path, capsys):
        """60 x 1000 satellites within 100,000 km of each other share one
        grid cell: n(n-1)/2 candidates, which asked for 13.4 GiB before the
        budget. The refusal comes before the candidate arrays exist."""
        cfg = tmp_path / "one-cell.ini"
        cfg.write_text("[constellation]\nnum_planes = 60\nsats_per_plane = 1000\n\n"
                       "[scenario]\nlisl_range_km = 100000\nnum_slots = 1\n")
        out = tmp_path / "deep" / "one-cell.series"
        tracemalloc.start()
        try:
            rc = main(["generate", "--config", str(cfg), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: pair_edges: more than "), lines
        assert "candidate budget" in lines[0]
        assert peak < 64 * 2**20, peak
        assert not out.parent.exists()


class TestEmptyConfigLists:
    @pytest.mark.parametrize(
        "command,edit",
        [
            ("run", ("eta_s_ms = 1, 1000\nqos_ms = 30, 60", "eta_s_ms =\nqos_ms =")),
            ("sweep", ("algorithms = ilsr, ilpr, alpr, isasr", "algorithms =")),
        ],
    )
    def test_exit_1_without_output(self, tmp_path, tiny_series, capsys, command, edit):
        cfg = tmp_path / "empty.ini"
        cfg.write_text(TINY_CONFIG.replace(*edit))
        out = tmp_path / "empty_out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "run":
            argv += ["--series", str(tiny_series), "--algorithm", "ilsr"]
        else:
            argv += ["--series", str(tiny_series)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestBadShellValues:
    @pytest.mark.parametrize(
        "key,value",
        [
            ("lisl_range_km", "nan"), ("lisl_range_km", "inf"), ("gs_range_km", "nan"),
            ("gs_range_km", "inf"), ("slot_duration_s", "nan"), ("slot_duration_s", "inf"),
            ("node_delay_ms", "nan"), ("altitude_km", "nan"), ("altitude_km", "inf"),
            ("epoch_raan_offset_deg", "nan"),
        ],
    )
    def test_generate_rejects_with_exit_1(self, tmp_path, capsys, key, value):
        lines = [ln for ln in TINY_CONFIG.splitlines() if not ln.startswith(key)]
        section = "[constellation]" if key in ("altitude_km", "epoch_raan_offset_deg") else "[scenario]"
        lines.insert(lines.index(section) + 1, f"{key} = {value}")
        cfg = tmp_path / "shell.ini"
        cfg.write_text("\n".join(lines) + "\n")
        out = tmp_path / "shell.series"
        rc = main(["generate", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


def _last_line_of(code, env=os.environ):
    """The last line ``code`` prints in a fresh interpreter that imports this lislsim."""
    src = str(Path(lislsim.__file__).resolve().parents[1])
    env = {**env, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.splitlines()[-1]


def _modules_after(argv) -> set[str]:
    """The modules loaded once ``lislsim.cli.main(argv)`` returned 0 in a fresh
    interpreter (which imports nothing else to report them)."""
    return set(ast.literal_eval(_last_line_of(
        "import sys\n"
        "from lislsim.cli import main\n"
        f"assert main({[str(a) for a in argv]!r}) == 0\n"
        "print(sorted(sys.modules))\n"
    )))


def _scipy_modules_after(argv):
    """Sorted scipy modules loaded once ``lislsim.cli.main(argv)`` returned 0 in a
    fresh interpreter."""
    return sorted(m for m in _modules_after(argv) if m.split(".")[0] == "scipy")


def _blas_setting_after_import(preset):
    """(``OPENBLAS_NUM_THREADS``, the process's thread count or None without /proc) once
    a fresh interpreter, started with the variable at ``preset`` (None: unset), imported
    ``lislsim.topology`` and with it numpy (a bare ``import lislsim`` starts no numpy)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    value, threads = _last_line_of(
        "import os, lislsim.topology\n"
        "task = '/proc/self/task'\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'),"
        " len(os.listdir(task)) if os.path.isdir(task) else None)\n",
        env,
    ).split()
    return value, None if threads == "None" else int(threads)


class TestImportCost:
    """A CLI call pays for no import or thread it does not use: scipy stays a test extra,
    each command loads only the lislsim modules it runs, and numpy starts without
    OpenBLAS worker threads unless the caller asks for them."""

    def test_bare_import_loads_no_submodule(self):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        loaded, value = _last_line_of(
            "import os, sys, lislsim\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('lislsim', 'numpy')),"
            " os.environ.get('OPENBLAS_NUM_THREADS'), sep='|')\n",
            env,
        ).split("|")
        assert (loaded, value) == ("['lislsim']", "1")

    def test_import_leaves_blas_single_threaded(self):
        value, threads = _blas_setting_after_import(None)
        assert value == "1"
        if threads is not None:
            assert threads == 1

    def test_import_keeps_a_preset_thread_count(self):
        value, threads = _blas_setting_after_import("2")
        assert value == "2"
        if threads is not None:  # OpenBLAS starts no more threads than the usable cores
            assert threads == min(2, len(os.sched_getaffinity(0)))

    def test_generate_does_not_import_scipy(self, tmp_path, tiny_config):
        out = tmp_path / "tiny.series"
        assert _scipy_modules_after(["generate", "--config", tiny_config, "--out", out]) == []
        assert out.stat().st_size > 0

    def test_generate_loads_no_routing_module(self, tmp_path, tiny_config):
        out = tmp_path / "tiny.series"
        loaded = _modules_after(["generate", "--config", tiny_config, "--out", out])
        assert {"lislsim.constellation", "lislsim.topology", "numpy"} <= loaded
        assert not loaded & {"lislsim.routing", "lislsim.metrics", "lislsim.oracle", "json"}
        assert out.stat().st_size > 0

    def test_run_loads_no_oracle(self, tmp_path, tiny_config, tiny_series):
        out = tmp_path / "out"
        loaded = _modules_after(["run", "--algorithm", "alpr", "--config", tiny_config,
                                 "--series", tiny_series, "--out", out])
        assert {"lislsim.routing", "lislsim.metrics", "json"} <= loaded
        assert "lislsim.oracle" not in loaded
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("argv", [["run", "--algorithm", "isasr"], ["sweep"]],
                             ids=["run", "sweep"])
    def test_routing_does_not_import_scipy(self, tmp_path, tiny_config, tiny_series, argv):
        out = tmp_path / "out"
        argv = [*argv, "--config", tiny_config, "--series", tiny_series, "--out", out]
        assert _scipy_modules_after(argv) == []
        assert (out / "manifest.json").exists()


class TestLifetimeBuildUntimed:
    """Only ISASR reads the lifetimes, and no cell's runtime holds a lazy build of the
    series (the lifetimes or a slot's CSR), whichever cell sets it off."""

    DELAY_S = 0.05

    @staticmethod
    def _spy(monkeypatch):
        """(algorithm, lifetimes already built) at each routing run, plus its series."""
        import lislsim.routing as routing_mod

        seen, series_seen = [], []
        real = routing_mod.run_algorithm

        def spy(name, series, *args, **kwargs):
            seen.append((name, series._runs is not None))
            series_seen.append(series)
            return real(name, series, *args, **kwargs)

        monkeypatch.setattr(routing_mod, "run_algorithm", spy)
        return seen, series_seen

    def _slow_builds(self, monkeypatch):
        """The names of the slowed calls: each ``np.zeros`` (a CSR's two pointer rows) and
        ``np.empty`` (the lifetimes' column) in ``lislsim.topology`` first busy-waits."""
        import lislsim.topology as topology_mod

        slowed = []

        def slow(name):
            def call(*args, **kwargs):
                slowed.append(name)
                _busy_wait(self.DELAY_S)
                return getattr(np, name)(*args, **kwargs)
            return staticmethod(call)

        class SlowNumpy:
            zeros, empty = slow("zeros"), slow("empty")

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(topology_mod, "np", SlowNumpy())
        return slowed

    def test_run_leaves_the_lazy_builds_off_the_clock(
        self, tmp_path, tiny_config, tiny_series, monkeypatch
    ):
        slowed = self._slow_builds(monkeypatch)
        out = tmp_path / "out"
        assert main([
            "run", "--config", str(tiny_config), "--series", str(tiny_series),
            "--algorithm", "isasr", "--out", str(out),
        ]) == 0
        assert slowed.count("zeros") == 6  # one CSR a slot
        runtime = (out / "report.txt").read_text().splitlines()[-1]
        assert runtime.startswith("runtime ")
        assert 0 <= float(runtime.split()[1]) < self.DELAY_S

    @pytest.mark.parametrize("name", ["ilsr", "ilpr", "alpr"])
    def test_run_never_builds_lifetimes(
        self, tmp_path, tiny_config, tiny_series, monkeypatch, name
    ):
        seen, series_seen = self._spy(monkeypatch)
        assert main([
            "run", "--config", str(tiny_config), "--series", str(tiny_series),
            "--algorithm", name, "--out", str(tmp_path / "out"),
        ]) == 0
        assert seen == [(name, False)]
        assert series_seen[0]._runs is None

    def test_sweep_leaves_the_lazy_builds_off_the_clock(
        self, tmp_path, tiny_config, tiny_series, monkeypatch
    ):
        slowed = self._slow_builds(monkeypatch)
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--config", str(tiny_config), "--series", str(tiny_series),
            "--out", str(out),
        ]) == 0
        assert slowed.count("zeros") == 6
        assert slowed.count("empty") == 3  # the import's two columns, then the lifetimes
        rows = (out / "timings.tsv").read_text().splitlines()[1:]
        assert len(rows) == 8
        for row in rows:
            assert 0 <= float(row.split("\t")[-1]) < self.DELAY_S, row


def test_runtime_leaves_out_time_spent_waiting(tmp_path, tiny_config, tiny_series, monkeypatch):
    """Runtimes read CPU seconds: a search that sleeps costs its cell nothing, as time
    a busy host takes from the process would not."""
    import lislsim.kernels as kernels_mod

    delay_s, searches, real = 0.05, [], kernels_mod.shortest_route

    def sleepy(*args):
        searches.append(args)
        time.sleep(delay_s)
        return real(*args)

    monkeypatch.setattr(kernels_mod, "shortest_route", sleepy)
    out = tmp_path / "out"
    assert main([
        "run", "--config", str(tiny_config), "--series", str(tiny_series),
        "--algorithm", "ilsr", "--out", str(out),
    ]) == 0
    assert len(searches) == 6
    assert float(_report_values((out / "report.txt").read_text())["runtime"]) < delay_s


class TestReusedSearchesCharged:
    """ILSR and ILPR compute once per series and ALPR's cells run each decision slot's
    searches once, and a cell's runtime holds the seconds of every search its schedule
    used, whichever cell ran it."""

    DELAY_S = 0.02

    def _slow_searches(self, monkeypatch):
        """Each ``kernels.shortest_route`` call first busy-waits. Returns the (slot,
        searches) of each ``disjoint_routes`` call, the (algorithm, eta_s, schedule) of
        each routing run the CLI starts, and the (algorithm, searches) of each ILSR and
        ILPR computation, in call order."""
        import lislsim.kernels as kernels_mod
        import lislsim.routing as routing_mod

        searches, decisions, runs, computed = [0], [], [], []
        real_search, real_disjoint = kernels_mod.shortest_route, routing_mod.disjoint_routes
        real_run = routing_mod.run_algorithm

        def search(*args):
            searches[0] += 1
            _busy_wait(self.DELAY_S)
            return real_search(*args)

        def disjoint(snap, *args):
            before = searches[0]
            routes = real_disjoint(snap, *args)
            decisions.append((snap.slot, searches[0] - before))
            return routes

        def counted(name):
            real = getattr(routing_mod, name)

            def call(*args):
                before = searches[0]
                schedule = real(*args)
                computed.append((name, searches[0] - before))
                return schedule
            return call

        def run(name, series, src, dst, eta_s, **kwargs):
            schedule = real_run(name, series, src, dst, eta_s, **kwargs)
            runs.append((name, eta_s, schedule))
            return schedule

        monkeypatch.setattr(kernels_mod, "shortest_route", search)
        monkeypatch.setattr(routing_mod, "disjoint_routes", disjoint)
        for name in ("ilsr", "ilpr"):
            monkeypatch.setattr(routing_mod, name, counted(name))
        monkeypatch.setattr(routing_mod, "run_algorithm", run)
        return decisions, runs, computed

    def test_sweep_and_run_charge_ilsr_and_ilpr_their_searches(
        self, tmp_path, tiny_config, tiny_series, monkeypatch
    ):
        *_, computed = self._slow_searches(monkeypatch)
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--config", str(tiny_config), "--series", str(tiny_series),
            "--out", str(out),
        ]) == 0
        assert [name for name, _ in computed] == ["ilsr", "ilpr"]  # once for both eta_s
        searches = dict(computed)
        rows = [line.split("\t") for line in (out / "timings.tsv").read_text().splitlines()[1:]]
        for name, n in searches.items():
            bound = n * self.DELAY_S
            cells = [float(r[3]) for r in rows if r[0] == name]
            assert n > 0 and len(cells) == 2 and min(cells) >= bound, (name, cells, bound)

            computed.clear()
            run_out = tmp_path / name
            assert main([
                "run", "--config", str(tiny_config), "--series", str(tiny_series),
                "--algorithm", name, "--out", str(run_out),
            ]) == 0
            assert computed == [(name, n)]
            runtime = _report_values((run_out / "report.txt").read_text())["runtime"]
            assert float(runtime) >= bound, (name, runtime, bound)

    def test_sweep_and_run_charge_alpr_its_searches(
        self, tmp_path, tiny_config, tiny_series, monkeypatch
    ):
        decisions, runs, _ = self._slow_searches(monkeypatch)
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--config", str(tiny_config), "--series", str(tiny_series),
            "--out", str(out),
        ]) == 0
        searches = dict(decisions)
        assert len(searches) == len(decisions)  # once per distinct decision slot
        cells = [(eta_s, schedule) for name, eta_s, schedule in runs if name == "alpr"]
        assert [eta_s for eta_s, _ in cells] == [1.0, 1000.0]
        assert set(searches) == {slot for _, s in cells for slot in decision_slots(s)}
        rows = {(r[0], float(r[1])): float(r[3]) for r in
                (line.split("\t") for line in (out / "timings.tsv").read_text().splitlines()[1:])}
        bounds = {eta_s: sum(searches[slot] for slot in decision_slots(schedule)) * self.DELAY_S
                  for eta_s, schedule in cells}
        assert sum(bounds.values()) > sum(searches.values()) * self.DELAY_S  # a cell reused one
        for eta_s, bound in bounds.items():
            assert rows["alpr", eta_s] >= bound, (eta_s, rows["alpr", eta_s], bound)

        for eta_s, bound in bounds.items():
            decisions.clear()
            run_out = tmp_path / f"alpr_{eta_s:g}"
            assert main([
                "run", "--config", str(tiny_config), "--series", str(tiny_series),
                "--algorithm", "alpr", "--eta-s", f"{eta_s:g}", "--out", str(run_out),
            ]) == 0
            assert sum(n for _, n in decisions) * self.DELAY_S == bound
            runtime = _report_values((run_out / "report.txt").read_text())["runtime"]
            assert float(runtime) >= bound, (eta_s, runtime, bound)


class TestBadRoutingValues:
    @pytest.mark.parametrize(
        "argv,config_edit",
        [
            (["run", "--algorithm", "alpr", "--eta-s", "nan"], None),
            (["run", "--algorithm", "alpr", "--eta-s", "-5"], None),
            (["run", "--algorithm", "alpr", "--eta-s", "inf"], None),
            (["run", "--algorithm", "isasr", "--gamma", "nan"], None),
            (["run", "--algorithm", "isasr", "--gamma", "-1"], None),
            (["run", "--algorithm", "isasr", "--cost-thrsh", "nan"], None),
            (["run", "--algorithm", "isasr", "--cost-thrsh", "0"], None),
            (["sweep", "--gamma", "nan"], None),
            (["sweep", "--gamma", "0.5,inf"], None),
            (["sweep", "--gamma", "5,5"], None),
            (["sweep", "--gamma", "1,2"], ("ilsr, ilpr, alpr, isasr", "ilsr, alpr")),
            (["sweep"], ("eta_s_ms = 1, 1000", "eta_s_ms = 1, inf")),
            (["sweep"], ("eta_s_ms = 1, 1000", "eta_s_ms = 1, nan")),
            (["run", "--algorithm", "alpr"], ("[run]\n", "[run]\nhistogram_bin_ms = 1e-12\n")),
            (["sweep"], ("eta_s_ms = 1, 1000\nqos_ms = 30, 60",
                         "eta_s_ms = 1, 1\nqos_ms = 27, 30")),
            (["sweep"], ("algorithms = ilsr, ilpr, alpr, isasr", "algorithms = ilsr, ilsr")),
        ],
        ids=[
            "run-eta-nan", "run-eta-negative", "run-eta-inf", "run-gamma-nan",
            "run-gamma-negative", "run-thrsh-nan", "run-thrsh-zero", "sweep-gamma-nan",
            "sweep-gamma-list-inf", "sweep-gamma-list-repeated", "sweep-gamma-list-without-isasr",
            "sweep-config-eta-inf", "sweep-config-eta-nan", "run-histogram-bin-tiny",
            "sweep-config-eta-repeated", "sweep-config-algorithm-repeated",
        ],
    )
    def test_rejected_with_exit_1(self, tmp_path, tiny_series, capsys, argv, config_edit):
        text = TINY_CONFIG if config_edit is None else TINY_CONFIG.replace(*config_edit)
        cfg = tmp_path / "values.ini"
        cfg.write_text(text)
        out = tmp_path / "values_out"
        rc = main([
            argv[0], "--config", str(cfg), "--series", str(tiny_series),
            *argv[1:], "--out", str(out),
        ])
        assert rc == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and "error: " in err
        assert not out.exists()


class TestSetupBound:
    """eta_s and gamma stop at ``MAX_SETUP_MS``, so ISASR's costs stay finite: above it
    a run exits 1 before routing, where 1e200 once overflowed every cost to +inf."""

    @pytest.mark.parametrize("argv,config_edit", [
        (["run", "--algorithm", "isasr", "--eta-s", "1e200"], None),
        (["run", "--algorithm", "isasr", "--gamma", "1e200"], None),
        (["sweep"], ("eta_s_ms = 1, 1000", "eta_s_ms = 1, 1e13")),
    ], ids=["run-eta-1e200", "run-gamma-1e200", "sweep-config-eta-1e13"])
    def test_above_the_bound_exits_1_without_a_warning(
        self, tmp_path, tiny_series, capsys, argv, config_edit
    ):
        cfg = tmp_path / "bound.ini"
        cfg.write_text(TINY_CONFIG if config_edit is None else TINY_CONFIG.replace(*config_edit))
        out = tmp_path / "bound_out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([argv[0], "--config", str(cfg), "--series", str(tiny_series),
                       *argv[1:], "--out", str(out)])
        assert rc == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--eta-s", "--gamma"])
    def test_at_the_bound_isasr_routes(self, tmp_path, tiny_config, tiny_series, capsys, flag):
        out = tmp_path / "bound_out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["run", "--config", str(tiny_config), "--series", str(tiny_series),
                       "--algorithm", "isasr", flag, "1e12", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        assert _report_values((out / "report.txt").read_text())["coverage"] == "6"


class TestVerificationFailureExit:
    def test_sweep_exits_2_when_identity_breaks(self, tmp_path, tiny_config, tiny_series, monkeypatch):
        import lislsim.metrics as metrics_mod

        real = metrics_mod.evaluate

        def corrupted(*args, **kwargs):
            report = real(*args, **kwargs)
            report.mean_eta_le_ms += 1.0  # break the decomposition identity
            return report

        monkeypatch.setattr(metrics_mod, "evaluate", corrupted)
        rc = main([
            "sweep", "--config", str(tiny_config), "--series", str(tiny_series),
            "--out", str(tmp_path / "broken"),
        ])
        assert rc == 2

    def test_run_exits_2_when_a_held_route_outlives_its_edge(
        self, tmp_path, tiny_config, capsys, monkeypatch
    ):
        from lislsim import routing
        from lislsim.constellation import GroundStation

        # ILPR's route 2-0-3 breaks at slot 2; one delay too many holds it there
        stations = (GroundStation(2, "alpha", 0.0, 0.0), GroundStation(3, "bravo", 0.0, 90.0))
        per_slot = [{(0, 2): 1.0, (0, 3): 1.0}] + [{(1, 2): 1.0, (1, 3): 1.0}] * 2
        series = tmp_path / "breaking.series"
        save_series(series_from_edges(per_slot, 2, stations), series)
        real = routing.run_delays
        monkeypatch.setattr(routing, "run_delays", lambda *args: real(*args) + [1.0])
        rc = main([
            "run", "--config", str(tiny_config), "--series", str(series),
            "--algorithm", "ilpr", "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "error: schedule route at slot 2 uses a missing edge" in capsys.readouterr().err


# A series that declares 2,000,000,000 satellites and backs two edges of them: a
# CSR sized by the node count would ask for gigabytes, but the roster refuses the
# count at the header, beyond the 16-bit node ids.
_HUGE_ROSTER_SERIES = """lislsim-series v1
scenario lisl_range_km=1500.0 gs_range_km=1000.0 node_delay_ms=1.0 slot_duration_s=1.0 num_slots=1
satellites 2000000000
gs 2000000000 new_york 40.7128 -74.006
gs 2000000001 london 51.5074 -0.1278
gs 2000000002 hanoi 21.0285 105.8542
1 0 2000000000 1.0
1 0 2000000001 1.0
"""


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


# Satellites 0-2 and stations alpha (3) and bravo (4). The 2-4 link lives two slots,
# so at slot 2 ISASR prices it near gamma * eta_s, and the 1 ms links round away
# beside it.
_ROUNDING_SERIES = """lislsim-series v1
scenario lisl_range_km=1500.0 gs_range_km=1000.0 node_delay_ms=1.0 slot_duration_s=1.0 num_slots=3
satellites 3
gs 3 alpha 0.0 0.0
gs 4 bravo 0.0 10.0
""" + "".join(f"{slot} {u} {v} 1.0\n" for slot in (1, 2, 3)
              for u, v in ((0, 1), (0, 3), (1, 2), (2, 4)) if (slot, v) != (3, 4))


@pytest.mark.parametrize("eta_s", ["1e8", "1e12"])
def test_isasr_ends_when_link_costs_round_the_delays_away(tmp_path, eta_s):
    """A search whose weights are lost to rounding against its distances still
    returns: the run exits 0 in a child, instead of walking for ever."""
    series, cfg = tmp_path / "rounding.series", tmp_path / "rounding.ini"
    series.write_text(_ROUNDING_SERIES)
    cfg.write_text("[ground_stations]\nalpha = 0, 0\nbravo = 0, 10\n\n"
                   "[run]\nsource = alpha\ndestination = bravo\n")
    src = str(Path(lislsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "lislsim.cli", "run", "--config", str(cfg), "--series", str(series),
         "--algorithm", "isasr", "--eta-s", eta_s, "--out", str(tmp_path / "out")],
        env=env, preexec_fn=_cap_address_space, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "schedule.txt").read_text().splitlines()[1:] == [
        "1 4.000000000 3-0-1-2-4", "2 4.000000000 3-0-1-2-4", "3 - -"]


class TestOutOfMemory:
    """A refused allocation ends in exit 1 and one ``error:`` line, never a traceback."""

    def test_huge_declared_roster_in_a_capped_child(self, tmp_path):
        """The node cap refuses the roster before any node-sized array, so the
        address-space cap is never reached."""
        series = tmp_path / "huge.series"
        series.write_text(_HUGE_ROSTER_SERIES)
        src = str(Path(lislsim.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "lislsim.cli", "run", "--algorithm", "ilsr",
             "--series", str(series), "--out", str(tmp_path / "out")],
            env=env, preexec_fn=_cap_address_space, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stderr
        lines = done.stderr.splitlines()
        assert lines == ["error: at most 65536 nodes: node ids are 16-bit"], lines
        assert not (tmp_path / "out").exists()

    def test_numpy_memory_error_names_its_detail(self, tmp_path, tiny_config, tiny_series,
                                                 capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 3.73 GiB for an array with shape (2000000004,)")

        monkeypatch.setattr(lislsim.cli, "import_series", refuse)
        rc = main(["run", "--config", str(tiny_config), "--series", str(tiny_series),
                   "--algorithm", "ilsr", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 3.73 GiB for an array with shape "
            "(2000000004,)\n")
        assert not (tmp_path / "out").exists()

    def test_bare_memory_error_names_no_detail(self, tmp_path, tiny_config, tiny_series,
                                               capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(lislsim.cli, "import_series", refuse)
        rc = main(["sweep", "--config", str(tiny_config), "--series", str(tiny_series),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: out of memory\n"


def _cap_series(num_satellites: int) -> str:
    """A one-slot series of ``num_satellites`` satellites and the three default
    stations, whose one route runs new_york - 0 - (top satellite) - london."""
    top, ny, london = num_satellites - 1, num_satellites, num_satellites + 1
    return (
        "lislsim-series v1\n"
        "scenario lisl_range_km=1500.0 gs_range_km=1000.0 node_delay_ms=1.0 "
        "slot_duration_s=1.0 num_slots=1\n"
        f"satellites {num_satellites}\n"
        f"gs {ny} new_york 40.7128 -74.006\ngs {london} london 51.5074 -0.1278\n"
        f"gs {num_satellites + 2} hanoi 21.0285 105.8542\n"
        f"1 0 {top} 2.5\n1 0 {ny} 1.0\n1 {top} {london} 1.5\n"
    )


class TestNodeCap:
    """Node ids are 16-bit: a roster of 65,536 nodes runs end to end, and one of
    65,537 is refused at every entry point before anything node-sized exists."""

    def test_full_roster_imports_routes_and_writes(self, tmp_path):
        series = tmp_path / "full.series"
        series.write_text(_cap_series(65_533))
        assert import_series(series).roster.num_nodes == 65_536
        out = tmp_path / "out"
        assert main(["run", "--algorithm", "ilsr", "--series", str(series),
                     "--out", str(out)]) == 0
        assert (out / "schedule.txt").read_text().splitlines()[1:] == [
            "1 5.000000000 65533-0-65532-65534"]
        assert sorted(p.name for p in out.iterdir()) == [
            "histogram.tsv", "latency_series.tsv", "manifest.json", "report.txt", "schedule.txt"]

    @pytest.mark.parametrize("text", [_cap_series(65_534), _HUGE_ROSTER_SERIES],
                             ids=["one-node-more", "two-billion-satellites"])
    def test_import_refuses_before_it_allocates(self, tmp_path, capsys, text):
        series = tmp_path / "over.series"
        series.write_text(text)
        tracemalloc.start()
        try:
            rc = main(["run", "--algorithm", "ilsr", "--series", str(series),
                       "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        assert capsys.readouterr().err == "error: at most 65536 nodes: node ids are 16-bit\n"
        assert peak < 16 * 2**20, peak
        assert not (tmp_path / "out").exists()

    def test_generate_refuses_one_node_more_before_propagation(self, tmp_path, capsys,
                                                               monkeypatch):
        calls = []
        monkeypatch.setattr(lislsim.cli, "slot_edges", lambda *args: calls.append(args))
        cfg = tmp_path / "over.ini"  # 65,534 satellites and the three default stations
        cfg.write_text("[constellation]\nnum_planes = 2\nsats_per_plane = 32767\n")
        out = tmp_path / "deep" / "over.series"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: at most 65536 nodes: node ids are 16-bit\n"
        assert calls == []
        assert not out.parent.exists()


class TestScheduleGaps:
    def test_gap_rows_round_trip(self):
        from lislsim.routing import Route, RoutingSchedule

        series = dominance_toy_series()
        routes = [Route((6, 0, 4, 7)), None, Route((6, 1, 5, 7)), None, None, Route((6, 1, 5, 7))]
        schedule = RoutingSchedule("by-hand", 6, 7, routes, series)
        assert schedule_file_routes(schedule_text(schedule))[1] == [
            r.nodes if r else None for r in routes
        ]
