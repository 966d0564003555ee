"""End-to-end CLI coverage: generate, run, sweep, oracle, table2."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import lislsim
from lislsim.cli import main, write_schedule
from lislsim.topology import import_series
from lislsim.routing import LIFETIME_ALGORITHMS, ilsr

from conftest import slot_routes
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

    @pytest.mark.parametrize("gaps, listed", [
        ((2, 4), "[2, 4]"),
        (tuple(range(2, 13)), "[2, 3, 4, 5, 6, 7, 8, 9, 10, 11]..."),
    ])
    def test_partly_unreachable_run_warns_with_the_gap_slots(
        self, tmp_path, tiny_config, capsys, gaps, listed
    ):
        from lislsim.constellation import GroundStation
        from lislsim.topology import export_series

        stations = (GroundStation(1, "alpha", 0.0, 0.0), GroundStation(2, "bravo", 0.0, 90.0))
        per_slot = [
            {(0, 1): 1.0} if slot in gaps else {(0, 1): 1.0, (0, 2): 1.0}
            for slot in range(1, 14)
        ]
        series = tmp_path / "gappy.series"
        export_series(series_from_edges(per_slot, 1, stations), series)
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

    def test_manifest_records_the_flag_values(self, tmp_path, tiny_config, tiny_series):
        out = tmp_path / "flags_out"
        assert main([
            "run", "--config", str(tiny_config), "--series", str(tiny_series),
            "--algorithm", "isasr", "--gamma", "3", "--cost-thrsh", "5", "--out", str(out),
        ]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["gamma"], config["cost_thrsh_ms"]) == (3.0, 5.0)

    def test_missing_series_is_validation_error(self, tmp_path, tiny_config):
        rc = main([
            "run", "--config", str(tiny_config), "--series", str(tmp_path / "nope"),
            "--algorithm", "ilsr", "--out", str(tmp_path / "x"),
        ])
        assert rc == 1


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
        # a list sweeps ISASR only; the other cells ran with the file's gamma
        assert json.loads((out / "manifest.json").read_text())["config"]["gamma"] is None

    def test_manifest_records_a_single_gamma(self, tmp_path, tiny_config, tiny_series):
        out = tmp_path / "g5"
        assert main([
            "sweep", "--config", str(tiny_config), "--series", str(tiny_series),
            "--gamma", "5", "--out", str(out),
        ]) == 0
        rows = (out / "sweep.tsv").read_text().splitlines()[1:]
        assert {r.split("\t")[2] for r in rows} == {"5"}
        assert json.loads((out / "manifest.json").read_text())["config"]["gamma"] == 5.0


def _count_runs(monkeypatch):
    """Record the algorithm name of every routing run the CLI starts."""
    import lislsim.cli as cli_mod

    calls = []
    real = cli_mod.run_algorithm

    def counted(name, *args, **kwargs):
        calls.append(name)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(cli_mod, "run_algorithm", counted)
    return calls


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
            runtimes = {t[3] for t in timings if t[0] == name}
            assert len(runtimes) == 1


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
def toy_oracle_argv(tmp_path):
    """`oracle` on the exported dominance toy series, writing to tmp_path/gap."""
    from lislsim.topology import export_series

    cfg, series = tmp_path / "toy.ini", tmp_path / "toy.series"
    cfg.write_text(TOY_CONFIG)
    export_series(dominance_toy_series(), series)
    return ["oracle", "--config", str(cfg), "--series", str(series), "--out", str(tmp_path / "gap")]


def _gap_rows(out):
    header, *rows = (out / "gap.tsv").read_text().splitlines()
    return [dict(zip(header.split("\t"), row.split("\t"))) for row in rows]


class TestOracleCommand:
    def test_runs_green(self, tmp_path, toy_oracle_argv, capsys):
        assert main(toy_oracle_argv) == 0
        rows = _gap_rows(tmp_path / "gap")
        assert [(r["algorithm"], r["eta_s_ms"]) for r in rows] == [
            (name, eta) for name in ("ilsr", "ilpr", "alpr", "isasr") for eta in ("1", "10", "100")
        ]
        assert all(float(r["gap_ms"]) >= 0 for r in rows)
        manifest = json.loads((tmp_path / "gap" / "manifest.json").read_text())
        assert manifest["command"] == "oracle" and manifest["cells"] == 12
        assert capsys.readouterr().err == ""

    def test_a_penalty_blind_optimum_is_beaten_and_exits_2(
        self, tmp_path, toy_oracle_argv, capsys, monkeypatch
    ):
        import lislsim.oracle as oracle_mod

        def cheapest_per_slot(d, eta_s_ms):  # ignores the setup penalty
            return np.argmin(d, axis=0)

        monkeypatch.setattr(oracle_mod, "dp_optimal", cheapest_per_slot)
        assert main(toy_oracle_argv) == 2
        alpr_10 = next(r for r in _gap_rows(tmp_path / "gap")
                       if (r["algorithm"], r["eta_s_ms"]) == ("alpr", "10"))
        # eta_le over the six slots: ALPR 48.0, the mutant's optimum 50.25
        assert float(alpr_10["mean_eta_le_ms"]) * 6 == pytest.approx(48.0)
        assert float(alpr_10["optimum_mean_eta_le_ms"]) * 6 == pytest.approx(50.25)
        assert "optimum violation: alpr eta_s=10 " in capsys.readouterr().err

    def test_optimum_charges_no_switch_across_a_gap(self, tmp_path, tiny_config, capsys):
        from lislsim.constellation import GroundStation
        from lislsim.topology import export_series

        # route a = 2-0-3 is cheaper before the slot-4 gap, b = 2-1-3 after it;
        # a DP that charged a switch across the gap would keep a at eta_s 1000
        stations = (GroundStation(2, "alpha", 0.0, 0.0), GroundStation(3, "bravo", 0.0, 90.0))
        a_cheap = {(0, 2): 1.0, (0, 3): 1.0, (1, 2): 1.5, (1, 3): 1.5}
        b_cheap = {(0, 2): 1.5, (0, 3): 1.5, (1, 2): 1.0, (1, 3): 1.0}
        per_slot = [a_cheap] * 3 + [{(0, 2): 1.0, (1, 2): 1.5}] + [b_cheap] * 3
        series = tmp_path / "gappy.series"
        export_series(series_from_edges(per_slot, 2, stations), series)
        out = tmp_path / "gap"
        assert main([
            "oracle", "--config", str(tiny_config), "--series", str(series), "--out", str(out),
        ]) == 0
        rows = _gap_rows(out)
        assert len(rows) == 8
        assert {r["optimum_mean_eta_le_ms"] for r in rows} == {f"{12 / 7:.9f}"}
        assert {r["gap_ms"] for r in rows} == {"0.000000000"}
        assert capsys.readouterr().err == "warning: 1 unreachable slots: [4]\n"

    def test_a_heuristic_that_skips_a_reachable_slot_is_not_checked(
        self, tmp_path, tiny_config, capsys
    ):
        from lislsim.constellation import GroundStation
        from lislsim.topology import export_series

        # slot 1's only route crosses the expiring edge 0-1, which ISASR
        # prunes at eta_s 1000; skipping that slot lowers its mean
        stations = (GroundStation(2, "alpha", 0.0, 0.0), GroundStation(3, "bravo", 0.0, 90.0))
        per_slot = [{(0, 2): 1.0, (0, 1): 1.0, (1, 3): 1.0}]
        per_slot += [{(0, 2): 1.0, (0, 3): 1.0, (1, 3): 1.0}] * 2
        series = tmp_path / "pruned.series"
        export_series(series_from_edges(per_slot, 2, stations), series)
        out = tmp_path / "gap"
        assert main([
            "oracle", "--config", str(tiny_config), "--series", str(series), "--out", str(out),
        ]) == 0
        isasr_1000 = _gap_rows(out)[-1]
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
        assert "selected@eta_s=1: route 1" in out
        assert "selected@eta_s=1000: route 2" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-5", "0"])
    def test_bad_setup_delay_exits_1(self, capsys, value):
        assert main(["table2", "--eta-s", value]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "setup-delay" in err


def schedule_file_routes(path):
    """Header tokens and per-slot route node tuples (None for '-') of a schedule file."""
    header, *records = path.read_text().splitlines()
    routes = []
    for record in records:
        route = record.split()[2]
        routes.append(None if route == "-" else tuple(int(n) for n in route.split("-")))
    return header.split(), routes


class TestScheduleFileHelpers:
    def test_round_trip(self, tmp_path):
        series = dominance_toy_series()
        schedule = ilsr(series, 6, 7)
        path = tmp_path / "sched.txt"
        write_schedule(schedule, path)
        header, routes = schedule_file_routes(path)
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

    def test_bad_config_value(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[scenario]\nnum_slots = 0\n")
        rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "s")])
        assert rc == 1


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


class TestEmptyConfigLists:
    @pytest.mark.parametrize(
        "command,edit",
        [
            ("run", ("eta_s_ms = 1, 1000\nqos_ms = 30, 60", "eta_s_ms =\nqos_ms =")),
            ("sweep", ("algorithms = ilsr, ilpr, alpr, isasr", "algorithms =")),
            ("oracle", ("algorithms = ilsr, ilpr, alpr, isasr", "algorithms =")),
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


class TestBadOracleValues:
    def test_nan_setup_delay_exits_1_before_any_check(self, tmp_path, tiny_series, capsys):
        cfg = tmp_path / "oracle.ini"
        cfg.write_text(TINY_CONFIG.replace("eta_s_ms = 1, 1000", "eta_s_ms = 1, nan"))
        out = tmp_path / "oracle_out"
        rc = main([
            "oracle", "--config", str(cfg), "--series", str(tiny_series), "--out", str(out),
        ])
        stdout, err = capsys.readouterr()
        assert rc == 1
        assert stdout == "" and err.startswith("error: ") and "setup-delay" in err
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


def _scipy_modules_after(argv):
    """Sorted scipy modules loaded once ``lislsim.cli.main(argv)`` returned 0 in a
    fresh interpreter."""
    code = (
        "import sys\n"
        "from lislsim.cli import main\n"
        f"assert main({[str(a) for a in argv]!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(lislsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.splitlines()[-1]


class TestImportCost:
    """scipy stays a test extra: a CLI call never pays its import."""

    def test_generate_does_not_import_scipy(self, tmp_path, tiny_config):
        out = tmp_path / "tiny.series"
        assert _scipy_modules_after(["generate", "--config", tiny_config, "--out", out]) == "[]"
        assert out.stat().st_size > 0

    @pytest.mark.parametrize("argv", [["run", "--algorithm", "isasr"], ["sweep"]],
                             ids=["run", "sweep"])
    def test_routing_does_not_import_scipy(self, tmp_path, tiny_config, tiny_series, argv):
        out = tmp_path / "out"
        argv = [*argv, "--config", tiny_config, "--series", tiny_series, "--out", out]
        assert _scipy_modules_after(argv) == "[]"
        assert (out / "manifest.json").exists()


class TestLifetimeBuildUntimed:
    """Only ISASR reads the lifetimes, and their one-time build stays out of its runtime."""

    @staticmethod
    def _spy(monkeypatch):
        """(algorithm, lifetimes already built) at each routing run, plus its series."""
        import lislsim.cli as cli_mod

        seen, series_seen = [], []
        real = cli_mod.run_algorithm

        def spy(name, series, *args, **kwargs):
            seen.append((name, series._runs is not None))
            series_seen.append(series)
            return real(name, series, *args, **kwargs)

        monkeypatch.setattr(cli_mod, "run_algorithm", spy)
        return seen, series_seen

    @pytest.mark.parametrize("name", LIFETIME_ALGORITHMS)
    def test_run_builds_lifetimes_before_the_clock(
        self, tmp_path, tiny_config, tiny_series, monkeypatch, name
    ):
        seen, _ = self._spy(monkeypatch)
        assert main([
            "run", "--config", str(tiny_config), "--series", str(tiny_series),
            "--algorithm", name, "--out", str(tmp_path / "out"),
        ]) == 0
        assert seen == [(name, True)]

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

    def test_sweep_builds_lifetimes_before_the_first_isasr_cell(
        self, tmp_path, tiny_config, tiny_series, monkeypatch
    ):
        seen, _ = self._spy(monkeypatch)
        assert main([
            "sweep", "--config", str(tiny_config), "--series", str(tiny_series),
            "--out", str(tmp_path / "sweep"),
        ]) == 0
        assert seen == [("ilsr", False), ("ilpr", False), ("alpr", False), ("alpr", False),
                        ("isasr", True), ("isasr", True)]


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
            (["sweep"], ("eta_s_ms = 1, 1000", "eta_s_ms = 1, inf")),
            (["run", "--algorithm", "alpr"], ("[run]\n", "[run]\nhistogram_bin_ms = 1e-12\n")),
            (["sweep"], ("eta_s_ms = 1, 1000\nqos_ms = 30, 60",
                         "eta_s_ms = 1, 1\nqos_ms = 27, 30")),
            (["sweep"], ("algorithms = ilsr, ilpr, alpr, isasr", "algorithms = ilsr, ilsr")),
        ],
        ids=[
            "run-eta-nan", "run-eta-negative", "run-eta-inf", "run-gamma-nan",
            "run-gamma-negative", "run-thrsh-nan", "run-thrsh-zero", "sweep-gamma-nan",
            "sweep-gamma-list-inf", "sweep-gamma-list-repeated", "sweep-config-eta-inf", "run-histogram-bin-tiny",
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
        assert "error: " in capsys.readouterr().err
        assert not out.exists()


class TestVerificationFailureExit:
    def test_sweep_exits_2_when_identity_breaks(self, tmp_path, tiny_config, tiny_series, monkeypatch):
        import lislsim.cli as cli_mod

        real = cli_mod.metrics.evaluate

        def corrupted(*args, **kwargs):
            report = real(*args, **kwargs)
            report.mean_eta_le_ms += 1.0  # break the decomposition identity
            return report

        monkeypatch.setattr(cli_mod.metrics, "evaluate", corrupted)
        rc = main([
            "sweep", "--config", str(tiny_config), "--series", str(tiny_series),
            "--out", str(tmp_path / "broken"),
        ])
        assert rc == 2


class TestScheduleGaps:
    def test_gap_rows_round_trip(self, tmp_path):
        from lislsim.routing import Route, RoutingSchedule

        series = dominance_toy_series()
        routes = [Route((6, 0, 4, 7)), None, Route((6, 1, 5, 7)), None, None, Route((6, 1, 5, 7))]
        schedule = RoutingSchedule("by-hand", 6, 7, routes, series)
        path = tmp_path / "gappy.txt"
        write_schedule(schedule, path)
        assert schedule_file_routes(path)[1] == [r.nodes if r else None for r in routes]
