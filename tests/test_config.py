"""Config parsing, defaults, and validation."""

import configparser
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lislsim.config import ExperimentConfig, default_config, load_config
from lislsim.constellation import ConstellationParams, ScenarioParams

FULL_INI = """
[constellation]
num_planes = 6
sats_per_plane = 11
inclination_deg = 70
altitude_km = 600
phasing_factor = 2
epoch_raan_offset_deg = 15

[scenario]
lisl_range_km = 2000
gs_range_km = 1200
node_delay_ms = 0.5
slot_duration_s = 2
num_slots = 30

[ground_stations]
paris = 48.8566, 2.3522
tokyo = 35.6764, 139.6500

[run]
source = paris
destination = tokyo
algorithms = ilsr, isasr
eta_s_ms = 5, 50
gamma = 12.5
cost_thrsh_ms = inf
qos_ms = 20, 25
histogram_bin_ms = 0.5
"""

SECTION_CLASSES = {
    "constellation": ConstellationParams,
    "scenario": ScenarioParams,
    "run": ExperimentConfig,
}
NESTED_FIELDS = {"constellation", "scenario", "ground_stations"}


def section_values(cfg):
    return {"constellation": cfg.constellation, "scenario": cfg.scenario, "run": cfg}


class TestDefaults:
    def test_stock_scenario_constants(self):
        cfg = default_config()
        assert cfg.constellation.num_planes == 24
        assert cfg.constellation.sats_per_plane == 66
        assert cfg.constellation.num_satellites == 1584
        assert cfg.constellation.inclination_deg == 53.0
        assert cfg.constellation.altitude_km == 550.0
        assert cfg.scenario.lisl_range_km == 1500.0
        assert cfg.scenario.gs_range_km == 1000.0
        assert cfg.scenario.node_delay_ms == 1.0
        assert cfg.scenario.num_slots == 600
        assert cfg.scenario.slot_duration_s == 1.0
        assert cfg.cost_thrsh_ms == 100.0
        assert cfg.eta_s_ms == (1.0, 10.0, 100.0, 1000.0)
        assert cfg.qos_ms == (27.0, 30.0, 35.0, 40.0)

    def test_default_stations(self):
        cfg = default_config()
        names = {gs.name: gs for gs in cfg.ground_stations}
        assert set(names) == {"new_york", "london", "hanoi"}
        assert names["new_york"].latitude_deg == pytest.approx(40.7128)
        assert names["hanoi"].longitude_deg == pytest.approx(105.8542)
        # station ids follow the satellite block
        assert sorted(gs.id for gs in cfg.ground_stations) == [1584, 1585, 1586]

    def test_gamma_tracks_setup_delay_by_default(self):
        cfg = default_config()
        assert cfg.gamma is None
        assert cfg.gamma_for(123.0) == 123.0

    def test_qos_pairing_lookup(self):
        cfg = default_config()
        assert cfg.qos_for(1000.0) == 40.0
        assert cfg.qos_for(10.0) == 30.0
        with pytest.raises(KeyError):
            cfg.qos_for(7.0)


class TestLoadConfig:
    def test_full_file(self, tmp_path):
        path = tmp_path / "full.ini"
        path.write_text(FULL_INI)
        cfg = load_config(path)
        assert cfg.constellation.num_planes == 6
        assert cfg.constellation.phasing_factor == 2
        assert cfg.scenario.num_slots == 30
        assert cfg.source == "paris" and cfg.destination == "tokyo"
        assert cfg.algorithms == ("ilsr", "isasr")
        assert cfg.eta_s_ms == (5.0, 50.0)
        assert cfg.gamma == 12.5
        assert cfg.gamma_for(50.0) == 12.5
        assert math.isinf(cfg.cost_thrsh_ms)
        ids = sorted(gs.id for gs in cfg.ground_stations)
        assert ids == [66, 67]  # right after the 6 x 11 satellites

    def test_partial_file_keeps_defaults(self, tmp_path):
        path = tmp_path / "partial.ini"
        path.write_text("[scenario]\nnum_slots = 12\n")
        cfg = load_config(path)
        assert cfg.scenario.num_slots == 12
        assert cfg.scenario.lisl_range_km == 1500.0
        assert cfg.constellation.num_planes == 24
        assert cfg.source == "new_york"

    @pytest.mark.parametrize("text", ["", "[run]\n", "[run]\n[scenario]\n"],
                             ids=["no-sections", "empty-run", "empty-sections"])
    def test_file_without_values_loads_the_defaults(self, tmp_path, text):
        path = tmp_path / "empty.ini"
        path.write_text(text)
        assert load_config(path) == default_config()

    def test_default_stations_follow_a_custom_shell(self, tmp_path):
        path = tmp_path / "shell.ini"
        path.write_text("[constellation]\nnum_planes = 2\nsats_per_plane = 5\n")
        cfg = load_config(path)
        assert [gs.id for gs in cfg.ground_stations] == [10, 11, 12]
        assert [gs.name for gs in cfg.ground_stations] == [
            gs.name for gs in default_config().ground_stations
        ]

    def test_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_config(tmp_path / "absent.ini")

    def test_qos_pairing_length_enforced(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\neta_s_ms = 1, 10\nqos_ms = 40\n")
        with pytest.raises(ValueError, match="pair"):
            load_config(path)

    def test_non_positive_setup_delay_rejected(self, tmp_path):
        path = tmp_path / "bad2.ini"
        path.write_text("[run]\neta_s_ms = 0, 10\nqos_ms = 30, 40\n")
        with pytest.raises(ValueError, match="positive"):
            load_config(path)

    def test_unknown_endpoint_rejected(self, tmp_path):
        path = tmp_path / "bad3.ini"
        path.write_text("[run]\nsource = atlantis\n")
        with pytest.raises(ValueError, match="atlantis"):
            load_config(path)

    def test_unknown_algorithm_rejected(self, tmp_path):
        path = tmp_path / "bad4.ini"
        path.write_text("[run]\nalgorithms = ilsr, rip\n")
        with pytest.raises(ValueError, match="rip"):
            load_config(path)

    @pytest.mark.parametrize(
        "run_section,message",
        [
            ("eta_s_ms = nan, 10\nqos_ms = 30, 40", "setup-delay"),
            ("eta_s_ms = inf, 10\nqos_ms = 30, 40", "setup-delay"),
            ("eta_s_ms = -5, 10\nqos_ms = 30, 40", "setup-delay"),
            ("qos_ms = nan, 30, 35, 40", "QoS"),
            ("qos_ms = 27, inf, 35, 40", "QoS"),
            ("gamma = nan", "gamma"),
            ("gamma = inf", "gamma"),
            ("gamma = -1", "gamma"),
            ("cost_thrsh_ms = nan", "cost threshold"),
            ("cost_thrsh_ms = 0", "cost threshold"),
            ("histogram_bin_ms = nan", "histogram bin width"),
            ("histogram_bin_ms = inf", "histogram bin width"),
            ("histogram_bin_ms = 0", "histogram bin width"),
        ],
        ids=[
            "eta-nan", "eta-inf", "eta-negative", "qos-nan", "qos-inf", "gamma-nan",
            "gamma-inf", "gamma-negative", "thrsh-nan", "thrsh-zero", "bin-nan", "bin-inf",
            "bin-zero",
        ],
    )
    def test_non_finite_or_out_of_range_values_rejected(self, tmp_path, run_section, message):
        path = tmp_path / "bad6.ini"
        path.write_text(f"[run]\n{run_section}\n")
        with pytest.raises(ValueError, match=message):
            load_config(path)

    @pytest.mark.parametrize(
        "section,line,message",
        [
            ("constellation", "altitude_km = nan", "altitude"),
            ("constellation", "altitude_km = inf", "altitude"),
            ("constellation", "altitude_km = 0", "altitude"),
            ("constellation", "epoch_raan_offset_deg = nan", "RAAN offset"),
            ("constellation", "epoch_raan_offset_deg = -inf", "RAAN offset"),
            ("scenario", "lisl_range_km = nan", "link ranges"),
            ("scenario", "lisl_range_km = inf", "link ranges"),
            ("scenario", "gs_range_km = nan", "link ranges"),
            ("scenario", "gs_range_km = inf", "link ranges"),
            ("scenario", "slot_duration_s = nan", "slot duration"),
            ("scenario", "slot_duration_s = inf", "slot duration"),
            ("scenario", "node_delay_ms = nan", "node delay"),
            ("scenario", "node_delay_ms = inf", "node delay"),
            ("scenario", "node_delay_ms = -1", "node delay"),
        ],
        ids=[
            "altitude-nan", "altitude-inf", "altitude-zero", "raan-nan", "raan-inf",
            "lisl-nan", "lisl-inf", "gs-nan", "gs-inf", "slot-nan", "slot-inf",
            "node-delay-nan", "node-delay-inf", "node-delay-negative",
        ],
    )
    def test_non_finite_shell_and_scenario_values_rejected(self, tmp_path, section, line, message):
        path = tmp_path / "bad7.ini"
        path.write_text(f"[{section}]\n{line}\n")
        with pytest.raises(ValueError, match=message):
            load_config(path)


class TestFieldSchema:
    """The parameter dataclasses' fields are the only list of config keys."""

    def test_full_ini_names_every_settable_field(self):
        parser = configparser.ConfigParser()
        parser.read_string(FULL_INI)
        for section, cls in SECTION_CLASSES.items():
            assert set(parser[section]) == {f.name for f in fields(cls)} - NESTED_FIELDS, section

    def test_full_ini_sets_every_field(self, tmp_path):
        path = tmp_path / "full.ini"
        path.write_text(FULL_INI)
        loaded, base = section_values(load_config(path)), section_values(default_config())
        for section, cls in SECTION_CLASSES.items():
            for f in fields(cls):
                if f.name not in NESTED_FIELDS:
                    assert getattr(loaded[section], f.name) != getattr(base[section], f.name), (
                        section, f.name,
                    )

    def test_readme_example_config_is_the_default(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        path = tmp_path / "readme.ini"
        path.write_text(block)
        assert load_config(path) == default_config()

    @pytest.mark.parametrize("section", [*SECTION_CLASSES, "DEFAULT"])
    def test_unknown_key_rejected(self, tmp_path, section):
        path = tmp_path / "unknown.ini"
        path.write_text(f"[{section}]\nbogus = 7\n")
        with pytest.raises(ValueError, match="unknown key 'bogus'"):
            load_config(path)

    @pytest.mark.parametrize("line", ["eta_s = 5", "gamma_ms = 5", "constellation = 1"])
    def test_near_miss_and_nested_run_keys_rejected(self, tmp_path, line):
        path = tmp_path / "near.ini"
        path.write_text(f"[run]\n{line}\n")
        with pytest.raises(ValueError, match=r"unknown key .* in \[run\]"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "typo.ini"
        path.write_text("[sceanrio]\nnum_slots = 5\n")
        with pytest.raises(ValueError, match=r"unknown config section \[sceanrio\]"):
            load_config(path)

    def test_parse_error_names_key_and_section(self, tmp_path):
        path = tmp_path / "value.ini"
        path.write_text("[scenario]\nnum_slots = many\n")
        with pytest.raises(ValueError, match=r"num_slots in \[scenario\]"):
            load_config(path)


class TestEmptyLists:
    @pytest.mark.parametrize(
        "text,message",
        [
            ("[run]\nalgorithms =\n", "at least one algorithm"),
            ("[run]\neta_s_ms =\nqos_ms =\n", "one setup delay"),
        ],
        ids=["run-algorithms", "run-eta-and-qos"],
    )
    def test_rejected(self, tmp_path, text, message):
        path = tmp_path / "empty.ini"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_config(path)


FUZZ_KEYS = sorted(
    {f.name for cls in SECTION_CLASSES.values() for f in fields(cls)} | {"new_york", "bogus"}
)
FUZZ_VALUES = (
    "", "0", "1", "-1", "2.5", "nan", "inf", "auto", "true", "maybe", "1, 2", "5 50",
    "ilsr, isasr", "rip", "new_york", "london", "40.7, -74.0", "%(x)s", "%%", "10" * 30,
)
FUZZ_LINES = st.one_of(
    st.sampled_from([*SECTION_CLASSES, "ground_stations", "DEFAULT", "sceanrio"]).map(
        lambda name: f"[{name}]"
    ),
    st.tuples(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES)).map(" = ".join),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


class TestConfigFuzz:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_config_loads_or_raises_value_error(self, tmp_path_factory, data):
        lines = FULL_INI.splitlines()
        for _ in range(data.draw(st.integers(1, 4))):
            i = data.draw(st.integers(0, len(lines)))
            op = data.draw(st.sampled_from(["insert", "replace", "drop", "repeat"]))
            if op == "drop":
                del lines[i:i + 1]
            elif op == "repeat":
                lines[i:i] = lines[i:i + 1]
            else:
                lines[i:i + (op == "replace")] = [data.draw(FUZZ_LINES)]
        path = tmp_path_factory.mktemp("cfg") / "fuzz.ini"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            cfg = load_config(path)
        except ValueError:
            return
        assert isinstance(cfg, ExperimentConfig)
