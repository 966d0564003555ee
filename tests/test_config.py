"""Config parsing, defaults, and validation."""

import math

import pytest

from lislsim.config import default_config, load_config

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
reset_dropped_edges = true
global_lifetimes = true
histogram_bin_ms = 0.5
seed = 99

[oracle]
instances = 10
max_routes = 3
max_slots = 4
eta_s_ms = 0, 5
"""


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
        assert cfg.gamma_ms is None
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
        assert cfg.gamma_ms == 12.5
        assert cfg.gamma_for(50.0) == 12.5
        assert math.isinf(cfg.cost_thrsh_ms)
        assert cfg.reset_dropped_edges and cfg.global_lifetimes
        assert cfg.seed == 99
        assert cfg.oracle.instances == 10
        assert cfg.oracle.eta_s_ms == (0.0, 5.0)
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

    @pytest.mark.parametrize("text", ["", "[run]\n", "[run]\n[oracle]\n[scenario]\n"],
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

    def test_bad_boolean_rejected(self, tmp_path):
        path = tmp_path / "bad5.ini"
        path.write_text("[run]\nreset_dropped_edges = maybe\n")
        with pytest.raises(ValueError, match="boolean"):
            load_config(path)

    @pytest.mark.parametrize(
        "line,message",
        [
            ("delay_low_ms = nan", "delay bounds"),
            ("delay_high_ms = inf", "delay bounds"),
            ("delay_low_ms = -1", "delay bounds"),
            ("delay_low_ms = 50", "delay bounds"),
            ("eta_s_ms = 0 nan", "setup delays"),
            ("eta_s_ms = 0 inf", "setup delays"),
            ("eta_s_ms = -1", "setup delays"),
        ],
        ids=["low-nan", "high-inf", "low-negative", "low-above-high", "eta-nan", "eta-inf",
             "eta-negative"],
    )
    def test_bad_oracle_values_rejected(self, tmp_path, line, message):
        path = tmp_path / "oracle.ini"
        path.write_text(f"[oracle]\n{line}\n")
        with pytest.raises(ValueError, match=message):
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
