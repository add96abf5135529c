import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from ristrack import ConfigError, ScenarioConfig, load_config
from ristrack.config import _SCHEMA, override_config
from ristrack.simengine import ExhaustivePolicy, OraclePolicy, ProposedPolicy


def write(tmp_path, text):
    path = tmp_path / "scenario.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestDefaults:
    def test_empty_file_gives_reference_setup(self, tmp_path):
        cfg = load_config(write(tmp_path, ""))
        g = cfg.geometry
        assert g.n_tx == 16
        assert g.n_ris == 64
        assert g.theta1 == pytest.approx(np.deg2rad(45.0))
        assert g.snr_linear == pytest.approx(10.0)
        assert g.wavelength == 0.005
        assert g.spacing_d == pytest.approx(0.0025)
        t = cfg.trajectory
        assert t.speed_v == pytest.approx(0.6)
        assert t.slot_duration_t0 == pytest.approx(15.6e-6)
        assert t.theta2_init == pytest.approx(np.deg2rad(20.0))
        assert t.psi_a == pytest.approx(np.deg2rad(110.0))
        assert cfg.gamma == 0.9
        assert cfg.gamma_exh == 0.5
        assert cfg.grid.n_sol == 7
        assert cfg.threshold_mode == "normalized"
        assert cfg.seeds == (1,)

    def test_default_algorithms(self, tmp_path):
        cfg = load_config(write(tmp_path, ""))
        assert cfg.algorithms == ("proposed", "exhaustive:1", "exhaustive:5",
                                  "exhaustive:10", "oracle")


def leaf_fields(cfg):
    """Every scalar setting of a config, keyed "field" or "holder.field"."""
    out = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            for g in dataclasses.fields(value):
                out[f"{f.name}.{g.name}"] = getattr(value, g.name)
        else:
            out[f.name] = value
    return out


# key: (a valid non-default value, the one field it must change)
NON_DEFAULT = {
    "n_tx": ("8", "geometry.n_tx"),
    "n_ris": ("32", "geometry.n_ris"),
    "wavelength_m": ("0.01", "geometry.wavelength"),
    "spacing_m": ("0.002", "geometry.spacing"),
    "theta1_deg": ("30", "geometry.theta1"),
    "r1_m": ("2", "geometry.r1"),
    "snr_db": ("20", "geometry.snr_linear"),
    "theta2_init_deg": ("10", "trajectory.theta2_init"),
    "r2_init_m": ("3", "trajectory.r2_init"),
    "psi_a_deg": ("90", "trajectory.psi_a"),
    "speed_mps": ("1.2", "trajectory.speed_v"),
    "slot_duration_s": ("1e-5", "trajectory.slot_duration_t0"),
    "path_length_m": ("1", "trajectory.path_length"),
    "segments": ("70:1", "continuations"),
    "algorithms": ("proposed, oracle", "algorithms"),
    "gamma": ("0.8", "gamma"),
    "gamma_exh": ("0.4", "gamma_exh"),
    "threshold_mode": ("absolute", "threshold_mode"),
    "n_sol": ("3", "grid.n_sol"),
    "theta2_halfwidth_deg": ("3", "grid.theta2_halfwidth"),
    "theta2_step_deg": ("0.1", "grid.theta2_step"),
    "r_halfwidth_m": ("0.01", "grid.r_halfwidth"),
    "seeds": ("2", "seeds"),
    "output_dir": ("elsewhere", "output_dir"),
}


class TestSchema:
    def test_empty_file_is_default_config(self, tmp_path):
        assert load_config(write(tmp_path, "")) == ScenarioConfig()

    def test_every_key_is_listed_here(self):
        assert set(NON_DEFAULT) == set(_SCHEMA)

    @pytest.mark.parametrize("key", sorted(NON_DEFAULT))
    def test_each_key_changes_exactly_its_field(self, tmp_path, key):
        raw, target = NON_DEFAULT[key]
        section = _SCHEMA[key][0]
        cfg = load_config(write(tmp_path, f"[{section}]\n{key} = {raw}\n"))
        before, after = leaf_fields(ScenarioConfig()), leaf_fields(cfg)
        assert [f for f in before if before[f] != after[f]] == [target]

    def test_constructor_checks_values(self):
        with pytest.raises(ConfigError, match=r"\[tracker\] gamma:"):
            ScenarioConfig(gamma=1.5)
        with pytest.raises(ConfigError, match=r"\[run\] seeds:"):
            dataclasses.replace(ScenarioConfig(), seeds=(1, 1))
        with pytest.raises(ConfigError, match=r"\[tracker\] algorithms:"):
            ScenarioConfig(algorithms=("exhaustive:0",))
        assert ScenarioConfig(threshold_mode="absolute", gamma=1000).gamma == 1000

    def test_object_check_names_section_and_key(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[trajectory\] speed_mps: speed_v"):
            load_config(write(tmp_path, "[trajectory]\nspeed_mps = 0\n"))
        with pytest.raises(ConfigError, match=r"\[trajectory\] speed_mps: speed_v"):
            override_config(ScenarioConfig(), "speed_mps", "0")
        with pytest.raises(ConfigError, match=r"\[geometry\] n_ris: n_ris must be >= 2"):
            load_config(write(tmp_path, "[geometry]\nn_ris = 1\n"))

    def test_readme_scenario_block_loads(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = re.search(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"), re.DOTALL)
        cfg = load_config(write(tmp_path, block.group(1)))
        assert cfg.seeds == (1, 2, 3)


class TestOverrides:
    def test_wavelength_alone_keeps_half_wavelength_spacing(self, tmp_path):
        cfg = load_config(write(tmp_path, "[geometry]\nwavelength_m = 0.01\n"))
        assert cfg.geometry.spacing_d == 0.005

    def test_speed_override(self, tmp_path):
        cfg = load_config(write(tmp_path, "[trajectory]\nspeed_mps = 1.2\n"))
        assert cfg.trajectory.speed_v == pytest.approx(1.2)

    def test_geometry_and_tracker_overrides(self, tmp_path):
        cfg = load_config(write(tmp_path, """
[geometry]
n_ris = 32
snr_db = 20
r1_m = 2.0
[tracker]
gamma = 0.8
n_sol = 5
algorithms = proposed, oracle
[run]
seeds = 3, 4, 5
output_dir = out
"""))
        assert cfg.geometry.n_ris == 32
        assert cfg.geometry.snr_linear == pytest.approx(100.0)
        assert cfg.geometry.r1 == 2.0
        assert cfg.gamma == 0.8
        assert cfg.grid.n_sol == 5
        assert cfg.seeds == (3, 4, 5)
        assert cfg.output_dir == "out"

    def test_segments_parsed(self, tmp_path):
        cfg = load_config(write(tmp_path, "[trajectory]\nsegments = 70:2.0, 110:1.0\n"))
        assert len(cfg.continuations) == 2
        assert cfg.continuations[0][0] == pytest.approx(np.deg2rad(70.0))
        assert cfg.continuations[0][1] == 2.0

    def test_inline_comments_ignored(self, tmp_path):
        cfg = load_config(write(tmp_path, "[tracker]\ngamma = 0.8  # tighter\n"))
        assert cfg.gamma == 0.8

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # Notepad starts a UTF-8 file with a byte-order mark
        text = "[trajectory]\nspeed_mps = 2\n[tracker]\nalgorithms = proposed, oracle\n"
        bom = tmp_path / "bom.ini"
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf[trajectory]")
        cfg = load_config(str(bom))
        assert cfg == load_config(write(tmp_path, text))
        assert cfg.trajectory.speed_v == 2.0


class TestValidation:
    def test_gamma_above_one_rejected_in_normalized_mode(self, tmp_path):
        with pytest.raises(ConfigError, match="gamma"):
            load_config(write(tmp_path, "[tracker]\ngamma = 1.5\n"))

    def test_gamma_above_one_allowed_in_absolute_mode(self, tmp_path):
        cfg = load_config(write(
            tmp_path, "[tracker]\nthreshold_mode = absolute\ngamma = 1000\n"))
        assert cfg.gamma == 1000

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(write(tmp_path, "[mystery]\nx = 1\n"))

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="n_trx"):
            load_config(write(tmp_path, "[geometry]\nn_trx = 16\n"))
        # the search scores no distance grid, so it has no distance step
        with pytest.raises(ConfigError, match=r"\[tracker\] unknown key 'r_step_m'"):
            load_config(write(tmp_path, "[tracker]\nr_step_m = 0.001\n"))

    def test_semantic_error_names_invariant(self, tmp_path):
        with pytest.raises(ConfigError, match="speed_v"):
            load_config(write(tmp_path, "[trajectory]\nspeed_mps = 0\n"))

    def test_parse_error_carries_line(self, tmp_path):
        with pytest.raises(ConfigError, match="parse error"):
            load_config(write(tmp_path, "[geometry\nn_tx = 16\n"))

    def test_unparseable_value(self, tmp_path):
        with pytest.raises(ConfigError, match="n_tx"):
            load_config(write(tmp_path, "[geometry]\nn_tx = many\n"))

    def test_bad_algorithm(self, tmp_path):
        with pytest.raises(ConfigError, match="algorithms"):
            load_config(write(tmp_path, "[tracker]\nalgorithms = kalman\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.ini"))

    @pytest.mark.parametrize("algorithms,name", [
        ("oracle, proposed, oracle", "oracle"),
        ("exhaustive:5, exhaustive:5.0", "exhaustive_5deg"),
    ])
    def test_repeated_tracker_rejected(self, tmp_path, algorithms, name):
        # a repeat would write the same files twice and share one summary column
        match = rf"^\[tracker\] algorithms: .*repeated: {name}$"
        with pytest.raises(ConfigError, match=match):
            load_config(write(tmp_path, f"[tracker]\nalgorithms = {algorithms}\n"))
        with pytest.raises(ConfigError, match=match):
            override_config(ScenarioConfig(), "algorithms", algorithms)

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\ngamma = 0.5\n",
        "[DEFAULT]\ngamma = 0.5\n[geometry]\nn_tx = 8\n",
        "[DEFAULT]\ngamma = 0.5\n[tracker]\nn_sol = 3\n",
    ])
    def test_default_section_rejected(self, tmp_path, text):
        # configparser would copy the key into every section
        with pytest.raises(ConfigError, match=r"^\[DEFAULT\] gamma"):
            load_config(write(tmp_path, text))


class TestPolicies:
    def test_policy_construction(self, tmp_path):
        cfg = load_config(write(tmp_path, """
[tracker]
algorithms = oracle, proposed, exhaustive:5
gamma = 0.8
gamma_exh = 0.4
"""))
        policies = cfg.policies()
        assert isinstance(policies[0], OraclePolicy) and policies[0].gamma == 0.8
        assert isinstance(policies[1], ProposedPolicy) and policies[1].gamma == 0.8
        assert isinstance(policies[2], ExhaustivePolicy)
        assert policies[2].gamma == 0.4
        assert policies[2].resolution_deg == 5.0
        assert policies[2].name == "exhaustive_5deg"


class TestOverrideConfig:
    def test_sweepable_parameters(self, tmp_path):
        cfg = load_config(write(tmp_path, ""))
        assert override_config(cfg, "gamma", "0.8").gamma == 0.8
        assert override_config(cfg, "tracker.gamma", "0.5").gamma == 0.5
        assert override_config(cfg, "n_sol", "3").grid.n_sol == 3
        assert override_config(cfg, "speed_mps", "1.8").trajectory.speed_v == 1.8
        assert override_config(cfg, "trajectory.speed_mps", "1.2").trajectory.speed_v == 1.2
        assert override_config(cfg, "path_length_m", "0.5").trajectory.path_length == 0.5
        assert override_config(cfg, "algorithms", "oracle").algorithms == ("oracle",)

    def test_keeps_every_other_setting(self, tmp_path):
        cfg = load_config(write(tmp_path, "[trajectory]\npath_length_m = 0.5\n"
                                          "[tracker]\ntheta2_step_deg = 0.1\n"))
        swept = override_config(cfg, "speed_mps", "1.8")
        assert swept == dataclasses.replace(
            cfg, trajectory=dataclasses.replace(cfg.trajectory, speed_v=1.8))
        swept = override_config(cfg, "n_sol", "3")
        assert swept == dataclasses.replace(cfg, grid=dataclasses.replace(cfg.grid, n_sol=3))

    def test_rejects_unknown_or_invalid(self, tmp_path):
        cfg = load_config(write(tmp_path, ""))
        with pytest.raises(ConfigError):
            override_config(cfg, "wavelength_m", "0.01")
        with pytest.raises(ConfigError):
            override_config(cfg, "gamma", "1.5")
        with pytest.raises(ConfigError):
            override_config(cfg, "n_sol", "three")

    @pytest.mark.parametrize("key", ["geometry.gamma", "nonsense.x.gamma", ".gamma",
                                     "tracker.speed_mps", "run.algorithms"])
    def test_prefix_must_be_the_keys_own_section(self, tmp_path, key):
        cfg = load_config(write(tmp_path, ""))
        name = key.rpartition(".")[2]
        with pytest.raises(ConfigError, match=f"{name} belongs to \\[{_SCHEMA[name][0]}\\]"):
            override_config(cfg, key, "0.8")
