import configparser
import os
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from ristrack import ledger, runner
from ristrack.cli import main
from ristrack.config import load_config
from ristrack.ledger import LEDGER_HEADER
from ristrack.simengine import SlotKind

TINY_SCENARIO = """
[geometry]
r1_m = 2.0
[trajectory]
r2_init_m = 2.0
path_length_m = 0.03
[tracker]
algorithms = proposed, oracle
[run]
seeds = 1
"""


def write_scenario(tmp_path, text=TINY_SCENARIO, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def row_wise_ledger(tl):
    """Reference ledger text: one f-string per row on numpy scalars."""
    theta_deg = np.rad2deg(tl.theta2_true)
    # each derived column read once, over every slot
    kind, rss_norm, inst, cum, status, config = (tl.kind, tl.rss_normalized, tl.inst_rate,
                                                 tl.cum_rate, tl.status_id, tl.config_id)
    lines = [LEDGER_HEADER]
    for i in range(len(tl)):
        lines.append(
            f"{i + 1},{SlotKind(int(kind[i])).name},{tl.rss[i]:.12g},"
            f"{rss_norm[i]:.12g},{inst[i]:.12g},{cum[i]:.12g},"
            f"{int(status[i])},{int(config[i])},{theta_deg[i]:.12g}"
        )
    return "\n".join(lines) + "\n"


def run_keeping_timelines(tmp_path, monkeypatch, text):
    """`ristrack run` on a scenario; returns its timelines and output directory."""
    timelines = []
    real_run_timeline = runner.run_timeline

    def keep(*args, **kwargs):
        timelines.append(real_run_timeline(*args, **kwargs))
        return timelines[-1]

    monkeypatch.setattr(runner, "run_timeline", keep)
    out = tmp_path / "out"
    assert main(["run", write_scenario(tmp_path, text), "--out", str(out)]) == 0
    return timelines, out


def refuse_walks(*args, **kwargs):
    raise AssertionError("a walk was simulated")


def assert_ledgers_match_row_wise(timelines, out):
    for tl in timelines:
        written = (out / f"{tl.policy_name}_seed1_slots.csv").read_bytes()
        assert written == row_wise_ledger(tl).encode("utf-8"), tl.policy_name


class TestRunCommand:
    def test_run_writes_all_artifacts(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        for stem in ("proposed_seed1", "oracle_seed1"):
            assert (out / f"{stem}_slots.csv").is_file()
            assert (out / f"{stem}_summary.txt").is_file()
        assert (out / "summary.txt").is_file()
        assert not list(out.glob("*_cumrate.csv"))
        assert "proposed seed=1" in capsys.readouterr().out

    def test_ledger_schema(self, tmp_path):
        cfg = write_scenario(tmp_path)
        out = tmp_path / "out"
        main(["run", cfg, "--out", str(out)])
        lines = (out / "proposed_seed1_slots.csv").read_text().splitlines()
        assert lines[0] == LEDGER_HEADER
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[1] in ("DATA", "DATA_BELOW_THRESHOLD", "DL_TRAINING", "UL_FEEDBACK")
        assert len(first) == 9

    def test_ledger_matches_row_wise_reference(self, tmp_path, monkeypatch):
        block = 9
        monkeypatch.setattr(ledger, "LEDGER_BLOCK_ROWS", block)
        timelines, out = run_keeping_timelines(tmp_path, monkeypatch, TINY_SCENARIO.replace(
            "proposed, oracle", "proposed, exhaustive:10, oracle"))
        assert len(timelines) == 3
        kinds = np.concatenate([tl.kind for tl in timelines])
        assert set(kinds.tolist()) == {int(k) for k in SlotKind}
        proposed = timelines[0].kind
        # a partial last block, and a block boundary inside a tracking event
        assert len(proposed) % block != 0
        assert any(proposed[i - 1] and proposed[i] for i in range(block, len(proposed), block))
        assert_ledgers_match_row_wise(timelines, out)

    def test_exponent_and_negative_cells_match_row_wise_reference(self, tmp_path, monkeypatch):
        # the walk crosses theta2 = 0 within a few slots
        timelines, out = run_keeping_timelines(tmp_path, monkeypatch, TINY_SCENARIO.replace(
            "path_length_m = 0.03", "path_length_m = 0.001\ntheta2_init_deg = -0.00055"))
        text = (out / "proposed_seed1_slots.csv").read_text()
        cells = [c for row in text.splitlines()[1:] for c in row.split(",")[2:]]
        assert any(c.startswith("-") and "e" not in c for c in cells)
        assert any(c.startswith("-") and "e-05" in c for c in cells)
        assert_ledgers_match_row_wise(timelines, out)

    def test_one_slot_ledger_matches_row_wise_reference(self, tmp_path, monkeypatch):
        timelines, out = run_keeping_timelines(tmp_path, monkeypatch, TINY_SCENARIO.replace(
            "path_length_m = 0.03", "path_length_m = 0.000001"))
        assert [len(tl) for tl in timelines] == [1, 1]
        assert_ledgers_match_row_wise(timelines, out)

    def test_ledgers_of_another_trajectory_rejected_before_writing(self, tmp_path, monkeypatch):
        timelines, _ = run_keeping_timelines(tmp_path, monkeypatch, TINY_SCENARIO)
        first, second = timelines
        paths = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
        with pytest.raises(ValueError, match="slots"):
            ledger.write_ledgers(paths, [first, replace(second, rss=second.rss[:-1])])
        with pytest.raises(ValueError, match="theta2_true differs"):
            ledger.write_ledgers(paths, [first, replace(second, theta2_true=-second.theta2_true)])
        with pytest.raises(ValueError, match="2 paths for 1 timelines"):
            ledger.write_ledgers(paths, [first])
        assert not any(os.path.exists(p) for p in paths)

    def test_results_keep_no_columns(self, tmp_path):
        cfg = load_config(write_scenario(tmp_path))
        results = runner.run_scenario(cfg, out_dir=str(tmp_path / "out"))
        assert len(results) == 2

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif is_dataclass(value):
                for f in fields(value):
                    yield from arrays(getattr(value, f.name))

        for r in results:
            assert all(a.size <= 1 for a in arrays(r)), r.policy_name
            assert r.metrics.cumulative_rate_series[-1] == r.metrics.final_cum_rate
            summary = (tmp_path / "out" / f"{r.policy_name}_seed1_summary.txt").read_text()
            assert f"final_cum_rate: {r.metrics.final_cum_rate:.12g}\n" in summary

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_scenario(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out", str(out_a)]) == 0
        assert main(["run", cfg, "--out", str(out_b)]) == 0
        for name in sorted(os.listdir(out_a)):
            with open(out_a / name, "rb") as fa, open(out_b / name, "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_summary_mentions_zero_training_for_oracle(self, tmp_path):
        cfg = write_scenario(tmp_path)
        out = tmp_path / "out"
        main(["run", cfg, "--out", str(out)])
        ledger = (out / "oracle_seed1_slots.csv").read_text()
        assert "DL_TRAINING" not in ledger
        assert "UL_FEEDBACK" not in ledger

    def test_env_var_output_override(self, tmp_path, monkeypatch):
        cfg = write_scenario(tmp_path)
        target = tmp_path / "from_env"
        monkeypatch.setenv("RISTRACK_OUTDIR", str(target))
        assert main(["run", cfg]) == 0
        assert (target / "summary.txt").is_file()

    def test_empty_env_var_keeps_the_scenario_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from_file"
        cfg = write_scenario(tmp_path, TINY_SCENARIO + f"output_dir = {target}\n")
        monkeypatch.setenv("RISTRACK_OUTDIR", "")
        assert main(["run", cfg]) == 0
        assert (target / "summary.txt").is_file()


class TestSweepCommand:
    def test_candidate_size_sweep(self, tmp_path):
        cfg = write_scenario(tmp_path, TINY_SCENARIO)
        out = tmp_path / "sweep"
        assert main(["sweep", cfg, "--vary", "n_sol=2,4", "--out", str(out)]) == 0
        sweep_csv = out / "sweep_n_sol.csv"
        assert sweep_csv.is_file()
        lines = sweep_csv.read_text().splitlines()
        assert lines[0].startswith("param,value,tracker,seed")
        # 2 values x 2 trackers x 1 seed
        assert len(lines) == 1 + 4
        assert (out / "n_sol=2" / "summary.txt").is_file()

    def test_vary_argument_validated(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path)
        out = tmp_path / "s"
        assert main(["sweep", cfg, "--vary", "n_sol", "--out", str(out)]) == 1
        assert "configuration error" in capsys.readouterr().err
        assert main(["sweep", cfg, "--vary", "gamma=0.9,0.8,0.9", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "gamma" in err
        assert not out.exists()

    @pytest.mark.parametrize("vary", ["gamma=0.9,0.90",
                                      "algorithms=exhaustive:5,exhaustive:5.0"])
    def test_values_giving_one_scenario_are_one(self, tmp_path, capsys, vary):
        cfg = write_scenario(tmp_path)
        out = tmp_path / "s"
        assert main(["sweep", cfg, "--vary", vary, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "same scenario" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["geometry.gamma", "nonsense.x.gamma"])
    def test_vary_prefix_must_be_the_keys_section(self, tmp_path, capsys, key):
        cfg = write_scenario(tmp_path)
        out = tmp_path / "s"
        assert main(["sweep", cfg, "--vary", f"{key}=0.8", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and key in err and "[tracker]" in err
        assert not out.exists()
        assert main(["sweep", cfg, "--vary", "tracker.gamma=0.8", "--out", str(out)]) == 0
        assert (out / "sweep_gamma.csv").is_file()


class TestExitCodes:
    def test_config_error_is_one(self, tmp_path, capsys):
        bad = write_scenario(tmp_path, "[tracker]\ngamma = 1.5\n")
        assert main(["run", bad]) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("tracker", "gamma_exh", "-1"),
        ("tracker", "algorithms", "exhaustive:0"),
        ("tracker", "algorithms", "exhaustive:nan"),
        ("run", "seeds", "-1"),
        ("run", "seeds", "1, 1"),
        ("geometry", "n_ris", "1"),
        # non-finite values, which used to run on or fail at run time
        ("geometry", "r1_m", "nan"),
        ("geometry", "snr_db", "nan"),
        ("geometry", "snr_db", "4000"),
        ("trajectory", "speed_mps", "nan"),
        ("trajectory", "path_length_m", "inf"),
        ("trajectory", "segments", "70:1.0, -inf:1.0"),
        # a non-positive segment length is a configuration error, not a runtime one
        ("trajectory", "segments", "70:0"),
        ("trajectory", "segments", "70:1.0, 110:-1"),
        ("tracker", "gamma", "nan"),
    ])
    def test_bad_value_is_one_from_file_and_vary(self, tmp_path, capsys, section, key, value):
        parser = configparser.ConfigParser()
        parser.read_string(TINY_SCENARIO)
        parser.set(section, key, value)
        bad = tmp_path / "bad.ini"
        with open(bad, "w", encoding="utf-8") as fh:
            parser.write(fh)
        assert main(["run", str(bad), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and key in err
        cfg = write_scenario(tmp_path)
        vary = ["sweep", cfg, "--vary", f"{key}={value}", "--out", str(tmp_path / "sweep")]
        assert main(vary) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and key in err

    @pytest.mark.parametrize("algorithms", ["oracle, oracle", "exhaustive:5, exhaustive:5.0"])
    def test_repeated_tracker_is_one(self, tmp_path, capsys, algorithms):
        bad = write_scenario(tmp_path, TINY_SCENARIO.replace("proposed, oracle", algorithms))
        assert main(["run", bad, "--out", str(tmp_path / "run")]) == 1
        assert "configuration error: [tracker] algorithms" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        # --vary splits on commas, so each of its values names one tracker
        cfg = write_scenario(tmp_path)
        vary = ["sweep", cfg, "--vary", "algorithms=oracle,oracle", "--out", str(tmp_path / "s")]
        assert main(vary) == 1
        assert "configuration error: algorithms" in capsys.readouterr().err

    def test_default_section_is_one(self, tmp_path, capsys):
        bad = write_scenario(tmp_path, "[DEFAULT]\ngamma = 0.5\n" + TINY_SCENARIO)
        assert main(["run", bad, "--out", str(tmp_path / "run")]) == 1
        assert "configuration error: [DEFAULT] gamma" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    # the signal scale is snr_db and n_tx alone: the noise has unit power,
    # the AP-RIS path gain is 1 and E|b0|^2 = 1
    @pytest.mark.parametrize("section,key", [("geometry", "alpha"), ("geometry", "noise_var"),
                                             ("trajectory", "rayleigh_scale")])
    def test_a_removed_scale_key_is_one(self, tmp_path, capsys, section, key):
        bad = write_scenario(tmp_path, TINY_SCENARIO.replace(f"[{section}]\n",
                                                             f"[{section}]\n{key} = 1\n"))
        assert main(["run", bad, "--out", str(tmp_path / "run")]) == 1
        assert f"configuration error: [{section}] unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unknown_key_after_byte_order_mark_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bom.ini"
        bad.write_text(TINY_SCENARIO + "n_trx = 16\n", encoding="utf-8-sig")
        assert main(["run", str(bad), "--out", str(tmp_path / "run")]) == 1
        assert "configuration error: [run] unknown key 'n_trx'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--vary", "gamma=0.9,0.8"]])
    def test_empty_out_is_one_before_any_walk(self, tmp_path, monkeypatch, capsys, command):
        cfg = write_scenario(tmp_path)
        monkeypatch.setattr(runner, "generate_path", refuse_walks)
        monkeypatch.chdir(tmp_path)
        assert main([command[0], cfg, *command[1:], "--out", ""]) == 1
        assert "configuration error: --out" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.ini"]

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--vary", "gamma=0.9,0.8"]])
    @pytest.mark.parametrize("source", ["--out", "RISTRACK_OUTDIR", "output_dir"])
    @pytest.mark.parametrize("below", ["", "/sub"])
    def test_a_file_in_the_output_path_is_one_before_any_walk(self, tmp_path, monkeypatch,
                                                              capsys, command, source, below):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        out = str(blocker) + below
        text = TINY_SCENARIO + (f"output_dir = {out}\n" if source == "output_dir" else "")
        cfg = write_scenario(tmp_path, text)
        args = [command[0], cfg, *command[1:]]
        if source == "--out":
            args += ["--out", out]
        monkeypatch.setenv("RISTRACK_OUTDIR", out if source == "RISTRACK_OUTDIR" else "")
        monkeypatch.setattr(runner, "generate_path", refuse_walks)
        assert main(args) == 1
        assert (f"configuration error: output directory {out!r}: {str(blocker)!r} is not a "
                "directory") in capsys.readouterr().err
        assert blocker.read_text() == "a file, not a directory"

    def test_a_file_named_as_a_sweep_value_is_one_before_any_walk(self, tmp_path,
                                                                  monkeypatch, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "gamma=0.8").write_text("a file, not a directory")
        monkeypatch.setattr(runner, "generate_path", refuse_walks)
        assert main(["sweep", write_scenario(tmp_path), "--vary", "gamma=0.9,0.8",
                     "--out", str(out)]) == 1
        assert (f"configuration error: output directory {str(out / 'gamma=0.8')!r}"
                in capsys.readouterr().err)
        assert sorted(p.name for p in out.iterdir()) == ["gamma=0.8"]

    def test_missing_config_is_one(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.ini")]) == 1

    def test_unwritable_output_is_two(self, tmp_path):
        # a directory where a ledger goes fails only when that ledger is written
        cfg = write_scenario(tmp_path)
        out = tmp_path / "out"
        (out / "proposed_seed1_slots.csv").mkdir(parents=True)
        assert main(["run", cfg, "--out", str(out)]) == 2

    def test_walk_behind_the_surface_is_two_in_one_segment_or_two(self, tmp_path, capsys):
        walk = "[trajectory]\ntheta2_init_deg = 80\nr2_init_m = 1\npsi_a_deg = 150\n"
        one = write_scenario(tmp_path, walk + "path_length_m = 3\n", "one.ini")
        two = write_scenario(tmp_path, walk + "path_length_m = 1.5\nsegments = 150:1.5\n",
                             "two.ini")
        errors = []
        for cfg in (one, two):
            assert main(["run", cfg, "--out", str(tmp_path / "run")]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "front half-plane (-90, 90) deg at slot 54243" in errors[0]
        assert "theta2_init" not in errors[0]

    def test_search_window_wider_than_the_distance_is_two(self, tmp_path, capsys):
        # the search's precondition fails on the first tracking event
        cfg = write_scenario(tmp_path, TINY_SCENARIO.replace(
            "[tracker]\n", "[tracker]\nr_halfwidth_m = 5\n"))
        assert main(["run", cfg, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "runtime error: distance window too close to the surface" in err
        assert "r_halfwidth=5.0, wavelength=0.005" in err and "r_ref=4.0" in err

    def test_walk_behind_the_surface_leaves_no_output_directory(self, tmp_path):
        cfg = write_scenario(tmp_path, "[trajectory]\ntheta2_init_deg = 80\nr2_init_m = 1\n"
                             "psi_a_deg = 150\n")
        assert main(["run", cfg, "--out", str(tmp_path / "out_one")]) == 2
        assert main(["sweep", cfg, "--vary", "gamma=0.9,0.8",
                     "--out", str(tmp_path / "sweep_one")]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.ini"]

    def test_help_lists_run_and_sweep_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "{run,sweep}" in capsys.readouterr().out
