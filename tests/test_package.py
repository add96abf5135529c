import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import ristrack

REMOVED = (
    "CoherentGain",
    "RisConfiguration",
    "SlotRecord",
    "SweepSpec",
    "ap_ris_channel",
    "coherent_gain",
    "cumulative_rate",
    "evolve_channel",
    "follow_on_spec",
    "generate_trajectory",
    "path_loss_linear",
    "r2_at",
    "r_from_eta",
    "received_samples",
    "steering_vector",
    "theta2_at",
)


def test_all_is_sorted_unique_and_resolves():
    names = list(ristrack.__all__)
    assert names == sorted(set(names))
    for name in names:
        assert getattr(ristrack, name) is not None, name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_not_importable(name):
    assert name not in ristrack.__all__
    with pytest.raises(ImportError):
        exec(f"from ristrack import {name}", {})


def test_removed_record_views_and_selftest_module():
    assert not hasattr(ristrack.Timeline, "__getitem__")
    assert not hasattr(ristrack.Timeline, "__iter__")
    assert "__iter__" not in vars(ristrack.Trajectory)
    # the ledger takes simulated runs, and every block of one needs its carry
    assert not hasattr(ristrack.Timeline, "block")
    carry = inspect.signature(ristrack.StatusTimeline.block).parameters["carry"]
    assert carry.default is inspect.Parameter.empty
    for module in ("ristrack.selftest", "ristrack.baselines"):
        with pytest.raises(ImportError):
            importlib.import_module(module)


def test_removed_second_ledger_writer():
    # the ledger module alone writes ledger files, from one entry point
    ledger = importlib.import_module("ristrack.ledger")
    runner = importlib.import_module("ristrack.runner")
    assert not hasattr(ledger, "ledger_chunks")
    assert not hasattr(runner, "write_ledgers")
    assert callable(ledger.write_ledgers)


def test_removed_chaining_field_and_method():
    assert "beta_init" not in {f.name for f in dataclasses.fields(ristrack.TrajectorySpec)}
    assert "slot_index" not in {f.name for f in dataclasses.fields(ristrack.ChannelState)}
    assert not hasattr(ristrack.Trajectory, "final_state")
    # the gain is the engine's alone: a trajectory evaluates none of its own
    traj = ristrack.generate_path(ristrack.TrajectorySpec(path_length=0.001, rng_seed=1), (),
                                  ristrack.LinkGeometry())
    assert not {"beta", "beta_range", "segment_gains"} & set(dir(traj))
    # a trajectory is its b0 and its walk: no anchor state wraps b0
    assert list(inspect.signature(ristrack.Trajectory).parameters) == ["b0", "walk"]
    assert not hasattr(traj, "anchor")
    assert "rss_ref" not in {f.name for f in dataclasses.fields(ristrack.TrackingObservables)}


def test_removed_phase_snap():
    # wrap_two_pi wraps as np.mod does, so no seam width is left to set
    assert not hasattr(importlib.import_module("ristrack.wavefield"), "PHASE_SNAP")


def test_removed_unit_phasors():
    # every complex exponential of the model is np.exp
    assert not hasattr(importlib.import_module("ristrack.wavefield"), "unit_phasors")


def test_readme_quick_start_runs(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.DOTALL)
    exec(compile(block.group(1), "README.md", "exec"), {})
    calls, pct_below, final_rate = capsys.readouterr().out.split()
    assert int(calls) > 0 and 0.0 < float(pct_below) < 1.0 and float(final_rate) > 0.0
