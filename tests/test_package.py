import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import ristrack

ROOT = Path(__file__).resolve().parents[1]

# the public API, exactly: a name added or removed is a change of this list
PUBLIC = [
    "CandidatePair", "ChannelState", "ConfigError", "ExhaustivePolicy", "LinkGeometry",
    "OraclePolicy", "ProposedPolicy", "RunMetrics", "RunResult", "ScenarioConfig",
    "SearchGrid", "SlotKind", "StatusTimeline", "Timeline", "TrackingObservables",
    "Trajectory", "TrajectorySpec", "coherent_gain_values", "generate_path",
    "instantaneous_rate", "load_config", "measure_observables", "optimal_config",
    "overhead_report", "received_sample", "run_scenario", "run_sweep", "run_timeline",
    "select_by_training", "slot_count", "two_dim_search", "update_config", "wrap_principal",
    "wrap_two_pi",
]


def test_all_is_exactly_the_public_names():
    assert ristrack.__all__ == PUBLIC == sorted(set(PUBLIC))
    for name in PUBLIC:
        assert getattr(ristrack, name) is not None, name


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


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_not_importable(name):
    # a name left on the package imports without being in __all__
    with pytest.raises(ImportError):
        exec(f"from ristrack import {name}", {})


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


def test_readme_quick_start_runs(capsys):
    readme = ROOT / "README.md"
    block = re.search(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.DOTALL)
    exec(compile(block.group(1), "README.md", "exec"), {})
    calls, pct_below, final_rate = capsys.readouterr().out.split()
    assert int(calls) > 0 and 0.0 < float(pct_below) < 1.0 and float(final_rate) > 0.0


def unused_imports(path: Path) -> list[str]:
    """The names that module-level imports of `path` bind and the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {alias.asname or alias.name.partition(".")[0]: node.lineno
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a package reads the names it exports in __all__
    for node in tree.body:
        if isinstance(node, ast.Assign) and "__all__" in {getattr(t, "id", None)
                                                          for t in node.targets}:
            read.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in bound.items()
            if name not in read]


@pytest.mark.parametrize("tree", ["src/ristrack", "tests", "demos"])
def test_no_module_level_import_is_unused(tree):
    unused = [u for path in sorted((ROOT / tree).rglob("*.py")) for u in unused_imports(path)]
    assert not unused, unused
