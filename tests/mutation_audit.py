"""Mutation audit: does the suite fail on each of a table of seeded defects?

Run from the repository root (takes a few minutes):

    PYTHONPATH=src python tests/mutation_audit.py

Each row of MUTANTS names a defect, the file it goes into, the text it
replaces, the text it puts in, and whether the suite is expected to kill it
("killed") or cannot tell it apart from the program ("equivalent", with the
reason). Each row is applied to its own copy of the tree in a temporary
directory. The copy first runs the byte-level guards (GUARDS), and the rest of the
suite only if the mutant survives them. The audit prints the tests that
kill each mutant. It exits 1 when a mutant expected to be killed survives,
and 2 when the unmutated tree fails the guards or a row's old text is not
found in its file exactly once.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
GUARDS = ("tests/test_golden.py", "tests/test_fingerprint.py", "tests/test_reference_engine.py")
CONFIG = "src/ristrack/config.py"
LEDGER = "src/ristrack/ledger.py"
MOBILITY = "src/ristrack/mobility.py"
RIS = "src/ristrack/ris.py"
RUNNER = "src/ristrack/runner.py"
SIMENGINE = "src/ristrack/simengine.py"
TRACKING = "src/ristrack/tracking.py"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    expect: str  # "killed", or "equivalent: " and why no test can tell it apart


MUTANTS = (
    Mutant("ledger files written in another order than their timelines", LEDGER,
           "enumerate(zip(files, timelines))", "enumerate(zip(files[::-1], timelines))",
           "killed"),
    Mutant("ledger files opened before the refusals", LEDGER,
           "    if len(paths) != len(timelines):\n",
           "    for path in paths:\n        open(path, \"wb\").close()\n"
           "    if len(paths) != len(timelines):\n",
           "killed"),
    Mutant("theta2_true compared as floats, so -0.0 equals 0.0", LEDGER,
           "np.asarray(tl.theta2_true, float).view(np.uint64), theta.view(np.uint64))",
           "np.asarray(tl.theta2_true, float), theta)",
           "killed"),
    Mutant("running rate sum reset to 0.0 at each block", LEDGER,
           "tl.block(start, stop, carries[i])", "tl.block(start, stop, 0.0)", "killed"),
    Mutant("closing newline dropped", LEDGER, 'fh.write(b"\\n")', "pass", "killed"),
    Mutant("header written to the first file only", LEDGER,
           "        for fh in files:\n            fh.write(LEDGER_HEADER",
           "        for fh in files[:1]:\n            fh.write(LEDGER_HEADER",
           "killed"),
    # the constants that make snr_db the one signal scale
    Mutant("initial gain drawn at Rayleigh scale 1 instead of 1/sqrt(2)", MOBILITY,
           "_RAYLEIGH_SCALE = 1.0 / math.sqrt(2.0)", "_RAYLEIGH_SCALE = 1.0", "killed"),
    Mutant("receiver noise drawn at sqrt(1) instead of sqrt(1/2) per component", SIMENGINE,
           "part[:n], math.sqrt(0.5), out=view", "part[:n], math.sqrt(1.0), out=view", "killed"),
    Mutant("inst_rate taken from rss/2", SIMENGINE,
           "out = np.atleast_1d(rss + 1.0)", "out = np.atleast_1d(rss / 2.0 + 1.0)", "killed"),
    # the model, the engine and the reports
    Mutant("gain law without r1", MOBILITY,
           "rho_prod = (geom.r1 + r0) / (geom.r1 + r2)", "rho_prod = r0 / r2", "killed"),
    # the single path of the update law and of each complex exponential
    Mutant("update law with its sign flipped", RIS,
           "slope - geom.kd * w", "slope + geom.kd * w", "killed"),
    Mutant("update_config letting a NaN mismatch through", RIS,
           "if not np.all(np.abs(w) <= 2.0):", "if np.any(np.abs(w) > 2.0):", "killed"),
    Mutant("travel phase of the gain conjugated", MOBILITY,
           "np.exp(1j * (TWO_PI * (r2 - r0)", "np.exp(-1j * (TWO_PI * (r2 - r0)", "killed"),
    Mutant("scan turn conjugated", SIMENGINE,
           "np.exp(0.5j * (cols.geom.n_ris - 1) * slope)",
           "np.exp(-0.5j * (cols.geom.n_ris - 1) * slope)", "killed"),
    Mutant("noise drawn imaginary parts first", SIMENGINE,
           "for view in (noise.real, noise.imag):", "for view in (noise.imag, noise.real):",
           "killed"),
    Mutant("genie aligned to the previous slot", SIMENGINE,
           "optimal_config(geom.theta1, float(theta2[cursor]), geom)",
           "optimal_config(geom.theta1, float(theta2[cursor - 1]), geom)", "killed"),
    Mutant("pct_below_threshold over n - 1", SIMENGINE,
           "100.0 * (nondata / n)", "100.0 * (nondata / max(n - 1, 1))", "killed"),
    Mutant("running mean of a block started from 0 instead of its carry", SIMENGINE,
           "np.concatenate(([carry], inst))", "np.concatenate(([0.0], inst))", "killed"),
    Mutant("11-digit summaries", RUNNER, 'return f"{x:.12g}"', 'return f"{x:.11g}"', "killed"),
    Mutant("a reference slot that may trigger", SIMENGINE,
           "skip = int(lo == ref_idx)", "skip = 0", "killed"),
    Mutant("trigger at <= gamma instead of < gamma", SIMENGINE,
           "np.nonzero(level < policy.gamma)", "np.nonzero(level <= policy.gamma)",
           "equivalent: a slot's strength is a continuous quantity, so no run's "
           "level lands exactly on gamma"),
    Mutant("window scan of 512 slots", SIMENGINE,
           "_SCAN_WINDOW = 1024", "_SCAN_WINDOW = 512", "killed"),
    Mutant("noise_seed defaulting to None in run_timeline", SIMENGINE,
           "    noise_seed: int | None,\n    threshold_mode",
           "    noise_seed: int | None = None,\n    threshold_mode", "killed"),
    # the tracker
    Mutant("a frozen distance belief", SIMENGINE,
           "self.believed_r = self.candidates[best].r_cand",
           "self.believed_r = self.believed_r", "killed"),
    Mutant("training ties broken toward the larger |w|", TRACKING,
           "key=lambda i: (-power[i], abs(candidates[i].w_cand))",
           "key=lambda i: (-power[i], -abs(candidates[i].w_cand))", "killed"),
    Mutant("candidates ranked by signed w", TRACKING,
           "np.lexsort((thetas, np.abs(w), best))", "np.lexsort((thetas, w, best))", "killed"),
    Mutant("phase-zero columns placed 1e-12 m off the zeros", TRACKING,
           "(obs.r_ref + zero_base)[:, None] + ks * lam",
           "(obs.r_ref + zero_base)[:, None] + ks * lam + 1e-12", "killed"),
    Mutant("Dirichlet degenerate below 1e-9 instead of 1e-12", RIS,
           "degenerate = np.abs(den) < 0.5e-12", "degenerate = np.abs(den) < 0.5e-9",
           "killed"),
    # the interfaces
    Mutant("no finite-value check in config._apply", CONFIG,
           "if not _finite(value):", "if False:", "killed"),
    Mutant("Trajectory taking extra arrays", MOBILITY,
           "def __init__(self, b0: complex, walk: Walk):",
           "def __init__(self, b0: complex, walk: Walk, *arrays):", "killed"),
)


def _copy_tree(dest: Path) -> Path:
    tree = dest / "tree"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", ".bench_work", ".benchmarks", ".pytest_cache", "__pycache__", "runs"))
    return tree


def _failing(tree: Path, args: list[str]) -> list[str]:
    """The ids of the tests that fail or error in one pytest run of the tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE",
                              "-p", "no:cacheprovider", *args],
                             cwd=tree, env=env, capture_output=True, text=True, timeout=900)
    except subprocess.TimeoutExpired:
        return ["(timed out)"]
    failed = [line.split()[1] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if run.returncode not in (0, 1) and not failed:
        return [f"(pytest exit {run.returncode})"]
    return failed


def _killers(tree: Path) -> list[str]:
    """The guards that fail, else the other tests that do."""
    return _failing(tree, list(GUARDS)) or _failing(
        tree, [f"--ignore={guard}" for guard in GUARDS])


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        broken = _failing(_copy_tree(Path(tmp)), list(GUARDS))
    if broken:
        print("the unmutated tree fails the guards:", *broken, sep="\n  ")
        return 2
    status = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            tree = _copy_tree(Path(tmp))
            target = tree / mutant.path
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                print(f"{mutant.name}: old text found {text.count(mutant.old)} times in "
                      f"{mutant.path}")
                return 2
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            killers = _killers(tree)
        outcome = "killed" if killers else "survives"
        print(f"{mutant.name}: {outcome} (marked {mutant.expect})", *killers, sep="\n  ")
        if mutant.expect == "killed" and not killers:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
