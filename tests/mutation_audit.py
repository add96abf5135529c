"""Mutation audit: which tests fail on each of a table of seeded defects?

Run from the repository root (about 27 min on a 2-core host):

    PYTHONPATH=src python tests/mutation_audit.py

Each row of MUTANTS names a defect, the file it goes into, the text it
replaces, the text it puts in, and whether the suite is expected to kill it
("killed") or cannot tell it apart from the program ("equivalent", with the
reason). The checkout is copied once into a temporary directory, each row is
applied to its own copy of that copy, and the whole suite runs on every
copy, so the audit prints every test that kills each mutant: the map of
which tests pin which behaviour. It exits 1 when a mutant expected to be
killed survives, and 2 when the unmutated tree fails a test or a row's old
text is not found in its file exactly once.

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
    Mutant("initial gain drawn from one seed whatever the spec's", MOBILITY,
           "np.random.default_rng(spec.rng_seed)", "np.random.default_rng(1)", "killed"),
    Mutant("receiver noise drawn at sqrt(1) instead of sqrt(1/2) per component", SIMENGINE,
           "part[:n], math.sqrt(0.5), out=view", "part[:n], math.sqrt(1.0), out=view", "killed"),
    Mutant("inst_rate taken from rss/2", SIMENGINE,
           "out = np.atleast_1d(rss + 1.0)", "out = np.atleast_1d(rss / 2.0 + 1.0)", "killed"),
    Mutant("signaling slots keeping their rate", SIMENGINE,
           "rates[kind != SlotKind.DATA] = 0.0", "rates[kind == SlotKind.UL_FEEDBACK] = 0.0",
           "killed"),
    Mutant("full-range rss normalised by the first slot's", SIMENGINE,
           'self.rss / self.statuses.spread("rss_ref", 0, len(self))', "self.rss / self.rss[0]",
           "killed"),
    Mutant("status ids counted from 0", SIMENGINE,
           "    status = 1  # one more", "    status = 0  # one more", "killed"),
    # the model, the engine and the reports
    Mutant("gain law without r1", MOBILITY,
           "rho_prod = (geom.r1 + r0) / (geom.r1 + r2)", "rho_prod = r0 / r2", "killed"),
    # the single path of the update law and of each complex exponential
    Mutant("update law with its sign flipped", RIS,
           "slope - geom.kd * w", "slope + geom.kd * w", "killed"),
    Mutant("aligned law with its sign flipped", RIS,
           "geom.kd * (np.sin(theta1) - np.sin(theta2))",
           "geom.kd * (np.sin(theta2) - np.sin(theta1))", "killed"),
    Mutant("sweep grid closed at 360 degrees", SIMENGINE,
           "np.arange(0.0, 360.0, self.resolution_deg)",
           "np.arange(0.0, 360.0 + self.resolution_deg / 2, self.resolution_deg)", "killed"),
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
    Mutant("search scoring the phase residual alone", TRACKING,
           "total = error_rss + error_angle", "total = error_angle + 0.0 * error_rss",
           "killed"),
    Mutant("candidates ranked by signed w", TRACKING,
           "np.lexsort((thetas, np.abs(w), best))", "np.lexsort((thetas, w, best))", "killed"),
    Mutant("phase-zero columns placed 1e-12 m off the zeros", TRACKING,
           "(obs.r_ref + zero_base)[:, None] + ks * lam",
           "(obs.r_ref + zero_base)[:, None] + ks * lam + 1e-12", "killed"),
    Mutant("Dirichlet degenerate below 1e-9 instead of 1e-12", RIS,
           "degenerate = np.abs(den) < 0.5e-12", "degenerate = np.abs(den) < 0.5e-9",
           "killed"),
    Mutant("the n_sol best totals kept before their ties are ranked", TRACKING,
           "i = np.lexsort((thetas, np.abs(w), best))[: grid.n_sol]",
           "i = np.argpartition(best, min(grid.n_sol, best.size) - 1)[: grid.n_sol]\n"
           "    i = i[np.lexsort((thetas[i], np.abs(w[i]), best[i]))]", "killed"),
    Mutant("search grid one angle short", TRACKING,
           "n_theta = int(round(2.0 * grid.theta2_halfwidth / grid.theta2_step)) + 1",
           "n_theta = int(round(2.0 * grid.theta2_halfwidth / grid.theta2_step))", "killed"),
    Mutant("padding columns past a row's last phase zero scored", TRACKING,
           "total[:, 2:][ks > k_hi[:, None]] = np.inf", "pass", "killed"),
    Mutant("search precondition against r_ref**2 instead of 2 * r_ref**2", TRACKING,
           "> 2.0 * obs.r_ref ** 2", "> obs.r_ref ** 2", "killed"),
    # the walk, the surface law and the running mean
    Mutant("theta2 increment positive on either side of the walk", MOBILITY,
           "sign = 1.0 if math.sin(psi) >= 0.0 else -1.0", "sign = 1.0", "killed"),
    Mutant("slot_count rounding down", MOBILITY,
           "int(math.ceil(spec.path_length / (spec.speed_v * spec.slot_duration_t0)))",
           "int(spec.path_length / (spec.speed_v * spec.slot_duration_t0))", "killed"),
    Mutant("theta2_init range not checked", MOBILITY,
           "if not -np.pi / 2 < self.theta2_init < np.pi / 2:", "if False:", "killed"),
    Mutant("spec scales checked for > 0 only, letting NaN and infinity through", MOBILITY,
           "if not 0 < value < np.inf:", "if value <= 0:", "killed"),
    Mutant("law of cosines walking away on the ray to the surface", MOBILITY,
           "np.square(s) - 2.0 * r0 * s * np.cos(psi)",
           "np.square(s) + 2.0 * r0 * s * np.cos(psi)", "killed"),
    Mutant("aligned slope left unwrapped", RIS,
           "return wrap_two_pi(geom.kd * (np.sin(theta1) - np.sin(theta2)))",
           "return float(geom.kd * (np.sin(theta1) - np.sin(theta2)))", "killed"),
    Mutant("update law stepping by kd * sin(w), so updates no longer add", RIS,
           "wrap_two_pi(slope - geom.kd * w)", "wrap_two_pi(slope - geom.kd * np.sin(w))",
           "killed"),
    Mutant("received_sample dropping its noise", RIS, "+ complex(noise)", "+ 0j", "killed"),
    Mutant("even-N turn parity not undone", RIS,
           "if n_ris % 2 == 0 and wraps:", "if False:", "killed"),
    Mutant("running mean over one slot more than it holds", SIMENGINE,
           "np.arange(lo + 1, lo + inst.size + 1, dtype=float)",
           "np.arange(lo + 2, lo + inst.size + 2, dtype=float)", "killed"),
    Mutant("running sum returned without the block's slots", SIMENGINE,
           "total = float(sums[-1])", "total = float(sums[0])", "killed"),
    # the interfaces
    Mutant("thresholds checked for > 0 only, letting NaN and infinity through", CONFIG,
           "if not 0 < value < math.inf:", "if value <= 0:", "killed"),
    Mutant("a repeated tracker let through", CONFIG, "        if repeated:\n",
           "        if False:\n", "killed"),
    Mutant("[DEFAULT] keys let through", CONFIG, "    if parser.defaults():\n",
           "    if False:\n", "killed"),
    Mutant("a --vary prefix not checked against its key's section", CONFIG,
           "if dot and prefix != section:", "if False:", "killed"),
    Mutant("scenario values interpolated", CONFIG,
           '("#", ";"), interpolation=None)', '("#", ";"))', "killed"),
    Mutant("Trajectory taking extra arrays", MOBILITY,
           "def __init__(self, b0: complex, walk: Walk):",
           "def __init__(self, b0: complex, walk: Walk, *arrays):", "killed"),
)


def _copy_tree(source: Path, dest: Path) -> Path:
    shutil.copytree(source, dest, ignore=shutil.ignore_patterns(
        ".git", ".bench_work", ".benchmarks", ".pytest_cache", "__pycache__", "runs"))
    return dest


def _failing(tree: Path) -> list[str]:
    """The ids of the tests that fail or error in one run of the suite on the tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE",
                              "-p", "no:cacheprovider"],
                             cwd=tree, env=env, capture_output=True, text=True, timeout=900)
    except subprocess.TimeoutExpired:
        return ["(timed out)"]
    # "FAILED <id> - <message>": a parametrized id may hold spaces, the message
    # starts at pytest's " - " separator
    failed = [line.split(" ", 1)[1].partition(" - ")[0] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if run.returncode not in (0, 1) and not failed:
        return [f"(pytest exit {run.returncode})"]
    return failed


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        # the checkout is copied once, so an edit made while the audit runs
        # reaches none of its rows
        base = _copy_tree(ROOT, Path(tmp) / "base")
        broken = _failing(_copy_tree(base, Path(tmp) / "unmutated"))
        if broken:
            print("the unmutated tree fails:", *broken, sep="\n  ")
            return 2
        status = 0
        for i, mutant in enumerate(MUTANTS):
            tree = _copy_tree(base, Path(tmp) / f"mutant{i}")
            target = tree / mutant.path
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                print(f"{mutant.name}: old text found {text.count(mutant.old)} times in "
                      f"{mutant.path}")
                return 2
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            killers = _failing(tree)
            shutil.rmtree(tree)
            outcome = "killed" if killers else "survives"
            print(f"{mutant.name}: {outcome} (marked {mutant.expect})", *killers, sep="\n  ",
                  flush=True)
            if mutant.expect == "killed" and not killers:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
