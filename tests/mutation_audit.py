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
LEDGER = "src/ristrack/ledger.py"


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
