"""Mutation harness: does the test suite notice a small wrong edit?

    python3 mutbench/run.py      # every mutant, one after another

Each mutant in ``MUTANTS`` is an exact edit of one file under the checkout
(``old`` text replaced by ``new`` text) plus the test files that should
notice it.  For each mutant, one at a time, the checkout is copied without
``.git`` to a temporary directory (under ``$TMPDIR``), the edit is applied
there, and ``python -m pytest -x -q -p no:cacheprovider <test files>`` runs
in the copy with ``PYTHONPATH=src`` and a timeout of ``TIMEOUT`` seconds.
The verdicts:

- ``killed``: pytest failed, or ran past the timeout;
- ``survived``: every test passed on the mutated code;
- ``stale``: ``old`` does not occur exactly once in the file, so the edit
  no longer describes the code (nothing is run);
- ``error``: pytest collected no test or was misused (exit 4 or 5).

A survivor is acceptable only when ``SURVIVORS`` names it with a reason.
Before the mutants, the union of their test files runs once on an
unmutated copy, so that a failing suite cannot pass for a killing one.

Stdlib only; the checkout is never modified.  Results go to
``.mutbench-out/results.json``; the exit code is 0 when every mutant is
killed or a listed survivor, 1 otherwise, and 2 when the unmutated suite
fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300.0  # seconds per pytest run
OUT = ROOT / ".mutbench-out"
COPY_IGNORE = shutil.ignore_patterns(".git", ".mutbench-out", ".perfbench-out", "__pycache__",
                                     ".pytest_cache", ".hypothesis")


def mutant(name, file, old, new, *tests):
    return {"name": name, "file": file, "old": old, "new": new, "tests": list(tests)}


CATEGORY, CHECKCMD = "src/dynsys/category.py", "src/dynsys/checkcmd.py"
CONTINUOUS, EXPR = "src/dynsys/continuous.py", "src/dynsys/expr.py"
GERM, ODE = "src/dynsys/germ.py", "src/dynsys/ode_checks.py"
CONTINUOUS_TESTS = "tests/test_continuous.py"

MUTANTS = [
    # germ's crossings and monotonicity test
    mutant("crossing-level-zero", GERM,
           "float(xs[i]), float(xs[j]), math.ulp(0.0), rising)",
           "float(xs[i]), float(xs[j]), 0.0, rising)",
           "tests/test_germ.py"),
    mutant("crossing-strict-comparison", EXPR,
           "        if (value >= y) == increasing:\n",
           "        if (value > y) == increasing:\n",
           "tests/test_germ.py"),
    mutant("directions-without-finite-mask", GERM,
           "    up = (values >= np.maximum.accumulate(np.where(finite, values, -np.inf), axis=1))"
           " | ~finite\n"
           "    down = (values <= np.minimum.accumulate(np.where(finite, values, np.inf), axis=1))"
           " | ~finite\n",
           "    up = (values >= np.maximum.accumulate(values, axis=1)) | ~finite\n"
           "    down = (values <= np.minimum.accumulate(values, axis=1)) | ~finite\n",
           "tests/test_germ.py"),
    # discrete initiality as the orbit
    mutant("initiality-exponent-clamp-7", CATEGORY,
           "total = n ** min(horizon + 1, 25)", "total = n ** min(horizon + 1, 7)",
           "tests/test_core.py"),
    mutant("initiality-cap-at-or-above", CATEGORY,
           "    if total > 10**7:\n", "    if total >= 10**7:\n",
           "tests/test_core.py"),
    mutant("initiality-horizon-not-an-index", CATEGORY,
           "    horizon = operator.index(horizon)\n", "",
           "tests/test_core.py"),
    mutant("orbit-one-step-short", CATEGORY,
           "iterate(target.system, target.basepoint, horizon).points",
           "iterate(target.system, target.basepoint, horizon - 1).points",
           "tests/test_core.py", "tests/test_discrete.py"),
    # one home per moved name
    mutant("forward-fmt-text-from-specio", "src/dynsys/specio.py",
           '_FORWARDS = frozenset({"load_map", "render_report"})',
           '_FORWARDS = frozenset({"load_map", "render_report", "_fmt_text"})',
           "tests/test_package.py"),
    mutant("no-forward-of-default-samples", CONTINUOUS,
           '    "default_samples", "check_f_relatedness",', '    "check_f_relatedness",',
           "tests/test_package.py"),
    # the two verdict folds
    mutant("worst-last-of-equal-gaps", CATEGORY,
           "            if gap > residual:\n", "            if gap >= residual:\n",
           "tests/test_core.py"),
    mutant("worst-accepts-a-nan-gap", CATEGORY,
           "            elif gap != gap:\n", "            elif False:\n",
           "tests/test_core.py"),
    mutant("worst-accepts-a-negative-tolerance", CATEGORY,
           "        if not tol >= 0.0:\n", "        if tol != tol:\n",
           "tests/test_core.py"),
    mutant("tally-always-passes", CATEGORY,
           "return CheckReport(not found, float(len(found))",
           "return CheckReport(True, float(len(found))",
           "tests/test_core.py"),
    mutant("periodic-orbit-gap-dropped", ODE,
           "CheckReport.worst([(closure, tuple(end))], tol,",
           "CheckReport.worst([(0.0, tuple(end))], tol,",
           "tests/test_reports.py", CONTINUOUS_TESTS),
    mutant("equilibrium-gap-dropped", ODE,
           "CheckReport.worst([(residual, pt)], tol,", "CheckReport.worst([(0.0, pt)], tol,",
           CONTINUOUS_TESTS),
    mutant("periodic-orbit-early-end-passes", CHECKCMD,
           "CheckReport(False, 1.0, 0, str(exc))", "CheckReport(True, 1.0, 0, str(exc))",
           "tests/test_reports.py"),
    mutant("germs-at-two-basepoints-equal", GERM,
           'return CheckReport(False, 1.0, 0, f"no common basepoint',
           'return CheckReport(True, 1.0, 0, f"no common basepoint',
           "tests/test_germ.py"),
    # box exits at float resolution
    mutant("box-exit-bisected-to-1e-9", CONTINUOUS,
           "        if mid == good or mid == bad:\n",
           "        if abs(bad - good) <= 1e-9 or mid == good or mid == bad:\n",
           CONTINUOUS_TESTS),
    # a stability estimate past the float range rejects the step
    mutant("stability-overflow-unguarded", CONTINUOUS,
           'dz), 1e77) ** 4 if dz else 0.0",', 'dz), 1e309) ** 4 if dz else 0.0",',
           CONTINUOUS_TESTS),
    # a flat germ component valued once
    mutant("flat-component-nan-accepted", GERM,
           "if math.isnan(v)\n", "if v is None\n",
           "tests/test_germ.py"),
    # find_equilibria's skipped seeds and roots
    mutant("equilibrium-seed-domain-error-escapes", ODE,
           "        except E.DomainError:\n            continue\n",
           "        except ZeroDivisionError:\n            continue\n",
           CONTINUOUS_TESTS),
    mutant("equilibrium-outside-the-box-kept", ODE,
           "        if any(not (lo - 1e-9 <= xi <= hi + 1e-9) for xi, (lo, hi) in zip(x, box)):\n",
           "        if False:\n",
           CONTINUOUS_TESTS),
]

# mutants that no test kills, each with the reason that is acceptable
SURVIVORS: dict[str, str] = {}


def copy_checkout(dst: Path) -> Path:
    tree = dst / "checkout"
    shutil.copytree(ROOT, tree, ignore=COPY_IGNORE)
    return tree


def run_tests(tree: Path, tests: list[str]) -> tuple[str, int | None, str]:
    """(outcome, pytest exit code, what ended the run) for ``tests`` in
    ``tree``: the first failing test when there is one, else pytest's last
    output line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        res = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "killed", None, f"timeout after {TIMEOUT:g} s"
    lines = (res.stdout + res.stderr).strip().splitlines()
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    tail = (failed or lines or [""])[-1]
    if res.returncode == 0:
        return "survived", 0, tail
    if res.returncode in (4, 5):  # usage error, or no test collected
        return "error", res.returncode, tail
    return "killed", res.returncode, tail


def run_mutant(m: dict) -> dict:
    source = (ROOT / m["file"]).read_text()
    count = source.count(m["old"])
    record = {k: m[k] for k in ("name", "file", "tests")}
    if count != 1:
        return {**record, "outcome": "stale", "returncode": None, "seconds": 0.0,
                "detail": f"old text occurs {count} times in {m['file']}"}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutbench-") as tmp:
        tree = copy_checkout(Path(tmp))
        (tree / m["file"]).write_text(source.replace(m["old"], m["new"]))
        outcome, code, tail = run_tests(tree, m["tests"])
    return {**record, "outcome": outcome, "returncode": code,
            "seconds": round(time.perf_counter() - start, 2), "detail": tail}


def main() -> int:
    start = time.perf_counter()
    suite = sorted({t for m in MUTANTS for t in m["tests"]})
    with tempfile.TemporaryDirectory(prefix="mutbench-") as tmp:
        _, code, tail = run_tests(copy_checkout(Path(tmp)), suite)
    if code != 0:
        print(f"error: the unmutated suite does not pass ({tail})", file=sys.stderr)
        return 2
    print(f"baseline: {len(suite)} test files pass unmutated ({tail})")

    results = []
    for m in MUTANTS:
        rec = run_mutant(m)
        if rec["outcome"] == "survived" and m["name"] in SURVIVORS:
            rec["survivor_reason"] = SURVIVORS[m["name"]]
        results.append(rec)
        print(f"{rec['outcome']:8} {rec['seconds']:7.2f} s  {rec['name']}  ({rec['detail']})",
              flush=True)
    wall = time.perf_counter() - start
    counts = {k: sum(r["outcome"] == k for r in results)
              for k in ("killed", "survived", "stale", "error")}
    bad = [r["name"] for r in results
           if r["outcome"] != "killed" and "survivor_reason" not in r]
    OUT.mkdir(exist_ok=True)
    (OUT / "results.json").write_text(json.dumps(
        {"wall_s": round(wall, 1), "counts": counts, "unexplained": bad, "mutants": results},
        indent=1) + "\n")
    print(f"{len(results)} mutants in {wall:.1f} s: "
          + ", ".join(f"{v} {k}" for k, v in counts.items()))
    if bad:
        print("not killed and not a listed survivor: " + ", ".join(bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
