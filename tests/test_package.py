"""The package's public names, and which commands load numpy."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dynsys

# every name the package exported before the germ names became lazy, by module
EXPORTS = {
    "expr": ["ArityError", "DomainError", "Expr", "ExprError", "ParseError", "VectorExpr",
             "differentiate", "evaluate", "evaluate_many", "evaluate_vector", "jacobian",
             "parse", "parse_vector", "substitute", "to_string"],
    "core": ["CheckReport", "EnumerationCapError", "MorphismCandidate", "PointedSystem",
             "SystemMismatchError", "check_composition_closure", "compose_morphisms",
             "enumerate_pointed_morphisms", "identity_morphism", "verify_initiality_continuous",
             "verify_initiality_discrete"],
    "discrete": ["DiscreteSystem", "Orbit", "UnknownElementError", "check_dt_morphism",
                 "fixed_points", "iterate"],
    "continuous": ["ContinuousSystem", "Domain", "EarlyTerminationError", "SmoothMap",
                   "StepLimitError", "StepSizeUnderflowError", "Trajectory",
                   "check_equilibrium_morphism", "check_f_relatedness", "check_periodic_orbit",
                   "check_solution_preservation", "find_equilibria", "integrate", "smooth_map",
                   "time_system"],
    "germ": ["FULL_LINE", "Germ", "NonMonotoneError", "OpenSet1D", "PartialMap",
             "SolutionDomain", "compose_partial", "germ_equal", "maximal_solution_domain",
             "open_set", "partial_map", "preimage"],
    "tau": ["TangentSection", "TauInstance", "TauSystem", "check_section", "check_tau_morphism",
            "from_continuous", "from_discrete"],
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_exports_resolve_to_their_module_objects(module):
    mod = importlib.import_module(f"dynsys.{module}")
    listed = dir(dynsys)
    for name in EXPORTS[module]:
        assert getattr(dynsys, name) is getattr(mod, name), name
        assert name in listed, name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        dynsys.no_such_name  # noqa: B018


SCRIPT = """
import sys
from dynsys import cli

try:
    cli.main(["--version"])
except SystemExit:
    pass
print("version", "numpy" in sys.modules)
code = cli.main(["solve", "osc.txt", "--span", "3", "--output", "osc.csv"])
print("solve", code, "numpy" in sys.modules)
print("check-morphism", cli.main(["check-morphism", "osc.txt", "osc.txt", "ident.txt",
                                   "--output", "check.report"]))
print("laws", cli.main(["laws", "osc.txt", "--output", "laws.report"]))
"""


def test_version_and_solve_load_no_numpy(tmp_path):
    (tmp_path / "osc.txt").write_text(
        "kind: continuous\ndimension: 2\nfield: x2\nfield: -x1\nbasepoint: 1 0\n")
    (tmp_path / "ident.txt").write_text("kind: map\ncomponent: x1\ncomponent: x2\n")
    env = {**os.environ, "PYTHONPATH": str(Path(dynsys.__file__).parents[1])}
    res = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                         cwd=tmp_path, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "dynsys 0.1.0", "version False", "solve 0 False", "check-morphism 0", "laws 0",
    ]


CHECKS_SCRIPT = """
import sys
from dynsys import cli

for argv in (
    ["check-morphism", "osc.txt", "osc.txt", "ident.txt", "--preserve-solutions", "1", "0", "3",
     "--output", "check.report"],
    ["laws", "osc.txt", "--period", "6.283185307179586", "--output", "laws.report"],
    ["laws", "endo.txt", "--horizon", "8", "--output", "endo.report"],
):
    print(argv[0], cli.main(argv), "numpy" in sys.modules)
"""


def test_checks_and_laws_load_no_numpy(tmp_path):
    (tmp_path / "osc.txt").write_text(
        "kind: continuous\ndimension: 2\nfield: x2\nfield: -x1\nbasepoint: 1 0\n")
    (tmp_path / "ident.txt").write_text("kind: map\ncomponent: x1\ncomponent: x2\n")
    (tmp_path / "endo.txt").write_text(
        "kind: discrete\nelements: a b c\nmap: a -> b\nmap: b -> c\nmap: c -> b\nbasepoint: a\n")
    env = {**os.environ, "PYTHONPATH": str(Path(dynsys.__file__).parents[1])}
    res = subprocess.run([sys.executable, "-c", CHECKS_SCRIPT], capture_output=True, text=True,
                         cwd=tmp_path, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "check-morphism 0 False", "laws 0 False", "laws 0 False",
    ]
    laws = (tmp_path / "laws.report").read_text()
    assert "name=periodic-orbit verdict=pass" in laws and "equilibria: 1 found" in laws
    assert "name=solution-preservation verdict=pass" in (tmp_path / "check.report").read_text()
    assert "name=initiality[a] verdict=pass" in (tmp_path / "endo.report").read_text()
