"""The package's public names, which commands load numpy, and what the
expression module's code may not do."""

import ast
import functools
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import dynsys

# every public name of the package, by the module that defines it; the
# package resolves each on first access, so ``import dynsys`` loads none of them
EXPORTS = {
    "core": ["EnumerationCapError", "ExprError", "NonMonotoneError", "StepLimitError",
             "StepSizeUnderflowError", "SystemMismatchError"],
    "expr": ["ArityError", "DomainError", "Expr", "ParseError", "VectorExpr", "evaluate",
             "evaluate_vector", "parse", "parse_vector"],
    "calculus": ["differentiate", "evaluate_many", "jacobian", "substitute", "to_string"],
    "category": ["CheckReport", "MorphismCandidate", "PointedSystem", "check_composition_closure",
                 "compose_morphisms", "enumerate_pointed_morphisms", "identity_morphism",
                 "verify_initiality_discrete"],
    "discrete": ["DiscreteSystem", "Orbit", "UnknownElementError", "check_dt_morphism",
                 "fixed_points", "iterate"],
    "continuous": ["ContinuousSystem", "Domain", "EarlyTerminationError", "SmoothMap",
                   "Trajectory", "integrate", "smooth_map", "time_system"],
    "ode_checks": ["check_equilibrium_morphism", "check_f_relatedness", "check_periodic_orbit",
                   "check_solution_preservation", "find_equilibria"],
    "germ": ["FULL_LINE", "Germ", "OpenSet1D", "PartialMap", "SolutionDomain", "compose_partial",
             "germ_equal", "maximal_solution_domain", "open_set", "partial_map", "preimage"],
    "tau": ["TangentSection", "TauInstance", "TauSystem", "check_section", "check_tau_morphism",
            "from_continuous", "from_discrete"],
}


def _run(code: str, cwd) -> list[str]:
    """The output lines of ``code`` in a fresh interpreter that imports this
    checkout's package."""
    env = {**os.environ, "PYTHONPATH": str(Path(dynsys.__file__).parents[1])}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=cwd, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()


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


# the names ``from dynsys import *`` binds: all but germ's, whose module loads numpy
STAR_NAMES = sorted(n for module, names in EXPORTS.items() if module != "germ" for n in names)

STAR_SCRIPT = """
import sys
import dynsys
print(*sorted(m for m in sys.modules if m.startswith("dynsys")))
print(*dir(dynsys))
from dynsys import *
print(*sorted(k for k in globals() if not k.startswith("_") and k not in ("sys", "dynsys")))
print("numpy" in sys.modules)
"""


def test_star_import_and_dir(tmp_path):
    assert len(STAR_NAMES) == 54
    loaded, listed, bound, numpy = _run(STAR_SCRIPT, tmp_path)
    assert loaded == "dynsys"  # nothing but the package itself until a name is read
    assert set(listed.split()) >= {n for names in EXPORTS.values() for n in names} | set(EXPORTS)
    assert bound.split() == STAR_NAMES
    assert numpy == "False"


MODULES_SCRIPT = """
import runpy
import sys

sys.argv = ["dynsys", *{argv!r}]
try:
    runpy.run_module("dynsys", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code)
print(*sorted(m for m in sys.modules if m == "numpy" or m.startswith("dynsys")))
"""

# the modules the commands load: the package, the CLI and the kernel; the
# spec reader and the modules of the spec's kind; the check commands add
# their bodies, the category layer and tau, and on ODE specs the ODE checks
# and the calculus (neither ``--version`` nor a solve loads any of these);
# dense output is loaded by what samples a trajectory between its knots or
# locates an exit in a step
_BASE = {"dynsys", "dynsys.cli", "dynsys.core"}
_SOLVE = _BASE | {"dynsys.specio"}
_CHECKS = _SOLVE | {"dynsys.checkcmd", "dynsys.category", "dynsys.tau"}
_ODE = {"dynsys.expr", "dynsys.continuous"}
_ODE_CHECKS = _ODE | {"dynsys.calculus", "dynsys.ode_checks"}

# argv of ``python -m dynsys``, and exactly the modules it loads
MODULE_CASES = [
    (["--version"], _BASE),
    (["solve", "endo.txt", "--horizon", "4"], _SOLVE | {"dynsys.discrete"}),
    (["check-morphism", "endo.txt", "endo.txt", "endo_map.txt"], _CHECKS | {"dynsys.discrete"}),
    (["laws", "endo.txt", "--horizon", "4"], _CHECKS | {"dynsys.discrete"}),
    (["solve", "osc.txt", "--span", "1", "--output", "osc.csv"], _SOLVE | _ODE),
    (["solve", "box.txt", "--span", "1", "--output", "box.csv"], _SOLVE | _ODE | {"dynsys.dense"}),
    (["check-morphism", "osc.txt", "osc.txt", "ident.txt", "--preserve-solutions", "1", "0",
      "1"], _CHECKS | _ODE_CHECKS | {"dynsys.dense"}),
    (["laws", "osc.txt"], _CHECKS | _ODE_CHECKS),
]


@pytest.mark.parametrize("argv, modules", MODULE_CASES,
                         ids=[" ".join(argv[:2]) for argv, _ in MODULE_CASES])
def test_each_command_loads_only_its_modules(tmp_path, argv, modules):
    (tmp_path / "osc.txt").write_text(
        "kind: continuous\ndimension: 2\nfield: x2\nfield: -x1\nbasepoint: 1 0\n")
    (tmp_path / "box.txt").write_text(
        "kind: continuous\ndimension: 1\ndomain: -1 1.5\nfield: 1\nbasepoint: 1\n")
    (tmp_path / "ident.txt").write_text("kind: map\ncomponent: x1\ncomponent: x2\n")
    (tmp_path / "endo.txt").write_text(
        "kind: discrete\nelements: a b c\nmap: a -> b\nmap: b -> c\nmap: c -> b\nbasepoint: a\n")
    (tmp_path / "endo_map.txt").write_text(
        "kind: map\nentry: a -> a\nentry: b -> b\nentry: c -> c\n")
    *_, code, loaded = _run(MODULES_SCRIPT.format(argv=argv), tmp_path)
    assert code == ("2" if "box.txt" in argv else "0")
    assert set(loaded.split()) == modules


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
    assert _run(SCRIPT, tmp_path) == [
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
    assert _run(CHECKS_SCRIPT, tmp_path) == [
        "check-morphism 0 False", "laws 0 False", "laws 0 False",
    ]
    laws = (tmp_path / "laws.report").read_text()
    assert "name=periodic-orbit verdict=pass" in laws and "equilibria: 1 found" in laws
    assert "name=solution-preservation verdict=pass" in (tmp_path / "check.report").read_text()
    assert "name=initiality[a] verdict=pass" in (tmp_path / "endo.report").read_text()



WATCHED = ("dataclasses", "inspect")  # ~9 ms of imports that no command needs

GUARD_SCRIPT = """
import sys
from dynsys import cli

def loaded():
    return ",".join(m for m in WATCHED if m in sys.modules) or "-"

try:
    cli.main(["--version"])
except SystemExit:
    pass
print("version", loaded())
for argv in (
    ["solve", "osc.txt", "--span", "3", "--output", "osc.csv"],
    ["check-morphism", "osc.txt", "osc.txt", "ident.txt", "--output", "check.report"],
    ["laws", "osc.txt", "--output", "laws.report"],
):
    print(argv[0], cli.main(argv), loaded())
"""


def _loaded_by(code: str, cwd) -> set[str]:
    script = f"import sys\n{code}\nprint(*(m for m in {WATCHED!r} if m in sys.modules))"
    return set(" ".join(_run(script, cwd)).split())


def test_commands_load_no_dataclasses_or_inspect(tmp_path):
    bare = _loaded_by("pass", tmp_path)
    if bare >= set(WATCHED):
        pytest.skip("the bare interpreter already loads " + " ".join(sorted(bare)))
    (tmp_path / "osc.txt").write_text(
        "kind: continuous\ndimension: 2\nfield: x2\nfield: -x1\nbasepoint: 1 0\n")
    (tmp_path / "ident.txt").write_text("kind: map\ncomponent: x1\ncomponent: x2\n")
    only_bare = ",".join(m for m in WATCHED if m in bare) or "-"
    assert _run(f"WATCHED = {WATCHED!r}\n" + GUARD_SCRIPT, tmp_path) == [
        "dynsys 0.1.0", f"version {only_bare}", f"solve 0 {only_bare}",
        f"check-morphism 0 {only_bare}", f"laws 0 {only_bare}",
    ]
    # the germ code loads numpy, which may load inspect itself
    assert _loaded_by("import dynsys.germ", tmp_path) <= bare | _loaded_by("import numpy", tmp_path)


COMPILE_SCRIPT = """
import builtins
import sys

calls = []


def watched(real):
    def wrapper(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller.startswith("dynsys"):  # the import system compiles and runs modules too
            calls.append(f"{real.__name__}:{caller}")
        return real(*args, **kwargs)
    return wrapper


builtins.compile, builtins.exec = watched(builtins.compile), watched(builtins.exec)
from dynsys import cli, specio


def seen():
    return ",".join(sorted(calls)) or "-"


try:
    cli.main(["--version"])
except SystemExit:
    pass
print("import", seen())
specio.load_system("osc.txt")
print("load", seen())
print("solve", cli.main(["solve", "osc.txt", "--span", "3", "--output", "osc.csv"]), seen())
calls.clear()
print("again", cli.main(["solve", "osc.txt", "--span", "3", "--output", "osc.csv"]), seen())
"""


def test_nothing_is_compiled_before_the_first_integration(tmp_path):
    # generated code (the compiled field, the Dormand-Prince step) is built on
    # first use, the step once per dimension and the field's code once per
    # shape: the second solve builds a new function but compiles nothing
    (tmp_path / "osc.txt").write_text(
        "kind: continuous\ndimension: 2\nfield: x2\nfield: -x1\nbasepoint: 1 0\n")
    built = "compile:dynsys.continuous,compile:dynsys.expr,exec:dynsys.continuous,exec:dynsys.expr"
    assert _run(COMPILE_SCRIPT, tmp_path) == [
        "dynsys 0.1.0", "import -", "load -", f"solve 0 {built}",
        "again 0 exec:dynsys.expr",
    ]


def _callees(fn: ast.FunctionDef) -> set[str]:
    """The names ``fn`` calls as ``name(...)`` or ``self.name(...)``."""
    out = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                out.add(node.func.id)
            elif isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == "self":
                out.add(node.func.attr)
    return out


def test_no_expression_function_recurses():
    # every walker and the parser work on explicit stacks, so that no
    # expression is too deep for them; a function that reaches itself again,
    # directly or through others of the two modules, would bring the limit back
    calls: dict[str, set[str]] = {}
    for module in (dynsys.expr, dynsys.calculus):
        for fn in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(fn, ast.FunctionDef):
                calls.setdefault(fn.name, set()).update(_callees(fn))
    assert {"_parse", "_diff", "_subst", "_eval_np", "_postorder"} <= calls.keys()
    for name in calls:
        reached, todo = set(), list(calls[name])
        while todo:
            callee = todo.pop()
            if callee in calls and callee not in reached:
                reached.add(callee)
                todo.extend(calls[callee])
        assert name not in reached, f"{name} calls itself"


# the names that the modules a continuous ``solve`` (or ``--version``) never
# runs took from the modules it does run, by the module each came from
MOVED = {
    "cli": ("checkcmd", ["_cmd_check_morphism", "_laws_for_discrete", "_laws_for_continuous",
                         "_cmd_laws"]),
    "specio": ("checkcmd", ["load_map", "_fmt_value", "_fmt_text", "render_report"]),
    "core": ("category", ["CheckReport", "PointedSystem", "MorphismCandidate",
                          "identity_morphism", "compose_morphisms", "check_composition_closure",
                          "enumerate_pointed_morphisms", "verify_initiality_discrete",
                          "_norm", "_distance", "_matvec", "_linspace", "_solve"]),
    "expr": ("calculus", ["_rebuild", "_LEVEL_EXPR", "_LEVEL_TERM", "_LEVEL_FACTOR",
                          "_LEVEL_ATOM", "_level", "_fmt_number", "_fmt_parts", "_fmt_node",
                          "to_string", "_ARITH", "_eval_np", "evaluate_many", "_is_num",
                          "_fold2", "_add", "_sub", "_neg", "_mul", "_div", "_power",
                          "_diff_node", "_diff", "differentiate", "jacobian", "_subst",
                          "substitute", "compose", "identity_map"]),
    "continuous": ("ode_checks", ["_SAMPLE_CLIP", "_EQUILIBRIUM_GRID", "_PRESERVATION_GRID",
                                  "_PRIMES", "_radical_inverse", "default_samples",
                                  "check_f_relatedness", "check_solution_preservation",
                                  "find_equilibria", "check_equilibrium_morphism",
                                  "check_periodic_orbit", "solution_morphism_report"]),
}

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _targets() -> list[tuple[str, str, str]]:
    """perfbench's ``TARGETS``, read from the source, not imported."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "TARGETS")


@functools.cache
def _perfbench_reads() -> frozenset[tuple[str, str]]:
    """(module, name) for each attribute of a ``dynsys`` module that perfbench
    reads: its tracer's targets and the names it reads from an imported module."""
    reads = {(modname, attr.split(".")[0]) for _, modname, attr in _targets()}
    for path in PERFBENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        aliases = {alias.asname or alias.name: f"dynsys.{alias.name}"
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "dynsys"
                   for alias in node.names}
        reads |= {(aliases[node.value.id], node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases}
    return frozenset(reads)


def _defined(module) -> set[str]:
    """The names a module's own top-level statements define, its imports aside."""
    out = set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                out.update(t.id for t in ast.walk(target) if isinstance(t, ast.Name))
    return out


def _forwards(old: str) -> set[str]:
    """The moved names that ``dynsys.<old>`` still reads: those perfbench reads there."""
    return {name for modname, name in _perfbench_reads() if modname == f"dynsys.{old}"} \
        & set(MOVED[old][1])


def test_forwards_are_what_perfbench_reads():
    # a module forwards (PEP 562) exactly the names that perfbench reads from
    # it and that it does not define: a forward that nothing reads, or a read
    # that finds no forward, fails here
    reads = _perfbench_reads()
    assert ("dynsys.continuous", "default_samples") in reads  # read outside TARGETS
    for path in sorted(Path(dynsys.__file__).parent.glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        module = importlib.import_module(f"dynsys.{path.stem}")
        wanted = {name for modname, name in reads
                  if modname == module.__name__ and name not in _defined(module)}
        assert set(getattr(module, "_FORWARDS", ())) == wanted, module.__name__
        assert ("__getattr__" in vars(module)) == bool(wanted), module.__name__


MOVED_SCRIPT = """
import sys
from dynsys import {old}

print(*sorted(m for m in sys.modules if m.startswith("dynsys")))
print(all(getattr({old}, name) is getattr(sys.modules["dynsys.{new}"], name) for name in {names!r}))
print(*sorted(set({names!r}) - set(dir({old}))))
"""


@pytest.mark.parametrize("old", sorted(MOVED))
def test_moved_names_read_as_the_same_objects(tmp_path, old):
    new = MOVED[old][0]
    module = importlib.import_module(f"dynsys.{new}")
    # the lists of the modules moved into ``new`` are every name it defines
    assert _defined(module) == {n for home, listed in MOVED.values() if home == new
                                for n in listed}
    # in a fresh interpreter, the old module loads the new one on the first
    # read of a forwarded name, and not before
    script = MOVED_SCRIPT.format(old=old, new=new, names=sorted(_forwards(old)))
    loaded, same, missing = _run(script, tmp_path)
    assert f"dynsys.{new}" not in loaded.split()
    assert same == "True"
    assert missing == ""
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(f"dynsys.{old}"), "no_such_name")


@pytest.mark.parametrize("old, name", [(old, name) for old, (_, names) in sorted(MOVED.items())
                                       for name in names])
def test_each_moved_name_is_one_object(old, name):
    # one home per name: the old module reads it only if it forwards it
    new = importlib.import_module(f"dynsys.{MOVED[old][0]}")
    value = getattr(new, name)
    if isinstance(value, (type, types.FunctionType)):  # defined there, not imported there
        assert value.__module__ == new.__name__
    old_module = importlib.import_module(f"dynsys.{old}")
    if name in _forwards(old):
        assert getattr(old_module, name) is value
    else:
        assert not hasattr(old_module, name)
        assert name not in dir(old_module)


def test_traced_functions_still_exist():
    # perfbench's tracer wraps these functions by name, so renaming one breaks
    # a traced benchmark run
    targets = _targets()
    assert targets
    for label, modname, attr in targets:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"{label}: {modname}.{attr} is gone"
