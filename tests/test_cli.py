import contextlib
import io
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import pytest

from dynsys import cli
from dynsys import continuous as C

TIME_SPEC = "kind: continuous\ndimension: 1\nfield: 1\nbasepoint: 0\n"
DOUBLE_SPEC = "kind: continuous\ndimension: 1\nfield: 2\n"
QUAD_SPEC = "kind: continuous\ndimension: 1\nfield: x1^2\nbasepoint: 1\n"
OSC_SPEC = "kind: continuous\ndimension: 2\nfield: x2\nfield: -x1\nbasepoint: 1 0\n"
GROWTH_SPEC = "kind: continuous\ndimension: 1\ndomain: 0 inf\nfield: x1\nbasepoint: 1\n"
FUNNEL_SPEC = "kind: discrete\nelements: a b\nmap: a -> b\nmap: b -> b\nbasepoint: a\n"
MOD3_SPEC = (
    "kind: discrete\nelements: p q r\nmap: p -> q\nmap: q -> r\nmap: r -> p\nbasepoint: p\n"
)
BROKEN_SPEC = (
    "kind: discrete\nelements: a b\nmap: a -> b\nmap: b -> b\n"
    "section: a -> b a\nsection: b -> b b\n"
)
GERMED_SPEC = (
    "kind: germed\ndimension: 1\ndomain: -inf inf\npuncture: 0\n"
    "field: 1\nbasepoint: 1\n"
)
TRANSLATE_MAP = "kind: map\ncomponent: x1 + 3\n"
IDENT_MAP = "kind: map\ncomponent: x1\n"
EXP_MAP = "kind: map\ncomponent: exp(x1)\n"
BAD_ARITY_MAP = "kind: map\ncomponent: x3\n"


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "dynsys", *argv],
        capture_output=True, text=True, cwd=cwd,
    )


@pytest.fixture
def specs(tmp_path):
    files = {}
    for name, content in [
        ("time", TIME_SPEC), ("double", DOUBLE_SPEC), ("quad", QUAD_SPEC),
        ("osc", OSC_SPEC), ("growth", GROWTH_SPEC), ("funnel", FUNNEL_SPEC),
        ("mod3", MOD3_SPEC), ("broken", BROKEN_SPEC), ("germed", GERMED_SPEC),
        ("translate", TRANSLATE_MAP), ("ident", IDENT_MAP),
        ("exp", EXP_MAP), ("badmap", BAD_ARITY_MAP),
    ]:
        path = tmp_path / f"{name}.txt"
        path.write_text(content)
        files[name] = str(path)
    return files


def test_solve_time_system(specs, tmp_path):
    out = tmp_path / "traj.csv"
    res = run_cli("solve", specs["time"], "--span", "5", "--output", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x1"
    t, x = map(float, lines[-1].split(","))
    assert t == 5.0 and abs(x - 5.0) < 1e-9
    assert run_cli("solve", specs["time"], "--span", "5").stdout == out.read_text()


def test_solve_exit_beyond_bisection_resolution(tmp_path):
    spec = tmp_path / "slow.txt"
    spec.write_text("kind: continuous\ndimension: 1\ndomain: 0 1\nfield: 1e-8\nbasepoint: 0.5\n")
    res = subprocess.run(
        [sys.executable, "-m", "dynsys", "solve", str(spec), "--span", "1e8"],
        capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 2
    assert "left-domain at t=50000000" in res.stderr


DEEP_SUM = " + ".join(["0.001*x1"] * 3000)


def test_solve_deep_sum_matches_closed_form(tmp_path):
    spec = tmp_path / "deep.txt"
    spec.write_text(f"kind: continuous\ndimension: 1\nfield: {DEEP_SUM}\nbasepoint: 1\n")
    res = run_cli("solve", str(spec), "--span", "1")
    assert res.returncode == 0, res.stderr
    rows = [[float(v) for v in line.split(",")] for line in res.stdout.splitlines()[1:]]
    assert rows[-1][0] == 1.0
    for t, x in rows:
        assert x == pytest.approx(math.exp(3.0 * t), rel=1e-7)


def test_solve_deep_field_domain_retries(tmp_path):
    # backward, stages leave sqrt's domain near x1 = 1/3 and the step is
    # retried; the 3,000-level field (same values) must solve like the shallow one
    deep = tmp_path / "deep.txt"
    zeros = " + ".join(["0*x1"] * 3000)
    deep.write_text(f"kind: continuous\ndimension: 1\nfield: sqrt(3*x1 - 1 + {zeros})\nbasepoint: 1\n")
    shallow = tmp_path / "shallow.txt"
    shallow.write_text("kind: continuous\ndimension: 1\nfield: sqrt(3*x1 - 1)\nbasepoint: 1\n")
    outs = []
    for spec in (deep, shallow):
        res = run_cli("solve", str(spec), "--span", "-2")
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    assert outs[0] == outs[1]


def test_solve_deep_field_stall_is_input_error(tmp_path):
    # the rounded 3,000-term sum minus 1 is never 0 near x1 = 1/3, so the
    # state stalls at the edge of sqrt's domain instead of crawling on
    spec = tmp_path / "deep.txt"
    spec.write_text(f"kind: continuous\ndimension: 1\nfield: sqrt({DEEP_SUM} - 1)\nbasepoint: 1\n")
    res = subprocess.run([sys.executable, "-m", "dynsys", "solve", str(spec), "--span", "-2"],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 1
    assert res.stderr.startswith("error: step stalled at t=-0.94280886")


def test_solve_puncture_2d_left_domain(tmp_path, capsys):
    spec = tmp_path / "puncture.txt"
    spec.write_text("kind: continuous\ndimension: 2\npuncture: 0 0\nfield: -1\nfield: -1\n"
                    "basepoint: 1 1\n")
    assert cli.main(["solve", str(spec), "--span", "2", "--output", str(tmp_path / "p.csv")]) == 2
    assert capsys.readouterr().err == "early termination: left-domain at t=1\n"


def test_solve_deeply_nested_parentheses(tmp_path):
    # the parser keeps its open parentheses on a list, not on the call stack
    spec = tmp_path / "parens.txt"
    field = "(" * 3000 + "x1" + ")" * 3000
    spec.write_text(f"kind: continuous\ndimension: 1\nfield: {field}\nbasepoint: 1\n")
    res = run_cli("solve", str(spec), "--span", "1")
    assert res.returncode == 0, res.stderr
    shallow = tmp_path / "shallow.txt"
    shallow.write_text("kind: continuous\ndimension: 1\nfield: x1\nbasepoint: 1\n")
    assert res.stdout == run_cli("solve", str(shallow), "--span", "1").stdout


def test_deep_map_derivative_is_checked(specs, tmp_path):
    # the map is 3*x1 in 3,000 levels of sums: its derivative 3 is not the
    # target field 1, so f-relatedness fails with a report, exit 3
    mapping = tmp_path / "deepmap.txt"
    mapping.write_text(f"kind: map\ncomponent: {DEEP_SUM}\n")
    res = run_cli("check-morphism", specs["time"], specs["time"], str(mapping))
    assert res.returncode == 3, res.stderr
    assert "name=f-relatedness verdict=fail" in res.stdout and res.stderr == ""


@pytest.mark.parametrize("field", ["1e999", "x1^1e999"])
def test_solve_non_finite_literal_is_input_error(tmp_path, capsys, field):
    spec = tmp_path / "bad.txt"
    spec.write_text(f"kind: continuous\ndimension: 1\nfield: {field}\nbasepoint: 1\n")
    assert cli.main(["solve", str(spec), "--span", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not finite" in err and "Traceback" not in err


def test_solve_step_limit_is_input_error(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "fast.txt"
    spec.write_text("kind: continuous\ndimension: 1\nfield: sin(1000*t)*1000\nbasepoint: 0\n")
    real = C.integrate
    monkeypatch.setattr(C, "integrate", lambda *a, **kw: real(*a, **kw, max_steps=5))
    assert cli.main(["solve", str(spec), "--span", "1e4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: exceeded 5 steps") and "Traceback" not in err


def test_solve_blow_up_exit_code(specs, tmp_path):
    out = tmp_path / "quad.csv"
    res = run_cli("solve", specs["quad"], "--span", "2", "--output", str(out))
    assert res.returncode == 2
    assert "blow-up" in res.stderr
    t_last = float(out.read_text().splitlines()[-1].split(",")[0])
    assert 0.99 <= t_last <= 1.01


def test_solve_discrete_orbit(specs):
    res = run_cli("solve", specs["funnel"], "--c0", "a", "--horizon", "3")
    assert res.returncode == 0
    assert res.stdout.strip() == "a b b b"


def test_solve_input_errors(specs):
    assert run_cli("solve", "/nonexistent.txt", "--span", "1").returncode == 1
    assert run_cli("solve", specs["time"]).returncode == 1  # missing --span
    res = run_cli("solve", specs["funnel"], "--horizon", "2", "--c0", "z")
    assert res.returncode == 1


@pytest.mark.parametrize("argv", [["solve", "--x0", "1 1", "--span", "1"], ["laws"]],
                         ids=["solve", "laws"])
def test_non_finite_puncture_is_input_error(tmp_path, argv):
    # the spec used to run with exit 0, as if the domain had no puncture
    spec = tmp_path / "nan.txt"
    spec.write_text("kind: continuous\ndimension: 2\npuncture: nan 0\nfield: 1\nfield: 0\n")
    res = run_cli(argv[0], str(spec), *argv[1:])
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == f"error: {spec}: puncture (nan, 0.0) has a non-finite coordinate\n"


def test_check_morphism_translation_passes(specs):
    res = run_cli("check-morphism", specs["time"], specs["time"], specs["translate"])
    assert res.returncode == 0, res.stderr
    assert "name=f-relatedness verdict=pass" in res.stdout
    assert res.stdout.strip().endswith("result: pass")


def test_check_morphism_failure_exit_code(specs):
    res = run_cli("check-morphism", specs["time"], specs["double"], specs["ident"])
    assert res.returncode == 3
    assert "verdict=fail" in res.stdout and "witness=" in res.stdout


def test_checks_beside_the_sample_window_are_not_vacuous(tmp_path):
    # (5, 10) misses the [-5, 5] window that unbounded domains are sampled
    # in; with no samples the checks used to pass
    one, two, ident = tmp_path / "one.spec", tmp_path / "two.spec", tmp_path / "ident.spec"
    one.write_text("kind: continuous\ndimension: 1\ndomain: 5 10\nfield: 1\n")
    two.write_text("kind: continuous\ndimension: 1\ndomain: 5 10\nfield: 2\n")
    ident.write_text(IDENT_MAP)
    res = run_cli("check-morphism", one, two, ident)
    assert res.returncode == 3, res.stderr
    assert "name=f-relatedness verdict=fail residual=1.0 samples=200" in res.stdout
    res = run_cli("laws", one)
    assert res.returncode == 0, res.stderr
    for check in ("section-law", "identity-morphism", "compose-associativity"):
        assert f"name={check} verdict=pass" in res.stdout
    assert "samples=0" not in res.stdout


def test_a_check_with_no_samples_is_an_input_error(tmp_path):
    spec, ident = tmp_path / "far.spec", tmp_path / "ident.spec"
    spec.write_text("kind: continuous\ndimension: 1\ndomain: 1e308 inf\nfield: 1\n")
    ident.write_text(IDENT_MAP)
    res = run_cli("check-morphism", spec, spec, ident)
    assert (res.returncode, res.stderr) == (1, "error: morphism check has no samples\n")
    res = run_cli("laws", spec)
    assert (res.returncode, res.stderr) == (1, "error: section-law check has no samples\n")


def test_check_morphism_arity_error(specs):
    res = run_cli("check-morphism", specs["time"], specs["time"], specs["badmap"])
    assert res.returncode == 1
    assert "error:" in res.stderr


def test_check_morphism_kind_mismatch(specs):
    res = run_cli("check-morphism", specs["funnel"], specs["time"], specs["ident"])
    assert res.returncode == 1


def test_check_morphism_overflowing_defect_is_input_error(tmp_path):
    # Jf X = 1e200*1e200 - 1e200*1e200 overflows to nan at every sample: the
    # map is no morphism, and a defect that cannot be measured must not pass
    src, dst, fmap = tmp_path / "src.txt", tmp_path / "dst.txt", tmp_path / "map.txt"
    src.write_text("kind: continuous\ndimension: 2\nfield: 1e200\nfield: 1e200\n")
    dst.write_text("kind: continuous\ndimension: 1\nfield: 1\n")
    fmap.write_text("kind: map\ncomponent: 1e200*x1 - 1e200*x2\n")
    res = run_cli("check-morphism", str(src), str(dst), str(fmap))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("error: nan gap at sample (")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("argv, option, kind", [
    (["laws", "mod3", "--period", "3"], "--period", "continuous"),
    (["solve", "funnel", "--horizon", "2", "--x0", "1"], "--x0", "continuous"),
    (["solve", "funnel", "--horizon", "2", "--span", "1"], "--span", "continuous"),
    (["solve", "funnel", "--horizon", "2", "--escape-threshold", "10"], "--escape-threshold",
     "continuous"),
    (["solve", "time", "--span", "1", "--c0", "a"], "--c0", "discrete"),
    (["solve", "time", "--span", "1", "--horizon", "3"], "--horizon", "discrete"),
    (["laws", "osc", "--horizon", "3"], "--horizon", "discrete"),
])
def test_option_of_the_other_kind_is_input_error(specs, capsys, argv, option, kind):
    assert cli.main([specs.get(a, a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option} applies to {kind} systems\n"


def test_laws_period_in_a_mixed_run_applies_to_the_continuous_spec(specs, capsys):
    argv = ["laws", specs["mod3"], specs["osc"], "--period", repr(2 * math.pi)]
    assert cli.main(argv) == 0
    assert f"name={specs['osc']}:periodic-orbit verdict=pass" in capsys.readouterr().out


def test_laws_horizon_in_a_mixed_run_applies_to_the_discrete_spec(specs, capsys):
    argv = ["laws", specs["mod3"], specs["osc"], "--horizon", "3"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "config: atol=1e-12 horizon=3 " in out
    assert f"name={specs['mod3']}:initiality[p] verdict=pass residual=0.0 samples=81 " in out


def test_laws_zero_period_is_input_error(specs, capsys):
    # a zero period is not "no period": it is checked, and refused
    assert cli.main(["laws", specs["osc"], "--period", "0"]) == 1
    assert capsys.readouterr().err == \
        "error: argument --period: expected a positive finite number, got '0'\n"


@pytest.mark.parametrize("period", ["nan", "inf", "0", "-1"])
def test_laws_period_must_be_positive_and_finite(specs, period):
    # refused by the option's type, naming the option, before any spec is read
    res = run_cli("laws", specs["osc"], "--period", period)
    assert res.returncode == 1
    assert res.stderr == \
        f"error: argument --period: expected a positive finite number, got '{period}'\n"
    assert res.stdout == ""


# one run of each command kind that writes --output; the last ends early, and
# a failed write then exits 1, not 2
UNWRITABLE_CASES = [
    ["solve", "osc", "--span", "1"],
    ["solve", "mod3", "--horizon", "3"],
    ["check-morphism", "time", "time", "translate"],
    ["laws", "mod3"],
    ["solve", "quad", "--span", "2"],
]


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
@pytest.mark.parametrize("argv", UNWRITABLE_CASES, ids=[" ".join(a) for a in UNWRITABLE_CASES])
def test_unwritable_output_is_input_error(specs, tmp_path, argv, where):
    output = tmp_path if where == "directory" else tmp_path / "missing" / "out.txt"
    res = run_cli(*[specs.get(a, a) for a in argv], "--output", str(output))
    assert res.returncode == 1
    assert len(res.stderr.splitlines()) == 1, res.stderr
    assert res.stderr.startswith(f"error: cannot write {output}: [Errno ")
    assert res.stdout == ""
    assert not (tmp_path / "missing").exists()


LOG_SPEC = "kind: continuous\ndimension: 1\nfield: log(x1)\n"
SHIFT_MAP = "kind: map\ncomponent: x1 - 10\n"
KINK_MAP = "kind: map\ncomponent: sqrt(x1^2) - 10\n"


# the first default sample of the line is 0.0; where two things go wrong
# there, the line names the first of: the source field, the Jacobian, f
# leaving the target domain
@pytest.mark.parametrize("src, dst, fmap, line", [
    (TIME_SPEC, GROWTH_SPEC, SHIFT_MAP, "f((0.0,)) = (-10.0,) leaves the target domain"),
    (LOG_SPEC, GROWTH_SPEC, SHIFT_MAP, "log of a non-positive number in log(x1)"),
    (LOG_SPEC, TIME_SPEC, IDENT_MAP, "log of a non-positive number in log(x1)"),
    (TIME_SPEC, GROWTH_SPEC, KINK_MAP, "division by zero in 2 * x1 / (2 * sqrt(x1^2))"),
    (FUNNEL_SPEC, FUNNEL_SPEC, "kind: map\nentry: a -> a\n",
     "morphism table not total: missing ['b']"),
    (FUNNEL_SPEC, FUNNEL_SPEC, "kind: map\nentry: a -> z\nentry: b -> b\n",
     "morphism table maps ['a'] outside the target carrier"),
    (FUNNEL_SPEC, FUNNEL_SPEC, "kind: map\nentry: a -> b\nentry: b -> b\nentry: q -> a\n",
     "morphism table defined on unknown elements ['q']"),
], ids=["leaves-target", "field-before-target", "field-undefined", "jacobian-before-target",
        "table-not-total", "table-leaves-carrier", "table-unknown-elements"])
def test_check_morphism_error_lines(tmp_path, capsys, src, dst, fmap, line):
    paths = []
    for name, content in (("src", src), ("dst", dst), ("map", fmap)):
        paths.append(tmp_path / f"{name}.txt")
        paths[-1].write_text(content)
    assert cli.main(["check-morphism", *map(str, paths)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {line}\n"


DUP_MAP_SPEC = "kind: discrete\nelements: a b\nmap: a -> b\nmap: a -> a\nmap: b -> b\n"


# a second row for one element used to override the first silently
@pytest.mark.parametrize("files, argv, line", [
    ({"dup": DUP_MAP_SPEC}, ["solve", "dup", "--c0", "a", "--horizon", "3"],
     "{dup}: map row for 'a' given 2 times"),
    ({"dup": DUP_MAP_SPEC.replace("map: b", "map: a -> b\nmap: b")}, ["laws", "dup"],
     "{dup}: map row for 'a' given 3 times"),
    ({"dup": FUNNEL_SPEC + "section: a -> a b\nsection: b -> b b\nsection: a -> a a\n"},
     ["laws", "dup"], "{dup}: section row for 'a' given 2 times"),
    ({"fun": FUNNEL_SPEC, "map": "kind: map\nentry: a -> b\nentry: b -> b\nentry: a -> a\n"},
     ["check-morphism", "fun", "fun", "map"], "{map}: entry row for 'a' given 2 times"),
], ids=["solve-map-row", "laws-map-row", "section-row", "entry-row"])
def test_repeated_table_rows_are_input_errors(tmp_path, files, argv, line):
    paths = {}
    for name, content in files.items():
        paths[name] = str(tmp_path / f"{name}.txt")
        Path(paths[name]).write_text(content)
    res = run_cli(*(paths.get(arg, arg) for arg in argv))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == f"error: {line.format(**paths)}\n"


def _check_line(capsys, src: str, dst: str, fmap: str) -> str:
    cli.main(["check-morphism", src, dst, fmap])
    return next(row for row in capsys.readouterr().out.splitlines() if row.startswith("check: "))


@pytest.mark.parametrize("plain, fixture, fmap", [
    (FUNNEL_SPEC, BROKEN_SPEC, "kind: map\nentry: a -> a\nentry: b -> b\n"),
    (FUNNEL_SPEC, BROKEN_SPEC, "kind: map\nentry: a -> b\nentry: b -> a\n"),
    (GROWTH_SPEC, GROWTH_SPEC + "section-base: x1 + 1\n", IDENT_MAP),
    (TIME_SPEC, TIME_SPEC + "section-base: 2*x1\n", "kind: map\ncomponent: 3*x1\n"),
], ids=["dt-pass", "dt-fail", "f-relatedness-pass", "f-relatedness-fail"])
def test_section_fixtures_do_not_reach_morphism_checks(tmp_path, capsys, plain, fixture, fmap):
    # a section: or section-base: fixture is read by the section law only
    paths = {}
    for name, content in (("plain", plain), ("fixture", fixture), ("map", fmap)):
        paths[name] = str(tmp_path / f"{name}.txt")
        Path(paths[name]).write_text(content)
    expected = _check_line(capsys, paths["plain"], paths["plain"], paths["map"])
    assert _check_line(capsys, paths["fixture"], paths["fixture"], paths["map"]) == expected


def test_check_morphism_with_preservation(specs):
    res = run_cli(
        "check-morphism", specs["time"], specs["growth"], specs["exp"],
        "--preserve-solutions", "0", "1",
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert "name=solution-preservation verdict=pass" in res.stdout


def test_laws_discrete_initiality(specs):
    res = run_cli("laws", specs["mod3"], "--horizon", "6")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "name=initiality[p] verdict=pass" in res.stdout
    assert "samples=2187" in res.stdout


def test_laws_oscillator_periodic(specs):
    res = run_cli("laws", specs["osc"], "--period", repr(2 * math.pi))
    assert res.returncode == 0, res.stdout + res.stderr
    assert "name=periodic-orbit verdict=pass" in res.stdout
    assert "name=section-law verdict=pass" in res.stdout


@pytest.mark.parametrize("spec, extra", [
    ("kind: continuous\ndimension: 2\nfield: x2\nfield: -x1\npuncture: 0 0\nbasepoint: 1 0\n",
     ["--period", repr(2 * math.pi)]),
    ("kind: continuous\ndimension: 1\ndomain: 0 inf\nfield: x1\n", []),
], ids=["punctured-oscillator", "half-line-growth"])
def test_laws_equilibrium_outside_domain_is_not_a_candidate(tmp_path, spec, extra):
    path = tmp_path / "sys.txt"
    path.write_text(spec)
    res = run_cli("laws", str(path), *extra)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "note: equilibria: 0 found" in res.stdout
    assert "equilibrium-morphisms" not in res.stdout


def test_laws_negative_horizon_is_input_error(specs):
    res = run_cli("laws", specs["funnel"], "--horizon", "-1")
    assert res.returncode == 1
    assert res.stderr == "error: horizon must be non-negative\n"


@pytest.mark.parametrize("argv", [
    ["solve", "osc", "--span", "1", "--rtol", "nan"],
    ["solve", "osc", "--span", "1", "--atol", "-1"],
    ["check-morphism", "time", "time", "translate", "--tol", "inf"],
    ["check-morphism", "time", "time", "translate", "--preserve-tol=-1e-5"],
    ["check-morphism", "time", "time", "translate", "--rtol=-inf"],
    ["laws", "osc", "--atol", "nan"],
    ["laws", "osc", "--tol", "-0.5"],
    ["laws", "osc", "--rtol", "x"],
])
def test_bad_tolerance_is_input_error(specs, capsys, argv):
    option = argv[-1].split("=")[0] if "=" in argv[-1] else argv[-2]
    assert cli.main([specs.get(a, a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: argument {option}: expected a finite non-negative")


def test_solve_zero_atol_is_input_error(specs, capsys):
    # the basepoint has a zero coordinate, so no error scale is left there
    assert cli.main(["solve", specs["osc"], "--span", "1", "--atol", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: tolerances must be finite")


def test_laws_broken_section_fixture(specs):
    res = run_cli("laws", specs["broken"])
    assert res.returncode == 3
    assert "name=section-law verdict=fail" in res.stdout
    assert "witness=" in res.stdout and "'a'" in res.stdout


def test_solve_germed_stops_at_puncture(specs, tmp_path):
    out = tmp_path / "germ.csv"
    res = run_cli("solve", specs["germed"], "--span", "-3", "--output", str(out))
    assert res.returncode == 2
    assert "left-domain" in res.stderr
    first = out.read_text().splitlines()[1]
    t_first = float(first.split(",")[0])
    assert abs(t_first + 1.0) < 1e-6


def test_laws_germed_system(specs):
    res = run_cli("laws", specs["germed"])
    assert res.returncode == 0, res.stdout + res.stderr
    assert "name=section-law verdict=pass" in res.stdout
    assert "name=compose-associativity verdict=pass" in res.stdout


def test_laws_enumeration_cap_reported_not_fatal(tmp_path):
    # 12^7 candidate functions exceeds the default cap: initiality is
    # skipped with a note, the remaining checks still run and pass
    els = [f"e{i}" for i in range(12)]
    spec = "kind: discrete\nelements: " + " ".join(els) + "\n"
    spec += "".join(f"map: {e} -> {e}\n" for e in els)
    spec += f"basepoint: {els[0]}\n"
    path = tmp_path / "big.txt"
    path.write_text(spec)
    res = run_cli("laws", str(path))
    assert res.returncode == 0, res.stdout + res.stderr
    assert "skipped" in res.stdout and "exceeds cap" in res.stdout
    assert "name=section-law verdict=pass" in res.stdout


@pytest.mark.parametrize("horizon", [100_000, 100_000_000])
def test_laws_huge_horizon_is_skipped_at_once(specs, horizon):
    # the cap test must not build 3^(horizon + 1), nor print it
    argv = [sys.executable, "-m", "dynsys", "laws", specs["mod3"], "--horizon", str(horizon)]
    res = subprocess.run(argv, capture_output=True, text=True, timeout=30)
    assert res.returncode == 0, res.stdout + res.stderr
    assert (f"note: initiality[p] skipped: 3^{horizon + 1} candidate functions exceeds cap 10000000\n"
            in res.stdout)


def test_laws_one_element_huge_horizon_runs_at_once(tmp_path):
    # 1^(horizon + 1) = 1 never hits the cap, so initiality must cost nothing
    # that grows with the horizon
    spec = tmp_path / "one.txt"
    spec.write_text("kind: discrete\nelements: a\nmap: a -> a\n")
    argv = [sys.executable, "-m", "dynsys", "laws", str(spec), "--horizon", "100000000"]
    res = subprocess.run(argv, capture_output=True, text=True, timeout=20)
    assert res.returncode == 0, res.stdout + res.stderr
    assert ("check: name=initiality[a] verdict=pass residual=0.0 samples=1 witness=- note=-\n"
            in res.stdout)


def test_laws_reports_are_byte_identical(specs, tmp_path):
    a, b = tmp_path / "a.rpt", tmp_path / "b.rpt"
    for out in (a, b):
        res = run_cli("laws", specs["mod3"], "--output", str(out))
        assert res.returncode == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv, code", [
    (["solve", "osc", "--span", "-1e-3"], 0),
    (["solve", "osc", "--span", "-.25E+1"], 0),
    (["solve", "germed", "--span", "-3e0"], 2),
    (["laws", "osc", "--period", "-6.283185307179586e0"], 1),
])
def test_negative_scientific_option_values(specs, capsys, argv, code):
    # "--opt -1e-3" is the value -1e-3, as "--opt=-1e-3" always was
    argv = [specs.get(a, a) for a in argv]
    assert cli.main(argv) == code
    spaced = capsys.readouterr()
    assert cli.main(argv[:-2] + [f"{argv[-2]}={argv[-1]}"]) == code
    assert capsys.readouterr() == spaced
    if argv[0] == "laws":  # refused by --period's type, which saw the whole value
        assert spaced.err == ("error: argument --period: expected a positive finite number, "
                              "got '-6.283185307179586e0'\n")
    else:
        assert "argument" not in spaced.err


@pytest.mark.parametrize("values", [["-1e-1", "1"], ["0", "-1e-1"], ["-5E-1", "-2.5e0"]])
def test_negative_scientific_preserve_solutions(specs, capsys, values):
    argv = ["check-morphism", specs["time"], specs["time"], specs["translate"]]
    assert cli.main(argv + ["--preserve-solutions", *values]) == 0
    report = capsys.readouterr().out
    assert "name=solution-preservation verdict=pass" in report


@pytest.mark.parametrize("argv", [
    ["solve", "osc", "--span", "1", "--rtol", "-1e-3"],
    ["solve", "osc", "--span", "1", "--atol", "-1E-12"],
    ["check-morphism", "time", "time", "translate", "--tol", "-1e-8"],
    ["check-morphism", "time", "time", "translate", "--preserve-tol", "-1e-5"],
    ["laws", "osc", "--tol", "-.5e-2"],
])
def test_negative_scientific_tolerance_is_input_error(specs, capsys, argv):
    assert cli.main([specs.get(a, a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: argument {argv[-2]}: expected a finite non-negative number, got {argv[-1]!r}\n"
    )


@pytest.mark.parametrize("value", ["nan", "0", "-0.0", "-1e3", "-1E+400", "-inf", "x"])
def test_escape_threshold_must_be_positive(specs, capsys, value):
    # nan turned the blow-up stop off, and a negative value stopped every run
    # after its first step
    argv = ["solve", specs["quad"], "--span", "2", "--escape-threshold", value]
    assert cli.main(argv) == 1
    spaced = capsys.readouterr()
    assert cli.main(argv[:-2] + [f"--escape-threshold={value}"]) == 1
    assert capsys.readouterr() == spaced
    assert spaced.out == ""
    assert spaced.err == f"error: argument --escape-threshold: expected a positive number, got {value!r}\n"


def test_escape_threshold_inf_is_accepted(specs, capsys):
    # with no escape stop, x' = x^2 runs into its pole at t = 1 (the computed
    # solution's pole lies 1e-10 past it, at the default tolerances)
    assert cli.main(["solve", specs["quad"], "--span", "2", "--escape-threshold", "inf"]) == 1
    assert capsys.readouterr().err.startswith("error: step size underflow at t=1.00000")


def _finite_csv(text: str) -> bool:
    return all(math.isfinite(float(v)) for line in text.splitlines()[1:] for v in line.split(","))


def test_solve_overflowing_initial_norm_blows_up(specs):
    # |x2'| / atol overflows in the initial step size estimate, which used to
    # divide by the zero step it gave
    res = run_cli("solve", specs["osc"], "--span", "1", "--x0", "1e300 0")
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("early termination: blow-up at t=")
    assert _finite_csv(res.stdout) and len(res.stdout.splitlines()) == 3


@pytest.mark.parametrize("x0", ["1e308 1e308", "1.7e308 0"])
def test_solve_overflowing_stages_end_cleanly(specs, x0):
    # every stage combination overflows whatever the step size, so the error
    # norm is nan; such steps were accepted and wrote nan rows
    res = run_cli("solve", specs["osc"], "--span", "1", "--x0", x0)
    assert res.returncode == 1, res.stderr
    assert res.stderr == "error: step size underflow at t=0.0 (trial steps overflowed)\n"
    assert res.stdout == ""


def test_stiff_underflow_is_not_called_an_overflow(specs, tmp_path):
    # backward toward the pole of x1' = 1/x1 at t = -1/2 the error norms stay
    # finite, and the step shrinks to nothing: a stiffness failure
    spec = tmp_path / "pole.txt"
    spec.write_text("kind: continuous\ndimension: 1\nfield: 1/x1\nbasepoint: 1\n")
    res = run_cli("solve", str(spec), "--span", "-2")
    assert res.returncode == 1
    assert res.stderr.startswith("error: step size underflow at t=-0.49999")
    assert res.stderr.endswith(" (stiffness failure)\n")


def test_tolerance_underflow_is_not_called_an_overflow(specs):
    # x1' = x1 from 1: the trial states are finite, and only the error scaled
    # by the subnormal atol overflows, which the tolerances cause
    res = run_cli("solve", specs["growth"], "--span", "1", "--rtol", "0", "--atol", "1e-310")
    assert res.returncode == 1
    assert res.stderr == ("error: step size underflow at t=0.0 "
                          "(error norm overflowed: tolerances too small)\n")
    assert res.stdout == ""


def test_dense_output_outside_the_field_domain_is_an_error(specs, tmp_path, capsys):
    # solution preservation samples t = 5e-4, in the second step, whose extra
    # dense-output stage at t = a is where sqrt's argument is negative
    spec = tmp_path / "window.txt"
    spec.write_text("kind: continuous\ndimension: 1\n"
                    "field: 1 + 0*sqrt((t - 0.0001859276011815556)^2 - 1e-14)\nbasepoint: 0\n")
    one = tmp_path / "one.txt"
    one.write_text("kind: map\ncomponent: x1\n")
    argv = ["check-morphism", str(spec), str(spec), str(one), "--preserve-solutions", "0", "0.1"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the dense output of the step from t=9.99")
    assert "sqrt of a negative number" in err


def test_option_lookalikes_stay_options(specs, capsys):
    # only whole numbers read as values: "-1e-3x" is still an unknown option
    assert cli.main(["solve", specs["osc"], "--span", "-1e-3x"]) == 1
    assert capsys.readouterr().err == "error: argument --span: expected one argument\n"


# --- fuzzing solve ------------------------------------------------------------

_TERMS = ("x{i}", "-x{i}", "{c}*x{i}", "x{i}^2", "x{i}*x{j}", "sin(x{i})", "exp(x{i})",
          "sqrt(x{i})", "log(x{i})", "1/x{i}", "t", "{c}")
_COORDS = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e308, 1e308),
                    st.sampled_from([1e308, -1e308, 1.7e308, 1e300, 1e154, 5e-324, -0.0]))


def _term(n: int):
    """One term of a field or map component over x1..xn."""
    return st.builds(lambda fmt, i, j, c: fmt.format(i=i, j=j, c=c), st.sampled_from(_TERMS),
                     st.integers(1, n), st.integers(1, n), st.sampled_from(["0.5", "-2", "1e3"]))


@st.composite
def _solve_runs(draw):
    """A continuous spec (dimension <= 3) and the options of one solve of it."""
    n = draw(st.integers(1, 3))
    lines = ["kind: continuous", f"dimension: {n}"]
    for _ in range(n):
        lines.append("field: " + draw(st.lists(_term(n), min_size=1, max_size=3).map(" + ".join)))
    if draw(st.booleans()):
        lines.append("domain: " + " ; ".join(
            draw(st.sampled_from(["-inf inf", "0 inf", "-1 1", "-1e300 1e300"])) for _ in range(n)))
    if draw(st.booleans()):
        lines.append("puncture: " + " ".join(draw(st.sampled_from(["0", "1", "-0.5"]))
                                             for _ in range(n)))
    args = ["--span", repr(draw(st.floats(-2.0, 2.0).filter(bool))),
            "--x0", " ".join(repr(draw(_COORDS)) for _ in range(n))]
    if draw(st.booleans()):
        args += ["--escape-threshold", draw(st.sampled_from(["inf", "10", "1e300"]))]
    if draw(st.booleans()):
        args += ["--rtol", "1e-6", "--atol", "1e-9"]
    return "\n".join(lines) + "\n", args


@hypothesis.given(_solve_runs())
# a finite error norm with an infinite state, which wrote an inf row
@hypothesis.example(("kind: continuous\ndimension: 2\nfield: x1^2\nfield: exp(x1)\n",
                     ["--span", "1.0", "--x0", "1.0 0.0", "--escape-threshold", "inf"]))
@hypothesis.settings(max_examples=150, deadline=None)
def test_fuzz_solve_ends_cleanly(run):
    # every input ends in a documented exit code with no traceback, and a
    # written trajectory holds only finite numbers
    spec_text, args = run
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = Path(tmp, "spec.txt"), Path(tmp, "out.csv")
        spec.write_text(spec_text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["solve", str(spec), *args, "--output", str(out)])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code in (0, 2):
            assert _finite_csv(out.read_text()), err.getvalue()


# --- fuzzing check-morphism and laws ----------------------------------------

_ELEMENTS = ("a", "b", "c", "d")
_POINTS = st.one_of(st.floats(-3.0, 3.0), _COORDS)


def _sometimes(draw, odds: int = 10) -> bool:
    """True once in ``odds`` draws: for inputs that are wrong on purpose."""
    return draw(st.integers(1, odds)) == 1


@st.composite
def _continuous_spec(draw, n: int) -> str:
    kind = "germed" if n == 1 and draw(st.booleans()) else "continuous"
    lines = [f"kind: {kind}", f"dimension: {n}"]
    lines += ["field: " + draw(st.lists(_term(n), min_size=1, max_size=3).map(" + ".join))
              for _ in range(n)]
    if draw(st.booleans()):
        lines.append("domain: " + " ; ".join(
            draw(st.sampled_from(["-inf inf", "0 inf", "-1 1"])) for _ in range(n)))
    if draw(st.booleans()):
        lines.append("puncture: " + " ".join(draw(st.sampled_from(["0", "1"])) for _ in range(n)))
    if draw(st.booleans()):
        lines.append("basepoint: " + " ".join(repr(draw(_POINTS)) for _ in range(n)))
    return "\n".join(lines) + "\n"


@st.composite
def _discrete_spec(draw, elements: list[str]) -> str:
    targets = st.sampled_from(elements + ["z"] if _sometimes(draw) else elements)
    lines = ["kind: discrete", "elements: " + " ".join(elements)]
    lines += [f"map: {x} -> {draw(targets)}" for x in elements]
    if draw(st.booleans()):
        lines.append(f"basepoint: {draw(targets)}")
    if _sometimes(draw, 5):  # an explicit section, which may break the section law
        lines += [f"section: {x} -> {draw(targets)} {draw(targets)}" for x in elements]
    return "\n".join(lines) + "\n"


@st.composite
def _check_runs(draw):
    """Spec files (two systems of one kind, mostly, and a map between them)
    and the argv of one check-morphism or laws run over them."""
    discrete = draw(st.booleans())
    carriers = st.lists(st.sampled_from(_ELEMENTS), min_size=1, max_size=4, unique=True)
    src_elems, dst_elems = draw(carriers), draw(carriers)
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    if discrete != _sometimes(draw):
        src = draw(_discrete_spec(src_elems))
    else:
        src = draw(_continuous_spec(n))
    if discrete != _sometimes(draw):
        dst = draw(_discrete_spec(dst_elems))
    else:
        dst = draw(_continuous_spec(m))
    rows = ["kind: map"]
    if discrete != _sometimes(draw):
        targets = st.sampled_from(dst_elems + ["z"] if _sometimes(draw) else dst_elems)
        missing = _sometimes(draw)  # a table that is not total
        rows += [f"entry: {x} -> {draw(targets)}" for x in src_elems[missing:]]
    else:
        rows += ["component: " + draw(st.lists(_term(n), min_size=1, max_size=2).map(" + ".join))
                 for _ in range(m + _sometimes(draw))]
    files = {"src.txt": src, "dst.txt": dst, "map.txt": "\n".join(rows) + "\n"}
    if draw(st.booleans()):
        argv = ["check-morphism", "src.txt", "dst.txt", "map.txt"]
        if not discrete and draw(st.booleans()):
            x0 = draw(st.lists(_POINTS, min_size=n, max_size=n + _sometimes(draw)))
            argv += ["--preserve-solutions", *map(repr, x0), repr(draw(st.floats(-2.0, 2.0)))]
    else:
        argv = ["laws", "src.txt", *draw(st.sampled_from([[], ["dst.txt"]])),
                "--horizon", str(draw(st.integers(-1, 5)))]
        if draw(st.booleans()):
            period = st.one_of(st.floats(-7.0, 7.0), st.just(2 * math.pi))
            argv += ["--period", repr(draw(period))]
    if draw(st.booleans()):
        argv += ["--tol", draw(st.sampled_from(["0", "1e-3", "1e-12"]))]
    return files, argv


@hypothesis.given(_check_runs())
@hypothesis.settings(max_examples=120, deadline=None)
def test_fuzz_checks_and_laws_end_cleanly(run):
    # every run ends in a documented exit code with no traceback: an error
    # that escapes cli.main fails the test with its traceback
    files, argv = run
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        argv = [str(Path(tmp, a)) if a in files else a for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--output", str(Path(tmp, "report.txt"))])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code in (0, 3):
            assert Path(tmp, "report.txt").read_text().endswith(
                "result: pass\n" if code == 0 else "result: fail\n")
