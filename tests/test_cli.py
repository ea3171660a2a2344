import math
import subprocess
import sys

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


def test_check_morphism_translation_passes(specs):
    res = run_cli("check-morphism", specs["time"], specs["time"], specs["translate"])
    assert res.returncode == 0, res.stderr
    assert "name=f-relatedness verdict=pass" in res.stdout
    assert res.stdout.strip().endswith("result: pass")


def test_check_morphism_failure_exit_code(specs):
    res = run_cli("check-morphism", specs["time"], specs["double"], specs["ident"])
    assert res.returncode == 3
    assert "verdict=fail" in res.stdout and "witness=" in res.stdout


def test_check_morphism_arity_error(specs):
    res = run_cli("check-morphism", specs["time"], specs["time"], specs["badmap"])
    assert res.returncode == 1
    assert "error:" in res.stderr


def test_check_morphism_kind_mismatch(specs):
    res = run_cli("check-morphism", specs["funnel"], specs["time"], specs["ident"])
    assert res.returncode == 1


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


def test_laws_reports_are_byte_identical(specs, tmp_path):
    a, b = tmp_path / "a.rpt", tmp_path / "b.rpt"
    for out in (a, b):
        res = run_cli("laws", specs["mod3"], "--output", str(out))
        assert res.returncode == 0
    assert a.read_bytes() == b.read_bytes()
