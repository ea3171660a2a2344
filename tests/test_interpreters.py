"""The same report and trajectory bytes under every Python the package supports.

Each other ``python3.1x`` on ``PATH`` that starts runs the golden specs of
``test_reports`` through ``solve``, ``laws`` and ``check-morphism`` (with
``--preserve-solutions``), and must print what the running interpreter
prints, with the same exit codes.  The specs are polynomial, so the bytes
rest on IEEE arithmetic and on the package's own summation order
(``core._dot``), not on the platform's libm.  An interpreter without numpy
runs the commands too: none of them needs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dynsys
from test_reports import CASES, SPECS

MAPS = {
    "mirror.txt": "kind: map\ncomponent: x1\ncomponent: -x2\n",
    "swap.txt": "kind: map\ncomponent: x2\ncomponent: -x1\n",
}

ARGVS = [argv for _, argv, _, _ in CASES] + [
    ["solve", "osc.txt", "--span", "6.283185307179586"],
    ["solve", "time.txt", "--span", "-2"],
    ["solve", "quad.txt", "--span", "2"],  # blows up: exit 2
    ["solve", "germed.txt", "--span", "-3"],  # reaches the puncture: exit 2
    ["solve", "mod3.txt", "--horizon", "7"],
    ["solve", "funnel.txt", "--c0", "b", "--horizon", "3"],
    ["check-morphism", "osc.txt", "osc.txt", "mirror.txt", "--preserve-solutions", "1", "0", "3"],
    ["check-morphism", "osc.txt", "osc.txt", "swap.txt", "--preserve-solutions", "1", "0", "3"],
]

# runs every argv through ``cli.main`` in one process and prints, as JSON,
# each exit code and what the command wrote to standard output
RUN_ALL = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
from dynsys import cli

results = []
for argv in {argvs!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def _other_interpreters() -> list[str]:
    """Each ``python3.1x`` on ``PATH`` that starts and is not the running
    interpreter, one path per executable."""
    ours = os.path.realpath(sys.executable)
    found = {}
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        for path in sorted(Path(directory or ".").glob("python3.1[0-9]")):
            try:
                res = subprocess.run(
                    [str(path), "-I", "-B", "-c", "import sys; print(sys.executable)"],
                    capture_output=True, text=True, timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                continue
            real = os.path.realpath(res.stdout.strip())
            if res.returncode == 0 and res.stdout.strip() and real != ours:
                found.setdefault(real, str(path))
    return sorted(found.values())


def _outputs(python: str, cwd) -> list:
    src = str(Path(dynsys.__file__).parents[1])
    # -I ignores PYTHONDONTWRITEBYTECODE, so -B keeps the children from
    # caching bytecode in the source tree, which later runs would load
    res = subprocess.run([python, "-I", "-B", "-c", RUN_ALL.format(src=src, argvs=ARGVS)],
                         capture_output=True, text=True, cwd=cwd, timeout=300)
    assert res.returncode == 0, f"{python}: {res.stderr}"
    return json.loads(res.stdout)


def test_same_bytes_under_every_python_on_path(tmp_path):
    others = _other_interpreters()
    if not others:
        pytest.skip("no other python3.1x on PATH starts")
    for name, text in {**SPECS, **MAPS}.items():
        (tmp_path / name).write_text(text)
    expected = _outputs(sys.executable, tmp_path)
    assert [code for code, _ in expected][-8:] == [0, 0, 2, 2, 0, 0, 3, 0]
    for python in others:
        for argv, want, got in zip(ARGVS, expected, _outputs(python, tmp_path)):
            assert got == want, f"{python}: {' '.join(argv)}"
