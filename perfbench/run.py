"""Benchmark of the dynsys CLI and library: end to end and layer by layer.

    python3 perfbench/run.py --workload ode_solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0   # every metric

Run it from a checkout of the repository; it runs ``src/dynsys`` from that
checkout and writes only under ``.perfbench-out/`` there.  One driver
process runs a closed loop, one operation at a time: the CLI workloads run
``python -m dynsys`` (the ``dynsys`` console script's entry point) in one
subprocess per operation, and every ``germ_compose`` pass runs in one fresh
interpreter.  Passes repeat until ``--seconds`` is used up; each metric is
the median over passes.  Every operation's output is checked against an
independent oracle (see oracles.py) and hashed; an operation whose bytes
change from one pass to the next counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one traced
in-process pass of each workload and prints the per-layer metrics (see
tracing.py and README.md).  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))
from speed import at_reference_speed  # noqa: E402  (a sibling file)

MIN_PASSES = 3
IMPORT_SAMPLES = 5
OP_TIMEOUT_S = 60.0
RUN_LIMIT_S = 160.0  # per workload: a run must end well within 180 s
UNITS = {"wall_s": "s", "setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "peak_rss_mb": "MB", "fail_ratio": "1"}
# failures that a known defect does not explain
HARD = ("traceback on stderr", "output bytes differ", "exception:", "exit None")


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Spawner:
    """Client of spawner.py, which runs each child and reports its exit
    code, wall time and its own peak RSS."""

    def __init__(self, limit_s: float):
        self.deadline = time.monotonic() + limit_s
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], env=_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self, cmd, cwd, stdout_path, stderr_path):
        """Run one child to completion: (exit code, seconds, peak RSS in MB)."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RuntimeError("the run went past its time limit")
        request = {"cmd": [str(c) for c in cmd], "cwd": str(cwd), "stdout": str(stdout_path),
                   "stderr": str(stderr_path), "timeout": min(OP_TIMEOUT_S, left)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process died")
        got = json.loads(line)
        return got["exit"], got["seconds"], got["rss_mb"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


DYNSYS = [sys.executable, "-m", "dynsys"]


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _read(path: Path) -> str:
    return path.read_text() if path.exists() else ""


def cli_outputs(op, tmp: Path) -> dict[str, str]:
    return {"stdout": _read(tmp / f"{op.name}.stdout"), "stderr": _read(tmp / f"{op.name}.stderr"),
            "output": _read(tmp / op.output) if op.output else ""}


def time_version(spawn, tmp: Path) -> float:
    code, seconds, _ = spawn(DYNSYS + ["--version"], tmp, tmp / "version.out", tmp / "version.err")
    if code != 0 or not _read(tmp / "version.out").startswith("dynsys "):
        raise RuntimeError(f"dynsys --version failed with exit {code}: {_read(tmp / 'version.err')}")
    return seconds


class Judge:
    """Oracle verdicts (cached per distinct output) and the determinism record."""

    def __init__(self):
        self.first: dict[str, str] = {}
        self.cache: dict[tuple, list[str]] = {}

    def cli(self, ops, tmp: Path, recs) -> None:
        import oracles

        outputs = {op.name: cli_outputs(op, tmp) for op in ops}
        for op, rec in zip(ops, recs):
            out = outputs[op.name]
            rec["sha256"] = {k: _sha(v) for k, v in out.items()}
            rec["defect"] = op.defect
            key = (op.name, rec["exit"], tuple(rec["sha256"].values()),
                   outputs.get(op.params.get("same_as"), {}).get("output"))
            if key not in self.cache:
                self.cache[key] = oracles.check_cli(op, out, rec["exit"], outputs)
            rec["disagreements"] = list(self.cache[key])
            self.repeat(rec, json.dumps(rec["sha256"], sort_keys=True))

    def repeat(self, rec, digest: str) -> None:
        first = self.first.setdefault(rec["name"], digest)
        if digest != first:
            rec["disagreements"].append("output bytes differ from the first pass")

    @staticmethod
    def classify(rec) -> None:
        bad = rec["disagreements"]
        hard = any(m.startswith(HARD) for m in bad) or rec.get("exit", 0) not in (0, 1, 2, 3)
        rec["status"] = ("ok" if not bad else
                         "known-defect" if rec.get("defect") and not hard else "failed")


def percentile(values, q: float) -> float:
    """Inclusive-method quantile, q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def summarize(passes, setup, raw: bool = False) -> dict[str, float]:
    """The end-to-end metrics: at the reference speed, or as timed (raw)."""
    key = "raw_latency_s" if raw else "latency_s"
    recs = [r for p in passes for r in p["ops"]]
    by_op: dict[str, list[float]] = {}
    for r in recs:
        by_op.setdefault(r["name"], []).append(r[key] * 1e3)
    typical = [statistics.median(v) for v in by_op.values()]
    return {
        "wall_s": statistics.median(sum(r[key] for r in p["ops"]) for p in passes),
        "setup_s": statistics.median(s[1] if raw else s[0] for s in setup),
        "op_p50_ms": percentile(typical, 0.5),
        "op_p90_ms": percentile(typical, 0.9),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "fail_ratio": sum(bool(r["disagreements"]) for r in recs) / len(recs),
    }


def timed_passes(run_pass, seconds: float):
    """Closed loop of passes until the time is used up (at least MIN_PASSES)."""
    start = time.perf_counter()
    passes, durations = [], []
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(len(passes)))
        durations.append(time.perf_counter() - t0)
        spent = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and spent + statistics.median(durations) > seconds:
            return passes


def write_specs(workload: str, seed: int, tmp: Path):
    import workloads as W

    files, ops = W.cli_workload(workload, seed)
    for name, text in files.items():
        (tmp / name).write_text(text)
    return ops


def run_cli_workload(spawn, workload: str, seed: int, seconds: float, tmp: Path):
    ops = write_specs(workload, seed, tmp)
    time_version(spawn, tmp)  # warm-up: byte-compiles the package once per checkout
    setup = []
    judge = Judge()

    def one_pass(k):
        # set-up samples spread over the run, so they see the same machine as the passes
        took, scale = at_reference_speed(time_version, spawn, tmp)
        setup.append((took * scale, took))
        recs = []
        for op in ops:
            if op.output:
                (tmp / op.output).unlink(missing_ok=True)
            (code, took, rss), scale = at_reference_speed(
                spawn, DYNSYS + op.argv, tmp, tmp / f"{op.name}.stdout", tmp / f"{op.name}.stderr")
            recs.append({"pass": k, "name": op.name, "latency_s": took * scale,
                         "raw_latency_s": took, "speed_scale": scale, "exit": code, "rss_mb": rss})
        judge.cli(ops, tmp, recs)
        return {"rss_mb": max(r["rss_mb"] for r in recs), "ops": recs}

    passes = timed_passes(one_pass, seconds)
    return passes, setup


def inproc(spawn, workload: str, seed: int, tmp: Path, trace: bool, spans: Path | None = None):
    """One pass in a fresh interpreter: (its JSON result, peak RSS in MB)."""
    out = tmp / "inproc.json"
    cmd = [sys.executable, str(HERE / "inproc.py"), "--workload", workload, "--seed", str(seed),
           "--tmp", str(tmp), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    code, _, rss = spawn(cmd, ROOT, tmp / "inproc.stdout", tmp / "inproc.stderr")
    if code != 0:
        raise RuntimeError(f"in-process pass of {workload} failed (exit {code}):\n"
                           + _read(tmp / "inproc.stderr"))
    return json.loads(out.read_text()), rss


def run_germ_workload(spawn, seed: int, seconds: float, tmp: Path):
    time_version(spawn, tmp)  # warm-up: byte-compiles the package once per checkout
    judge = Judge()
    setup = []

    def one_pass(k):
        # the pass probes the machine's speed itself, around its import and its ops
        result, rss = inproc(spawn, "germ_compose", seed, tmp, trace=False)
        setup.append((result["import_s"] * result["import_scale"], result["import_s"]))
        for rec in result["ops"]:
            rec["pass"] = k
            judge.repeat(rec, rec["digest"])
        return {"rss_mb": rss, "ops": result["ops"]}

    passes = timed_passes(one_pass, seconds)
    return passes, setup


def check_inproc(workload: str, seed: int, tmp: Path, result, judge: Judge):
    """Oracle verdicts for an in-process pass's ops."""
    recs = result["ops"]
    if workload == "germ_compose":
        for rec in recs:
            judge.repeat(rec, rec["digest"])
    else:
        import workloads as W

        _, ops = W.cli_workload(workload, seed)
        judge.cli(ops, tmp, recs)
    for rec in recs:
        Judge.classify(rec)
    return recs


def import_seconds(spawn, tmp: Path) -> float:
    code = ("import time; s = time.perf_counter(); import dynsys.cli; "
            "print(repr(time.perf_counter() - s))")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        rc, _, _ = spawn([sys.executable, "-c", code], tmp, tmp / "import.out", tmp / "import.err")
        if rc != 0:
            raise RuntimeError("import dynsys.cli failed:\n" + _read(tmp / "import.err"))
        samples.append(float(_read(tmp / "import.out")))
    return statistics.median(samples)


def run_traced(spawn, workload: str, seed: int, tmp: Path):
    """One traced in-process pass of every workload (so every layer metric
    exists), and an untraced in-process pass of ``workload`` for the
    tracing overhead.  Returns (per-layer metrics, op records)."""
    import tracing
    import workloads as W

    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    time_version(spawn, tmp)
    parts, recs, traced_wall = [], [], None
    for name in W.WORKLOADS:
        wtmp = tmp / name
        wtmp.mkdir()
        if name in W.CLI_WORKLOADS:
            write_specs(name, seed, wtmp)
        judge = Judge()
        result, _ = inproc(spawn, name, seed, wtmp, trace=True, spans=spans_dir / f"{name}-seed{seed}.json.gz")
        parts.append(result["layers"])
        recs += [dict(r, workload=name) for r in check_inproc(name, seed, wtmp, result, judge)]
        if name == workload:
            traced_wall = sum(r.get("raw_latency_s", r["latency_s"]) for r in result["ops"])
            untraced, _ = inproc(spawn, name, seed, wtmp, trace=False)
            recs += [dict(r, workload=name)  # must repeat the traced pass's bytes
                     for r in check_inproc(name, seed, wtmp, untraced, judge)]
            plain_wall = sum(r.get("raw_latency_s", r["latency_s"]) for r in untraced["ops"])
    metrics = tracing.layer_metrics(parts, import_seconds(spawn, tmp), traced_wall / plain_wall)
    return metrics, recs


# --- records ---------------------------------------------------------------------


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in (packed.read_text().splitlines() if packed.is_file() else []):
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _load() -> dict:
    """Load average, and the CPU time the hypervisor stole (/proc/stat)."""
    out = {}
    try:
        out["loadavg"] = Path("/proc/loadavg").read_text().strip()
        out["steal_ticks"] = int(Path("/proc/stat").read_text().split()[8])
    except (OSError, IndexError, ValueError):
        pass
    return out


def machine_record() -> dict:
    import numpy
    import scipy

    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": _git_commit(), "load_start": _load()}


def run_one(spawn, workload: str, seed: int, seconds: int, trace: bool):
    """(metrics name -> (value, unit), op records, extra facts for the report)."""
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT / "tmp"))
    try:
        if trace:
            metrics, recs = run_traced(spawn, workload, seed, tmp)
            return metrics, recs, {}
        if workload == "germ_compose":
            passes, setup = run_germ_workload(spawn, seed, seconds, tmp)
        else:
            passes, setup = run_cli_workload(spawn, workload, seed, seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    recs = [r for p in passes for r in p["ops"]]
    for r in recs:
        Judge.classify(r)
    values = summarize(passes, setup)
    facts = {"passes": len(passes), "ops_per_pass": len(passes[0]["ops"]),
             "raw": summarize(passes, setup, raw=True), "setup_samples_s": setup,
             "speed_scale": [r["speed_scale"] for r in recs]}
    return {k: (v, UNITS[k]) for k, v in values.items()}, recs, facts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="ode_solve, morphism_laws, germ_compose, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "dynsys" / "__init__.py").is_file():
        print(f"error: no dynsys package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    runs = 3 if args.workload == "all" else 1
    spawn = Spawner(RUN_LIMIT_S * runs)  # before numpy and scipy enter this process
    try:
        return bench(spawn, parser, args)
    finally:
        spawn.close()


def bench(spawn, parser, args) -> int:
    import workloads as W

    if args.workload not in W.WORKLOADS + ("all",):
        parser.error(f"unknown workload {args.workload!r}")
    machine = machine_record()
    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, recs, report = {}, [], {}
    for name in names:
        got, got_recs, facts = run_one(spawn, name, args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in got.items()})
        recs += [{"workload": name, **r} for r in got_recs]
        report[name] = {"metrics": got, **facts}
        print(f"workload {name}  seed {args.seed}  trace {args.trace}"
              + (f"  passes {facts['passes']}  ops/pass {facts['ops_per_pass']}" if facts else ""))
        for key, (value, unit) in got.items():
            raw = f"   as timed {facts['raw'][key]:.6g}" if facts else ""
            print(f"  {key:32s} {value:14.6g} {unit:3s}{raw}")
        if facts:
            scale = facts["speed_scale"]
            print(f"  machine speed vs reference: median {statistics.median(scale):.3f}, "
                  f"range {min(scale):.3f}-{max(scale):.3f}")
    machine["load_end"] = _load()

    failed = [r for r in recs if r["status"] == "failed"]
    defects = sorted({(r["workload"], r["name"], r["defect"]) for r in recs
                      if r["status"] == "known-defect"})
    for workload, name, why in defects:
        print(f"known defect (counted in fail_ratio): {workload}/{name}: {why}")
    for r in failed[:20]:
        print(f"FAILED {r['workload']}/{r['name']} pass {r.get('pass')}: {r['disagreements']}")
    start, end = machine["load_start"], machine["load_end"]
    print(f"load: loadavg {start.get('loadavg')} -> {end.get('loadavg')}, stolen CPU ticks "
          f"{end.get('steal_ticks', 0) - start.get('steal_ticks', 0)}")

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    results = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps({"args": vars(args), "machine": machine, "workloads": report,
                                   "ops": recs}, indent=1, default=str))
    print(f"results: {results}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(recs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
