"""One pass of a workload inside this fresh interpreter.

Used for every ``germ_compose`` pass, and for the in-process passes of the
CLI workloads (``dynsys.cli.main(argv)``) that the traced run compares.
The first thing it does is time ``import dynsys``; it writes its result as
JSON to ``--out``.

    python perfbench/inproc.py --workload germ_compose --seed 1 --tmp DIR --out FILE [--trace]
"""

import argparse
import hashlib
import json
import os
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import speed

PROBE_EVERY = 25  # germ ops between two speed probes


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_germ(seed: int, tracer):
    """Compose the seeded battery; each op's latency covers building its
    partial maps and composing them, never the membership oracle."""
    import numpy as np
    from dynsys import germ as G

    import oracles
    import workloads as W

    def build(m):
        return G.partial_map(m.src, G.open_set(*m.domain))

    def pair(f, g):
        pf, pg = build(f), build(g)
        return pf, pg, G.compose_partial(pf, pg)

    def triple(f, g, h):
        pf, pg, ph = build(f), build(g), build(h)
        left = G.compose_partial(G.compose_partial(pf, pg), ph)
        right = G.compose_partial(pf, G.compose_partial(pg, ph))
        return left, right

    def check_pair(got, f, g, pts):
        gf = got[2]
        bad = oracles.membership_violations(gf.domain.intervals, [f, g], pts)
        found = [f"{bad} membership violations on {len(pts)} points"] if bad else []
        return found, f"{gf.domain.intervals!r}|{gf.map}"

    def check_triple(got, f, g, h, pts):
        left, right = got
        found = []
        if left.domain.intervals != right.domain.intervals:
            found.append("association orders give different domains")
        bad = oracles.membership_violations(left.domain.intervals, [f, g, h], pts)
        if bad:
            found.append(f"{bad} membership violations on {len(pts)} points")
        return found, f"{left.domain.intervals!r}|{right.domain.intervals!r}|{left.map}"

    battery = W.germ_battery(seed)
    todo = [(f"pair-{i}", pair, (f, g), check_pair, (f, g, pts), None)
            for i, (f, g, pts) in enumerate(battery.pairs)]
    todo += [(f"triple-{i}", triple, (f, g, h), check_triple, (f, g, h, pts), None)
             for i, (f, g, h, pts) in enumerate(battery.triples)]
    lo, hi, n = W.CUBIC_GRID
    todo.append(("shifted-cubic", pair, (W.SHIFTED_CUBIC, W.UNIT_WINDOW), check_pair,
                 (W.SHIFTED_CUBIC, W.UNIT_WINDOW, np.linspace(lo, hi, n)), W.DEFECT_CUBIC))

    ops, batch = [], []
    block_start, probe = 0, speed.walk_ms()
    for i, (name, body, args, check, check_args, defect) in enumerate(todo):
        if i - block_start == PROBE_EVERY:
            block_start, probe = i, rescale(ops, block_start, probe)
        if tracer is not None:
            tracer.op = i
            args = ("op", body) + args
            body = tracer.call
        start = time.perf_counter()
        try:
            got = body(*args)
        except Exception:  # a failed op is recorded and the pass goes on
            got, error = None, traceback.format_exc(limit=4)
        latency = time.perf_counter() - start
        if got is None:
            found, digest = [f"exception: {error}"], ""
        else:
            found, digest = check(got, *check_args)
        ops.append({"name": name, "latency_s": latency, "digest": _digest(digest),
                    "disagreements": found, "defect": defect})
        if tracer is not None and got is not None and check is check_pair:
            batch.append(([got[0].map, got[1].map], check_args[-1]))
    rescale(ops, block_start, probe)
    return ops, batch


def rescale(ops, start: int, probe_before: float) -> float:
    """Rescale ops[start:] to the reference speed by the walk probes around
    them; returns the closing probe, which opens the next block."""
    probe_after = speed.walk_ms()
    factor = speed.scale(probe_before, probe_after, speed.REF_WALK_MS)
    for rec in ops[start:]:
        rec.update({"raw_latency_s": rec["latency_s"], "speed_scale": factor,
                    "latency_s": rec["latency_s"] * factor})
    return probe_after


def run_cli(workload: str, seed: int, tmp: str, tracer):
    """Run the workload's argv lists through ``dynsys.cli.main`` in-process,
    writing stdout and stderr where the subprocess runner would."""
    from dynsys import cli

    import workloads as W

    _, ops = W.cli_workload(workload, seed)
    os.chdir(tmp)
    out = []
    for i, op in enumerate(ops):
        if op.output and os.path.exists(op.output):
            os.remove(op.output)
        with open(f"{op.name}.stdout", "w") as so, open(f"{op.name}.stderr", "w") as se, \
                redirect_stdout(so), redirect_stderr(se):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = cli.main(op.argv)
                else:
                    tracer.op = i
                    code = tracer.call("cli.main", cli.main, op.argv)
            except Exception:  # a traceback is a failed op, recorded for the oracle
                traceback.print_exc()
                code = None
            lat = time.perf_counter() - start
        out.append({"name": op.name, "latency_s": lat, "exit": code})
    return out, ops


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="where the traced pass writes its spans")
    args = parser.parse_args()

    before = speed.loop_ms()
    start = time.perf_counter()
    import dynsys  # noqa: F401  (the set-up being timed)
    import_s = time.perf_counter() - start
    import_scale = speed.scale(before, speed.loop_ms(), speed.REF_LOOP_MS)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    batch, cli_ops = [], []
    if args.workload == "germ_compose":
        ops, batch = run_germ(args.seed, tracer)
    else:
        ops, cli_ops = run_cli(args.workload, args.seed, args.tmp, tracer)
    result = {"import_s": import_s, "import_scale": import_scale, "ops": ops}
    if tracer is not None:
        tracer.uninstall()
        stdout_csv = {i for i, op in enumerate(cli_ops) if op.argv[0] == "solve" and not op.output}
        counts = tracing.counters(tracer)
        counts["stdout_csv_ops"] = len(stdout_csv)
        counts["stdout_csv_s"] = tracer.self_time("cli.main", stdout_csv)
        result["layers"] = {"spans": tracer.by_name(), "counts": counts,
                            "replay": tracing.replays(tracer, batch)}
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
