"""Span tracing around the package's public functions, from outside.

``Tracer.install`` replaces each public function named in ``TARGETS`` on
every ``dynsys`` module attribute that refers to it (and methods on their
classes) with a wrapper that records a span: name, start, end, parent span
and op id.  Spans stay in memory; ``write_spans`` saves them once the pass
is over.  A layer's self time is its spans' duration minus the time its
child spans cover.

The integrator evaluates its right-hand side through a private evaluator
that no outside wrapper sees, so the ``expr`` per-call figures are replays
of the public evaluators, untraced, on the inputs the pass recorded.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

TARGETS = (
    ("specio.load_system", "dynsys.specio", "load_system"),
    ("specio.load_map", "dynsys.specio", "load_map"),
    ("specio.render_report", "dynsys.specio", "render_report"),
    ("expr.parse", "dynsys.expr", "parse"),
    ("expr.parse_vector", "dynsys.expr", "parse_vector"),
    ("expr.evaluate", "dynsys.expr", "evaluate"),
    ("expr.evaluate_vector", "dynsys.expr", "evaluate_vector"),
    ("expr.evaluate_many", "dynsys.expr", "evaluate_many"),
    ("expr.jacobian", "dynsys.expr", "jacobian"),
    ("expr.differentiate", "dynsys.expr", "differentiate"),
    ("expr.substitute", "dynsys.expr", "substitute"),
    ("continuous.integrate", "dynsys.continuous", "integrate"),
    ("continuous.sample", "dynsys.continuous", "Trajectory.sample"),
    ("continuous.to_csv", "dynsys.continuous", "Trajectory.to_csv"),
    ("continuous.check_f_relatedness", "dynsys.continuous", "check_f_relatedness"),
    ("continuous.check_solution_preservation", "dynsys.continuous", "check_solution_preservation"),
    ("continuous.find_equilibria", "dynsys.continuous", "find_equilibria"),
    ("continuous.check_equilibrium_morphism", "dynsys.continuous", "check_equilibrium_morphism"),
    ("continuous.check_periodic_orbit", "dynsys.continuous", "check_periodic_orbit"),
    ("continuous.solution_morphism_report", "dynsys.continuous", "solution_morphism_report"),
    ("germ.partial_map", "dynsys.germ", "partial_map"),
    ("germ.preimage", "dynsys.germ", "preimage"),
    ("germ.compose_partial", "dynsys.germ", "compose_partial"),
    ("core.enumerate_pointed_morphisms", "dynsys.core", "enumerate_pointed_morphisms"),
    ("core.verify_initiality_discrete", "dynsys.core", "verify_initiality_discrete"),
    ("core.compose_morphisms", "dynsys.core", "compose_morphisms"),
    ("discrete.check_dt_morphism", "dynsys.discrete", "check_dt_morphism"),
    ("discrete.iterate", "dynsys.discrete", "iterate"),
    ("tau.check_section", "dynsys.tau", "check_section"),
)

# calls whose arguments and results the replays and counters need
RECORDED = frozenset({
    "continuous.integrate", "core.enumerate_pointed_morphisms", "germ.compose_partial",
    "expr.jacobian", "expr.differentiate", "expr.substitute",
})

REPLAY_REPEATS = 5


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.op = -1
        self.records: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)
        if name in RECORDED:
            self.records[name].append((args, kwargs, result))
        return result

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for modname in {t[1] for t in TARGETS} | {"dynsys.cli"}:
            importlib.import_module(modname)
        modules = [m for n, m in sys.modules.items() if n == "dynsys" or n.startswith("dynsys.")]
        for name, modname, attr in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            holders = [(owner, attr)] if isinstance(owner, type) else [
                (m, k) for m in modules for k, v in vars(m).items() if v is orig
            ]
            for obj, key in holders:
                self._patches.append((obj, key, orig))
                setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()

    def _self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_name(self) -> dict[str, list[float]]:
        """name -> [calls, inclusive seconds, self seconds]."""
        out: dict[str, list[float]] = {}
        for (name, start, end, _, _), own in zip(self.spans, self._self_times()):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += own
        return out

    def self_time(self, name: str, ops: set[int]) -> float:
        """Total self time of the spans called ``name`` in the given ops."""
        return sum(own for (n, _, _, _, op), own in zip(self.spans, self._self_times())
                   if n == name and op in ops)

    def write_spans(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "names": names,
                       "spans": [[index[n], s, e, p, op] for n, s, e, p, op in self.spans]}, fh)


def _per_call(fn, calls) -> float:
    """Median over repeats of the mean seconds per call of fn(*args)."""
    samples = []
    for _ in range(REPLAY_REPEATS):
        start = time.perf_counter()
        for args in calls:
            fn(*args)
        samples.append((time.perf_counter() - start) / len(calls))
    return statistics.median(samples)


def replays(tracer: Tracer, batch=()) -> dict[str, list[float]]:
    """Untraced replays of the public evaluators on recorded inputs.

    Each entry is [weighted seconds, weight] so passes can be summed.
    ``batch`` holds (maps, points): the batched evaluator is replayed on
    each map and its derivative at the points.
    """
    from dynsys import continuous as C
    from dynsys import expr as E

    out = {k: [0.0, 0.0] for k in ("eval_scalar", "jacobian_build", "jacobian_eval",
                                  "substitute", "differentiate", "eval_batch")}
    for args, kwargs, traj in tracer.records["continuous.integrate"]:
        system = args[0] if args else kwargs["sys"]
        steps = len(traj.times) - 1
        rows = np.unique(np.linspace(0, len(traj.times) - 1, 32).astype(int))
        calls = [(system.field, traj.states[i], traj.times[i]) for i in rows]
        out["eval_scalar"][0] += steps * _per_call(E.evaluate_vector, calls)
        out["eval_scalar"][1] += steps
    for args, _, _ in tracer.records["expr.jacobian"]:
        field = args[0]
        out["jacobian_build"][0] += _per_call(E.jacobian, [(field,)])
        out["jacobian_build"][1] += 1
        jac = E.jacobian(field)
        points = []
        for p in C.default_samples(C.full_space(field.arity), 8):
            try:
                [E.evaluate(entry, p) for row in jac for entry in row]
                points.append(p)
            except E.DomainError:
                continue
        if points:
            entries = [(entry, p) for p in points for row in jac for entry in row]
            out["jacobian_eval"][0] += _per_call(E.evaluate, entries) * len(entries)
            out["jacobian_eval"][1] += len(points)
    for key, fn in (("substitute", E.substitute), ("differentiate", E.differentiate)):
        calls = [args for args, kwargs, _ in tracer.records[f"expr.{key}"] if not kwargs]
        if calls:
            out[key][0] += _per_call(fn, calls) * len(calls)
            out[key][1] += len(calls)
    for maps, points in batch:
        calls = [(e, points) for m in maps for e in (m, E.differentiate(m, 1))]
        out["eval_batch"][0] += _per_call(E.evaluate_many, calls) * len(calls)
        out["eval_batch"][1] += len(calls) * len(points)
    return out


def counters(tracer: Tracer) -> dict[str, int]:
    integrations = [r for _, _, r in tracer.records["continuous.integrate"]]
    return {
        "steps": sum(len(t.times) - 1 for t in integrations),
        "early_exits": sum(t.termination in ("left-domain", "blow-up") for t in integrations),
        "enum_candidates": sum(r[1] for _, _, r in tracer.records["core.enumerate_pointed_morphisms"]),
        "intervals": sum(len(r.domain.intervals) for _, _, r in tracer.records["germ.compose_partial"]),
    }


def layer_metrics(parts: list[dict], import_s: float, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Combine the traced passes' summaries into the per-layer metrics."""
    spans: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    counts: dict[str, float] = defaultdict(int)
    replay: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for part in parts:
        for name, row in part["spans"].items():
            spans[name] = [a + b for a, b in zip(spans[name], row)]
        for key, value in part["counts"].items():
            counts[key] += value
        for key, (num, den) in part["replay"].items():
            replay[key] = [replay[key][0] + num, replay[key][1] + den]

    def mean(names, field=1, scale=1.0):
        calls = sum(spans[n][0] for n in names)
        return sum(spans[n][field] for n in names) / calls * scale if calls else 0.0

    def ratio(key, scale):
        num, den = replay[key]
        return num / den * scale if den else 0.0

    steps = counts["steps"]
    eval_us = ratio("eval_scalar", 1e6)
    step_us = spans["continuous.integrate"][2] / steps * 1e6 if steps else 0.0
    csv_n = spans["continuous.to_csv"][0] + counts["stdout_csv_ops"]
    csv_s = spans["continuous.to_csv"][2] + counts["stdout_csv_s"]
    candidates = counts["enum_candidates"]
    return {
        "cli.import_s": (import_s, "s"),
        "specio.load_ms": (mean(["specio.load_system", "specio.load_map"], 1, 1e3), "ms"),
        "specio.render_ms": (mean(["specio.render_report"], 1, 1e3), "ms"),
        "expr.eval_scalar_us": (eval_us, "us"),
        "expr.eval_batch_ns_per_pt": (ratio("eval_batch", 1e9), "ns"),
        "expr.jacobian_build_ms": (ratio("jacobian_build", 1e3), "ms"),
        "expr.jacobian_eval_us": (ratio("jacobian_eval", 1e6), "us"),
        "expr.substitute_us": (ratio("substitute", 1e6), "us"),
        "expr.differentiate_us": (ratio("differentiate", 1e6), "us"),
        "expr.calls.evaluate": (spans["expr.evaluate"][0], "1"),
        "expr.calls.evaluate_many": (spans["expr.evaluate_many"][0], "1"),
        "continuous.steps": (steps, "1"),
        "continuous.step_us": (step_us, "us"),
        "continuous.step_overhead_us": (step_us - 6 * eval_us, "us"),
        "continuous.sample_us": (mean(["continuous.sample"], 1, 1e6), "us"),
        "continuous.frel_ms": (mean(["continuous.check_f_relatedness"], 2, 1e3), "ms"),
        "continuous.equilibria_ms": (mean(["continuous.find_equilibria"], 2, 1e3), "ms"),
        "continuous.preserve_ms": (mean(["continuous.check_solution_preservation"], 2, 1e3), "ms"),
        "continuous.csv_ms": (csv_s / csv_n * 1e3 if csv_n else 0.0, "ms"),
        "continuous.early_exits": (counts["early_exits"], "1"),
        "germ.partial_map_us": (mean(["germ.partial_map"], 1, 1e6), "us"),
        "germ.preimage_ms": (mean(["germ.preimage"], 1, 1e3), "ms"),
        "germ.compose_ms": (mean(["germ.compose_partial"], 1, 1e3), "ms"),
        "germ.intervals": (counts["intervals"], "1"),
        "core.enum_candidates": (candidates, "1"),
        "core.enum_ns_per_candidate": (
            spans["core.enumerate_pointed_morphisms"][2] / candidates * 1e9 if candidates else 0.0, "ns"),
        "discrete.check_us": (mean(["discrete.check_dt_morphism"], 1, 1e6), "us"),
        "tau.check_section_ms": (mean(["tau.check_section"], 1, 1e3), "ms"),
        "trace.overhead_ratio": (overhead_ratio, "1"),
    }
