"""Run-time wrappers that record spans at the program's layer boundaries.

Only the traced run installs them, and it takes them off around the untraced
replays that measure their overhead. Spans are kept in memory and
written once at the end. Linear-algebra entry points are called thousands of
times per op, so they are recorded as counters of the enclosing span's layer
rather than as spans of their own; their time still counts as child time.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from infotrap import dynamics, gaussian, oracle, scenarios

# span record fields
NAME, START, END, PARENT, OP, CHILD_SPANS, CHILD_LEAVES, EXTRA = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.leaves = defaultdict(lambda: [0, 0.0, 0])  # (layer, kind) -> calls, s, items
        self.stack: list[int] = []
        self.op: int | None = None  # spans are recorded only while an op runs
        self._targets: list[tuple] = []  # (owner, attr, original, wrapper)

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        self._targets.append((owner, attr, original, functools.wraps(original)(make(original))))

    def attach(self) -> None:
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def detach(self) -> None:
        for owner, attr, original, _ in reversed(self._targets):
            setattr(owner, attr, original)

    def span(self, owner, attr: str, name: str, extra=None) -> None:
        """Record a span around ``owner.attr``; ``extra(args, kwargs, result)`` adds fields."""

        def make(fn):
            def wrapper(*args, **kwargs):
                if self.op is None:
                    return fn(*args, **kwargs)
                parent = self.stack[-1] if self.stack else -1
                rec = [name, time.perf_counter(), 0.0, parent, self.op, 0.0, 0.0, None]
                self.stack.append(len(self.spans))
                self.spans.append(rec)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    rec[EXTRA] = {"error": type(exc).__name__}
                    raise
                finally:
                    rec[END] = time.perf_counter()
                    self.stack.pop()
                    if parent >= 0:
                        self.spans[parent][CHILD_SPANS] += rec[END] - rec[START]
                if extra is not None:
                    rec[EXTRA] = extra(args, kwargs, result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def leaf(self, owner, attr: str, kind: str, size=None) -> None:
        """Count calls of ``owner.attr`` against the layer of the enclosing span."""

        def make(fn):
            def wrapper(*args, **kwargs):
                if self.op is None:
                    return fn(*args, **kwargs)
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    parent = self.stack[-1] if self.stack else -1
                    layer = self.spans[parent][NAME].split(".")[0] if parent >= 0 else "bench"
                    acc = self.leaves[(layer, kind)]
                    acc[0] += 1
                    acc[1] += elapsed
                    if size is not None:
                        acc[2] += size(args)
                    if parent >= 0:
                        self.spans[parent][CHILD_LEAVES] += elapsed

            return wrapper

        self._patch(owner, attr, make)

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op", "child_spans_s", "child_leaves_s", "extra")
        doc = {
            "spans": [dict(zip(keys, rec)) for rec in self.spans],
            "leaves": [
                {"layer": layer, "kind": kind, "calls": c, "s": s, "items": n}
                for (layer, kind), (c, s, n) in sorted(self.leaves.items())
            ],
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _simulate_extra(args, kwargs, trace) -> dict:
    intervention = kwargs.get("intervention", args[4] if len(args) > 4 else None)
    return {
        "periods": len(trace.choices),
        "batch": isinstance(intervention, dynamics.BatchAllocate),
    }


def _written_bytes(args, kwargs, result) -> dict:
    return {"bytes": Path(args[0]).stat().st_size}


def _allocations(args, kwargs, result) -> dict:
    env, _, t = args[:3]
    n = env.num_sources
    return {"allocations": math.comb(t + n - 1, n - 1)}


def _batch_size(args) -> int:
    a = args[0]
    return a.shape[0] if getattr(a, "ndim", 0) == 3 else 0


def install() -> Tracer:
    """Wrap the public functions the benchmark calls, the names one module
    imports from another, and the linear-algebra entry points; then attach."""
    t = Tracer()
    for owner, attr, name, extra in (
        (scenarios, "run_scenario", "scenarios.run_scenario", None),
        (scenarios, "sweep", "scenarios.sweep", None),
        (scenarios, "analysis_fields", "scenarios.analysis_fields", None),
        (scenarios, "write_trace_csv", "scenarios.write", _written_bytes),
        (scenarios, "write_report_json", "scenarios.write", _written_bytes),
        (scenarios, "check_assumptions", "spanning.check_assumptions", None),
        (scenarios, "enumerate_minimal_spanning_sets", "spanning.enumerate", None),
        (scenarios, "simulate", "dynamics.simulate", _simulate_extra),
        (scenarios, "escalate_gamma", "dynamics.escalate_gamma", None),
        (dynamics, "simulate", "dynamics.simulate", _simulate_extra),
        (dynamics, "design_free_signals", "dynamics.design_free_signals", None),
        (dynamics, "best_set", "spanning.best_set", None),
        (dynamics, "beta_phi_lambda", "spanning.beta_phi_lambda", None),
        (dynamics, "enumerate_minimal_spanning_sets", "spanning.enumerate", None),
        (oracle, "simulate", "dynamics.simulate", _simulate_extra),
        (oracle, "optimal_division", "oracle.optimal_division", _allocations),
        (oracle, "greedy_vs_optimal", "oracle.greedy_vs_optimal", None),
        (oracle, "optimal_frequency_numeric", "oracle.numeric", None),
        (oracle, "beta_phi_lambda", "spanning.beta_phi_lambda", None),
        (oracle, "asymptotic_variance", "gaussian.asymptotic_variance", None),
        (gaussian, "asymptotic_variance", "gaussian.asymptotic_variance", None),
        (gaussian.GaussianPrior, "__post_init__", "gaussian.GaussianPrior", None),
        (gaussian.Environment, "__post_init__", "gaussian.Environment", None),
    ):
        t.span(owner, attr, name, extra)
    t.leaf(dynamics, "cho_factor", "cho")
    t.leaf(dynamics, "cho_solve", "cho")
    t.leaf(np.linalg, "solve", "solve", _batch_size)
    for kind in ("svd", "lstsq", "eigh"):
        t.leaf(np.linalg, kind, kind)
    t.attach()
    return t


PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "scenarios.parse_s": "s",
    "scenarios.run_scenario.self_s": "s/op",
    "scenarios.write.s": "s/op",
    "scenarios.write.bytes": "bytes/op",
    "scenarios.analysis_fields.calls": "count/op",
    "dynamics.periods": "count/op",
    "dynamics.runs": "count/op",
    "dynamics.step_us": "us",
    "dynamics.linalg.calls": "count/op",
    "dynamics.linalg.s": "s/op",
    "dynamics.batch.candidates": "count/op",
    "dynamics.batch.s": "s/op",
    "spanning.best_set.calls": "count/op",
    "spanning.best_set.s": "s/op",
    "spanning.svd.calls": "count/op",
    "spanning.lstsq.calls": "count/op",
    "spanning.check_assumptions.s": "s/op",
    "oracle.optimal_division.s": "s/op",
    "oracle.allocations": "count/op",
    "oracle.allocations_per_s": "1/s",
    "oracle.solve.s": "s/op",
    "oracle.numeric.s": "s/op",
    "oracle.numeric.eigh_calls": "count/op",
    "oracle.numeric.failures": "count/op",
    "gaussian.s": "s/op",
    "gaussian.asymptotic_variance.calls": "count/op",
    "trace.overhead": "ratio",
}


def layer_metrics(t: Tracer, ops: int) -> dict[str, float]:
    """Per-op layer figures from the recorded spans and counters."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    periods = batch_s = engine_s = allocations = failures = 0.0
    written = 0
    gaussian_s = 0.0
    for rec in t.spans:
        name, extra = rec[NAME], rec[EXTRA] or {}
        dur = rec[END] - rec[START]
        calls[name] += 1
        total[name] += dur
        own[name] += dur - rec[CHILD_SPANS] - rec[CHILD_LEAVES]
        parent = t.spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else ""
        if name.startswith("gaussian.") and not parent.startswith("gaussian."):
            gaussian_s += dur
        if name == "dynamics.simulate" and "periods" in extra:
            # Engine time: the run minus its spanning-set analysis.
            engine = dur - rec[CHILD_SPANS]
            periods += extra["periods"]
            engine_s += engine
            if extra["batch"]:
                batch_s += engine
        allocations += extra.get("allocations", 0)
        written += extra.get("bytes", 0)
        if name == "oracle.numeric" and extra.get("error") == "ConvergenceError":
            failures += 1

    def leaf(layer, kind, field=0):
        return t.leaves[(layer, kind)][field] if (layer, kind) in t.leaves else 0

    per_op = {
        "scenarios.run_scenario.self_s": own["scenarios.run_scenario"],
        "scenarios.write.s": total["scenarios.write"],
        "scenarios.write.bytes": written,
        "scenarios.analysis_fields.calls": calls["scenarios.analysis_fields"],
        "dynamics.periods": periods,
        "dynamics.runs": calls["dynamics.simulate"],
        "dynamics.linalg.calls": leaf("dynamics", "cho"),
        "dynamics.linalg.s": leaf("dynamics", "cho", 1),
        "dynamics.batch.candidates": leaf("dynamics", "solve", 2),
        "dynamics.batch.s": batch_s,
        "spanning.best_set.calls": calls["spanning.best_set"],
        "spanning.best_set.s": total["spanning.best_set"],
        "spanning.svd.calls": leaf("spanning", "svd"),
        "spanning.lstsq.calls": leaf("spanning", "lstsq"),
        "spanning.check_assumptions.s": total["spanning.check_assumptions"],
        "oracle.optimal_division.s": total["oracle.optimal_division"],
        "oracle.allocations": allocations,
        "oracle.solve.s": leaf("oracle", "solve", 1),
        "oracle.numeric.s": total["oracle.numeric"],
        "oracle.numeric.eigh_calls": leaf("oracle", "eigh"),
        "oracle.numeric.failures": failures,
        "gaussian.s": gaussian_s,
        "gaussian.asymptotic_variance.calls": calls["gaussian.asymptotic_variance"],
    }
    out = {k: v / ops for k, v in per_op.items()}
    out["dynamics.step_us"] = engine_s / periods * 1e6 if periods else 0.0
    od_s = total["oracle.optimal_division"]
    out["oracle.allocations_per_s"] = allocations / od_s if od_s else 0.0
    return out
