"""Seeded inputs and the operations of the benchmark workloads.

Every generated input is an item of a fixed pool, drawn once from ``POOL_SEED``,
so that ``reference.json`` can hold the discrete outputs of every input the
benchmark can ever send. The pool of a workload is split into strata by op
type and size, and each stratum into blocks that hold one item of every size
level the stratum has (a budget, a horizon, a source count).

A run is a sequence of rounds. Each round holds the workload's fixed items and
the next item of every stratum. The run seed permutes the blocks of each
stratum and the items inside each block, so the inputs change with the seed
while every run walks through the size levels in whole blocks and sends the
same mix of sizes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import count
from pathlib import Path

import numpy as np

from infotrap import dynamics, oracle, scenarios

# Changing this seed or any draw below changes the pool: re-record the reference.
POOL_SEED = 180508134

# The example2 confounder sweep of the paper, on the variance of state 2.
SWEEP_GRID = (6.0, 7.0, 7.9, 8.1, 9.0, 12.0)


@dataclass(frozen=True)
class Item:
    """One input: a scenario document plus what the op does with it."""

    name: str
    kind: str  # scenario | sweep | simulate | optimal_division | greedy_vs_optimal
    doc: dict


Stratum = tuple[tuple[Item, ...], ...]  # blocks, each with one item per size level


@dataclass(frozen=True)
class Workload:
    name: str
    fixed: tuple[Item, ...]
    strata: tuple[Stratum, ...]

    @property
    def round_len(self) -> int:
        return len(self.fixed) + len(self.strata)

    def items(self) -> list[Item]:
        return list(self.fixed) + [it for s in self.strata for block in s for it in block]

    def orders(self, seed: int) -> list[list[Item]]:
        """Each stratum's items in the order a run with this seed uses them."""
        rng = np.random.default_rng(seed)
        return [
            [s[b][j] for b in rng.permutation(len(s)) for j in rng.permutation(len(s[b]))]
            for s in self.strata
        ]

    def sequence(self, seed: int):
        """Endless op sequence for one run: rounds of the fixed items and one item per stratum."""
        orders = self.orders(seed)
        for r in count():
            yield from self.fixed
            for order in orders:
                yield order[r % len(order)]


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([POOL_SEED, *key])


def _blocks(items: list[Item], levels: int) -> Stratum:
    return tuple(tuple(items[i:i + levels]) for i in range(0, len(items), levels))


def _doc(name, coefficients, prior_cov, horizon, objective=None, intervention="none") -> dict:
    k = coefficients.shape[1]
    if objective is None:
        objective = [(1.0, np.eye(k)[0])]
    return {
        "name": name,
        "coefficients": np.round(coefficients, 4).tolist(),
        "objective": [
            {"weight": round(float(w), 4), "direction": np.round(d, 4).tolist()}
            for w, d in objective
        ],
        "prior_mean": [0.0] * k,
        "prior_cov": prior_cov.tolist(),
        "horizon": int(horizon),
        "tie_break": "lowest_index",
        "intervention": intervention,
        "sample_realizations": False,
        "seed": 0,
    }


def _generic(rng: np.random.Generator, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard-normal coefficients and a random correlated, well-conditioned prior."""
    coefficients = rng.standard_normal((n, k))
    g = rng.standard_normal((k, k))
    cov = g @ g.T / k + np.diag(rng.uniform(0.2, 4.0, k))
    cov = np.round(0.5 * (cov + cov.T), 6)
    return coefficients, cov


def _bundled_doc(bundled: str, **changes) -> dict:
    doc = scenarios.scenario_to_dict(scenarios.bundled_scenario(bundled))
    doc.update(changes)
    return doc


def _paper_scenarios() -> Workload:
    fixed = [Item(n, "scenario", _bundled_doc(n)) for n in scenarios.bundled_scenario_names()]
    for tag, iv in (
        ("precision10", {"precision": 10}),
        ("batch2", {"batch": 2}),
        ("free_signals_auto", {"free_signals_auto": {"gamma0": 1.0}}),
    ):
        name = f"example2_{tag}"
        fixed.append(Item(name, "scenario", _bundled_doc("example2", name=name, intervention=iv)))
    fixed.append(Item("example2_sweep", "sweep", _bundled_doc("example2", name="example2_sweep")))
    horizons = (500, 625, 750, 875, 1000)
    strata = []
    # Two strata per source count, so that generic runs are 12 of a round's 20 ops.
    for n in range(3, 9):
        for part in (0, 1):
            items = []
            for i in range(20):
                rng = _rng(1, n, part, i)
                k = int(rng.integers(2, min(4, n - 1) + 1))
                coefficients, cov = _generic(rng, n, k)
                iv = {"precision": int(rng.choice([2, 10]))} if rng.random() < 0.25 else "none"
                name = f"ps-n{n}-{part}-{i:02d}"
                doc = _doc(name, coefficients, cov, horizons[i % len(horizons)], intervention=iv)
                items.append(Item(name, "scenario", doc))
            strata.append(_blocks(items, len(horizons)))
    return Workload("paper_scenarios", tuple(fixed), tuple(strata))


def _wide_sources() -> Workload:
    strata = []
    for n in range(10, 14):
        for k in (4, 5):
            items = []
            for i in range(30):
                coefficients, cov = _generic(_rng(2, n, k, i), n, k)
                name = f"ws-n{n}-k{k}-{i:02d}"
                items.append(Item(name, "simulate", _doc(name, coefficients, cov, 200)))
            strata.append(_blocks(items, 1))
    return Workload("wide_sources", (), tuple(strata))


def _exact_design() -> Workload:
    strata = []
    budgets = (8, 11, 14, 17, 20, 23, 26, 29, 34)
    for n in (3, 4, 5):
        items = []
        for i in range(45):
            rng = _rng(3, n, i)
            k = int(rng.integers(2, min(3, n - 1) + 1))
            coefficients, cov = _generic(rng, n, k)
            name = f"od-n{n}-{i:02d}"
            doc = _doc(name, coefficients, cov, budgets[i % len(budgets)])
            items.append(Item(name, "optimal_division", doc))
        strata.append(_blocks(items, len(budgets)))
    horizons = tuple(range(12, 21))
    for n in (3, 4):
        items = []
        for i in range(45):
            coefficients, cov = _generic(_rng(4, n, i), n, 2)
            name = f"gvo-n{n}-{i:02d}"
            doc = _doc(name, coefficients, cov, horizons[i % len(horizons)])
            items.append(Item(name, "greedy_vs_optimal", doc))
        strata.append(_blocks(items, len(horizons)))
    sources = (3, 4, 5, 6)
    for b in (2, 3, 4):
        items = []
        for i in range(40):
            rng = _rng(5, b, i)
            n = sources[i % len(sources)]
            k = int(rng.integers(2, min(3, n - 1) + 1))
            coefficients, cov = _generic(rng, n, k)
            name = f"ba-b{b}-{i:02d}"
            doc = _doc(name, coefficients, cov, 300, intervention={"batch": b})
            items.append(Item(name, "simulate", doc))
        strata.append(_blocks(items, len(sources)))
    return Workload("exact_design", (), tuple(strata))


def _multi_target() -> Workload:
    strata = []
    for k in (2, 3):
        for n in (k + 1, k + 2):
            items = []
            for i in range(20):
                rng = _rng(6, k, n, i)
                coefficients, cov = _generic(rng, n, k)
                weights = rng.uniform(0.2, 2.0, 2)
                second = rng.standard_normal(k)
                objective = [(weights[0], np.eye(k)[0]), (weights[1], second)]
                name = f"mt-k{k}-n{n}-{i:02d}"
                items.append(Item(name, "scenario", _doc(name, coefficients, cov, 500, objective)))
            strata.append(_blocks(items, 1))
    return Workload("multi_target", (), tuple(strata))


BUILDERS = {
    "paper_scenarios": _paper_scenarios,
    "wide_sources": _wide_sources,
    "exact_design": _exact_design,
    "multi_target": _multi_target,
}


def write_inputs(workload: Workload, seed: int, path: Path) -> None:
    """Write every input a run with this seed may use, as one scenario JSON array."""
    docs = [it.doc for it in workload.fixed]
    for order in workload.orders(seed):
        docs.extend(it.doc for it in order)
    path.write_text(json.dumps(docs) + "\n", encoding="utf-8")


def run_op(item: Item, scenario, work_dir: Path):
    """The timed operation. Calls go through module attributes so tracing sees them."""
    if item.kind == "scenario":
        trace, report = scenarios.run_scenario(scenario)
        scenarios.write_trace_csv(work_dir / f"{item.name}_trace.csv", scenario, trace)
        scenarios.write_report_json(work_dir / f"{item.name}_report.json", report)
        return trace, report
    if item.kind == "sweep":
        spec = scenarios.SweepSpec(base=scenario, state_index=1, grid=list(SWEEP_GRID))
        report = scenarios.sweep(spec)
        scenarios.write_report_json(work_dir / f"{item.name}_sweep.json", report)
        return None, report
    env, prior, horizon = scenario.environment, scenario.prior, scenario.horizon
    if item.kind == "simulate":
        trace = dynamics.simulate(
            env, prior, horizon, rule=scenario.tie_break, intervention=scenario.intervention
        )
        return trace, None
    if item.kind == "optimal_division":
        return oracle.optimal_division(env, prior, horizon), None
    if item.kind == "greedy_vs_optimal":
        return oracle.greedy_vs_optimal(env, prior, horizon), None
    raise ValueError(f"unknown op kind {item.kind!r}")


def warm_up(work_dir: Path) -> None:
    """A short run of the scenario path, so first-call costs fall before timing starts."""
    doc = _bundled_doc("example2", name="warm_up", horizon=50)
    run_op(Item("warm_up", "scenario", doc), scenarios.parse_scenario(doc), work_dir)


def _digest(choices) -> str:
    text = "\n".join(
        str(int(c)) if isinstance(c, (int, np.integer)) else ";".join(str(int(b)) for b in c)
        for c in choices
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _trace_fields(trace) -> dict:
    cls = trace.classification
    return {
        "digest": _digest(trace.choices),
        "counts": [int(c) for c in trace.final_counts.counts],
        "classification": cls.kind,
        "trapped": [int(i) for i in cls.trapped],
        "variance": float(trace.variance_path[-1]),
        "ratio": trace.inefficiency_ratio,
    }


# Outputs that must equal the recorded reference exactly.
DISCRETE = (
    "digest", "counts", "classification", "trapped", "best_set", "gamma_final",
    "rows", "threshold", "num_optima", "num_rows",
)


def summarize(item: Item, result, work_dir: Path) -> dict:
    """Compact, JSON-able outputs of one op, taken outside the timed region."""
    first, report = result
    if item.kind == "scenario":
        out = _trace_fields(first)
        written = json.loads((work_dir / f"{item.name}_report.json").read_text(encoding="utf-8"))
        out.update(
            best_set=report["best_set"],
            gamma_final=report.get("gamma_final"),
            phi_best=report["phi_best"],
            lambda_star=report["lambda_star"],
            report_ratio=report["inefficiency_ratio"],
            artifact_matches=written == report,
        )
        return out
    if item.kind == "sweep":
        written = json.loads((work_dir / f"{item.name}_sweep.json").read_text(encoding="utf-8"))
        return {
            "rows": [[r["classification"], r["trapped_set"]] for r in report["rows"]],
            "row_ratios": [r["inefficiency_ratio"] for r in report["rows"]],
            "threshold": report["threshold"],
            "artifact_matches": written == report,
        }
    if item.kind == "simulate":
        return _trace_fields(first)
    if item.kind == "optimal_division":
        return {
            "counts": [int(c) for c in first.counts.counts],
            "num_optima": int(first.num_optima),
            "value": float(first.value),
        }
    return {
        "num_rows": len(first),
        "greedy": [r.greedy_variance for r in first],
        "optimal": [r.optimal_variance for r in first],
    }
