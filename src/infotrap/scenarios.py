"""Scenario files, batch execution, prior sweeps, and report emission.

A scenario is a JSON document pinning everything a run needs: coefficients,
objective, prior, horizon, tie-break rule, intervention, and seeds. Outputs are
a per-period trace CSV and a report JSON; both are byte-stable across repeated
runs with the same inputs.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .gaussian import Environment, GaussianPrior, NotPositiveDefiniteError
from .spanning import (  # enumerate_minimal_spanning_sets: perfbench/tracing.py wraps it here
    SpanError,
    best_set,
    check_assumptions,
    enumerate_minimal_spanning_sets,  # noqa: F401
)
from .dynamics import (
    AutoFreeSignals,
    BatchAllocate,
    FreeSignals,
    Intervention,
    NoIntervention,
    PrecisionReplicate,
    SimulationTrace,
    TieBreak,
    escalate_gamma,
    simulate,
)

__all__ = [
    "ScenarioError",
    "Scenario",
    "SweepSpec",
    "parse_scenario",
    "parse_scenario_file",
    "emit_scenario",
    "scenario_to_dict",
    "run_scenario",
    "run_batch",
    "sweep",
    "bundled_scenario",
    "bundled_scenario_names",
]

_FLOAT_MAX = sys.float_info.max
MAX_HORIZON = 10_000_000  # the largest ``horizon``: a run keeps a choice and a variance per period


class ScenarioError(ValueError):
    """A scenario document is malformed; the message carries the offending path."""


@dataclass(eq=False)
class Scenario:
    name: str
    environment: Environment
    prior: GaussianPrior
    horizon: int
    tie_break: TieBreak
    intervention: Intervention | AutoFreeSignals
    sample_realizations: bool
    seed: int

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scenario):
            return NotImplemented
        return scenario_to_dict(self) == scenario_to_dict(other)


@dataclass(eq=False)
class SweepSpec:
    """Vary one prior diagonal entry of a base scenario across a grid."""

    base: Scenario
    state_index: int
    grid: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ScenarioError("grid: must be a non-empty list")
        if not np.all((grid > 0) & np.isfinite(grid)):
            raise ScenarioError("grid: variances must be positive and finite")
        if np.any(np.diff(grid) <= 0):
            raise ScenarioError("grid: must be strictly increasing")
        if not 0 <= self.state_index < self.base.prior.num_states:
            raise ScenarioError("state_index: out of range")
        self.grid = grid


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ScenarioError(f"{path}.{key}: missing required field")
    return doc[key]


def _numbers(doc: dict, key: str, path: str, ndim: int) -> np.ndarray:
    """``doc[key]`` as a float array of finite numbers nested ``ndim`` lists deep; a boolean,
    a string or a number beyond float range raises a ScenarioError naming the field."""
    field = f"{path}.{key}"

    def read(x, depth: int):
        if depth:
            if not isinstance(x, (list, tuple, np.ndarray)):
                raise ScenarioError(f"{field}: expected a list, got {x!r}")
            return [read(v, depth - 1) for v in x]
        # An int compares exactly with a float, so float(x) cannot overflow below.
        if isinstance(x, bool) or not isinstance(x, numbers.Real) or not abs(x) <= _FLOAT_MAX:
            raise ScenarioError(f"{field}: expected a finite number, got {x!r}")
        return float(x)

    nested = read(_require(doc, key, path), ndim)
    try:
        return np.array(nested, dtype=float)
    except ValueError as exc:  # rows of different lengths
        raise ScenarioError(f"{field}: {exc}") from exc


def _integer(doc: dict, key: str, path: str, low: int, high: float = math.inf) -> int:
    """``doc[key]`` as an int in [low, high); a boolean, a float or a string raises a
    ScenarioError naming the field, since nothing is rounded or coerced."""
    value = _require(doc, key, path)
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value < high:
        raise ScenarioError(f"{path}.{key}: expected an integer in [{low}, {high}), got {value!r}")
    return value


def _parse_intervention(raw, path: str):
    if raw == "none" or raw is None:
        return NoIntervention()
    if not isinstance(raw, dict) or len(raw) != 1:
        raise ScenarioError(
            f'{path}: expected "none" or an object with exactly one of '
            'precision/batch/free_signals/free_signals_auto'
        )
    (kind, value), = raw.items()
    if kind == "free_signals":
        return FreeSignals(tuple(_numbers(raw, kind, path, 2)))
    if kind in ("precision", "batch"):
        # A replication count scales the precision as a float, so it must be one.
        return (PrecisionReplicate if kind == "precision" else BatchAllocate)(
            _integer(raw, kind, path, 1, _FLOAT_MAX)
        )
    if kind != "free_signals_auto":
        raise ScenarioError(f"{path}: unknown intervention kind {kind!r}")
    try:
        return AutoFreeSignals(float(_numbers(value, "gamma0", f"{path}.{kind}", 0)))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}.{kind}: {exc}") from exc


def parse_scenario(doc, path: str = "scenario") -> Scenario:
    """Validate one scenario document (dict or JSON text) into a Scenario."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: expected an object")

    name = _require(doc, "name", path)
    if not isinstance(name, str) or not name:
        raise ScenarioError(f"{path}.name: must be a non-empty string")
    # Names become artifact file names, which must stay inside the output directory.
    if "/" in name or "\\" in name or ".." in name:
        raise ScenarioError(f"{path}.name: must not contain a path separator or '..'")

    coefficients = _numbers(doc, "coefficients", path, 2)
    objective = None
    if "objective" in doc and doc["objective"] is not None:
        objective = []
        try:
            for i, item in enumerate(doc["objective"]):
                at = f"{path}.objective[{i}]"
                weight = _numbers(item, "weight", at, 0)
                objective.append((weight, _numbers(item, "direction", at, 1)))
        except TypeError as exc:
            raise ScenarioError(f"{path}.objective: {exc}") from exc
    try:
        environment = Environment(coefficients, objective)
    except ValueError as exc:
        raise ScenarioError(f"{path}.coefficients/objective: {exc}") from exc

    mean = _numbers(doc, "prior_mean", path, 1)
    covariance = _numbers(doc, "prior_cov", path, 2)
    try:
        prior = GaussianPrior(mean=mean, covariance=covariance)
    except NotPositiveDefiniteError as exc:
        raise ScenarioError(f"{path}.prior_cov: {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(f"{path}.prior: {exc}") from exc
    if prior.num_states != environment.num_states:
        raise ScenarioError(f"{path}.prior_cov: size does not match coefficient columns")

    horizon = _integer(doc, "horizon", path, 1, MAX_HORIZON + 1)

    raw_tb = doc.get("tie_break", "lowest_index")
    if raw_tb == "lowest_index":
        tie_break = TieBreak.lowest_index()
    elif isinstance(raw_tb, dict) and set(raw_tb) == {"random"}:
        tie_break = TieBreak.random(_integer(raw_tb, "random", f"{path}.tie_break", 0))
    else:
        raise ScenarioError(f'{path}.tie_break: expected "lowest_index" or {{"random": seed}}')

    intervention = _parse_intervention(doc.get("intervention", "none"), f"{path}.intervention")
    k = environment.num_states
    if isinstance(intervention, FreeSignals) and any(v.shape != (k,) for v in intervention.vectors):
        raise ScenarioError(f"{path}.intervention.free_signals: vector length must be {k}")

    sample_realizations = doc.get("sample_realizations", False)
    if not isinstance(sample_realizations, bool):
        raise ScenarioError(f"{path}.sample_realizations: must be a boolean")
    seed = _integer(doc, "seed", path, 0, 2**64) if "seed" in doc else 0

    return Scenario(
        name=name,
        environment=environment,
        prior=prior,
        horizon=horizon,
        tie_break=tie_break,
        intervention=intervention,
        sample_realizations=sample_realizations,
        seed=seed,
    )


def parse_scenario_file(path) -> list[Scenario]:
    """Parse a scenario file holding one scenario object or an array of them."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON ({exc})") from exc
    if isinstance(doc, list):
        scenarios = [parse_scenario(item, f"scenario[{i}]") for i, item in enumerate(doc)]
    else:
        scenarios = [parse_scenario(doc)]
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ScenarioError("batch: scenario names must be unique within a file")
    return scenarios


def _intervention_to_json(iv) -> object:
    if isinstance(iv, NoIntervention):
        return "none"
    if isinstance(iv, PrecisionReplicate):
        return {"precision": iv.batch}
    if isinstance(iv, BatchAllocate):
        return {"batch": iv.batch}
    if isinstance(iv, FreeSignals):
        return {"free_signals": [list(v) for v in iv.vectors]}
    if isinstance(iv, AutoFreeSignals):
        return {"free_signals_auto": {"gamma0": iv.gamma0}}
    raise TypeError(f"unknown intervention {iv!r}")


def scenario_to_dict(s: Scenario) -> dict:
    tie = "lowest_index" if s.tie_break.kind == "lowest_index" else {"random": s.tie_break.seed}
    return {
        "name": s.name,
        "coefficients": s.environment.coefficients.tolist(),
        "objective": [
            {"weight": w, "direction": list(d)} for w, d in s.environment.objective
        ],
        "prior_mean": list(s.prior.mean),
        "prior_cov": s.prior.covariance.tolist(),
        "horizon": s.horizon,
        "tie_break": tie,
        "intervention": _intervention_to_json(s.intervention),
        "sample_realizations": s.sample_realizations,
        "seed": s.seed,
    }


def emit_scenario(s: Scenario) -> str:
    return json.dumps(scenario_to_dict(s), indent=2) + "\n"


def _json_safe(x):
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return x


def analysis_fields(env: Environment) -> dict:
    """Best-set statistics for reports.

    Multi-target objectives have no spanning-set characterization and get the
    numeric frequency optimum. For a single target the best set comes from
    ``best_set``; every field is null when it cannot be found (the target is
    not identified, or a tie beyond the enumeration cap), and the assumption
    report is null beyond that cap.
    """
    if len(env.objective) > 1:
        from .oracle import optimal_frequency_numeric

        freq, info = optimal_frequency_numeric(env, full_output=True)
        return {
            "phi_best": math.sqrt(info["value"]),
            "best_set": [i + 1 for i in freq.support(tol=1e-9)],
            "lambda_star": list(freq.weights),
            "assumption_report": None,
        }
    try:
        star = best_set(env)
    except SpanError:
        return dict.fromkeys(("phi_best", "best_set", "lambda_star", "assumption_report"))
    try:
        assumptions = check_assumptions(env).to_dict()
    except SpanError:
        assumptions = None
    return {
        "phi_best": star.phi,
        "best_set": [i + 1 for i in star.indices],
        "lambda_star": list(star.lambda_star.weights),
        "assumption_report": assumptions,
    }


def build_report(scenario: Scenario, trace: SimulationTrace, gamma_final: float | None) -> dict:
    cls = trace.classification
    report = {
        "name": scenario.name,
        "classification": cls.kind,
        "trapped_set": [i + 1 for i in cls.trapped],
        "inefficiency_ratio": trace.inefficiency_ratio,
        "frequency_estimate": list(trace.frequency_estimate.weights),
    }
    report.update(analysis_fields(scenario.environment))
    if gamma_final is not None:
        report["gamma_final"] = gamma_final
    return _json_safe(report)


def _run_trace(scenario: Scenario) -> tuple[float | None, SimulationTrace]:
    """Run one scenario's greedy process: the final gamma of an escalation (None
    without one) and the trace."""
    run = (scenario.environment, scenario.prior, scenario.horizon)
    kw = dict(
        rule=scenario.tie_break,
        sample_realizations=scenario.sample_realizations,
        seed=scenario.seed,
    )
    if isinstance(scenario.intervention, AutoFreeSignals):
        return escalate_gamma(*run, scenario.intervention.gamma0, **kw)
    return None, simulate(*run, intervention=scenario.intervention, **kw)


def run_scenario(scenario: Scenario) -> tuple[SimulationTrace, dict]:
    """Execute one scenario and build its report dictionary."""
    gamma_final, trace = _run_trace(scenario)
    return trace, build_report(scenario, trace, gamma_final)


def write_trace_csv(path, scenario: Scenario, trace: SimulationTrace) -> None:
    """Trace CSV with per-period choice, variance, and cumulative counts.

    Source indices are 1-based in artifacts; batch choices are written as
    semicolon-joined per-source counts. Floats carry 17 significant digits.
    """
    n = scenario.environment.num_sources
    picks = np.asarray(trace.choices, dtype=np.int64)
    if picks.ndim == 2:
        labels = [";".join(map(str, row)) for row in picks.tolist()]
    else:
        labels = (picks + 1).tolist()
    row = "%d,%s,%.17g" + ",%d" * n
    lines = ["t,choice,posterior_variance," + ",".join(f"count_{i+1}" for i in range(n))]
    columns = zip(labels, trace.variance_path.tolist(), trace.counts_matrix().tolist())
    lines += [row % (t, label, v, *counts) for t, (label, v, counts) in enumerate(columns, 1)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_report_json(path, report: dict) -> None:
    Path(path).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


def run_batch(scenarios: list[Scenario], out_dir, quiet: bool = False) -> list[dict]:
    """Run scenarios in order, writing trace CSV plus report JSON for each as it finishes.

    Classification outcomes never affect success; only execution failures
    propagate.
    """
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ScenarioError("batch: scenario names must be unique")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports = []
    for scenario in scenarios:
        trace, report = run_scenario(scenario)
        write_trace_csv(out / f"{scenario.name}_trace.csv", scenario, trace)
        write_report_json(out / f"{scenario.name}_report.json", report)
        reports.append(report)
        if not quiet:
            ratio = report["inefficiency_ratio"]
            ratio_txt = "n/a" if ratio is None else f"{ratio:.6g}"
            label = report["classification"]
            if report["trapped_set"]:
                label += f" on sources {report['trapped_set']}"
            print(
                f"{scenario.name}: {label} "
                f"(inefficiency {ratio_txt}) -> {out / (scenario.name + '_report.json')}"
            )
    return reports


def _with_prior_variance(scenario: Scenario, state: int, value: float) -> Scenario:
    cov = np.array(scenario.prior.covariance)
    cov[state, state] = value
    try:
        prior = GaussianPrior(mean=np.array(scenario.prior.mean), covariance=cov)
    except ValueError as exc:
        raise ScenarioError(f"grid: variance {value:g} gives an invalid prior ({exc})") from exc
    return replace(scenario, prior=prior)


def sweep(spec: SweepSpec) -> dict:
    """Classify the base scenario across a grid of one prior variance.

    Reports each grid point plus the empirical threshold: the first grid value
    whose classification differs from its predecessor (None when uniform).
    """
    rows = []
    previous = None
    threshold = None
    for value in spec.grid:
        run = _with_prior_variance(spec.base, spec.state_index, float(value))
        _, trace = _run_trace(run)
        cls = trace.classification
        rows.append(
            {
                "variance": float(value),
                "classification": cls.kind,
                "trapped_set": [i + 1 for i in cls.trapped],
                "inefficiency_ratio": trace.inefficiency_ratio,
            }
        )
        signature = (cls.kind, cls.trapped)
        if previous is not None and signature != previous and threshold is None:
            threshold = float(value)
        previous = signature
    return _json_safe(
        {
            "name": spec.base.name,
            "state": spec.state_index + 1,
            "grid": [float(v) for v in spec.grid],
            "rows": rows,
            "threshold": threshold,
        }
    )


def bundled_scenario_names() -> list[str]:
    from importlib import resources

    root = resources.files("infotrap").joinpath("data")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def bundled_scenario(name: str) -> Scenario:
    """Load one of the scenario files shipped with the package."""
    from importlib import resources

    path = resources.files("infotrap").joinpath("data", f"{name}.json")
    return parse_scenario(path.read_text(encoding="utf-8"), path=name)
