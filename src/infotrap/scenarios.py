"""Scenario files, scenario runs, prior sweeps, and report emission.

A scenario is a JSON document pinning everything a run needs: coefficients,
objective, prior, horizon, tie-break rule, intervention, and seeds. Outputs are
a per-period trace CSV and a report JSON; both are byte-stable across repeated
runs with the same inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dynamics, oracle
from .gaussian import Environment, GaussianPrior, NotPositiveDefiniteError
from .gaussian import _as_int, _check_prior, _numbers
from .spanning import (  # enumerate_minimal_spanning_sets: perfbench/tracing.py wraps it here
    SpanError,
    best_set,
    check_assumptions,
    enumerate_minimal_spanning_sets,  # noqa: F401
)
from .dynamics import (
    MAX_HORIZON,
    MAX_SEED,
    AutoFreeSignals,
    BatchAllocate,
    FreeSignals,
    Intervention,
    NoIntervention,
    PrecisionReplicate,
    SearchBoundError,
    SimulationTrace,
    TieBreak,
    _check_free_signals,
    _cumulative_counts,
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
    "write_trace_csv",
    "write_report_json",
    "sweep",
    "bundled_scenario",
    "bundled_scenario_names",
]

class ScenarioError(ValueError):
    """A scenario document is malformed; the message carries the offending path."""


# What a parsed scenario can still raise when it runs: a search beyond its bound, a
# posterior precision that is not positive definite, no unique best set to design free
# signals for, a bad sweep grid.
RUN_ERRORS = (SearchBoundError, NotPositiveDefiniteError, SpanError, ScenarioError)


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
    """Vary one prior diagonal entry of a base scenario across a grid.

    ``grid`` is read by ``_numbers`` and ``state_index`` by ``_as_int``, the parser's rules;
    their refusals, and a grid that is empty, not positive or not increasing, raise
    ScenarioError naming the field."""

    base: Scenario
    state_index: int
    grid: np.ndarray

    def __post_init__(self) -> None:
        grid = _build("grid", _numbers, "grid", self.grid, 1)
        if grid.size == 0:
            raise ScenarioError("grid: must be a non-empty list")
        if not np.all(grid > 0):
            raise ScenarioError("grid: variances must be positive")
        if np.any(np.diff(grid) <= 0):
            raise ScenarioError("grid: must be strictly increasing")
        last = self.base.prior.num_states - 1
        self.state_index = _build("state_index", _as_int, "state_index", self.state_index, 0, last)
        self.grid = grid


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ScenarioError(f"{path}.{key}: missing required field")
    return doc[key]


def _build(field: str, make, *args):
    """``make(*args)``, a library constructor or rule, with its refusal re-raised as a
    ScenarioError under ``field``."""
    try:
        return make(*args)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{field}: {exc}") from exc


def _read(doc: dict, key: str, path: str, rule, *args):
    """``doc[key]`` read by a library rule, ``_numbers`` or ``_as_int``, under its field path."""
    return _build(f"{path}.{key}", rule, key, _require(doc, key, path), *args)


def _parse_intervention(raw, path: str, env: Environment):
    if raw == "none" or raw is None:
        return NoIntervention()
    if not isinstance(raw, dict) or len(raw) != 1:
        raise ScenarioError(
            f'{path}: expected "none" or an object with exactly one of '
            'precision/batch/free_signals/free_signals_auto'
        )
    (kind, value), = raw.items()
    field = f"{path}.{kind}"
    if kind == "free_signals_auto":
        return _build(field, lambda v: AutoFreeSignals(_require(v, "gamma0", field)), value)
    make = {"free_signals": FreeSignals, "precision": PrecisionReplicate, "batch": BatchAllocate}
    if kind not in make:
        raise ScenarioError(f"{path}: unknown intervention kind {kind!r}")
    intervention = _build(field, make[kind], value)
    if kind == "free_signals":
        _build(field, _check_free_signals, env, intervention.vectors)
    return intervention


def parse_scenario(doc, path: str = "scenario") -> Scenario:
    """Validate one scenario document (dict or JSON text) into a Scenario."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except ValueError as exc:  # a JSONDecodeError, or an integer past int's digit limit
            raise ScenarioError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: expected an object")

    name = _require(doc, "name", path)
    if not isinstance(name, str) or not name:
        raise ScenarioError(f"{path}.name: must be a non-empty string")
    # Names become artifact file names, which must stay inside the output directory.
    if "/" in name or "\\" in name or ".." in name:
        raise ScenarioError(f"{path}.name: must not contain a path separator or '..'")

    coefficients = _read(doc, "coefficients", path, _numbers, 2)
    objective = None
    if "objective" in doc and doc["objective"] is not None:
        objective = []
        try:
            for i, item in enumerate(doc["objective"]):
                at = f"{path}.objective[{i}]"
                weight = _read(item, "weight", at, _numbers, 0)
                objective.append((weight, _read(item, "direction", at, _numbers, 1)))
        except TypeError as exc:
            raise ScenarioError(f"{path}.objective: {exc}") from exc
    environment = _build(f"{path}.coefficients/objective", Environment, coefficients, objective)

    mean = _read(doc, "prior_mean", path, _numbers, 1)
    covariance = _read(doc, "prior_cov", path, _numbers, 2)
    prior = _build(f"{path}.prior_cov", GaussianPrior, mean, covariance)
    _build(f"{path}.prior_cov", _check_prior, environment, prior)

    horizon = _read(doc, "horizon", path, _as_int, 1, MAX_HORIZON)

    raw_tb = doc.get("tie_break", "lowest_index")
    if raw_tb == "lowest_index":
        tie_break = TieBreak.lowest_index()
    elif isinstance(raw_tb, dict) and set(raw_tb) == {"random"}:
        tie_break = _build(f"{path}.tie_break.random", TieBreak.random, raw_tb["random"])
    else:
        raise ScenarioError(f'{path}.tie_break: expected "lowest_index" or {{"random": seed}}')

    intervention = _parse_intervention(
        doc.get("intervention", "none"), f"{path}.intervention", environment
    )

    sample_realizations = doc.get("sample_realizations", False)
    if not isinstance(sample_realizations, bool):
        raise ScenarioError(f"{path}.sample_realizations: must be a boolean")
    seed = _read(doc, "seed", path, _as_int, 0, MAX_SEED) if "seed" in doc else 0

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
    except ValueError as exc:
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
    ``best_set``. Every field is null when the optimum cannot be found (the targets are
    not identified, a tie beyond the subset-scan bound, or a numeric optimum not certified
    within the iteration cap), and the assumption report is null beyond that bound.
    """
    try:
        if len(env.objective) > 1:
            # Looked up at call time, where perfbench/tracing.py wraps it.
            freq, info = oracle.optimal_frequency_numeric(env, full_output=True)
            return {
                "phi_best": math.sqrt(info["value"]),
                "best_set": [i + 1 for i in freq.support(tol=1e-9)],
                "lambda_star": list(freq.weights),
                "assumption_report": None,
            }
        star = best_set(env)
    except (SpanError, SearchBoundError, oracle.ConvergenceError):
        return dict.fromkeys(("phi_best", "best_set", "lambda_star", "assumption_report"))
    try:
        assumptions = check_assumptions(env).to_dict()
    except SearchBoundError:
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


def _format_rows(row: str, columns: list) -> str:
    """``row`` applied to each row of ``columns`` with one ``%``: the columns are laid into
    one flat field list by slice assignment, and ``row`` repeated once per row formats it."""
    width, rows = len(columns), len(columns[0])
    fields = [None] * (width * rows)
    for j, column in enumerate(columns):
        fields[j::width] = column
    fields = tuple(fields)  # the list is freed before the text is built
    return (row * rows) % fields


def write_trace_csv(path, scenario: Scenario, trace: SimulationTrace) -> None:
    """Trace CSV with per-period choice, variance, and cumulative counts.

    Source indices are 1-based in artifacts; batch choices are written as
    semicolon-joined per-source counts. Floats carry 17 significant digits. At most
    ``COMPOSITION_BLOCK`` periods are formatted at a time, each block with one ``%``
    (``_format_rows``).
    """
    n = scenario.environment.num_sources
    line = "%d,%s,%.17g" + ",%d" * n + "\n"
    counts = np.zeros(n, dtype=np.int64)
    block = dynamics.COMPOSITION_BLOCK
    with open(path, "w", encoding="utf-8") as f:
        f.write("t,choice,posterior_variance," + ",".join(f"count_{i+1}" for i in range(n)) + "\n")
        for start in range(0, len(trace.choices), block):
            picks = np.asarray(trace.choices[start : start + block], dtype=np.int64)
            if picks.ndim == 2:
                labels = [";".join(map(str, row)) for row in picks.tolist()]
            else:
                labels = (picks + 1).tolist()
            cumulative = _cumulative_counts(picks, counts)
            counts = cumulative[-1]
            periods = range(start + 1, start + len(picks) + 1)
            variances = trace.variance_path[start : start + block].tolist()
            f.write(_format_rows(line, [periods, labels, variances, *cumulative.T.tolist()]))


def write_compare_csv(path, greedy: np.ndarray, optimal: np.ndarray) -> float:
    """Greedy-versus-optimal CSV for budgets 1..len(greedy): the greedy variance, the
    minimum variance and their ratio, with 17 significant digits. Returns the last ratio.

    A ratio that overflows is inf, as Python's float division gives. At most
    ``COMPOSITION_BLOCK`` budgets are formatted at a time, each block with one ``%``
    (``_format_rows``).
    """
    with np.errstate(over="ignore"):
        ratio = greedy / optimal
    line = "%d,%.17g,%.17g,%.17g\n"
    block = dynamics.COMPOSITION_BLOCK
    with open(path, "w", encoding="utf-8") as f:
        f.write("t,greedy_variance,optimal_variance,ratio\n")
        for start in range(0, len(ratio), block):
            columns = [c[start : start + block].tolist() for c in (greedy, optimal, ratio)]
            budgets = range(start + 1, start + len(columns[0]) + 1)
            f.write(_format_rows(line, [budgets, *columns]))
    return float(ratio[-1])


def write_report_json(path, report: dict) -> None:
    Path(path).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


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
