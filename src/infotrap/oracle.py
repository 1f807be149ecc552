"""Brute-force ground truth: exact integer-optimal allocations and frequency optima.

The oracle enumerates every way to split t observations across the sources and
evaluates the exact posterior variance for each, so its output certifies
optimality by construction. It exists to benchmark the greedy dynamics, so it
favors exactness over cleverness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    DivisionVector,
    Environment,
    FrequencyVector,
    GaussianPrior,
    SPAN_TOL,
    _as_int,
    _check_prior,
    _check_search,
    _numbers,
    _solve_spd,
    asymptotic_variance,
    block_variances,
)
from .spanning import SpanError, beta_phi_lambda
from .dynamics import NoIntervention, TieBreak, _run, compositions
from .dynamics import simulate  # noqa: F401  (unused here: perfbench/tracing.py wraps it)

__all__ = [
    "ConvergenceError",
    "OptimalDivisionResult",
    "ComparisonRow",
    "optimal_division",
    "optimal_trajectory",
    "trajectory_deviations",
    "optimal_frequency_numeric",
    "greedy_vs_optimal",
    "round_to_total",
]

MAX_COMPOSITIONS = 10_000_000

# Allocations whose variance is within this relative distance of the minimum are
# reported together as co-optima.
VALUE_TIE_TOL = 1e-12

# The frequency optimizer stops once sqrt(Vinf) is certified within GAP_TOL
# (relative) of the optimum; it raises ConvergenceError after MAX_ITERATIONS
# without a certificate. Frequencies at or below SUPPORT_TOL leave the support.
GAP_TOL = 1e-10
MAX_ITERATIONS = 100_000
SUPPORT_TOL = 1e-6


class ConvergenceError(RuntimeError):
    """The frequency optimizer hit ``MAX_ITERATIONS`` without an optimality certificate,
    or cannot form one because the variance underflows."""


@dataclass(eq=False)
class OptimalDivisionResult:
    """Exact minimizer(s) of posterior variance over allocations of a fixed budget."""

    counts: DivisionVector
    value: float
    num_optima: int
    all_optima: list[DivisionVector] | None

    @property
    def total(self) -> int:
        return self.counts.total


@dataclass
class ComparisonRow:
    t: int
    greedy_variance: float
    optimal_variance: float
    ratio: float


def optimal_division(env: Environment, prior: GaussianPrior, t: int) -> OptimalDivisionResult:
    """Exact minimizer of posterior variance over all splits of t observations.

    Ties (relative 1e-12) are enumerated; the reported representative is the
    lexicographically smallest count vector. Raises ``ValueError`` for a bool,
    non-integer or non-positive ``t``, ``DimensionError`` for a prior of the wrong
    size, and ``SearchBoundError`` for more than ``MAX_COMPOSITIONS`` splits.
    """
    t = _check_search_bound(env, prior, t, every_budget=False)
    # The running minimum, and the splits near it in scan (lexicographic) order, pruned.
    best = math.inf
    kept: list[tuple[np.ndarray, np.ndarray]] = []  # (values, counts)
    size = pruned = 0
    for block in compositions(t, env.num_sources):
        values = block_variances(env, prior.precision, block)
        best = min(best, float(values.min()))
        near = values <= best * (1 + VALUE_TIE_TOL)
        kept.append((values[near], block[near]))
        size += len(kept[-1][0])
        if size > 2 * pruned + len(block):  # amortized: memory stays near the ties
            kept = [_near_best(kept, best)]
            size = pruned = len(kept[0][0])
    rows = _near_best(kept, best)[1]
    listed = [DivisionVector(r) for r in rows] if len(rows) <= 16 else None
    return OptimalDivisionResult(DivisionVector(rows[0]), best, len(rows), listed)


def _near_best(kept, best: float):
    """The kept values and rows still within ``VALUE_TIE_TOL`` of the minimum."""
    values, rows = (np.concatenate(parts) for parts in zip(*kept))
    near = values <= best * (1 + VALUE_TIE_TOL)
    return values[near], rows[near]


def optimal_trajectory(
    env: Environment, prior: GaussianPrior, horizon: int
) -> list[OptimalDivisionResult]:
    """``optimal_division(env, prior, t)`` for t = 1..horizon; raises ``SearchBoundError``,
    before any work, when all budgets' splits number more than ``MAX_COMPOSITIONS``."""
    horizon = _check_search_bound(env, prior, horizon, every_budget=True)
    return [optimal_division(env, prior, t) for t in range(1, horizon + 1)]


def _check_search_bound(env: Environment, prior: GaussianPrior, t: int, every_budget: bool) -> int:
    """``t`` as an int, after the budget, prior and search-bound checks: t is at least 1,
    or 0 with ``every_budget`` (budgets 1..t), and the splits of t over the sources, plus
    an unused part with ``every_budget``, are bounded."""
    t = _as_int("budget", t, 0 if every_budget else 1)
    _check_prior(env, prior)
    n = env.num_sources
    budgets = f"every budget up to {t}" if every_budget else str(t)
    what = f"splits of {budgets} observations over {n} sources"
    splits = math.comb(t + n + every_budget - 1, n + every_budget - 1)
    _check_search(splits, MAX_COMPOSITIONS, what, "exhaustive-search")
    return t


def _minima(env: Environment, prior: GaussianPrior, horizon: int) -> np.ndarray:
    """Each budget's minimum variance, budgets 1..horizon, from one scan of the splits of
    ``horizon`` over the sources plus an unused part; no split is kept."""
    best = np.full(horizon + 1, np.inf)  # by unused budget
    for block in compositions(horizon, env.num_sources + 1):
        np.minimum.at(best, block[:, -1], block_variances(env, prior.precision, block[:, :-1]))
    return best[::-1][1:]


def trajectory_deviations(
    results: list[OptimalDivisionResult], frequencies: FrequencyVector
) -> np.ndarray:
    """(T, N) residuals ``n_i(t) - freq_i * t`` for bounded-residual checks."""
    lam = frequencies.weights
    rows = []
    for r in results:
        t = r.total
        rows.append(r.counts.counts - lam * t)
    return np.array(rows)


def round_to_total(weights, total: int) -> np.ndarray:
    """Integer allocation of ``total`` proportional to ``weights`` (largest remainder).

    Raises ``ValueError`` for a ``total`` that is a bool, not an integer, or outside
    0..2**53 (the integers that floats hold), for weights that are not finite,
    non-negative numbers, and for a zero or overflowing sum.
    """
    w = _numbers("weights", weights, 1)
    total = _as_int("total", total, 0, 2**53)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    with np.errstate(over="ignore"):
        s = w.sum()
    if not 0 < s < np.inf:
        raise ValueError("weights must have positive sum, finite in floating point")
    shares = w / s * total
    base = np.floor(shares).astype(np.int64)
    short = total - int(base.sum())
    if short > 0:
        order = np.lexsort((np.arange(len(w)), -(shares - base)))
        base[order[:short]] += 1
    return base


def _certified_iteration(c: np.ndarray, u: np.ndarray, lam: np.ndarray):
    """Multiplicative iteration on full-column-rank ``c``; returns ``(lam, V, gap)``.

    With Y = M(lam)^-1 u and g_i = |Y' c_i|^2, V = lam'g and every lam on the simplex
    gives sqrt(V*) >= V / sqrt(max g) (general equivalence theorem). The update
    lam_i <- lam_i sqrt(g_i) never raises V. Its floor keeps M positive definite in
    floating point when some g_i is 0, and moves V by far less than ``GAP_TOL``.
    """
    floor = 1e-2 * GAP_TOL / lam.size
    for _ in range(MAX_ITERATIONS):
        y = _solve_spd((c.T * lam) @ c, u)
        g = np.sum((c @ y) ** 2, axis=1)
        value, top = float(lam @ g), float(g.max())
        if not top > 0:
            raise ConvergenceError("no certificate: every g_i underflows to 0")
        gap = 1.0 - math.sqrt(value / top)
        if gap <= GAP_TOL:
            return lam, value, gap
        lam = np.maximum(lam * np.sqrt(g), floor)
        lam /= lam.sum()
    raise ConvergenceError(f"no certificate after {MAX_ITERATIONS} iterations (gap {gap:.3e})")


def optimal_frequency_numeric(env: Environment, full_output: bool = False):
    """Minimize the asymptotic variance over the frequency simplex, with a certificate.

    Reduces the coefficients once to their row space (rank at ``SPAN_TOL``) and
    iterates from the uniform point until sqrt(Vinf) is certified within
    ``GAP_TOL`` (relative) of the optimum. Frequencies at or below ``SUPPORT_TOL``
    are dropped, with an exact re-solve when the rest is a minimally spanning set.
    A second run from an asymmetric start detects non-unique optima. With
    ``full_output`` returns ``(frequencies, info dict)``; ``info["gap"]`` is the
    certified gap. Raises ``SpanError`` when the sources do not span the targets.
    """
    n = env.num_sources
    uniform = np.full(n, 1.0 / n)
    if math.isinf(asymptotic_variance(env, uniform)):
        raise SpanError("the sources jointly do not span the target direction(s)")
    _, sv, vt = np.linalg.svd(env.coefficients, full_matrices=False)
    basis = vt[: int(np.sum(sv > SPAN_TOL * sv[0]))]
    c = env.coefficients @ basis.T
    u = basis @ (env.directions.T * np.sqrt(env.weights))

    lam, value, gap = _certified_iteration(c, u, uniform)
    on = lam > SUPPORT_TOL
    refined = FrequencyVector(np.where(on, lam, 0.0) / lam[on].sum())
    exact = False
    try:
        report = beta_phi_lambda(env, tuple(int(i) for i in np.nonzero(on)[0]))
        exact_value = asymptotic_variance(env, report.lambda_star)
        if exact_value <= value * (1 + 1e-9):
            refined = report.lambda_star
            value = exact_value
            exact = True
    except (SpanError, ValueError):
        pass

    alt_start = 0.7 ** np.arange(n)
    alt, alt_value, _ = _certified_iteration(c, u, alt_start / alt_start.sum())
    values_match = abs(alt_value - value) <= 1e-6 * max(abs(value), 1e-12)
    points_match = float(np.max(np.abs(alt - refined.weights))) <= 1e-3
    unique = bool(points_match or not values_match)

    if full_output:
        return refined, {
            "value": value,
            "unique": unique,
            "exact": exact,
            "alternate": FrequencyVector(alt),
            "alternate_value": alt_value,
            "gap": gap,
        }
    return refined


def greedy_vs_optimal(env: Environment, prior: GaussianPrior, horizon: int) -> list[ComparisonRow]:
    """Per-period variance of greedy acquisitions against the exact optimum."""
    greedy, optimal = _comparison_columns(env, prior, horizon)
    return [
        ComparisonRow(t=t, greedy_variance=g, optimal_variance=o, ratio=g / o)
        for t, g, o in zip(range(1, horizon + 1), greedy.tolist(), optimal.tolist())
    ]


def _comparison_columns(
    env: Environment, prior: GaussianPrior, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """The variance path of one greedy run (lowest-index ties) and each budget's minimum
    variance, for budgets 1..horizon.

    The run is not classified. The minima come from one scan over every budget that keeps
    no split, so no result object is built. The bound on the splits that scan scores, those
    of every budget, is checked before either starts.
    """
    horizon = _check_search_bound(env, prior, horizon, every_budget=True)
    variance_path = _run(env, prior, horizon, TieBreak.lowest_index(), NoIntervention())[2]
    return variance_path, _minima(env, prior, horizon)
