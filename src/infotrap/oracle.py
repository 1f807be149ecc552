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
    asymptotic_variance,
    block_variances,
    spectral_inverse,
)
from .spanning import SpanError, beta_phi_lambda
from .dynamics import SearchBoundError, compositions, simulate, TieBreak

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


class ConvergenceError(RuntimeError):
    """The simplex descent failed to certify an optimum."""


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
    lexicographically smallest count vector.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    n = env.num_sources
    total_count = math.comb(t + n - 1, n - 1)
    if total_count > MAX_COMPOSITIONS:
        raise SearchBoundError(
            f"{total_count} allocations of {t} observations over {n} sources "
            f"exceeds the exhaustive-search bound {MAX_COMPOSITIONS}"
        )
    best = math.inf
    kept: list[tuple[float, np.ndarray]] = []
    for block in compositions(t, n):
        values = block_variances(env, prior.precision, block)
        best = min(best, float(values.min()))
        cutoff = best * (1 + VALUE_TIE_TOL)
        mask = values <= cutoff
        for v, row in zip(values[mask], block[mask]):
            kept.append((float(v), row.copy()))
        kept = [(v, r) for v, r in kept if v <= cutoff]
    ties = [r for _, r in kept]  # enumeration order is lexicographic already
    result_counts = DivisionVector(ties[0])
    return OptimalDivisionResult(
        counts=result_counts,
        value=best,
        num_optima=len(ties),
        all_optima=[DivisionVector(r) for r in ties] if len(ties) <= 16 else None,
    )


def optimal_trajectory(
    env: Environment, prior: GaussianPrior, horizon: int
) -> list[OptimalDivisionResult]:
    """Exact optimal divisions for every budget t = 1..horizon."""
    return [optimal_division(env, prior, t) for t in range(1, horizon + 1)]


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
    """Integer allocation of ``total`` proportional to ``weights`` (largest remainder)."""
    w = np.asarray(weights, dtype=float)
    if w.sum() <= 0:
        raise ValueError("weights must have positive sum")
    shares = w / w.sum() * total
    base = np.floor(shares).astype(np.int64)
    short = total - int(base.sum())
    if short > 0:
        order = np.lexsort((np.arange(len(w)), -(shares - base)))
        base[order[:short]] += 1
    return base


def optimal_frequency_numeric(
    env: Environment,
    iterations: int = 100_000,
    step0: float = 0.5,
    support_tol: float = 1e-6,
    full_output: bool = False,
):
    """Minimize the asymptotic variance over the frequency simplex numerically.

    Projected multiplicative-weights descent from the uniform point with step
    decaying as 1/sqrt(iter), followed by support thresholding and an exact
    re-solve on the surviving support when it forms a minimally spanning set.
    A second descent from an asymmetric start detects non-unique optima. With
    ``full_output`` returns ``(frequencies, info dict)``.
    """
    n = env.num_sources
    uniform = np.full(n, 1.0 / n)
    if math.isinf(asymptotic_variance(env, uniform)):
        raise SpanError("the sources jointly do not span the target direction(s)")

    def descend(start: np.ndarray) -> tuple[np.ndarray, float, float]:
        lam = np.array(start)
        residual = math.inf
        value = math.inf
        for s in range(iterations):
            value, grad, _, _ = spectral_inverse(env, lam)
            scale = float(np.max(np.abs(grad)))
            if scale == 0.0:
                residual = 0.0
                break
            if s % 50 == 0:
                gbar = float(lam @ grad)
                on = lam > 1e-9
                residual = max(
                    float(np.max(gbar - grad)),
                    float(np.max(np.abs(grad[on] - gbar))),
                )
                if residual <= 1e-10 * abs(gbar):
                    break
            step = step0 / math.sqrt(s + 1)
            lam = lam * np.exp(-step * grad / scale)
            lam = np.maximum(lam, 1e-300)
            lam /= lam.sum()
        return lam, value, residual

    lam, value, residual = descend(uniform)

    support = np.nonzero(lam > support_tol)[0]
    refined = FrequencyVector(np.where(lam > support_tol, lam, 0.0) / lam[lam > support_tol].sum())
    exact = False
    try:
        report = beta_phi_lambda(env, tuple(int(i) for i in support))
        exact_value = asymptotic_variance(env, report.lambda_star)
        if exact_value <= value * (1 + 1e-9):
            refined = report.lambda_star
            value = exact_value
            exact = True
    except (SpanError, ValueError):
        pass

    if not exact and residual > 1e-4 * max(abs(value), 1e-12):
        raise ConvergenceError(
            f"simplex descent stalled with optimality residual {residual:.3e}"
        )

    alt_start = 0.7 ** np.arange(n)
    alt_start /= alt_start.sum()
    alt, alt_value, _ = descend(alt_start)
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
            "residual": residual,
        }
    return refined


def greedy_vs_optimal(
    env: Environment, prior: GaussianPrior, horizon: int
) -> list[ComparisonRow]:
    """Per-period variance of greedy acquisitions against the exact optimum."""
    trace = simulate(env, prior, horizon, rule=TieBreak.lowest_index())
    rows = []
    for t in range(1, horizon + 1):
        opt = optimal_division(env, prior, t)
        greedy_v = float(trace.variance_path[t - 1])
        rows.append(
            ComparisonRow(
                t=t,
                greedy_variance=greedy_v,
                optimal_variance=opt.value,
                ratio=greedy_v / opt.value,
            )
        )
    return rows
