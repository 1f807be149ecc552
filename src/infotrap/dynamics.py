"""Greedy sequential acquisition, interventions, and long-run classification.

Each period one agent adds observations where the immediate posterior-variance
drop is largest. The variance path is deterministic (Gaussian updating), so the
whole choice sequence is too, up to tie-breaking. Signal realizations, when
sampled, only move the posterior mean and never the choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy._core.multiarray import c_einsum, count_nonzero

from .gaussian import (
    DivisionVector,
    Environment,
    FrequencyVector,
    GaussianPrior,
    NotPositiveDefiniteError,
    _SINGULAR,
    _check_finite,
    _per_source,
    _posv_solve,
    _signal_precision,
    _solve_spd,
    _stacked_variances,
    block_increments,
)
from .spanning import (  # enumerate_minimal_spanning_sets: perfbench/tracing.py wraps it here
    SpanError,
    _unique_best,
    beta_phi_lambda,
    best_set,
    enumerate_minimal_spanning_sets,  # noqa: F401
    phi_tied,
)

__all__ = [
    "SearchBoundError",
    "TieBreak",
    "NoIntervention",
    "PrecisionReplicate",
    "BatchAllocate",
    "FreeSignals",
    "AutoFreeSignals",
    "Intervention",
    "Classification",
    "SimulationTrace",
    "greedy_step",
    "simulate",
    "design_free_signals",
    "escalate_gamma",
    "compositions",
]

# Candidates whose end-of-period variance is within this relative distance of the
# best are treated as tied; the process is defined up to arbitrary tie resolution.
TIE_TOL = 1e-12

MAX_BATCH = 12
MAX_BATCH_SOURCES = 8

# ``compositions`` yields blocks of at most this many rows, and the trace and compare CSV
# writers format at most this many rows at a time.
COMPOSITION_BLOCK = 16_384

# Classification uses the second half of the run; "efficient" additionally requires
# the empirical frequencies to be this close (sup-norm) to the optimal ones.
EFFICIENT_FREQ_TOL = 0.05

# ``escalate_gamma`` doubles or halves gamma at most this many times.
MAX_DOUBLINGS = 20


# scipy's cho_factor/cho_solve, imported on first call so that importing this module
# does not import scipy.linalg. Nothing here calls them: perfbench/tracing.py and
# tests/test_engine.py wrap these names to check that the engine step does not.
def cho_factor(*args, **kwargs):
    from scipy.linalg import cho_factor

    return cho_factor(*args, **kwargs)


def cho_solve(*args, **kwargs):
    from scipy.linalg import cho_solve

    return cho_solve(*args, **kwargs)


class SearchBoundError(ValueError):
    """An exhaustive search would exceed its configured size bound."""


@dataclass(frozen=True)
class TieBreak:
    """Tie resolution rule: deterministic lowest index, or seeded-random choice."""

    kind: str = "lowest_index"
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("lowest_index", "random"):
            raise ValueError(f"unknown tie-break kind {self.kind!r}")
        if self.kind == "random" and self.seed is None:
            raise ValueError("random tie-break needs a seed")

    @classmethod
    def lowest_index(cls) -> "TieBreak":
        return cls("lowest_index")

    @classmethod
    def random(cls, seed: int) -> "TieBreak":
        return cls("random", int(seed))

    def make_rng(self) -> np.random.Generator | None:
        return np.random.default_rng(self.seed) if self.kind == "random" else None


@dataclass(frozen=True)
class NoIntervention:
    pass


@dataclass(frozen=True)
class _Batched:
    batch: int

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise ValueError("batch size must be >= 1")


@dataclass(frozen=True)
class PrecisionReplicate(_Batched):
    """Each acquisition yields ``batch`` independent draws of the chosen source."""


@dataclass(frozen=True)
class BatchAllocate(_Batched):
    """Each agent spreads ``batch`` observations across sources to minimize variance."""


@dataclass(eq=False)
class FreeSignals:
    """One-shot public signals ``<p_j, theta> + N(0,1)`` released before period 1."""

    vectors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        self.vectors = tuple(np.asarray(v, dtype=float) for v in self.vectors)
        if any(v.ndim != 1 or not np.all(np.isfinite(v)) for v in self.vectors):
            raise ValueError("free-signal vectors must be finite 1-d arrays")


@dataclass(frozen=True)
class AutoFreeSignals:
    """Designed free signals whose norm bound moves from ``gamma0`` until the run is
    efficient. Not an ``Intervention`` of one run: ``escalate_gamma`` runs it."""

    gamma0: float

    def __post_init__(self) -> None:
        # The released signals add gamma^2 to the prior precision.
        if not (self.gamma0 > 0 and math.isfinite(self.gamma0 * self.gamma0)):
            raise ValueError("gamma0 must be positive and finite, with a finite square")


Intervention = Union[NoIntervention, PrecisionReplicate, BatchAllocate, FreeSignals]


@dataclass(eq=False)
class Classification:
    kind: str  # "efficient" | "trap" | "undetermined"
    trapped: tuple[int, ...] = ()

    def __str__(self) -> str:
        if self.kind == "trap":
            return f"trap({set(self.trapped)})"
        return self.kind


@dataclass(eq=False)
class SimulationTrace:
    """Full record of one greedy run."""

    choices: list
    variance_path: np.ndarray
    final_counts: DivisionVector
    classification: Classification
    inefficiency_ratio: float | None
    frequency_estimate: FrequencyVector
    final_mean: np.ndarray | None = None

    def counts_matrix(self) -> np.ndarray:
        """(horizon, N) cumulative counts after each period."""
        start = np.zeros(len(self.final_counts.counts), dtype=np.int64)
        return _cumulative_counts(np.asarray(self.choices, dtype=np.int64), start)


def _cumulative_counts(picks: np.ndarray, start: np.ndarray) -> np.ndarray:
    """(len(picks), N) cumulative counts after each of a run's ``picks``, from the counts
    ``start``. A run's picks are all source indices or all per-source count vectors."""
    if picks.ndim == 1:
        steps = np.zeros((picks.size, start.size), dtype=np.int64)
        steps[np.arange(picks.size), picks] = 1
        picks = steps
    return start + np.cumsum(picks, axis=0)


def compositions(total: int, parts: int):
    """Yield every split of ``total`` observations over ``parts`` sources, in lexicographic
    order, as (M, parts) blocks of at most ``COMPOSITION_BLOCK`` rows.

    Rows are built with numpy one part at a time (``_expand``). Consecutive first parts
    share a block while their rows fit in it; a first part whose rows overflow a block by
    themselves is fixed, and the splits of its rest are blocked the same way.
    """
    if total < 0 or parts < 1:
        raise ValueError("compositions need total >= 0 and parts >= 1")
    if parts == 1:
        yield np.array([[total]], dtype=np.int64)
    else:
        yield from _completions((), total, parts)


def _completions(prefix: tuple, rest: int, parts: int):
    """Blocks of ``prefix`` followed by each split of ``rest`` over ``parts >= 2`` parts."""

    def rows_from(first: int) -> int:  # rows whose first part is ``first`` or more
        return math.comb(rest - first + parts - 1, parts - 1)

    first = 0
    while first <= rest:
        # Bisect for the last first part whose rows, with those from ``first`` on, fit one
        # block: the rows from ``last + 1`` on must number at least ``floor``.
        floor = rows_from(first) - COMPOSITION_BLOCK
        last, high = first - 1, rest
        while last < high:
            mid = (last + high + 1) // 2
            if rows_from(mid + 1) >= floor:
                last = mid
            else:
                high = mid - 1
        if last < first:  # more than two parts, as two give one row per first part
            yield from _completions(prefix + (first,), rest - first, parts - 1)
            first += 1
        else:
            # No named block: the generator frame holds nothing while the caller scores it.
            yield _expand(prefix, np.arange(first, last + 1), rest, parts)
            first = last + 1


def _expand(prefix: tuple, firsts: np.ndarray, rest: int, parts: int) -> np.ndarray:
    """Rows of ``prefix``, then each of ``firsts``, then every split of the rest of ``rest``
    over the other ``parts - 1`` parts, in lexicographic order."""
    j = len(prefix)
    rows = np.empty((len(firsts), j + parts), dtype=np.int64)
    rows[:, :j] = prefix
    rows[:, j] = firsts
    left = rest - firsts
    for col in range(j + 1, j + parts - 1):
        # Each row branches into one row per value 0..left of this part.
        branches = left + 1
        rows = np.repeat(rows, branches, axis=0)
        part = np.arange(len(rows))
        part -= np.repeat(np.cumsum(branches) - branches, branches)
        rows[:, col] = part
        left = np.repeat(left, branches)
        left -= part
    rows[:, -1] = left
    return rows


class _Engine:
    """Shared per-run state: posterior precision, counts, candidate evaluation.

    The prior precision gains ``v v'`` for each free signal ``v`` once, here; the
    signals are kept for drawing their realizations.
    """

    def __init__(
        self,
        env: Environment,
        prior: GaussianPrior,
        intervention: Intervention,
        tie_rng: np.random.Generator | None,
    ):
        if not isinstance(intervention, Intervention):
            raise TypeError(
                f"cannot run {intervention!r} in one greedy run; "
                "AutoFreeSignals runs through escalate_gamma"
            )
        self.env = env
        self.tie_rng = tie_rng
        self.free_signals = intervention.vectors if isinstance(intervention, FreeSignals) else ()
        if any(v.shape != (env.num_states,) for v in self.free_signals):
            raise ValueError("free-signal vector dimension must match the state count")
        self.precision = np.array(prior.precision)
        for v in self.free_signals:
            self.precision += np.outer(v, v)
        self.counts = np.zeros(env.num_sources, dtype=np.int64)
        self.replication = (
            intervention.batch if isinstance(intervention, PrecisionReplicate) else 1
        )
        # The step's replication and, for one target, its weight (None for several).
        self._m = float(self.replication)
        self._w = float(env.weights[0]) if env.weights.size == 1 else None
        self._r = env.weights.size
        self._coefficients = env.coefficients
        # Per run: what a pick adds to the precision, m c_i c_i' per source (a product by 1
        # is exact; one that overflows is refused by the next step), ones to add the 1 of
        # each reduction's denominator and to sum the precision's entries, and the tie
        # threshold's 0-d buffer.
        with np.errstate(over="ignore"):
            self._steps = list(self._m * env.source_outers)
        self._ones = np.ones(env.num_sources)
        self._flat = self.precision.ravel("K")  # a view: the copy above is contiguous
        self._flat_ones = np.ones(self._flat.size)
        self._bound = np.zeros(())
        # Target directions over source rows, (R+N, K), and their Fortran-ordered
        # transpose: the right-hand side of the step's one solve.
        self._rows = np.vstack([env.directions, env.coefficients])
        self._rhs = self._rows.T
        if isinstance(intervention, BatchAllocate):
            if intervention.batch > MAX_BATCH or env.num_sources > MAX_BATCH_SOURCES:
                raise SearchBoundError(
                    f"batch allocation search supports batch <= {MAX_BATCH} "
                    f"and <= {MAX_BATCH_SOURCES} sources"
                )
            self._comps = np.vstack(list(compositions(intervention.batch, env.num_sources)))
            self._comps.setflags(write=False)
            # Per run: the read-only rows a step returns, the (M, K, K) increments, negated
            # targets to solve for (scores are negated variances), and buffers.
            self._choices = list(self._comps)
            self._increments = block_increments(env, self._comps)
            shape = (len(self._comps),) + env.directions.T.shape
            self._batch_rhs = np.broadcast_to(-env.directions.T, shape)
            self._buffers = (np.empty_like(self._increments), np.empty_like(self._increments))
            self._sols = np.empty(shape)
            self._ceiling, self._refusal = 0.0, _SINGULAR
        else:
            self._comps = None
            self._ceiling, self._refusal = math.inf, "a variance reduction is not finite ({})"

    def _pick(self, scores: np.ndarray) -> int:
        """Index of the largest of ``scores``; scores within ``TIE_TOL`` (relative) of it
        tie, and the rule picks among them. A unique winner draws nothing from the RNG. A
        top not below the run's ceiling is refused: a NaN or +inf reduction, or a NaN or
        non-negative negated variance (a singular or indefinite candidate)."""
        i = int(scores.argmax())
        top = float(scores[i])
        if not top < self._ceiling:
            raise NotPositiveDefiniteError(self._refusal.format(top))
        bound = self._bound
        bound[()] = top - TIE_TOL * max(abs(top), 1e-300)
        near = scores >= bound
        if count_nonzero(near) == 1:
            return i
        tied = np.flatnonzero(near)
        if self.tie_rng is None:
            return int(tied[0])
        return int(self.tie_rng.choice(tied))

    def step(self) -> tuple[object, float]:
        """Choose this period's allocation; returns (choice, variance after update)."""
        env = self.env
        if self._comps is not None:
            # The candidate picked becomes the precision, so the next go to the other buffer.
            held, candidates = self._buffers
            self._buffers = candidates, held
            np.add(self.precision, self._increments, out=candidates)
            scores = _stacked_variances(env, candidates, self._batch_rhs, self._sols)
            j = self._pick(scores)
            self.counts += self._choices[j]
            self.precision = candidates[j]
            return self._choices[j], -float(scores[j])

        # One posv solve against targets and sources, the LAPACK work of cho_factor and
        # two cho_solves (same bits); one contraction gives the target variances
        # u_r' Sigma u_r and the quadratic forms c_i' Sigma c_i together. The dot of every
        # entry with 1 is finite only if every entry is, wherever it sits (posv reads only
        # the lower triangle); a sum of finite entries may overflow, silently in the run's
        # error state, and then the exact test decides.
        precision = self.precision
        if not math.isfinite(self._flat.dot(self._flat_ones)):
            _check_finite(precision)
        sols = _posv_solve(precision, self._rhs)  # (K, R+N)
        both = c_einsum("nk,kn->n", self._rows, sols)  # np.einsum's own C routine
        r, m, w = self._r, self._m, self._w
        quad = both[r:]
        # Reductions (sum_r w_r gamma_r^2) m / (1 + m quad), with gamma_r = u_r' Sigma c_i.
        # A product by 1 and a sum over one target are exact, so skipping them keeps
        # every bit; one target's 1-D dot gives the bits of its (N, 1) matmul. Adding the
        # per-run ones is the IEEE add of 1.0 + quad, without broadcasting a Python float.
        if w is None:
            gammas = self._coefficients @ sols[:, :r]  # (N, R)
            current = float(np.dot(env.weights, both[:r]))
            gains = (gammas**2) @ env.weights
        else:
            gammas = self._coefficients.dot(sols[:, 0])  # (N,)
            current = w * float(both[0])
            gains = gammas * gammas
            if w != 1.0:
                gains = gains * w
        if m == 1.0:
            reductions = gains / (quad + self._ones)
        else:
            reductions = gains * m / (m * quad + self._ones)
        i = self._pick(reductions)
        self.counts[i] += 1
        precision += self._steps[i]
        return i, current - float(reductions[i])


def greedy_step(
    env: Environment,
    prior: GaussianPrior,
    counts,
    rule: TieBreak = TieBreak.lowest_index(),
    intervention: Intervention = NoIntervention(),
):
    """The allocation a single myopic agent picks at the given history.

    Returns a source index, or a read-only count vector summing to the batch size
    under batch allocation.
    """
    engine = _Engine(env, prior, intervention, rule.make_rng())
    # As in simulate. The counts' precision may overflow too, and the step refuses it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        engine.precision += _signal_precision(
            env, _per_source(env, counts, "count") * engine.replication
        )
        choice, _ = engine.step()
    return choice


def _classify(
    env: Environment,
    counts_end: np.ndarray,
    counts_half: np.ndarray,
) -> tuple[Classification, float | None, FrequencyVector]:
    window = counts_end - counts_half
    total = int(window.sum())
    freq = FrequencyVector(window / max(total, 1))
    observed = tuple(int(i) for i in np.nonzero(window)[0])

    try:
        star = best_set(env)
    except (SpanError, ValueError):
        # No single-direction spanning benchmark; report honest indecision.
        return Classification("undetermined"), None, freq

    support = star.lambda_star.support(tol=0.0)
    if observed == support:
        gap = float(np.max(np.abs(freq.weights - star.lambda_star.weights)))
        if gap <= EFFICIENT_FREQ_TOL:
            return Classification("efficient"), 1.0, freq

    try:
        report = beta_phi_lambda(env, observed) if observed else None
    except SpanError:
        report = None
    if report is not None and not phi_tied([star, report]):
        return Classification("trap", observed), report.phi / star.phi, freq
    return Classification("undetermined"), None, freq


def _run(env: Environment, prior: GaussianPrior, horizon: int, rule: TieBreak, intervention):
    """``simulate``'s run, unclassified: (engine, choices, variance path, half-mark counts)."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    engine = _Engine(env, prior, intervention, rule.make_rng())
    choices: list = []
    variance_path = np.empty(horizon)
    half_mark = horizon // 2
    counts_half = np.zeros(env.num_sources, dtype=np.int64)

    # An overflowing reduction and a singular or indefinite batch candidate are refused by
    # _pick, which names them, and the step's finiteness pre-test sums the precision, which
    # may overflow: numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in range(horizon):
            choice, value = engine.step()
            choices.append(choice)
            variance_path[t] = value
            if t + 1 == half_mark:
                counts_half = engine.counts.copy()
    return engine, choices, variance_path, counts_half


def simulate(
    env: Environment,
    prior: GaussianPrior,
    horizon: int,
    rule: TieBreak = TieBreak.lowest_index(),
    intervention: Intervention = NoIntervention(),
    sample_realizations: bool = False,
    seed: int = 0,
) -> SimulationTrace:
    """Run the greedy process for ``horizon`` periods and classify the outcome.

    Classification looks at the second half of the run: a set of sources that is
    minimally spanning but slower than the best set is a trap; matching the
    optimal support and frequencies (sup-norm 0.05) is efficient; anything else
    is left undetermined rather than forced into a bucket.
    """
    engine, choices, variance_path, counts_half = _run(env, prior, horizon, rule, intervention)
    classification, ratio, freq = _classify(env, engine.counts, counts_half)
    final_mean = None
    if sample_realizations:
        # Realizations never steer a choice, so they are drawn once from the final counts:
        # n observations of row c sum to n <c, theta> + sqrt(n) z, and each free signal
        # is one observation of its vector. Sums may overflow, and the final precision,
        # which no step has used, may not be finite; the mean is then NaN or infinite,
        # and the run stands as it does without the draws.
        rng = np.random.default_rng(seed)
        chol = np.linalg.cholesky(prior.covariance)
        theta = prior.mean + chol @ rng.standard_normal(env.num_states)
        rows = np.vstack([env.coefficients, *engine.free_signals])
        n = np.concatenate(
            [engine.counts * float(engine.replication), np.ones(len(engine.free_signals))]
        )
        with np.errstate(over="ignore", invalid="ignore"):
            sums = n * (rows @ theta) + np.sqrt(n) * rng.standard_normal(n.size)
            info = prior.precision @ prior.mean + rows.T @ sums
            try:
                final_mean = _solve_spd(engine.precision, info)
            except NotPositiveDefiniteError:
                final_mean = np.full(env.num_states, np.nan)

    return SimulationTrace(
        choices=choices,
        variance_path=variance_path,
        final_counts=DivisionVector(engine.counts),
        classification=classification,
        inefficiency_ratio=ratio,
        frequency_estimate=freq,
        final_mean=final_mean,
    )


def design_free_signals(env: Environment, gamma: float) -> list[np.ndarray]:
    """Signal directions that reveal the confounders of the best spanning set.

    Spans the best set's coefficient subspace with the target direction plus an
    orthonormal complement; the complement directions, scaled to norm ``gamma``,
    are the signals to release. Empty when the best set is a single source (its
    subspace holds no confounder to reveal).
    """
    if not (gamma > 0):
        raise ValueError("gamma must be positive")
    star = _unique_best(env)[0]
    k = len(star.indices)
    if k == 1:
        return []
    u = env.single_direction()
    rows = env.coefficients[list(star.indices)]
    _, _, vh = np.linalg.svd(rows)
    basis = vh[:k]  # orthonormal basis of the set's coefficient subspace
    u_coords = basis @ u
    u_coords = u_coords / np.linalg.norm(u_coords)
    # Orthonormal complement of the target inside the subspace.
    _, _, inner = np.linalg.svd(u_coords[None, :])
    directions = inner[1:] @ basis  # (k-1, K)
    # Each direction's largest entry is made positive.
    return [gamma * d * np.sign(d[np.argmax(np.abs(d))]) for d in directions]


def escalate_gamma(
    env: Environment,
    prior: GaussianPrior,
    horizon: int,
    gamma0: float,
    rule: TieBreak = TieBreak.lowest_index(),
    sample_realizations: bool = False,
    seed: int = 0,
) -> tuple[float, SimulationTrace]:
    """Search the free-signal norm bound from ``gamma0`` for a run that classifies efficient.

    A ``trap`` run doubles gamma and an ``undetermined`` run halves it. Returns the
    (gamma, trace) of the first efficient run, of the first run whose label would turn
    the search around, or of the last run after ``MAX_DOUBLINGS`` steps. With no signal
    to release (a single-source best set), every gamma gives the same run, so it runs
    once and returns ``gamma0``.
    """
    if not (gamma0 > 0):
        raise ValueError("gamma0 must be positive")
    # design_free_signals(env, gamma) is gamma times the unit design, bit for bit.
    unit = design_free_signals(env, 1.0)
    gamma = float(gamma0)
    result = direction = None
    for _ in range(MAX_DOUBLINGS + 1):
        trace = simulate(
            env,
            prior,
            horizon,
            rule=rule,
            intervention=FreeSignals(tuple(gamma * v for v in unit)),
            sample_realizations=sample_realizations,
            seed=seed,
        )
        result = (gamma, trace)
        kind = trace.classification.kind
        step = 0.5 if kind == "undetermined" else 2.0
        if kind == "efficient" or not unit or direction not in (None, step):
            return result
        direction = step
        gamma *= step
    return result
