"""Greedy sequential acquisition, interventions, and long-run classification.

Each period one agent adds observations where the immediate posterior-variance
drop is largest. The variance path is deterministic (Gaussian updating), so the
whole choice sequence is too, up to tie-breaking. Signal realizations, when
sampled, only move the posterior mean and never the choices.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy._core.multiarray import c_einsum, count_nonzero

from . import gaussian  # gaussian._posv is looked up per call, so a test can count solves
from .gaussian import (
    DivisionVector,
    Environment,
    FrequencyVector,
    GaussianPrior,
    NotPositiveDefiniteError,
    SearchBoundError,
    _MINOR,
    _SINGULAR,
    _check_finite,
    _as_int,
    _check_prior,
    _check_search,
    _numbers,
    _per_source,
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

# The candidates a ``BatchAllocate`` period scores, at most: the splits of 12 over 8 sources.
MAX_BATCH_CANDIDATES = math.comb(12 + 8 - 1, 8 - 1)

# ``compositions`` yields blocks of at most this many rows, and the trace and compare CSV
# writers format at most this many rows at a time.
COMPOSITION_BLOCK = 16_384

# Classification uses the second half of the run; "efficient" additionally requires
# the empirical frequencies to be this close (sup-norm) to the optimal ones.
EFFICIENT_FREQ_TOL = 0.05

# A precision whose entries are all at most this large in magnitude is finite, with room
# for the rounding of the sums that built it: the engine runs no finiteness test while
# no entry can have grown past it.
_ENTRY_CEILING = 8e307

# ``escalate_gamma`` doubles or halves gamma at most this many times.
MAX_DOUBLINGS = 20

MAX_HORIZON = 10_000_000  # the largest ``horizon``: a run keeps a choice and a variance per period
MAX_SEED = 2**64 - 1  # the largest realization ``seed``, as a scenario file gives it


# scipy's cho_factor/cho_solve, imported on first call so that importing this module
# does not import scipy.linalg. Nothing here calls them: perfbench/tracing.py and
# tests/test_engine.py wrap these names to check that the engine step does not.
def cho_factor(*args, **kwargs):
    from scipy.linalg import cho_factor

    return cho_factor(*args, **kwargs)


def cho_solve(*args, **kwargs):
    from scipy.linalg import cho_solve

    return cho_solve(*args, **kwargs)


@dataclass(frozen=True)
class TieBreak:
    """Tie resolution rule: deterministic lowest index, or seeded-random choice. Under
    ``BatchAllocate`` the candidates are count vectors in lexicographic order, so
    ``lowest_index`` takes the lexicographically smallest tied vector, not the lowest
    source: over two copies of source 0, ``BatchAllocate(1)`` takes ``[0, 1, 0]``."""

    kind: str = "lowest_index"
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("lowest_index", "random"):
            raise ValueError(f"unknown tie-break kind {self.kind!r}")
        if self.seed is not None:
            object.__setattr__(self, "seed", _as_int("seed", self.seed))
        elif self.kind == "random":
            raise ValueError("random tie-break needs a seed")

    @classmethod
    def lowest_index(cls) -> "TieBreak":
        return cls("lowest_index")

    @classmethod
    def random(cls, seed: int) -> "TieBreak":
        return cls("random", seed)

    def make_rng(self) -> np.random.Generator | None:
        return np.random.default_rng(self.seed) if self.kind == "random" else None


@dataclass(frozen=True)
class NoIntervention:
    pass


@dataclass(frozen=True)
class _Batched:
    batch: int

    def __post_init__(self) -> None:
        # A replication count scales the precision as a float, so it must fit one.
        object.__setattr__(self, "batch", _as_int("batch", self.batch, 1, sys.float_info.max))


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
        self.vectors = tuple(_numbers("free-signal vector", v, 1) for v in self.vectors)


def _check_free_signals(env: Environment, vectors) -> None:
    """Refuse free-signal vectors whose length is not the state count of ``env``."""
    if any(v.shape != (env.num_states,) for v in vectors):
        raise ValueError(f"free-signal vectors must match the state count {env.num_states}")


@dataclass(frozen=True)
class AutoFreeSignals:
    """Designed free signals whose norm bound moves from ``gamma0`` until the run is
    efficient. Not an ``Intervention`` of one run: ``escalate_gamma`` runs it."""

    gamma0: float

    def __post_init__(self) -> None:
        g = float(_numbers("gamma0", self.gamma0, 0))
        # The released signals add gamma^2 to the prior precision.
        if not (g > 0 and math.isfinite(g * g)):
            raise ValueError("gamma0 must be positive, with a finite square")
        object.__setattr__(self, "gamma0", g)


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
    total, parts = _as_int("total", total), _as_int("parts", parts, 1)
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

    ``advance`` runs a stretch of periods in one Python frame, and ``step`` is one period
    of it. A refused period raises before it changes the engine. The prior precision
    gains ``v v'`` for each free signal ``v`` once, here; the signals are kept for
    drawing their realizations.
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
        _check_prior(env, prior)
        self.env = env
        self.tie_rng = tie_rng
        self.free_signals = intervention.vectors if isinstance(intervention, FreeSignals) else ()
        _check_free_signals(env, self.free_signals)
        self.precision = np.array(prior.precision)
        # An overflowing fold is refused by the first period's finiteness test.
        with np.errstate(over="ignore", invalid="ignore"):
            for v in self.free_signals:
                self.precision += np.outer(v, v)
        self.counts = np.zeros(env.num_sources, dtype=np.int64)
        self.replication = (
            intervention.batch if isinstance(intervention, PrecisionReplicate) else 1
        )
        self._bound = np.zeros(())  # the tie threshold's 0-d buffer
        if isinstance(intervention, BatchAllocate):
            batch, n = intervention.batch, env.num_sources
            what = f"splits of a batch of {batch} observations over {n} sources"
            splits = math.comb(batch + n - 1, n - 1)
            _check_search(splits, MAX_BATCH_CANDIDATES, what, "batch-allocation")
            self._comps = np.vstack(list(compositions(batch, n)))
            self._comps.setflags(write=False)
            # Per run: the read-only rows a period returns, the (M, K, K) increments, negated
            # targets to solve for (scores are negated variances), and buffers.
            self._choices = list(self._comps)
            self._increments = block_increments(env, self._comps)
            shape = (len(self._comps),) + env.directions.T.shape
            self._batch_rhs = np.broadcast_to(-env.directions.T, shape)
            self._buffers = (np.empty_like(self._increments), np.empty_like(self._increments))
            self._sols = np.empty(shape)
            self._ceiling, self._refusal = 0.0, _SINGULAR
            return
        self._comps = None
        self._ceiling, self._refusal = math.inf, "a variance reduction is not finite ({})"
        # Per run: what a pick adds to the precision, m c_i c_i' per source (a product by 1
        # is exact; one that overflows is refused by the next period's finiteness test),
        # and its largest entry, which bounds how fast the precision can grow.
        with np.errstate(over="ignore"):
            steps = float(self.replication) * env.source_outers
        self._steps = list(steps)
        self._step_max = float(np.abs(steps).max())
        # Target directions over source rows, (R+N, K), and their Fortran-ordered
        # transpose: the right-hand side of each period's one solve.
        self._rows = np.vstack([env.directions, env.coefficients])
        self._rhs = self._rows.T

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
        if self.tie_rng is None:
            return int(near.argmax())  # the first tied index
        return int(self.tie_rng.choice(np.flatnonzero(near)))

    def step(self) -> tuple[object, float]:
        """Choose this period's allocation; returns (choice, variance after update)."""
        values = np.empty(1)
        return self.advance(values)[0], float(values[0])

    def advance(self, values: np.ndarray) -> list:
        """Run ``len(values)`` periods; returns their choices and writes each period's
        variance after its update into ``values``."""
        picks: list[int] = []
        try:
            if self._comps is None:
                self._single_periods(picks, values)
            else:
                self._batch_periods(picks, values)
        finally:
            if picks:  # the periods run, up to a refusal
                if self._comps is None:
                    self.counts += np.bincount(picks, minlength=self.counts.size)
                else:
                    self.counts += np.bincount(picks, minlength=len(self._comps)) @ self._comps
        return picks if self._comps is None else [self._choices[j] for j in picks]

    def _unchecked_periods(self) -> float:
        """Periods from now whose precision cannot hold an inf or a NaN, so they need no
        finiteness test: after t picks every entry is at most max|P| + t max|step| in
        size, and up to ``_ENTRY_CEILING`` that, with its rounding, stays finite. 0 when an
        entry of the precision or of a step is already inf or NaN."""
        top = float(np.abs(self.precision).max())
        if not (math.isfinite(top) and math.isfinite(self._step_max)):
            return 0.0
        if self._step_max == 0.0:
            return math.inf
        return max(0.0, (_ENTRY_CEILING - top) // self._step_max)

    def _single_periods(self, picks: list, values: np.ndarray) -> None:
        """The single-source periods. Each makes one posv solve against targets and
        sources, the LAPACK work of cho_factor and two cho_solves (same bits); one
        contraction gives the target variances u_r' Sigma u_r and the quadratic forms
        c_i' Sigma c_i together, into a buffer of the call."""
        env, precision, steps, pick = self.env, self.precision, self._steps, self._pick
        coefficients, rows, rhs = env.coefficients, self._rows, self._rhs
        r, n = env.weights.size, env.num_sources
        m = float(self.replication)
        w = float(env.weights[0]) if r == 1 else None
        both = np.empty(r + n)
        both_targets, quad = both[:r], both[r:]
        reductions = np.empty(n)
        ones = np.ones(n)  # adds the 1 of each denominator without broadcasting a float
        unchecked = self._unchecked_periods()
        posv = gaussian._posv
        for t in range(len(values)):
            if t >= unchecked:
                _check_finite(precision)
            _, x, info = posv(precision, rhs, 1)
            if info > 0:
                raise NotPositiveDefiniteError(_MINOR.format(info))
            c_einsum("nk,kn->n", rows, x, out=both)  # np.einsum's own C routine
            # Reductions (sum_r w_r gamma_r^2) m / (1 + m quad), with gamma_r = u_r' Sigma c_i.
            # A product by 1 and a sum over one target are exact, so skipping them keeps
            # every bit; one target's 1-D dot gives the bits of its (N, 1) matmul.
            if w is None:
                current = float(np.dot(env.weights, both_targets))
                gains = (coefficients @ x[:, :r]) ** 2 @ env.weights  # (N, R) gammas
            else:
                current = w * float(both[0])
                gains = coefficients.dot(x[:, 0])  # (N,) gammas
                gains *= gains
                if w != 1.0:
                    gains *= w
            if m == 1.0:
                np.add(quad, ones, out=reductions)
            else:
                gains *= m
                np.multiply(quad, m, out=reductions)
                reductions += ones
            np.divide(gains, reductions, out=reductions)
            i = pick(reductions)
            picks.append(i)
            values[t] = current - float(reductions[i])
            precision += steps[i]

    def _batch_periods(self, picks: list, values: np.ndarray) -> None:
        """The batch-allocation periods: every candidate precision from the per-run
        increments, scored by one batched solve."""
        env, increments, rhs, sols = self.env, self._increments, self._batch_rhs, self._sols
        for t in range(len(values)):
            held, candidates = self._buffers
            np.add(self.precision, increments, out=candidates)
            scores = _stacked_variances(env, candidates, rhs, sols)
            j = self._pick(scores)
            picks.append(j)
            values[t] = -float(scores[j])
            # The candidate picked becomes the precision, so the next go to the other buffer.
            self.precision = candidates[j]
            self._buffers = candidates, held


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
            env, _per_source(env, counts, "counts") * engine.replication
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

    if observed == star.lambda_star.support(tol=0.0):
        report = star
    else:
        try:
            report = beta_phi_lambda(env, observed) if observed else None
        except SpanError:
            report = None
    if report is None:
        return Classification("undetermined"), None, freq
    if not phi_tied([star, report]):
        return Classification("trap", observed), report.phi / star.phi, freq
    # Every set whose phi ties the best set's, the best set among them, learns as fast as
    # possible: the run is efficient when it settles on its set's own optimal frequencies,
    # whichever tied set best_set happens to list first.
    gap = float(np.max(np.abs(freq.weights - report.lambda_star.weights)))
    if gap <= EFFICIENT_FREQ_TOL:
        return Classification("efficient"), 1.0, freq
    return Classification("undetermined"), None, freq


def _run(env: Environment, prior: GaussianPrior, horizon: int, rule: TieBreak, intervention):
    """``simulate``'s run, unclassified: (engine, choices, variance path, half-mark counts).
    The engine runs the periods up to the half mark in one ``advance`` call, and the rest
    in another."""
    horizon = _as_int("horizon", horizon, 1, MAX_HORIZON)
    engine = _Engine(env, prior, intervention, rule.make_rng())
    variance_path = np.empty(horizon)
    half_mark = horizon // 2
    # An overflowing reduction and a singular or indefinite batch candidate are refused by
    # _pick, which names them, and an overflowing precision by the next period's finiteness
    # test: numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        choices = engine.advance(variance_path[:half_mark])
        counts_half = engine.counts.copy()
        choices += engine.advance(variance_path[half_mark:])
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
    is left undetermined rather than forced into a bucket. ``seed`` draws the
    realizations; it is an integer from 0 to ``MAX_SEED`` either way.
    """
    seed = _as_int("seed", seed, 0, MAX_SEED)
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
    subspace holds no confounder to reveal). ``gamma`` follows the rule of
    ``AutoFreeSignals.gamma0``.
    """
    gamma = AutoFreeSignals(gamma).gamma0
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
    gamma = AutoFreeSignals(gamma0).gamma0
    seed = _as_int("seed", seed, 0, MAX_SEED)  # refused before the first run
    # design_free_signals(env, gamma) is gamma times the unit design, bit for bit.
    unit = design_free_signals(env, 1.0)
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
