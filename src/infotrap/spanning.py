"""Minimal spanning sets, their learning speeds, and trap-prior construction.

A subset S of sources *spans* the target direction u when u lies in the span of its
coefficient vectors; it is *minimally spanning* when no proper subset does. For a
minimally spanning S the representation ``u = sum_{i in S} beta_i c_i`` is unique
with every beta_i nonzero, and the key statistic is

    phi(S) = sum_i |beta_i|

the asymptotic standard deviation: sampling S forever at the frequencies
``|beta_i| / phi(S)`` drives posterior variance to ``phi(S)^2 / t``. Smaller phi
means faster learning, and the phi-minimal set is the long-run optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from typing import NamedTuple

import numpy as np

from .gaussian import (
    Environment,
    FrequencyVector,
    GaussianPrior,
    SPAN_TOL,
    _as_int,
    _check_search,
    _flapack,
    _represent,
)

__all__ = [
    "SpanError",
    "SpanningSetReport",
    "AssumptionReport",
    "enumerate_minimal_spanning_sets",
    "beta_phi_lambda",
    "best_set",
    "subspace_closure",
    "is_subspace_optimal",
    "check_assumptions",
    "construct_trap_prior",
    "fit_perturbation_eta",
]

# Two phi values within this relative distance count as tied.
PHI_TIE_TOL = 1e-9

# The most entries, N per subset, that a subset scan covers: every subset of 20 sources.
MAX_SCAN_ENTRIES = 20 * (2**20 - 1)

# Subsets of one size stacked into one SVD or least-squares call: within the scan bound,
# the C(20, 10) size-10 subsets of 20 sources at K=10 would otherwise stack about 150 MB.
SCAN_CHUNK = 4096

# The most coefficients, rows * s * K, that one chunk of size-s subsets stacks (about
# 13 MB), so only s * K above 400 shortens a chunk: 20 sources at K=10,000 would otherwise
# stack 4,096 * 10 * 10,000 floats, about 3.3 GB, in one chunk of size-10 subsets.
SCAN_FLOATS = 400 * SCAN_CHUNK

# A K-subset with smallest singular value above this fraction of its largest spans
# every state well enough that every source passes ``subspace_closure``'s residual
# test, so the scan marks its closure as every source without a solve. A worse
# conditioned K-subset may still pass the independence test and miss sources.
CLOSURE_MARGIN = 1e-4

# The simplex certifies its basis only when every source outside it has
# |c_j' y| below 1 - ELFVING_DUAL_MARGIN; closer to 1 counts as a near-tie.
ELFVING_DUAL_MARGIN = 1e-7


class SpanError(ValueError):
    """A source set is not (minimally) spanning, or the objective is not one target."""


@dataclass(eq=False)
class SpanningSetReport:
    """One minimal spanning set with its representation and optimal frequencies."""

    indices: tuple[int, ...]
    beta: dict[int, float]
    phi: float
    lambda_star: FrequencyVector

    def beta_vector(self, num_sources: int) -> np.ndarray:
        out = np.zeros(num_sources)
        for i, b in self.beta.items():
            out[i] = b
        return out


@dataclass
class AssumptionReport:
    """Results of the genericity checks that govern long-run behavior."""

    unique_minimizer: bool
    gap: float
    strong_linear_independence: bool
    unique_minimizer_every_subspace: bool
    all_minimal_sets_size_K: bool
    witnesses: list[tuple[int, ...]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "unique_minimizer": self.unique_minimizer,
            "gap": self.gap,
            "strong_linear_independence": self.strong_linear_independence,
            "unique_minimizer_every_subspace": self.unique_minimizer_every_subspace,
            "all_minimal_sets_size_K": self.all_minimal_sets_size_K,
            "witnesses": [list(w) for w in self.witnesses],
        }


def _target(env: Environment) -> np.ndarray:
    try:
        return env.single_direction()
    except ValueError as exc:
        raise SpanError(
            "spanning-set enumeration supports only a single target direction; "
            "use the numeric frequency optimizer for weighted multi-target objectives"
        ) from exc


def _report_from(indices: tuple[int, ...], beta: np.ndarray, num_sources: int) -> SpanningSetReport:
    phi = float(np.sum(np.abs(beta)))
    lam = np.zeros(num_sources)
    for i, b in zip(indices, beta):
        lam[i] = abs(b) / phi
    return SpanningSetReport(
        indices=indices,
        beta={int(i): float(b) for i, b in zip(indices, beta)},
        phi=phi,
        lambda_star=FrequencyVector(lam),
    )


class _Span(NamedTuple):
    """An independent subset that spans the target, as ``_test_subsets`` finds it."""

    indices: tuple[int, ...]
    beta: np.ndarray  # the unique representation of the target
    phi: float  # sum |beta|, the same bits as ``_report_from``'s
    minimal: bool  # no zero coefficient, so no proper subset spans
    whole: bool  # a K-subset within ``CLOSURE_MARGIN``: its closure is every source


def _subset_chunks(n: int, size: int, k: int):
    """The size-subsets of range(n) in lexicographic order, as (M, size) index arrays of
    at most ``SCAN_CHUNK`` rows, and of at most ``SCAN_FLOATS`` coefficients once each
    index takes its source's K (but at least one row)."""
    subsets = combinations(range(n), size)
    left = math.comb(n, size)
    rows = max(1, min(SCAN_CHUNK, SCAN_FLOATS // (size * k)))
    while left:
        m = min(left, rows)
        left -= m
        flat = np.fromiter(chain.from_iterable(islice(subsets, m)), np.intp, m * size)
        yield flat.reshape(m, size)


def _test_subsets(
    c: np.ndarray, subsets: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, list[_Span]]:
    """Test each row of the (M, s) index array ``subsets`` as a minimal spanning set.

    One stacked SVD of the source rows tests independence (smallest singular value
    above ``SPAN_TOL`` of the largest); one ``_represent`` call represents the target
    ``u`` by the independent subsets and tests whether they span it, and a spanning
    subset is minimal when no coefficient is zero. Without an independent subset there
    is no solve. Returns the (M,) independence mask and a ``_Span`` per spanning subset,
    in stack order.
    """
    rows = c[subsets]  # (M, s, K)
    sv = np.linalg.svd(rows, compute_uv=False)
    independent = sv[:, -1] > SPAN_TOL * sv[:, 0]
    candidates = np.flatnonzero(independent)
    if not candidates.size:
        return independent, []
    a = rows[candidates].transpose(0, 2, 1)  # each matrix is rows.T, (K, s)
    beta, spans = _represent(a, u)
    keep = candidates[spans]
    beta, sv = beta[spans], sv[keep]
    magnitude = np.abs(beta)
    minimal = magnitude.min(axis=1) > SPAN_TOL * magnitude.max(axis=1)
    whole = (subsets.shape[1] == c.shape[1]) & (sv[:, -1] > CLOSURE_MARGIN * sv[:, 0])
    indices = map(tuple, subsets[keep].tolist())
    phi = magnitude.sum(axis=1).tolist()
    return independent, list(map(_Span, indices, beta, phi, minimal.tolist(), whole.tolist()))


def _spanning_subsets(env: Environment) -> tuple[list[_Span], list[tuple[int, ...]]]:
    """One scan of every subset of at most min(K, N) sources, batched by size; more than
    ``MAX_SCAN_ENTRIES`` entries, N * sum_{s <= min(K, N)} C(N, s) (a report holds an
    N-vector), raise ``SearchBoundError`` before any work. Each chunk of same-size
    subsets (``_subset_chunks``) goes through ``_test_subsets`` as one stack: one
    SVD, one least-squares solve of its independent subsets and one residual test.

    Returns (spanning, dependent): a ``_Span`` for each independent subset that
    spans the target, and the linearly dependent subsets, both by size and then
    lexicographically; independent subsets that miss the target are in neither.
    """
    u = _target(env)
    c = env.coefficients
    n, most = len(c), min(c.shape)
    entries = n * sum(math.comb(n, size) for size in range(1, most + 1))
    _check_search(entries, MAX_SCAN_ENTRIES, f"entries of {n} sources' subsets", "subset-scan")
    spanning, dependent = [], []
    for size in range(1, most + 1):
        for subsets in _subset_chunks(n, size, c.shape[1]):
            independent, spans = _test_subsets(c, subsets, u)
            dependent += map(tuple, subsets[~independent].tolist())
            spanning += spans
    return spanning, dependent


def _by_phi(scanned: list[_Span]) -> list[_Span]:
    """The minimal sets among ``scanned``, sorted by (phi, indices)."""
    return sorted((s for s in scanned if s.minimal), key=lambda s: (s.phi, s.indices))


def _identified(minimal: list) -> list:
    """The phi-sorted minimal sets (reports or ``_Span``s), or SpanError when there are none."""
    if not minimal:
        raise SpanError("no spanning set: the target is not identified from the sources")
    return minimal


def _inside(reports: list, closure) -> list:
    """The reports (or ``_Span``s) whose sets lie inside ``closure``, in their order."""
    return [r for r in reports if closure.issuperset(r.indices)]


def phi_tied(reports: list[SpanningSetReport]) -> bool:
    """Whether phi of the second report exceeds the first's by at most ``PHI_TIE_TOL``
    of its own value. Every phi tie is decided here: on phi-sorted reports, whether the
    best set ties; on a pair [set, rival], whether the rival is at least as fast."""
    return len(reports) >= 2 and reports[1].phi - reports[0].phi <= PHI_TIE_TOL * reports[1].phi


def enumerate_minimal_spanning_sets(env: Environment) -> list[SpanningSetReport]:
    """All minimal spanning sets, sorted by phi ascending (ties by indices).

    Only single-target objectives are supported, and a scan beyond ``MAX_SCAN_ENTRIES``
    (every subset of 20 sources) raises ``SearchBoundError``. ``best_set`` answers the
    phi-minimal set alone without this bound whenever its LP certificate holds; this full
    list, and the checks built on it, stay combinatorial.
    """
    return [
        _report_from(s.indices, s.beta, env.num_sources)
        for s in _by_phi(_spanning_subsets(env)[0])
    ]


def _unique_best(env: Environment) -> list[SpanningSetReport]:
    """``enumerate_minimal_spanning_sets``, or SpanError unless its first set is a strict
    phi-minimum."""
    reports = _identified(enumerate_minimal_spanning_sets(env))
    if phi_tied(reports):
        raise SpanError("tied phi-minimal sets: no unique best set")
    return reports


def _source_indices(env: Environment, indices) -> list[int]:
    """``indices`` as sorted ints, duplicates kept: SpanError unless it is a flat iterable
    of sources of ``env``, each read by ``_as_int``."""
    if isinstance(indices, (str, bytes)) or not np.iterable(indices):
        raise SpanError(f"source indices must be an iterable of integers, not {indices!r}")
    try:
        return sorted(_as_int("source index", i, 0, env.num_sources - 1) for i in indices)
    except ValueError as exc:
        raise SpanError(str(exc)) from exc


def beta_phi_lambda(env: Environment, indices) -> SpanningSetReport:
    """Representation, phi, and optimal frequencies for one minimally spanning set.

    The set is tested by ``_test_subsets`` on a stack of one, as enumeration tests
    it, so the report equals the set's enumerated entry bit for bit.
    """
    u = _target(env)
    subset = tuple(_source_indices(env, indices))
    if not subset:
        raise SpanError("the source set is empty")
    if len(set(subset)) != len(subset):
        raise SpanError("duplicate indices")
    independent, spans = _test_subsets(env.coefficients, np.array([subset]), u)
    if not independent[0]:
        raise SpanError(f"sources {subset} are linearly dependent, not minimally spanning")
    if not spans:
        raise SpanError(f"sources {subset} do not span the target direction")
    if not spans[0].minimal:
        raise SpanError(f"sources {subset} are not minimal: some coefficient is zero")
    return _report_from(subset, spans[0].beta, env.num_sources)


def _pivoted_qr_r(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.linalg.qr(a, mode="r", pivoting=True)`` for a finite float matrix.

    The same LAPACK ``geqp3`` calls as scipy's: a workspace query, then the
    factorization with that workspace, which sets geqp3's blocking and so its bits.
    """
    lwork = _flapack.dgeqp3(a, lwork=-1, overwrite_a=False)[-2][0].real.astype(np.int_)
    qr, jpvt, _, _, info = _flapack.dgeqp3(a, lwork=lwork, overwrite_a=False)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal geqp3")
    jpvt -= 1  # geqp3's pivots are 1-based
    return np.triu(qr), jpvt


def _elfving_best(env: Environment, start=()) -> SpanningSetReport | None:
    """The phi-minimal set from Elfving's LP, or None when it is not certified.

    Elfving's program is min sum|beta_i| subject to C' beta = u. Beta is free in
    sign, so any K independent sources are a feasible basis and no phase 1 is
    needed. ``_elfving_walk`` starts from the sources ``start`` names when they are K
    distinct ones that ``_start_inverse`` finds independent, and from the column
    pivots of a rank-revealing QR of C' otherwise, or when that first walk ends
    uncertified. The answer does not depend on the start: at most one basis is
    certified.
    """
    u = _target(env)
    c = env.coefficients
    n, k = c.shape
    if n < k:
        return None
    if len(set(start)) == k:
        basis = np.array(start, dtype=np.intp)
        inv = _start_inverse(c[basis])
        star = None if inv is None else _elfving_walk(env, u, basis, inv)
        if star is not None:
            return star
    r, pivots = _pivoted_qr_r(c.T)
    if not abs(r[k - 1, k - 1]) > SPAN_TOL * abs(r[0, 0]):
        return None
    basis = pivots[:k].copy()
    return _elfving_walk(env, u, basis, np.linalg.inv(c[basis]))


def _start_inverse(rows: np.ndarray) -> np.ndarray | None:
    """The inverse of a start basis's K x K rows, or None when they are dependent:
    singular, or with a 1-norm condition number not below 1 / ``SPAN_TOL``. The walk
    starts from this inverse, so the test needs no factorization of its own."""
    try:
        inv = np.linalg.inv(rows)
    except np.linalg.LinAlgError:
        return None
    # In Python floats an overflowing product is inf, and numpy does not warn.
    cond = float(np.abs(rows).sum(axis=0).max()) * float(np.abs(inv).sum(axis=0).max())
    return inv if cond < 1.0 / SPAN_TOL else None


def _elfving_walk(
    env: Environment, u: np.ndarray, basis: np.ndarray, inv: np.ndarray
) -> SpanningSetReport | None:
    """Elfving's simplex from ``basis``, K sources whose rows have the inverse ``inv``.

    Each pivot solves beta_B from C_B' beta_B = u and the dual y from
    C_B y = sign(beta_B), enters the outside source with the largest |c_j' y|
    while that exceeds 1, and leaves at the first zero crossing of beta_B.
    Every pivot from a non-degenerate basis strictly lowers sum|beta|, so the
    walk cannot cycle.

    Weak duality gives sum|beta'| >= u'y = sum|beta_B| for every representation
    beta'; when B is non-degenerate and every outside |c_j' y| < 1, equality
    holds on B alone, so B is the strict, unique optimum. A degenerate or
    rank-deficient basis, a near-tie or the pivot cap returns None. The report
    is rebuilt by ``beta_phi_lambda`` from the sorted basis, with the same
    checks and arithmetic as enumeration, so its indices and phi are
    bit-identical to the enumerated entry.
    """
    c = env.coefficients
    for _ in range(10 * len(c) + 50):
        beta = inv.T @ u
        if np.min(np.abs(beta)) <= SPAN_TOL * np.max(np.abs(beta)):
            return None
        y = inv @ np.sign(beta)
        slack = np.abs(c @ y)
        slack[basis] = 0.0
        j = int(np.argmax(slack))
        if slack[j] < 1.0 - ELFVING_DUAL_MARGIN:
            break
        if not slack[j] > 1.0:
            return None
        # Raising |beta_j| by t moves beta_B by -t * sign(c_j' y) * d.
        d = np.sign(c[j] @ y) * (inv.T @ c[j])
        crossing = beta * d > 0
        if not crossing.any():
            return None
        steps = np.where(crossing, beta / np.where(crossing, d, 1.0), np.inf)
        basis[int(np.argmin(steps))] = j
        inv = np.linalg.inv(c[basis])
    else:
        return None
    try:
        return beta_phi_lambda(env, basis)
    except SpanError:
        return None


def best_set(env: Environment, start=()) -> SpanningSetReport:
    """The phi-minimal spanning set (first under the tie ordering).

    Solved as Elfving's linear program, min sum|beta_i| subject to sum_i beta_i c_i = u,
    whose basic optimum is the phi-minimal set. A dual simplex certificate (a
    non-degenerate, full-rank basis whose dual y has |c_j' y| < 1 - 1e-7 for every outside
    source) proves that optimum strict and unique; the answer is then the same set and phi
    that enumeration gives, at any number of sources. Without a certificate (ties, sets
    smaller than K, rank-deficient coefficients) the answer comes from exhaustive
    enumeration, which keeps the (phi, indices) tie order and raises ``SearchBoundError``
    beyond its scan bound. The answer is found once per environment and kept on it, so every
    caller gets the same report; an error is not kept, so every call raises it again.

    ``start`` names sources for the simplex to start from, as a run names the sources its
    second half observed. It saves work when they are the best set or near it; the answer
    does not depend on it, and a start of other than K independent sources goes unused.
    """
    start = _source_indices(env, start)
    if env._best_set is None:
        env._best_set = _search_best_set(env, start)
    return env._best_set


def _search_best_set(env: Environment, start=()) -> SpanningSetReport:
    """``best_set`` without the per-environment cache."""
    star = _elfving_best(env, start)
    return star if star is not None else _identified(enumerate_minimal_spanning_sets(env))[0]


def subspace_closure(env: Environment, indices) -> tuple[int, ...]:
    """All sources whose coefficient vectors lie in the span of the given sources, each
    by the target's span test of ``_represent``."""
    subset = sorted(set(_source_indices(env, indices)))
    if not subset:
        return ()
    c = env.coefficients
    # Each source is its own right-hand side, so it gets the solve a lone lstsq would.
    _, spans = _represent(c[subset].T, c)
    return tuple(np.flatnonzero(spans).tolist())


def is_subspace_optimal(env: Environment, indices) -> bool:
    """Whether the set strictly minimizes phi among minimal spanning sets in its own span."""
    report = beta_phi_lambda(env, indices)
    closure = set(subspace_closure(env, report.indices))
    local = _inside(enumerate_minimal_spanning_sets(env), closure)
    return local[0].indices == report.indices and not phi_tied(local)


def check_assumptions(env: Environment) -> AssumptionReport:
    """Evaluate the genericity conditions from one ``_spanning_subsets`` scan.

    Its minimal sets give the unique minimizer and gap, its dependent K-subsets
    refute strong linear independence (as does N < K), and the closures of its
    spanning subsets are the subspaces checked for ties, each by ``phi_tied``.
    ``witnesses`` holds the tied sets and the dependent K-subsets. The minimal
    sets stay the scan's (phi, indices) records; no report is built for them.
    """
    scanned, dependent = _spanning_subsets(env)
    reports = _identified(_by_phi(scanned))
    witnesses: list[tuple[int, ...]] = []

    unique_minimizer = not phi_tied(reports)
    if len(reports) == 1:
        gap = math.inf
    elif unique_minimizer:
        gap = reports[1].phi - reports[0].phi
    else:
        witnesses.extend(r.indices for r in reports if phi_tied([reports[0], r]))
        gap = 0.0

    k = env.num_states
    dependent_k = [subset for subset in dependent if len(subset) == k]
    witnesses.extend(dependent_k)

    # Subspaces that do not identify the target are vacuous; the others are the
    # closures of independent spanning subsets, minimal or not. A subspace's
    # minimal sets are those inside its closure, still sorted by (phi, indices).
    unique_everywhere = True
    every = frozenset(range(env.num_sources))
    seen: set[frozenset[int]] = set()
    for span in scanned:
        closure = every if span.whole else frozenset(subspace_closure(env, span.indices))
        if closure in seen:
            continue
        seen.add(closure)
        local = _inside(reports, closure)
        if phi_tied(local):
            unique_everywhere = False
            witnesses += [local[0].indices, local[1].indices]

    return AssumptionReport(
        unique_minimizer=unique_minimizer,
        gap=float(gap),
        strong_linear_independence=env.num_sources >= k and not dependent_k,
        unique_minimizer_every_subspace=unique_everywhere,
        all_minimal_sets_size_K=all(len(r.indices) == k for r in reports),
        witnesses=sorted(set(witnesses)),
    )


def construct_trap_prior(env: Environment, indices, eps: float) -> GaussianPrior:
    """A prior under which greedy acquisition locks onto the given set forever.

    Works in transformed coordinates where each chosen source measures a single
    state: the measured states get tiny variance eps / lambda*_i (so their
    uncertainty profile matches stationary sampling of the set), the unmeasured
    states get huge variance 1/eps. Valid only for subspace-optimal sets; for a
    set of size K this forces the set to be the global optimum, in which case the
    "trap" is simply the efficient outcome.
    """
    if not (0 < eps < math.inf):
        raise ValueError("eps must be positive and finite")
    report = beta_phi_lambda(env, indices)
    k, kk = len(report.indices), env.num_states
    if not is_subspace_optimal(env, report.indices):
        if k == kk:
            raise SpanError(
                f"sources {report.indices} span all states but are not the best set; "
                "no prior makes greedy agents stay on a full-rank suboptimal set"
            )
        raise SpanError(
            f"sources {report.indices} are not subspace-optimal; a faster set inside "
            "their span would eventually be discovered"
        )
    rows = env.coefficients[list(report.indices)]  # (k, K)
    _, _, vh = np.linalg.svd(rows)
    transform = np.vstack([rows, vh[k:]])  # states -> measured coords + complement
    lam = report.lambda_star.weights[list(report.indices)]
    variances = np.concatenate([eps / lam, np.full(kk - k, 1.0 / eps)])
    inv_t = np.linalg.inv(transform)
    cov = inv_t @ np.diag(variances) @ inv_t.T
    cov = 0.5 * (cov + cov.T)
    return GaussianPrior(mean=np.zeros(kk), covariance=cov)


def fit_perturbation_eta(env: Environment) -> float:
    """Largest mass-penalty coefficient eta valid in the lower bound

        Vinf(lam) >= phi(S*)^2 / (1 - eta * rho)

    where rho is the frequency mass outside the best set. Derived by scaling all
    outside sources up by (1 + h) with the largest h that keeps the best set
    strictly best, then eta = (2h + h^2) / (1 + h)^2.
    """
    star, *rivals = _unique_best(env)
    inside = set(star.indices)
    h_cap = 10.0
    for rival in rivals:
        a = sum(abs(b) for i, b in rival.beta.items() if i in inside)
        b = sum(abs(b) for i, b in rival.beta.items() if i not in inside)
        if a >= star.phi or b <= 0:
            continue
        h_cap = min(h_cap, b / (star.phi - a) - 1.0)
    h = max(h_cap, 0.0) * (1.0 - 1e-9)
    return (2.0 * h + h * h) / (1.0 + h) ** 2
