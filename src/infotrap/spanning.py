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
# The least-squares gufunc behind np.linalg.lstsq, which takes one matrix only; the
# batched scan calls it on a stack, under lstsq's own error state.
from numpy.linalg import _umath_linalg
from numpy.linalg._linalg import _raise_linalgerror_lstsq

from .gaussian import (
    Environment,
    FrequencyVector,
    GaussianPrior,
    SPAN_TOL,
    _flapack,
)

__all__ = [
    "SpanError",
    "SpanningSetReport",
    "AssumptionReport",
    "enumerate_minimal_spanning_sets",
    "beta_phi_lambda",
    "best_set",
    "phi_by_l1",
    "subspace_closure",
    "is_subspace_optimal",
    "check_assumptions",
    "construct_trap_prior",
    "fit_perturbation_eta",
]

# Two phi values within this relative distance count as tied.
PHI_TIE_TOL = 1e-9

MAX_SOURCES_ENUMERATION = 20

# Subsets of one size stacked into one SVD or least-squares call: at the 20-source
# cap, C(20, 10) subsets would otherwise stack about 150 MB of matrices.
SCAN_CHUNK = 4096

# A K-subset with smallest singular value above this fraction of its largest spans
# every state well enough that every source passes ``subspace_closure``'s residual
# test, so the scan marks its closure as every source without a solve. A worse
# conditioned K-subset may still pass ``_independent`` and miss sources.
CLOSURE_MARGIN = 1e-4

# The simplex certifies its basis only when every source outside it has
# |c_j' y| below 1 - ELFVING_DUAL_MARGIN; closer to 1 counts as a near-tie.
ELFVING_DUAL_MARGIN = 1e-7


class SpanError(ValueError):
    """A source set is not (minimally) spanning, or enumeration is unsupported."""


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


def _independent(rows: np.ndarray) -> bool:
    sv = np.linalg.svd(rows, compute_uv=False)
    return sv.size > 0 and sv[-1] > SPAN_TOL * sv[0]


def _residual_tol(u: np.ndarray) -> float:
    return SPAN_TOL * max(1.0, float(np.linalg.norm(u, np.inf)))


def _solve_representation(rows: np.ndarray, u: np.ndarray) -> np.ndarray | None:
    """Coefficients beta with rows' beta = u, or None when u is outside the span.

    A representation that is not finite does not span: an overflowing beta gives a
    residual of inf or NaN, which fails the test without a warning.
    """
    beta, *_ = np.linalg.lstsq(rows.T, u, rcond=None)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.linalg.norm(rows.T @ beta - u, np.inf)
    if not residual <= _residual_tol(u) or not np.isfinite(beta).all():
        return None
    return beta


def _stacked_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.lstsq(a[i], b, rcond=None)[0]`` for every matrix of the (M, m, n) stack
    ``a``, with ``b`` of shape (m, nrhs), as an (M, n, nrhs) array: one call of lstsq's
    gufunc (the same ``gelsd`` per matrix), with lstsq's default cutoff and error state,
    so a non-converging SVD raises ``LinAlgError``."""
    rcond = np.finfo(float).eps * max(a.shape[-2:])
    with np.errstate(
        call=_raise_linalgerror_lstsq,
        invalid="call",
        over="ignore",
        divide="ignore",
        under="ignore",
    ):
        x, _, _, _ = _umath_linalg.lstsq(a, b, rcond, signature="ddd->ddid")
    return x


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
    """An independent subset that spans the target, as ``_spanning_subsets`` finds it."""

    indices: tuple[int, ...]
    beta: np.ndarray  # the unique representation of the target
    phi: float  # sum |beta|, the same bits as ``_report_from``'s
    minimal: bool  # no zero coefficient, so no proper subset spans
    whole: bool  # a K-subset within ``CLOSURE_MARGIN``: its closure is every source


def _subset_chunks(n: int, size: int):
    """The size-subsets of range(n) in lexicographic order, as (M, size) index arrays of
    at most ``SCAN_CHUNK`` rows."""
    subsets = combinations(range(n), size)
    left = math.comb(n, size)
    while left:
        m = min(left, SCAN_CHUNK)
        left -= m
        flat = np.fromiter(chain.from_iterable(islice(subsets, m)), np.intp, m * size)
        yield flat.reshape(m, size)


def _spanning_subsets(env: Environment) -> tuple[list[_Span], list[tuple[int, ...]]]:
    """One scan of every subset of at most min(K, N) sources, batched by size.

    Each chunk of same-size subsets gets one stacked SVD (the ``_independent`` test),
    one stacked least-squares solve of its independent subsets and one stacked
    residual test (``_solve_representation``'s). Every matrix gets the LAPACK call,
    in the layout, that the per-subset helpers give it, so the decisions and numbers
    are theirs bit for bit.

    Returns (spanning, dependent): a ``_Span`` for each independent subset that
    spans the target, and the linearly dependent subsets, both by size and then
    lexicographically; independent subsets that miss the target are in neither.
    """
    u = _target(env)
    if env.num_sources > MAX_SOURCES_ENUMERATION:
        raise SpanError(
            f"exhaustive subset search supports at most {MAX_SOURCES_ENUMERATION} sources"
        )
    c = env.coefficients
    n, k = c.shape
    tol = _residual_tol(u)
    spanning, dependent = [], []
    for size in range(1, min(k, n) + 1):
        for subsets in _subset_chunks(n, size):
            rows = c[subsets]  # (M, size, K)
            sv = np.linalg.svd(rows, compute_uv=False)
            independent = sv[:, -1] > SPAN_TOL * sv[:, 0]
            dependent += map(tuple, subsets[~independent].tolist())
            if not independent.any():
                continue
            a = rows[independent].transpose(0, 2, 1)  # each matrix is rows.T, (K, size)
            beta = _stacked_lstsq(a, u[:, None])
            with np.errstate(over="ignore", invalid="ignore"):
                residual = np.abs((a @ beta)[:, :, 0] - u).max(axis=1)
            beta = beta[:, :, 0]
            spans = (residual <= tol) & np.isfinite(beta).all(axis=1)
            keep = np.flatnonzero(independent)[spans]
            beta, sv = beta[spans], sv[keep]
            magnitude = np.abs(beta)
            minimal = magnitude.min(axis=1) > SPAN_TOL * magnitude.max(axis=1)
            whole = (size == k) & (sv[:, -1] > CLOSURE_MARGIN * sv[:, 0])
            spanning += map(
                _Span,
                map(tuple, subsets[keep].tolist()),
                beta,
                magnitude.sum(axis=1).tolist(),
                minimal.tolist(),
                whole.tolist(),
            )
    return spanning, dependent


def _by_phi(scanned: list[_Span]) -> list[_Span]:
    """The minimal sets among ``scanned``, sorted by (phi, indices)."""
    return sorted((s for s in scanned if s.minimal), key=lambda s: (s.phi, s.indices))


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

    Only single-target objectives are supported, and the exhaustive search is
    capped at 20 sources. ``best_set`` answers the phi-minimal set alone without
    this cap whenever its LP certificate holds; this full list, and the checks
    built on it, stay combinatorial.
    """
    return [
        _report_from(s.indices, s.beta, env.num_sources)
        for s in _by_phi(_spanning_subsets(env)[0])
    ]


def _unique_best(env: Environment) -> list[SpanningSetReport]:
    """``enumerate_minimal_spanning_sets``, or SpanError unless its first set is a strict
    phi-minimum."""
    reports = enumerate_minimal_spanning_sets(env)
    if not reports:
        raise SpanError("no spanning set: the target is not identified from the sources")
    if phi_tied(reports):
        raise SpanError("tied phi-minimal sets: no unique best set")
    return reports


def beta_phi_lambda(env: Environment, indices) -> SpanningSetReport:
    """Representation, phi, and optimal frequencies for one minimally spanning set."""
    u = _target(env)
    subset = tuple(sorted(int(i) for i in indices))
    if len(set(subset)) != len(subset):
        raise SpanError("duplicate indices")
    if not subset or subset[0] < 0 or subset[-1] >= env.num_sources:
        raise SpanError("source indices out of range")
    rows = env.coefficients[list(subset)]
    if not _independent(rows):
        raise SpanError(f"sources {subset} are linearly dependent, not minimally spanning")
    beta = _solve_representation(rows, u)
    if beta is None:
        raise SpanError(f"sources {subset} do not span the target direction")
    if np.min(np.abs(beta)) <= SPAN_TOL * np.max(np.abs(beta)):
        raise SpanError(f"sources {subset} are not minimal: some coefficient is zero")
    return _report_from(subset, beta, env.num_sources)


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


def _elfving_best(env: Environment) -> SpanningSetReport | None:
    """The phi-minimal set from Elfving's LP, or None when it is not certified.

    Elfving's program is min sum|beta_i| subject to C' beta = u. Beta is free in
    sign, so any K independent sources are a feasible basis and no phase 1 is
    needed: start from the column pivots of a rank-revealing QR of C'. Each
    pivot solves beta_B from C_B' beta_B = u and the dual y from
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
    u = _target(env)
    c = env.coefficients
    n, k = c.shape
    if n < k:
        return None
    r, pivots = _pivoted_qr_r(c.T)
    if not abs(r[k - 1, k - 1]) > SPAN_TOL * abs(r[0, 0]):
        return None
    basis = pivots[:k].copy()
    for _ in range(10 * n + 50):
        inv = np.linalg.inv(c[basis])
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
    else:
        return None
    try:
        return beta_phi_lambda(env, basis)
    except SpanError:
        return None


def best_set(env: Environment) -> SpanningSetReport:
    """The phi-minimal spanning set (first under the tie ordering).

    Solved as Elfving's linear program, min sum|beta_i| subject to
    sum_i beta_i c_i = u, whose basic optimum is the phi-minimal set. A dual
    simplex certificate (a non-degenerate, full-rank basis whose dual y has
    |c_j' y| < 1 - 1e-7 for every outside source) proves that optimum strict
    and unique; the answer is then the same set and phi that enumeration gives,
    at any number of sources. Without a certificate (ties, sets smaller than
    K, rank-deficient coefficients) the answer comes from exhaustive
    enumeration, which keeps the (phi, indices) tie order and is capped at 20
    sources. The answer is found once per environment and kept on it, so
    every caller gets the same report; a ``SpanError`` is not kept, so every
    call raises it again.
    """
    return env._best_set


def _search_best_set(env: Environment) -> SpanningSetReport:
    """``best_set`` without the per-environment cache."""
    star = _elfving_best(env)
    if star is not None:
        return star
    reports = enumerate_minimal_spanning_sets(env)
    if not reports:
        raise SpanError("no spanning set: the target is not identified from the sources")
    return reports[0]


def phi_by_l1(env: Environment) -> tuple[float, np.ndarray]:
    """Minimum of sum|beta_i| over all representations of the target.

    Every basic optimum of this L1 program is carried by a minimal spanning
    set, so the value is phi of the best set and the minimizer is its beta;
    both come from ``best_set``, with its certificate and enumeration fallback.
    """
    star = best_set(env)
    return star.phi, star.beta_vector(env.num_sources)


def subspace_closure(env: Environment, indices) -> tuple[int, ...]:
    """All sources whose coefficient vectors lie in the span of the given sources."""
    subset = sorted(set(int(i) for i in indices))
    if subset and (subset[0] < 0 or subset[-1] >= env.num_sources):
        raise SpanError("source indices out of range")
    if not subset:
        return ()
    c = env.coefficients
    rows = c[subset]  # (s, K)
    coef, *_ = np.linalg.lstsq(rows.T, c.T, rcond=None)
    # An overflowing coefficient leaves an inf or NaN residual, which fails the test.
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.linalg.norm(rows.T @ coef - c.T, axis=0)
    scale = np.maximum(np.linalg.norm(c, axis=1), 1e-300)
    return tuple(int(j) for j in np.flatnonzero(residual <= SPAN_TOL * scale))


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
    reports = _by_phi(scanned)
    witnesses: list[tuple[int, ...]] = []

    if not reports:
        raise SpanError("no spanning set: the target is not identified from the sources")

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
    if not (eps > 0):
        raise ValueError("eps must be positive")
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
