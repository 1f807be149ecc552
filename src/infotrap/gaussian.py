"""Gaussian signal model: exact posterior variance, its asymptotic limit, and gradients.

The model has K jointly normal states and N observable sources. One observation of
source i realizes ``<c_i, theta> + N(0, 1)`` where ``c_i`` is row i of the coefficient
matrix. Because prior and signals are Gaussian, the posterior covariance after any
vector of observation counts is deterministic: posterior precision is the prior
precision plus ``sum_i q_i c_i c_i'``.

The quantity tracked throughout is the weighted posterior variance of one or more
target directions ``u_r``:

    V(q) = sum_r w_r * u_r' (Sigma0^-1 + C' diag(q) C)^-1 u_r

and its scale-free limit for observation frequencies ``lam``:

    Vinf(lam) = sum_r w_r * u_r' (C' diag(lam) C)^-1 u_r

where the inverse in ``Vinf`` is the spectral continuous extension to singular
matrices (zero eigenvalues contribute 0 for orthogonal targets, +inf otherwise).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy._core.multiarray import c_einsum
from numpy.linalg import _umath_linalg

__all__ = [
    "DimensionError",
    "NotPositiveDefiniteError",
    "NonDifferentiableError",
    "Environment",
    "GaussianPrior",
    "DivisionVector",
    "FrequencyVector",
    "posterior_variance",
    "variance_reduction",
    "asymptotic_variance",
    "grad_posterior_variance",
    "grad_asymptotic_variance",
]

# Relative eigenvalue cutoff for rank decisions in the continuous-extension inverse.
# The scale is floored at 1 so that uniformly tiny matrices are treated as rank zero.
EIGENVALUE_CUTOFF = 1e-10

# Relative tolerance for "this vector component is exactly zero" span decisions.
SPAN_TOL = 1e-9

_LARGEST_ROOT = math.sqrt(np.finfo(float).max)  # the largest float with a finite square
_HALF_MAX = np.finfo(float).max / 2  # the largest float whose double is finite


def _load_flapack():
    """scipy's LAPACK extension module ``scipy.linalg._flapack``, without ``scipy.linalg``.

    Importing ``scipy.linalg`` takes most of this package's start-up, and the package
    needs only two LAPACK drivers from it. The extension module does not need the rest
    of ``scipy.linalg``, so it is loaded from its file under its own name and registered
    in ``sys.modules``; a later ``import scipy.linalg`` then reuses this very module, and
    ``get_lapack_funcs`` returns the same function objects. A module already imported is
    reused, and without the file the module is imported the ordinary way.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(root, "linalg", "_flapack" + suffix)
        if os.path.isfile(path):
            break
    else:
        return importlib.import_module(name)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()

# LAPACK's ``posv`` driver: the ``potrf`` factorization and ``potrs`` solve of scipy's
# ``cho_factor``/``cho_solve`` in one call, the same floating-point work without the
# wrappers' per-call checks. It is the very object scipy's ``get_lapack_funcs`` returns.
_posv = _flapack.dposv

# The gufunc ``np.linalg.solve`` runs on a stack of matrices (LAPACK ``gesv`` on each),
# called without the wrapper's per-call dispatch. Outside the wrapper's error state a
# singular matrix does not raise: its rows of the solution are NaN.
_gesv = _umath_linalg.solve

_SINGULAR = "a candidate posterior precision is singular"  # by the oracle and the batch step


class DimensionError(ValueError):
    """Shapes of environment, prior, or count/frequency vectors disagree."""


class NotPositiveDefiniteError(ValueError):
    """A covariance or precision matrix is not (numerically) positive definite."""


class NonDifferentiableError(ValueError):
    """The asymptotic variance is not differentiable at the requested frequencies."""


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(eq=False)
class Environment:
    """Signal coefficient matrix plus the weighted target direction(s).

    Parameters
    ----------
    coefficients : (N, K) array
        Row i holds the loading of source i on each of the K states.
    objective : sequence of (weight, direction) pairs, optional
        Weighted quadratic-loss targets. Defaults to weight 1 on the first
        coordinate direction, which is the plain one-state prediction problem.
    """

    coefficients: np.ndarray
    objective: tuple[tuple[float, np.ndarray], ...] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        c = np.asarray(self.coefficients, dtype=float)
        if c.ndim != 2 or c.shape[0] < 1 or c.shape[1] < 1:
            raise DimensionError("coefficients must be a non-empty N x K matrix")
        if not np.all(np.abs(c) <= _LARGEST_ROOT):
            raise ValueError("coefficients must be finite, with finite squares")
        self.coefficients = _readonly(c)
        k = c.shape[1]
        if self.objective is None:
            e1 = np.zeros(k)
            e1[0] = 1.0
            self.objective = ((1.0, _readonly(e1)),)
        else:
            pairs = []
            for w, d in self.objective:
                d = np.asarray(d, dtype=float)
                if d.shape != (k,):
                    raise DimensionError("objective direction has wrong length")
                if not np.all(np.isfinite(d)) or not np.any(d):
                    raise ValueError("objective directions must be finite and non-zero")
                if not (w > 0 and math.isfinite(w)):
                    raise ValueError("objective weights must be positive")
                pairs.append((float(w), _readonly(d)))
            if not pairs:
                raise ValueError("objective must be non-empty")
            self.objective = tuple(pairs)
        # All target directions stacked as an (R, K) array, and their weights.
        self.directions = _readonly([d for _, d in self.objective])
        self.weights = _readonly([w for w, _ in self.objective])

    @property
    def num_sources(self) -> int:
        return self.coefficients.shape[0]

    @property
    def num_states(self) -> int:
        return self.coefficients.shape[1]

    def single_direction(self) -> np.ndarray:
        """The unique target direction, or raise if the objective is weighted over several."""
        if len(self.objective) != 1:
            raise ValueError("operation requires a single-direction objective")
        return self.objective[0][1]

    @cached_property
    def source_outers(self) -> np.ndarray:
        """(N, K, K) stack of c_i c_i' rank-one precision increments."""
        c = self.coefficients
        outers = np.einsum("ni,nj->nij", c, c)
        outers.setflags(write=False)
        return outers

    @cached_property
    def _best_set(self):
        """``spanning.best_set``, searched once per environment."""
        from .spanning import _search_best_set  # spanning imports this module

        return _search_best_set(self)


@dataclass(eq=False)
class GaussianPrior:
    """Multivariate normal belief over the K states (full-rank covariance)."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        cov = np.asarray(self.covariance, dtype=float)
        mean = np.asarray(self.mean, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise DimensionError("covariance must be square")
        if mean.shape != (cov.shape[0],):
            raise DimensionError("mean length must match covariance size")
        if not np.all(np.isfinite(cov)) or not np.all(np.isfinite(mean)):
            raise ValueError("prior entries must be finite")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if scale > _HALF_MAX:  # cov + cov.T would overflow
            raise NotPositiveDefiniteError(f"covariance entry {scale:.3e} overflows (S + S') / 2")
        asym = np.max(np.abs(cov - cov.T))
        if asym > 1e-10 * scale:
            raise NotPositiveDefiniteError("covariance is not symmetric")
        cov = 0.5 * (cov + cov.T)
        eigs = np.linalg.eigvalsh(cov)
        if not eigs[0] > 1e-12 * max(eigs[-1], 0.0):  # an inf or NaN eigenvalue fails too
            if 0.0 < eigs[0] < math.inf:
                raise NotPositiveDefiniteError(
                    "covariance is too ill-conditioned (smallest/largest eigenvalue "
                    f"{eigs[0] / eigs[-1]:.3e}, bound 1e-12)"
                )
            raise NotPositiveDefiniteError(
                f"covariance is not positive definite (eigenvalues {eigs[0]:.3e}..{eigs[-1]:.3e})"
            )
        self.mean = _readonly(mean)
        self.covariance = _readonly(cov)

    @property
    def num_states(self) -> int:
        return self.covariance.shape[0]

    @cached_property
    def precision(self) -> np.ndarray:
        """Inverse covariance, computed once by Cholesky solve against the identity."""
        inv = _solve_spd(self.covariance, np.eye(self.num_states))
        inv = 0.5 * (inv + inv.T)
        inv.setflags(write=False)
        return inv

    @classmethod
    def from_diagonal(cls, variances) -> "GaussianPrior":
        v = np.asarray(variances, dtype=float)
        return cls(mean=np.zeros(v.size), covariance=np.diag(v))


@dataclass(eq=False)
class DivisionVector:
    """Non-negative integer observation counts per source."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.counts)
        if c.ndim != 1:
            raise DimensionError("counts must be a vector")
        if c.dtype.kind == "i":
            valid = not np.any(c < 0)
        elif c.dtype.kind == "u":
            valid = not np.any(c > np.iinfo(np.int64).max)
        else:  # the range test first, so that the remainder never sees inf or NaN
            valid = np.all((c >= 0) & (c < 2.0**63)) and np.all(np.mod(c, 1) == 0)
        if not valid:
            raise ValueError("counts must be non-negative integers")
        arr = c.astype(np.int64)
        arr.setflags(write=False)
        self.counts = arr

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def zeros(cls, num_sources: int) -> "DivisionVector":
        return cls(np.zeros(num_sources, dtype=np.int64))


@dataclass(eq=False)
class FrequencyVector:
    """Non-negative observation frequencies per source."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise DimensionError("weights must be a vector")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be non-negative and finite")
        self.weights = _readonly(w)

    @property
    def simplex_normalized(self) -> bool:
        return abs(float(self.weights.sum()) - 1.0) <= 1e-12

    def support(self, tol: float = 0.0) -> tuple[int, ...]:
        return tuple(int(i) for i in np.nonzero(self.weights > tol)[0])


def _per_source(env: Environment, values, name: str) -> np.ndarray:
    """``values`` (a DivisionVector, a FrequencyVector or a sequence) as a float array of
    one finite, non-negative entry per source; ``name`` labels the errors."""
    if isinstance(values, DivisionVector):
        values = values.counts
    elif isinstance(values, FrequencyVector):
        values = values.weights
    q = np.asarray(values, dtype=float)
    if q.shape != (env.num_sources,):
        raise DimensionError(f"{name} vector has length {q.shape}, expected {env.num_sources}")
    if not np.all(np.isfinite(q)) or np.any(q < 0):
        raise ValueError(f"{name} entries must be finite and non-negative")
    return q


def _signal_precision(env: Environment, q: np.ndarray) -> np.ndarray:
    """sum_i q_i c_i c_i' assembled as (C' diag(q) C), symmetric by construction."""
    c = env.coefficients
    return (c.T * q) @ c


def _check_prior(env: Environment, prior: GaussianPrior) -> None:
    if prior.num_states != env.num_states:
        raise DimensionError(
            f"prior has {prior.num_states} states, environment has {env.num_states}"
        )


def _check_finite(precision: np.ndarray) -> None:
    if not np.isfinite(precision).all():
        raise NotPositiveDefiniteError("posterior precision has non-finite entries")


def _posv_solve(precision: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``_solve_spd`` without its finiteness check, which the caller makes. ``lower`` goes
    by position, which spares f2py's keyword parsing on every call."""
    _, sols, info = _posv(precision, rhs, 1)
    if info > 0:
        raise NotPositiveDefiniteError(f"posterior precision: leading minor {info} is not positive")
    return sols


def _solve_spd(precision: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``cho_solve(cho_factor(precision, lower=True), rhs)``, bit for bit, in one call."""
    _check_finite(precision)
    return _posv_solve(precision, rhs)


def _posterior_solve(env: Environment, prior: GaussianPrior, counts) -> np.ndarray:
    """(K, R) posterior covariance times each target direction, ``P^-1 u_r``, with P the
    posterior precision after ``counts``. An overflowing P is refused, not warned about."""
    _check_prior(env, prior)
    q = _per_source(env, counts, "count")
    with np.errstate(over="ignore", invalid="ignore"):
        precision = prior.precision + _signal_precision(env, q)
    return _solve_spd(precision, env.directions.T)


def posterior_variance(env: Environment, prior: GaussianPrior, counts) -> float:
    """Exact weighted posterior variance of the targets after the given counts.

    Counts may be real-valued: the formula extends continuously to fractional
    observations, which the derivative checks rely on. Deterministic; signal
    realizations never enter.
    """
    sols = _posterior_solve(env, prior, counts)
    return float(np.dot(env.weights, np.einsum("rk,kr->r", env.directions, sols)))


def variance_reduction(env: Environment, prior: GaussianPrior, counts, source: int) -> float:
    """Drop in posterior variance from one more observation of ``source``.

    Non-negative for every source: additional observations never hurt.
    """
    if not 0 <= source < env.num_sources:
        raise IndexError(f"source index {source} out of range")
    q = _per_source(env, counts, "count")
    step = q.copy()
    step[source] += 1
    return posterior_variance(env, prior, q) - posterior_variance(env, prior, step)


def block_increments(env: Environment, block: np.ndarray) -> np.ndarray:
    """(M, K, K) precision increments ``sum_n b_mn c_n c_n'`` of an (M, N) count block."""
    return np.einsum("mn,nij->mij", block.astype(float), env.source_outers)


def _stacked_variances(
    env: Environment, precisions: np.ndarray, rhs: np.ndarray, sols: np.ndarray
) -> np.ndarray:
    """Weighted target variance at each of an (M, K, K) stack of precisions, from one batched
    solve against ``rhs``, the target directions broadcast to (M, K, R), into the (M, K, R)
    buffer ``sols``.

    The solve is the gufunc of ``np.linalg.solve`` and the contraction ``np.einsum``'s C
    routine, so the bits are theirs. The targets are summed in order, one column at a
    time, so a row's value does not depend on M or on its place in the stack (a
    matrix-vector product takes another BLAS kernel for one row than for several). Both are
    linear, and IEEE rounding commutes with negation: negated directions in ``rhs`` negate
    every score, bit for bit. A singular precision leaves NaN scores, which the caller
    refuses, and sets numpy's invalid flag, which its error state must ignore.
    """
    _gesv(precisions, rhs, out=sols, signature="dd->d")
    per_target = c_einsum("rk,mkr->mr", env.directions, sols)
    w = env.weights[0]
    values = per_target[:, 0] if w == 1.0 else per_target[:, 0] * w  # a product by 1 is exact
    for r in range(1, len(env.weights)):
        values += per_target[:, r] * env.weights[r]
    return values


def block_variances(env: Environment, precision: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Weighted target variance after adding each row of an (M, N) count block to ``precision``.

    The exhaustive oracle scores its allocations with it. The greedy batch step builds
    ``block_increments`` once per run and scores its candidates with ``_stacked_variances``
    into a buffer of its own. A singular or numerically indefinite candidate precision is
    refused as not positive definite; a score of +inf is returned as it is.
    """
    rhs = np.broadcast_to(env.directions.T, (len(block),) + env.directions.T.shape)
    precisions = block_increments(env, block)
    precisions += precision  # in place: one (M, K, K) stack alive, not two
    # Neither a singular candidate (refused) nor an overflowing score (+inf) warns.
    with np.errstate(invalid="ignore", over="ignore"):
        values = _stacked_variances(env, precisions, rhs, np.empty(rhs.shape))
    if not np.minimum.reduce(values) > 0:
        raise NotPositiveDefiniteError(_SINGULAR)
    return values


def spectral_inverse(env: Environment, lam: np.ndarray) -> tuple[float, np.ndarray, bool, bool]:
    """Vinf at frequencies ``lam``, its gradient, and two rank flags, from one ``eigh``.

    Eigenvalues of the information matrix at or below
    ``EIGENVALUE_CUTOFF * max(largest, 1)`` are cut; value and gradient go
    through the pseudo-inverse on the kept eigenspace. Returns
    ``(value, grad, outside, cut)``: ``outside`` when some target has a
    component above ``SPAN_TOL`` times its norm on a cut eigenvector (z/0 :=
    +inf, so Vinf is infinite there; 0/0 := 0 otherwise), and ``cut`` when any
    eigenvalue was cut (Vinf has a kink there).
    """
    c = env.coefficients
    eigvals, eigvecs = np.linalg.eigh(_signal_precision(env, lam))
    cutoff = EIGENVALUE_CUTOFF * max(float(eigvals[-1]), 1.0)
    keep = eigvals > cutoff
    inv_vals = np.where(keep, 1.0 / np.where(keep, eigvals, 1.0), 0.0)
    pinv = (eigvecs * inv_vals) @ eigvecs.T
    value = 0.0
    grad = np.zeros(env.num_sources)
    for w, d in env.objective:
        x = pinv @ d
        value += w * float(d @ x)
        grad -= w * (c @ x) ** 2
    cut = not keep.all()
    outside = cut and any(
        np.any(np.abs((eigvecs.T @ d)[~keep]) > SPAN_TOL * max(float(np.linalg.norm(d)), 1e-300))
        for _, d in env.objective
    )
    return value, grad, bool(outside), cut


def asymptotic_variance(env: Environment, frequencies) -> float:
    """Scale-free limit of t * V at observation frequencies ``lam``.

    Returns +inf when some target direction has a component outside the span of
    the positively weighted sources. Homogeneous of degree -1 in ``lam``.
    """
    value, _, outside, _ = spectral_inverse(env, _per_source(env, frequencies, "frequency"))
    return math.inf if outside else value


def grad_posterior_variance(env: Environment, prior: GaussianPrior, counts) -> np.ndarray:
    """Partial derivatives of ``posterior_variance`` in each count.

    Component j equals ``-sum_r w_r (u_r' P^-1 c_j)^2`` where P is the posterior
    precision; every component is non-positive.
    """
    sols = _posterior_solve(env, prior, counts)
    gammas = env.coefficients @ sols  # (N, R), entry (j, r) = u_r' P^-1 c_j
    return -(gammas**2) @ env.weights


def grad_asymptotic_variance(env: Environment, frequencies) -> np.ndarray:
    """Partial derivatives of ``asymptotic_variance`` at frequencies with full-rank information.

    Raises ``NonDifferentiableError`` when the information matrix is singular:
    the asymptotic variance has kinks there and no silent number is returned.
    """
    _, grad, _, cut = spectral_inverse(env, _per_source(env, frequencies, "frequency"))
    if cut:
        raise NonDifferentiableError(
            "information matrix is singular at these frequencies; "
            "the asymptotic variance is not differentiable here"
        )
    return grad
