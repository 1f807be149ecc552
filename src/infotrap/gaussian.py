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

With A = C' diag(sqrt(lam)), each term is ||x_r||^2 for the minimum-norm x_r with
A x_r = u_r, which extends Vinf continuously to singular information: a target outside
the span of A's columns (by ``_represent``, the span test of ``spanning`` too) makes it +inf.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy._core.multiarray import c_einsum, count_nonzero
from numpy.linalg import _umath_linalg
from numpy.linalg._linalg import _raise_linalgerror_lstsq

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

# Relative tolerance for "this vector component is exactly zero" span decisions.
SPAN_TOL = 1e-9

_FLOAT_MAX = sys.float_info.max
_LARGEST_ROOT = math.sqrt(_FLOAT_MAX)  # the largest float with a finite square
_HALF_MAX = _FLOAT_MAX / 2  # the largest float whose double is finite


def _represent(a: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each (K, s) matrix ``a[i]`` and its row ``v[i]`` (the stacks broadcast), the
    coefficients ``np.linalg.lstsq(a[i], v[i], rcond=None)[0]`` and whether ``a[i]``
    spans ``v[i]``: the coefficients are finite and every residual entry is within
    ``SPAN_TOL * max(1, max|v_i|)``. One call of lstsq's gufunc (the same ``gelsd`` per
    matrix), with lstsq's cutoff and error state, so a non-converging SVD raises
    ``LinAlgError``."""
    rcond = np.finfo(float).eps * max(a.shape[-2:])
    with np.errstate(
        call=_raise_linalgerror_lstsq,
        invalid="call",
        over="ignore",
        divide="ignore",
        under="ignore",
    ):
        x, _, _, _ = _umath_linalg.lstsq(a, v[..., None], rcond, signature="ddd->ddid")
    # An overflowing coefficient leaves an inf or NaN residual, which fails the test.
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.abs((a @ x)[..., 0] - v).max(axis=-1)
    x = x[..., 0]
    tol = SPAN_TOL * np.maximum(1.0, np.abs(v).max(axis=-1))  # relative to the largest |v_k|
    return x, (residual <= tol) & np.isfinite(x).all(axis=-1)


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
_MINOR = "posterior precision: leading minor {} is not positive"  # posv's info > 0


class DimensionError(ValueError):
    """Shapes of environment, prior, or count/frequency vectors disagree."""


class NotPositiveDefiniteError(ValueError):
    """A covariance or precision matrix is not (numerically) positive definite."""


class NonDifferentiableError(ValueError):
    """The asymptotic variance is not differentiable at the requested frequencies."""


class SearchBoundError(ValueError):
    """An exhaustive search would exceed its configured size bound."""


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _as_int(name: str, value, low: int = 0, high: float = math.inf) -> int:
    """``value`` as a Python int in ``low..high`` (numpy's ``uint8`` would wrap). A bool, a
    non-integer or a value out of range raises ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be a non-bool integer, not {value!r}")
    value = int(value)
    if not low <= value <= high:  # an int compares exactly with a float bound
        most = f" and at most {high}" if high < math.inf else ""
        raise ValueError(f"{name} must be >= {low}{most}, not {value}")
    return value


def _check_search(count: int, bound: int, what: str, search: str) -> None:
    """Every exhaustive search's gate, before any work: raise when ``count`` exceeds ``bound``."""
    if count > bound:
        raise SearchBoundError(f"{count} {what} exceed the {search} bound {bound}")


def _numbers(name: str, values, ndim: int) -> np.ndarray:
    """``values`` as a float array of finite numbers nested ``ndim`` deep (at most 2).

    A bool, a string, or an entry that is not finite or is beyond float range raises
    ``ValueError``; a wrong depth or a ragged row raises ``DimensionError``; ``name`` labels
    both. An array of numeric dtype is checked by one vectorized test, anything else a row
    at a time, so an array read once is not read again."""
    shape = ("a number", "a vector", "a matrix")[ndim]
    what = "hold finite numbers only" if ndim else "be a finite number"

    def read(x, depth: int):
        if isinstance(x, np.ndarray):
            if x.dtype.kind in "iuf" and x.ndim == depth:
                return x
            x = x.tolist()  # bools, strings, objects or a wrong depth: entry by entry
        if isinstance(x, (list, tuple)) != (depth > 0):
            raise DimensionError(f"{name} must be {shape}")
        if depth > 1:
            return [read(v, depth - 1) for v in x]
        for v in x if depth else (x,):
            if type(v) is float:  # at once: NaN and inf are refused below
                continue
            if isinstance(v, (list, tuple, np.ndarray)):
                raise DimensionError(f"{name} must be {shape}")
            # An int compares exactly with a float, so its conversion cannot overflow.
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not abs(v) <= _FLOAT_MAX:
                raise ValueError(f"{name} must {what}, not {v!r}")
        return x

    nested = read(values, ndim)
    try:
        a = np.asarray(nested, dtype=float)
    except ValueError:  # rows of different lengths
        a = None
    if a is None or a.ndim != ndim:
        raise DimensionError(f"{name} must be {shape} with rows of one length")
    finite = np.isfinite(a)
    if count_nonzero(finite) < a.size:
        raise ValueError(f"{name} must {what}, not {float(a[~finite][0])!r}")
    return a


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
        c = _numbers("coefficients", self.coefficients, 2)
        if c.size == 0:
            raise DimensionError("coefficients must be a non-empty N x K matrix")
        if not np.all(np.abs(c) <= _LARGEST_ROOT):
            raise ValueError("coefficients must have finite squares")
        self.coefficients = _readonly(c)
        k = c.shape[1]
        if self.objective is None:
            e1 = np.zeros(k)
            e1[0] = 1.0
            self.objective = ((1.0, _readonly(e1)),)
        else:
            pairs = []
            for w, d in self.objective:
                d = _numbers("objective direction", d, 1)
                if d.shape != (k,):
                    raise DimensionError("objective direction has wrong length")
                if not np.any(d):
                    raise ValueError("objective directions must be non-zero")
                w = float(_numbers("objective weight", w, 0))
                if not w > 0:
                    raise ValueError("objective weights must be positive")
                pairs.append((w, _readonly(d)))
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
        cov = _numbers("covariance", self.covariance, 2)
        mean = _numbers("mean", self.mean, 1)
        if cov.shape[0] != cov.shape[1]:
            raise DimensionError("covariance must be square")
        if mean.shape != (cov.shape[0],):
            raise DimensionError("mean length must match covariance size")
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
        v = _numbers("variances", variances, 1)
        return cls(mean=np.zeros(v.size), covariance=np.diag(v))


@dataclass(eq=False)
class DivisionVector:
    """Non-negative integer observation counts per source."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        c = self.counts
        if not (isinstance(c, np.ndarray) and c.dtype.kind in "iu"):
            _numbers("counts", c, 1)  # the reader's refusals; a list of ints stays exact below
            c = np.asarray(c)
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
        w = _numbers("weights", self.weights, 1)
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        self.weights = _readonly(w)

    @property
    def simplex_normalized(self) -> bool:
        return abs(float(self.weights.sum()) - 1.0) <= 1e-12

    def support(self, tol: float = 0.0) -> tuple[int, ...]:
        return tuple(int(i) for i in np.nonzero(self.weights > tol)[0])


def _per_source(env: Environment, values, name: str) -> np.ndarray:
    """``values`` (a DivisionVector, a FrequencyVector or a sequence), read by ``_numbers``,
    as a float array of one non-negative entry per source; ``name`` labels the errors."""
    if isinstance(values, DivisionVector):
        values = values.counts
    elif isinstance(values, FrequencyVector):
        values = values.weights
    q = _numbers(name, values, 1)
    if q.shape != (env.num_sources,):
        raise DimensionError(f"{name} have length {len(q)}, expected {env.num_sources}")
    if np.any(q < 0):
        raise ValueError(f"{name} must be non-negative")
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


def _solve_spd(precision: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``cho_solve(cho_factor(precision, lower=True), rhs)``, bit for bit, in one call."""
    _check_finite(precision)
    _, sols, info = _posv(precision, rhs, 1)
    if info > 0:
        raise NotPositiveDefiniteError(_MINOR.format(info))
    return sols


def _posterior_solve(env: Environment, prior: GaussianPrior, counts) -> np.ndarray:
    """(K, R) posterior covariance times each target direction, ``P^-1 u_r``, with P the
    posterior precision after ``counts``. An overflowing P is refused, not warned about."""
    _check_prior(env, prior)
    q = _per_source(env, counts, "counts")
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

    Non-negative for every source: additional observations never hurt. A ``source`` that
    is not a non-bool integer in 0..N-1 raises ``IndexError``.
    """
    try:
        source = _as_int("source", source, 0, env.num_sources - 1)
    except ValueError as exc:
        raise IndexError(str(exc)) from exc
    q = _per_source(env, counts, "counts")
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


def _limit(env: Environment, frequencies) -> tuple[float, np.ndarray | None]:
    """Vinf at ``frequencies`` and its gradient (None unless A spans every state) from one
    ``_represent`` call on A = C' diag(sqrt(lam)), whose A A' is the information M: of the
    targets, each scaled to a largest |entry| of 1 so that its span test is relative to
    itself, and of the K unit states, whose rows X_e give M^-1 = X_e X_e'. C and lam enter
    over their largest entries and the scales are divided out one at a time, so a result
    that overflows is +inf, one that underflows is 0, and neither warns."""
    lam = _per_source(env, frequencies, "frequencies")
    c_scale = float(np.abs(env.coefficients).max()) or 1.0  # an all-zero C spans nothing
    lam_scale = float(lam.max()) or 1.0
    c = env.coefficients / c_scale
    size = np.abs(env.directions).max(axis=1)
    r = len(size)
    with np.errstate(over="ignore", under="ignore"):
        targets = np.concatenate([env.directions / size[:, None], np.eye(env.num_states)])
        x, spans = _represent(c.T * np.sqrt(lam / lam_scale), targets)
        value = math.inf
        if spans[:r].all():
            root = np.linalg.norm(x[:r], axis=1) * size / c_scale / math.sqrt(lam_scale)
            value = float(env.weights @ root**2)
        if not spans[r:].all():
            return value, None
        gammas = c @ (x[r:] @ x[:r].T) * size / c_scale / lam_scale  # (N, R)
        return value, -(gammas**2) @ env.weights


def asymptotic_variance(env: Environment, frequencies) -> float:
    """Scale-free limit of t * V at observation frequencies ``lam``.

    Returns +inf when some target direction is not in the span of the positively
    weighted sources (or when the value overflows). Homogeneous of degree -1 in ``lam``.
    """
    return _limit(env, frequencies)[0]


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

    Raises ``NonDifferentiableError`` when the positively weighted sources do not span
    every state: the asymptotic variance has kinks there and no silent number is returned.
    """
    grad = _limit(env, frequencies)[1]
    if grad is None:
        raise NonDifferentiableError(
            "information matrix is singular at these frequencies; "
            "the asymptotic variance is not differentiable here"
        )
    return grad
