import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import _linalg

from infotrap import (
    BatchAllocate,
    DimensionError,
    DivisionVector,
    Environment,
    FrequencyVector,
    GaussianPrior,
    NonDifferentiableError,
    NotPositiveDefiniteError,
    asymptotic_variance,
    grad_asymptotic_variance,
    grad_posterior_variance,
    optimal_frequency_numeric,
    posterior_variance,
    simulate,
    variance_reduction,
)
from infotrap import gaussian
from infotrap.gaussian import _stacked_variances, block_variances

from conftest import random_pd_prior


def test_posterior_variance_example2(example2, example2_trap_prior):
    assert posterior_variance(example2, example2_trap_prior, [0, 0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert posterior_variance(example2, example2_trap_prior, [1, 0, 0]) == pytest.approx(0.5, abs=1e-12)
    # precision [[10, 3], [3, 2.1]] has determinant 12; variance entry 2.1/12
    assert posterior_variance(example2, example2_trap_prior, [0, 1, 1]) == pytest.approx(0.175, abs=1e-12)


def test_posterior_variance_accepts_division_vector(example2, example2_trap_prior):
    q = DivisionVector(np.array([0, 1, 1]))
    assert posterior_variance(example2, example2_trap_prior, q) == pytest.approx(0.175, abs=1e-12)
    assert q.total == 2


def test_variance_reduction_example2(example2, example2_trap_prior):
    zero = [0, 0, 0]
    assert variance_reduction(example2, example2_trap_prior, zero, 0) == pytest.approx(0.5, abs=1e-12)
    assert variance_reduction(example2, example2_trap_prior, zero, 1) == pytest.approx(0.45, abs=1e-12)
    # the confounder-only source is orthogonal to the target under an independent prior
    assert variance_reduction(example2, example2_trap_prior, zero, 2) == pytest.approx(0.0, abs=1e-15)


def test_variance_reduction_index_range(example2, example2_trap_prior):
    with pytest.raises(IndexError):
        variance_reduction(example2, example2_trap_prior, [0, 0, 0], 3)


@pytest.mark.parametrize("source", [-1, True, False, 1.0, np.float64(1), "1", None])
def test_variance_reduction_refuses_what_is_not_a_source(example2, example2_trap_prior, source):
    # A bool would index numpy as a mask (True added one observation to every source) and
    # a float would reach numpy's own IndexError; both are refused up front, naming source.
    with pytest.raises(IndexError, match="^source must be"):
        variance_reduction(example2, example2_trap_prior, [0, 0, 0], source)


def test_variance_reduction_takes_numpy_integers(example2, example2_trap_prior):
    zero = [0, 0, 0]
    expected = variance_reduction(example2, example2_trap_prior, zero, 1)
    for source in (np.int64(1), np.uint8(1)):
        assert variance_reduction(example2, example2_trap_prior, zero, source) == expected


def test_asymptotic_variance_example2(example2):
    assert asymptotic_variance(example2, [1, 0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert asymptotic_variance(example2, [0, 0.5, 0.5]) == pytest.approx(4 / 9, abs=1e-12)
    assert math.isinf(asymptotic_variance(example2, [0, 1, 0]))
    # Homogeneous of degree -1 down to tiny frequencies, with no absolute rank cut.
    uniform = asymptotic_variance(example2, [1 / 3] * 3)
    assert asymptotic_variance(example2, [1e-160] * 3) == pytest.approx(uniform / 3e-160, rel=1e-15)


@pytest.mark.parametrize("s", [1.0, 1e4, 1e5, 1e6])
def test_asymptotic_variance_does_not_depend_on_state_units(s):
    # States measured in units diag(s, 1/s): coefficients C diag(s, 1/s), target s e1.
    env = Environment(np.array([[1, 0], [0, 1], [1, 1]]) * [s, 1 / s], [(1.0, [s, 0])])
    assert asymptotic_variance(env, [1 / 3] * 3) == pytest.approx(2.0, rel=1e-12)


def test_tiny_coefficients_keep_a_finite_limit_and_gradient():
    env = Environment([[1e-100, 0], [0, 1e-100], [1e-100, 1e-100]])
    assert asymptotic_variance(env, [1 / 3] * 3) == pytest.approx(2e200, rel=1e-12)
    grad = grad_asymptotic_variance(env, [1 / 3] * 3)
    assert grad == pytest.approx([-4e200, -1e200, -1e200], rel=1e-12)
    freq, info = optimal_frequency_numeric(env, full_output=True)
    assert freq.weights.tolist() == [1.0, 0.0, 0.0] and info["exact"]


def test_tiny_targets_of_zero_coefficients_are_not_spanned():
    # Each target's span test is relative to its own size, not to 1.
    env = Environment(np.zeros((3, 2)), [(1.0, [1.9e-273, 0]), (1.0, [0, 1.9e-273])])
    assert asymptotic_variance(env, [1 / 3] * 3) == math.inf
    with pytest.raises(NonDifferentiableError):
        grad_asymptotic_variance(env, [1 / 3] * 3)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 3)),
    data=st.data(),
    c_exp=st.integers(-160, 153),
    lam_exp=st.integers(-300, 300),
)
def test_asymptotic_variance_at_extreme_scales_does_not_warn(shape, data, c_exp, lam_exp):
    # Integer coefficients (|c| <= 4, so up to 4e153) and frequencies times a power of ten:
    # Vinf(s C, t lam) is Vinf(C, lam) / (s^2 t), and its gradient is divided by s^2 t^2.
    # Every call returns a number or raises NonDifferentiableError, without a warning.
    n, k = shape
    ints = st.lists(st.integers(-4, 4), min_size=k, max_size=k)
    rows = np.array(data.draw(st.lists(ints, min_size=n, max_size=n)), dtype=float)
    lam = np.array(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), dtype=float)
    directions = data.draw(st.lists(ints.filter(any), min_size=1, max_size=2))
    objective = [(1.0 + r, d) for r, d in enumerate(directions)]
    s, t = 10.0**c_exp, 10.0**lam_exp
    base, env = Environment(rows, objective), Environment(rows * s, objective)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = asymptotic_variance(env, lam * t)
        try:
            grad = grad_asymptotic_variance(env, lam * t)
        except NonDifferentiableError:
            grad = None
    assert value >= 0 and (grad is None or np.all(grad <= 0))  # no NaN
    # Compared where the scale factor keeps the result in the normal range of floats.
    value_exp, grad_exp = -2 * c_exp - lam_exp, -2 * c_exp - 2 * lam_exp
    if abs(value_exp) <= 280:
        expected = asymptotic_variance(base, lam) * 10.0**value_exp
        assert value == pytest.approx(expected, rel=1e-9)
    try:
        reference = grad_asymptotic_variance(base, lam)
    except NonDifferentiableError:
        assert grad is None
        return
    assert grad is not None
    if abs(grad_exp) <= 280:
        expected = reference * 10.0**grad_exp
        assert np.abs(grad - expected).max() <= 1e-9 * np.abs(expected).max()


def test_asymptotic_variance_rejects_negative(example2):
    with pytest.raises(ValueError):
        asymptotic_variance(example2, [0.5, -0.1, 0.6])


def test_grad_posterior_variance_example2(example2, example2_trap_prior):
    grad = grad_posterior_variance(example2, example2_trap_prior, [0, 0, 0])
    assert grad == pytest.approx([-1.0, -9.0, 0.0], abs=1e-12)
    grad5 = grad_posterior_variance(example2, example2_trap_prior, [5, 0, 0])
    assert grad5[0] == pytest.approx(-1 / 36, abs=1e-12)
    assert np.all(grad5 <= 0)


def test_grad_posterior_orthogonal_source_is_zero():
    env = Environment([[1, 0], [0, 2]])
    prior = GaussianPrior.from_diagonal([1.0, 3.0])
    grad = grad_posterior_variance(env, prior, [2.0, 1.0])
    assert grad[1] == pytest.approx(0.0, abs=1e-15)


def test_grad_asymptotic_variance_values():
    env = Environment([[1, 0], [0, 1]])
    grad = grad_asymptotic_variance(env, [0.5, 0.5])
    assert grad == pytest.approx([-4.0, 0.0], abs=1e-12)


def test_grad_asymptotic_variance_non_differentiable(example2):
    with pytest.raises(NonDifferentiableError):
        grad_asymptotic_variance(example2, [1, 0, 0])


def test_asymptotic_variance_kink_at_single_source_vertex(example2):
    # at full weight on the unbiased source, shifting mass to either confounded
    # source alone hurts, while shifting to both together helps: a kink, which
    # is why the gradient refuses to evaluate there
    h = 1e-4
    base = asymptotic_variance(example2, [1, 0, 0])
    assert asymptotic_variance(example2, [1 - h, h, 0]) > base
    assert asymptotic_variance(example2, [1 - h, 0, h]) > base
    assert asymptotic_variance(example2, [1 - h, h / 2, h / 2]) < base


def test_grad_asymptotic_matches_finite_differences():
    env = Environment([[1, 0], [0, 1], [1, 1]])
    lam = np.array([1 / 3, 1 / 3, 1 / 3])
    grad = grad_asymptotic_variance(env, lam)
    h = 1e-6
    for i in range(3):
        lp, lm = lam.copy(), lam.copy()
        lp[i] += h
        lm[i] -= h
        fd = (asymptotic_variance(env, lp) - asymptotic_variance(env, lm)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-6)


def test_weighted_multi_direction_objective():
    env = Environment(
        [[1, 0], [0, 1]],
        objective=[(2.0, [1, 0]), (0.5, [0, 1])],
    )
    prior = GaussianPrior.from_diagonal([1.0, 4.0])
    v = posterior_variance(env, prior, [1, 0])
    assert v == pytest.approx(2.0 * 0.5 + 0.5 * 4.0, abs=1e-12)
    vstar = asymptotic_variance(env, [0.5, 0.5])
    assert vstar == pytest.approx(2.0 * 2.0 + 0.5 * 2.0, abs=1e-12)


def test_prior_validation():
    with pytest.raises(NotPositiveDefiniteError):
        GaussianPrior(mean=[0, 0], covariance=[[1, 2], [2, 1]])
    with pytest.raises(NotPositiveDefiniteError):
        GaussianPrior(mean=[0, 0], covariance=[[1, 0.5], [0.4, 1]])
    for huge in (1e308, -1e308):  # finite entries whose symmetrization overflows
        with pytest.raises(NotPositiveDefiniteError):
            GaussianPrior(mean=[0, 0], covariance=[[huge, 0], [0, 1]])
    with pytest.raises(DimensionError):
        GaussianPrior(mean=[0, 0, 0], covariance=[[1, 0], [0, 1]])


def test_dimension_mismatch_errors(example2):
    prior3 = GaussianPrior.from_diagonal([1, 1, 1])
    with pytest.raises(DimensionError):
        posterior_variance(example2, prior3, [0, 0, 0])
    prior2 = GaussianPrior.from_diagonal([1, 1])
    with pytest.raises(DimensionError):
        posterior_variance(example2, prior2, [0, 0])


def test_environment_validation():
    with pytest.raises(ValueError):
        Environment([[1, np.inf]])
    with pytest.raises(ValueError):
        Environment([[1, 0]], objective=[(1.0, [0, 0])])
    with pytest.raises(ValueError):
        Environment([[1, 0]], objective=[(-1.0, [1, 0])])


def test_environment_directions_and_weights_are_read_only_stacks():
    env = Environment([[1, 0], [0, 1]], objective=[(2.0, [1, 0]), (0.5, [1, 1])])
    assert np.array_equal(env.directions, np.array([d for _, d in env.objective]))
    assert np.array_equal(env.weights, np.array([w for w, _ in env.objective]))
    for field in (env.directions, env.weights):
        with pytest.raises(ValueError):
            field[0] = 3.0
    default = Environment([[1, 0, 2]])
    assert default.directions.tolist() == [[1.0, 0.0, 0.0]] and default.weights.tolist() == [1.0]


def test_division_and_frequency_vectors():
    with pytest.raises(ValueError):
        DivisionVector(np.array([1, -1]))
    with pytest.raises(ValueError):
        DivisionVector(np.array([1.5, 0.0]))
    f = FrequencyVector(np.array([0.5, 0.5]))
    assert f.simplex_normalized
    assert not FrequencyVector(np.array([0.5, 0.4])).simplex_normalized
    assert FrequencyVector(np.array([0.0, 0.7])).support() == (1,)


@pytest.mark.parametrize(
    "values",
    [
        np.array([0, 3, 7], dtype=np.int64),
        np.array([0, 3, 7], dtype=np.int32),
        np.array([2, -1], dtype=np.int64),
        np.array([-5], dtype=np.int32),
        np.array([0, 255], dtype=np.uint8),
        np.array([True, False, True]),
        np.array([0.0, 2.0, 1e15]),
        np.array([0.0, 2.5]),
        np.array([1e-300, 1.0]),
        np.array([-1.0, 2.0]),
        np.array([-0.5]),
        np.array([], dtype=np.int64),
    ],
    ids=lambda v: f"{v.dtype}-{v.tolist()}",
)
def test_division_vector_accepts_what_the_remainder_test_accepts(values):
    # Integer dtypes skip the remainder test, which they always pass; bools are refused.
    refused = bool(np.any(values < 0) or not np.all(np.equal(np.mod(values, 1), 0)))
    if values.dtype == bool:
        with pytest.raises(ValueError, match="^counts must hold finite numbers only, not True"):
            DivisionVector(values)
    elif refused:
        with pytest.raises(ValueError, match="non-negative integers"):
            DivisionVector(values)
    else:
        counts = DivisionVector(values).counts
        assert counts.dtype == np.int64 and counts.tolist() == values.astype(np.int64).tolist()


@pytest.mark.parametrize(
    "values",
    [
        [1e300],
        [2.0**63],
        [np.inf],
        [-np.inf],
        [1.0, np.nan],
        np.array([2**63], dtype=np.uint64),
        np.array([2**64 - 1], dtype=np.uint64),
    ],
    ids=["1e300", "2**63", "inf", "-inf", "nan", "uint64-2**63", "uint64-max"],
)
def test_division_vector_refuses_counts_beyond_int64_without_a_warning(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-negative integers|finite numbers only"):
            DivisionVector(values)


def test_division_vector_keeps_the_largest_int64_counts():
    top = np.iinfo(np.int64).max
    assert DivisionVector(np.array([top], dtype=np.uint64)).counts.tolist() == [top]
    assert DivisionVector([2.0**62, 0.0]).counts.tolist() == [2**62, 0]


def test_single_objective_matches_first_state_variance(example2, example2_trap_prior):
    # weight-1 objective on the first coordinate is exactly the first diagonal
    # entry of the posterior covariance
    q = [2, 3, 1]
    c = example2.coefficients
    precision = example2_trap_prior.precision + (c.T * np.array(q, dtype=float)) @ c
    cov = np.linalg.inv(precision)
    assert posterior_variance(example2, example2_trap_prior, q) == pytest.approx(
        cov[0, 0], rel=1e-12
    )


def test_spectral_inverse_matches_pinv_reference():
    # Rank is set by construction: rows in general position, the last state
    # unobserved on odd trials, and zero frequencies on some trials. Targets are
    # built inside the range of the information matrix, or along the unobserved
    # state; the reference is numpy's pseudo-inverse.
    rng = np.random.default_rng(11)
    for trial in range(200):
        n, k = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        c = rng.standard_normal((n, k))
        if trial % 2:
            c[:, -1] = 0.0
        lam = rng.dirichlet(np.ones(n))
        if trial % 3 == 0:
            lam[: int(rng.integers(1, n))] = 0.0
        on = lam > 0
        rank = min(int(on.sum()), k - trial % 2)
        outside = trial % 2 == 1 and trial % 4 == 1
        target = np.eye(k)[-1] if outside else c[on].T @ rng.standard_normal(int(on.sum()))
        env = Environment(c, objective=[(1.5, target)])
        info = (c.T * lam) @ c
        pinv = np.linalg.pinv(info, rcond=1e-10, hermitian=True)

        value = asymptotic_variance(env, lam)
        if outside:
            assert math.isinf(value)
        else:
            assert value == pytest.approx(1.5 * target @ pinv @ target, rel=1e-8)
        if rank < k:
            with pytest.raises(NonDifferentiableError):
                grad_asymptotic_variance(env, lam)
        else:
            expected = -1.5 * (c @ pinv @ target) ** 2
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(grad_asymptotic_variance(env, lam) - expected)) <= 1e-8 * scale


def test_block_variances_match_posterior_variance_row_by_row():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n, k = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        objective = [(float(rng.uniform(0.5, 2)), rng.standard_normal(k)) for _ in range(2)]
        env = Environment(rng.uniform(-3, 3, size=(n, k)), objective=objective)
        prior = random_pd_prior(rng, k)
        base = rng.integers(0, 4, size=n)
        block = rng.integers(0, 5, size=(12, n))
        precision = prior.precision + (env.coefficients.T * base.astype(float)) @ env.coefficients
        values = block_variances(env, precision, block)
        for row, value in zip(block, values):
            assert value == pytest.approx(posterior_variance(env, prior, base + row), rel=1e-12)
        # A row scores the same bits alone, or in any other block, as here.
        alone = [block_variances(env, precision, block[i : i + 1]) for i in range(len(block))]
        assert np.concatenate(alone).tobytes() == values.tobytes()
        assert block_variances(env, precision, block[::-1]).tobytes() == values[::-1].tobytes()


def _reference_stacked_variances(env, precisions, rhs):
    """The stacked scorer through numpy's wrappers: ``np.linalg.solve``, ``np.einsum`` and
    the weighted sum over targets in order."""
    per_target = np.einsum("rk,mkr->mr", env.directions, np.linalg.solve(precisions, rhs))
    values = per_target[:, 0] * env.weights[0]
    for r in range(1, len(env.weights)):
        values += per_target[:, r] * env.weights[r]
    return values


def _random_stack(rng, m, k):
    a = rng.standard_normal((m, k + 1, k))
    precisions = np.einsum("mik,mil->mkl", a, a) + rng.uniform(1e-3, 1.0, size=(m, 1, 1)) * np.eye(k)
    precisions[::5] *= 10.0 ** rng.integers(-6, 7)  # badly scaled members
    return precisions


def test_stacked_variances_match_solve_and_einsum_bit_for_bit():
    rng = np.random.default_rng(2026)
    for case in range(240):
        m, k, r = int(rng.integers(1, 201)), int(rng.integers(1, 7)), int(rng.integers(1, 4))
        objective = [(float(rng.uniform(0.1, 3.0)), rng.standard_normal(k)) for _ in range(r)]
        if case % 2:
            objective[0] = (1.0, objective[0][1])  # the scorer skips a product by 1
        env = Environment(rng.standard_normal((k + 1, k)), objective=objective)
        rhs = np.broadcast_to(env.directions.T, (m, k, r))
        if case % 3 == 0:
            rhs = np.ascontiguousarray(rhs)  # a right-hand side of its own, not a view
        sols = np.empty((m, k, r))
        # One buffer serves every call; an earlier result does not alias it.
        first_stack, second_stack = _random_stack(rng, m, k), _random_stack(rng, m, k)
        first = _stacked_variances(env, first_stack, rhs, sols)
        second = _stacked_variances(env, second_stack, rhs, sols)
        assert first.tobytes() == _reference_stacked_variances(env, first_stack, rhs).tobytes()
        assert second.tobytes() == _reference_stacked_variances(env, second_stack, rhs).tobytes()


def test_stacked_variances_negate_with_the_right_hand_side():
    # The batch step solves against the negated targets and reads negated variances: the
    # solve and the contraction are linear, and IEEE rounding commutes with negation.
    rng = np.random.default_rng(2410)
    for case in range(120):
        m, k, r = int(rng.integers(1, 130)), int(rng.integers(1, 7)), int(rng.integers(1, 4))
        objective = [(float(rng.uniform(0.1, 3.0)), rng.standard_normal(k)) for _ in range(r)]
        if case % 2:
            objective[0] = (1.0, objective[0][1])
        env = Environment(rng.standard_normal((k + 1, k)), objective=objective)
        stack = _random_stack(rng, m, k)
        rhs = np.broadcast_to(env.directions.T, (m, k, r))
        values = _stacked_variances(env, stack, rhs, np.empty((m, k, r)))
        negated = _stacked_variances(env, stack, -rhs, np.empty((m, k, r)))
        assert (-negated).tobytes() == values.tobytes()


def test_stacked_variances_keep_a_non_finite_score_of_a_regular_stack():
    # 1 / 1e-310 overflows, but the matrix is regular: the score is inf, as np.linalg.solve's.
    env = Environment([[1.0, 0.0], [0.0, 1.0]])
    precisions = np.array([np.eye(2), np.diag([1e-310, 1.0])])
    rhs = np.broadcast_to(env.directions.T, (2, 2, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        values = _stacked_variances(env, precisions, rhs, np.empty((2, 2, 1)))
        expected = _reference_stacked_variances(env, precisions, rhs)
    assert values.tobytes() == expected.tobytes()
    assert values[1] == math.inf


def test_singular_candidate_is_refused_without_a_warning(example2):
    # A prior precision of 1e-154 vanishes beside two observations of source 2, so the
    # candidate precision [[18, 6], [6, 2]] is singular.
    prior = GaussianPrior.from_diagonal([1e154, 1e154])
    block = np.array([[1, 1, 0], [0, 2, 0], [2, 0, 0]])
    message = "^a candidate posterior precision is singular$"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # The oracle's path, under numpy's default error state.
        with pytest.raises(NotPositiveDefiniteError, match=message):
            block_variances(example2, prior.precision, block)
        with pytest.raises(NotPositiveDefiniteError, match=message):
            simulate(example2, prior, 5, intervention=BatchAllocate(2))
    assert [str(w.message) for w in caught] == []


def test_gesv_is_the_gufunc_np_linalg_solve_runs(monkeypatch):
    # gaussian calls the gufunc behind np.linalg.solve itself; this pins numpy's private
    # layout (numpy.linalg._linalg calls _umath_linalg.solve on a stack), not a version.
    assert gaussian._gesv is _linalg._umath_linalg.solve
    calls = []

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return gaussian._gesv(*args, **kwargs)

    monkeypatch.setattr(_linalg._umath_linalg, "solve", recording)
    precisions = _random_stack(np.random.default_rng(4), 7, 3)
    np.linalg.solve(precisions, np.ones((7, 3, 2)))
    assert calls == [{"signature": "dd->d"}]


# Two sources, each observing one of two states, and a unit prior.
_PAIR = Environment([[1, 0], [0, 1]])
_UNIT = GaussianPrior.from_diagonal([1.0, 1.0])


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: Environment([1.0, 2.0]), DimensionError, "coefficients must be a matrix"),
        (
            lambda: Environment([[1, 0]], objective=[(1.0, [1, 0, 0])]),
            DimensionError,
            "objective direction has wrong length",
        ),
        (lambda: Environment([[1, 0]], objective=[]), ValueError, "objective must be non-empty"),
        (
            lambda: GaussianPrior(mean=np.zeros(2), covariance=np.ones((2, 3))),
            DimensionError,
            "covariance must be square",
        ),
        (
            lambda: GaussianPrior(mean=np.zeros(2), covariance=[[1, np.inf], [np.inf, 1]]),
            ValueError,
            "covariance must hold finite numbers only, not inf",
        ),
        (lambda: DivisionVector([[1, 2]]), DimensionError, "counts must be a vector"),
        (lambda: FrequencyVector([[0.5, 0.5]]), DimensionError, "weights must be a vector"),
        (lambda: FrequencyVector([-0.5, 1.5]), ValueError, "weights must be non-negative"),
        (lambda: asymptotic_variance(_PAIR, [True, False]), ValueError, "frequencies must hold"),
        (
            lambda: posterior_variance(_PAIR, _UNIT, np.ones(2, bool)),
            ValueError,
            "counts must hold finite numbers only, not True",
        ),
        (lambda: posterior_variance(_PAIR, _UNIT, [2, np.True_]), ValueError, "counts must hold"),
        (lambda: FrequencyVector([True, False]), ValueError, "weights must hold"),
        (lambda: FrequencyVector(np.ones(2, bool)), ValueError, "weights must hold"),
        (lambda: DivisionVector([2, True]), ValueError, "counts must hold"),
    ],
    ids=[
        "coefficients_1d",
        "objective_length",
        "objective_empty",
        "prior_not_square",
        "prior_not_finite",
        "counts_2d",
        "frequencies_2d",
        "frequency_negative",
        "frequencies_bool",
        "counts_bool_array",
        "counts_mixed_bool",
        "frequency_vector_bool",
        "frequency_vector_bool_array",
        "division_vector_mixed_bool",
    ],
)
def test_gaussian_refusals(call, error, fragment):
    with pytest.raises(error, match=fragment) as info:
        call()
    assert type(info.value) is error
