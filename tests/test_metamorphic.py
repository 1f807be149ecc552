"""Metamorphic tests: a change of state units or of source order changes no answer.

Measuring the states in new units, theta = T theta', turns the coefficients C into C T,
each target u into T' u and the prior N(m, S) into N(T^-1 m, T^-1 S T^-'). Every
posterior variance is unchanged, and so is every representation u = sum_i beta_i c_i:
the greedy choices, the run's label, the best set, phi, the assumption report, Vinf and
the support of the numeric optimum. Reordering the sources reorders each answer.

Three transforms, on fixed seeds:

- ``T = Q diag(d)``, Q random orthogonal and d in [0.5, 2]: every answer is checked.
- ``T = diag(10^U(-4, 4))``: the best set, phi, Vinf and the numeric optimum's support;
  choices and labels where ``GaussianPrior`` accepts the transformed prior (it refuses a
  covariance conditioned beyond 1e12). The assumption report is not compared: every span
  test is relative to the largest entry of the vector tested, floored at 1
  (``SPAN_TOL * max(1, max|v|)``), so at these scales a target's small components can
  fall inside the tolerance and let a smaller set span it (seen on 1 of 60 random
  environments), and the independence test, relative to the largest singular value,
  sees condition numbers up to 1e8 times larger. ``test_span_tests_are_not_unit_free``
  pins the two span rules.
- a random permutation of the sources: every answer, reordered.

The seeds in ``TIED_SEEDS`` have a tied best phi, and their labels are checked under
several draws of wide units and of source order.
"""

import numpy as np
import pytest

from infotrap import (
    Environment,
    GaussianPrior,
    NotPositiveDefiniteError,
    SpanError,
    asymptotic_variance,
    best_set,
    check_assumptions,
    optimal_frequency_numeric,
    simulate,
    subspace_closure,
)

HORIZON = 120


def _case(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(3, 7)), int(rng.integers(2, 4))
    c = rng.uniform(-3, 3, (n, k))
    if seed % 3 == 0:
        c[-1] = c[0] - 2 * c[1]  # dependent subsets, and ties in phi
    env = Environment(c, [(1.0, rng.standard_normal(k))])
    a = rng.uniform(-1, 1, (k, k))
    prior = GaussianPrior(rng.uniform(-1, 1, k), a @ a.T + np.diag(rng.uniform(0.3, 2, k)))
    return rng, env, prior


def _in_units(env, prior, t):
    """The environment, and the prior or None where it is refused, in the units theta = T theta'."""
    moved = Environment(env.coefficients @ t, [(w, t.T @ d) for w, d in env.objective])
    ti = np.linalg.inv(t)
    try:
        return moved, GaussianPrior(ti @ prior.mean, ti @ prior.covariance @ ti.T)
    except NotPositiveDefiniteError:
        return moved, None


def _answers(env, prior, lam):
    trace = simulate(env, prior, HORIZON) if prior is not None else None
    star = best_set(env)
    return {
        "choices": trace and trace.choices,
        "label": trace and (trace.classification.kind, set(trace.classification.trapped)),
        "best_set": set(star.indices),
        "phi": star.phi,
        "assumptions": check_assumptions(env),
        "vinf": asymptotic_variance(env, lam),
        "support": set(optimal_frequency_numeric(env).support(1e-9)),
    }


def _assert_same(got, want, rel, assumptions=True, order=None):
    """``got`` answers as ``want`` does; with ``order``, ``got``'s source i is ``want``'s
    source ``order[i]``. Where phi is tied, the best set is the first tied set in index
    order and the numeric optimum one point of a face, so a reordering may pick another:
    the tied sets are then compared as the assumption report's witnesses."""
    source = (lambda i: i) if order is None else (lambda i: int(order[i]))
    if got["choices"] is not None and want["choices"] is not None:
        assert [source(i) for i in got["choices"]] == want["choices"]
        kind, trapped = got["label"]
        assert (kind, {source(i) for i in trapped}) == want["label"]
    assert got["phi"] == pytest.approx(want["phi"], rel=rel)
    assert got["vinf"] == pytest.approx(want["vinf"], rel=rel)
    if order is None or want["assumptions"].unique_minimizer:
        assert {source(i) for i in got["best_set"]} == want["best_set"]
        assert {source(i) for i in got["support"]} == want["support"]
    if assumptions:
        a, b = got["assumptions"], want["assumptions"]
        assert a.gap == pytest.approx(b.gap, rel=1e-6)
        flags = (
            "unique_minimizer",
            "strong_linear_independence",
            "unique_minimizer_every_subspace",
            "all_minimal_sets_size_K",
        )
        assert [getattr(a, f) for f in flags] == [getattr(b, f) for f in flags]
        witnesses = {tuple(sorted(source(i) for i in w)) for w in a.witnesses}
        assert witnesses == set(b.witnesses)


SEEDS = range(16)


@pytest.mark.parametrize("seed", SEEDS)
def test_answers_keep_under_a_change_of_state_units(seed):
    rng, env, prior = _case(seed)
    lam = rng.dirichlet(np.ones(env.num_sources))
    want = _answers(env, prior, lam)
    k = env.num_states
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    mild = q @ np.diag(rng.uniform(0.5, 2, k))
    _assert_same(_answers(*_in_units(env, prior, mild), lam), want, rel=1e-9)
    wide = np.diag(10.0 ** rng.uniform(-4, 4, k))
    _assert_same(_answers(*_in_units(env, prior, wide), lam), want, rel=1e-7, assumptions=False)


@pytest.mark.parametrize("seed", SEEDS)
def test_answers_follow_a_permutation_of_the_sources(seed):
    rng, env, prior = _case(seed)
    lam = rng.dirichlet(np.ones(env.num_sources))
    order = rng.permutation(env.num_sources)
    moved = Environment(env.coefficients[order], env.objective)
    got = _answers(moved, prior, lam[order])
    _assert_same(got, _answers(env, prior, lam), rel=1e-12, order=order)


def test_span_tests_are_not_unit_free():
    # Relative to the largest entry: [1, 1e-10] is within 1e-9 of the span of [1, 0], but
    # in the units diag(1e-5, 1e5) the target is [1e-5, 1e-5] and its second half is missed.
    assert best_set(Environment([[1.0, 0.0]], [(1.0, [1.0, 1e-10])])).indices == (0,)
    with pytest.raises(SpanError):
        best_set(Environment([[1e-5, 0.0]], [(1.0, [1e-5, 1e-5])]))
    # Floored at 1: [1e-3, 5e-10] is within 1e-9 of the span of [1, 0], but in states
    # measured in units a thousand times smaller ([1, 5e-7]) it is not.
    assert subspace_closure(Environment([[1.0, 0.0], [1e-3, 5e-10]]), [0]) == (0, 1)
    assert subspace_closure(Environment([[1e3, 0.0], [1.0, 5e-7]]), [0]) == (0,)


# The seeds of _case in 0..199 whose least phi is tied: c_last = c_0 - 2 c_1 lets several
# minimal sets reach it, and check_assumptions reports no unique minimizer. Rounding decides
# which tied set best_set lists first, so a label read off that set alone moved on 12 of
# these 15 seeds under the draws of wide units and source orders below.
TIED_SEEDS = (6, 21, 30, 51, 54, 60, 72, 81, 105, 120, 138, 141, 153, 174, 198)


def _label(env, prior):
    label = simulate(env, prior, HORIZON).classification
    return label.kind, set(label.trapped)


@pytest.mark.parametrize("seed", TIED_SEEDS)
def test_labels_under_a_phi_tie_keep_under_units_and_source_order(seed):
    rng, env, prior = _case(seed)
    assert not check_assumptions(env).unique_minimizer
    want = _label(env, prior)
    for _ in range(3):
        wide = np.diag(10.0 ** rng.uniform(-4, 4, env.num_states))
        moved, moved_prior = _in_units(env, prior, wide)
        if moved_prior is not None:
            assert _label(moved, moved_prior) == want
        order = rng.permutation(env.num_sources)
        kind, trapped = _label(Environment(env.coefficients[order], env.objective), prior)
        assert (kind, {int(order[i]) for i in trapped}) == want
