"""The single-source engine step against the scipy ``cho_factor``/``cho_solve`` path it replaces.

The step calls LAPACK's ``potrf``/``potrs`` directly. These tests run a
reference copy of the scipy-wrapper step on the same engine state and require
identical choices and bit-identical variance paths, and the same
``NotPositiveDefiniteError`` on bad precisions.
"""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from infotrap import (
    Environment,
    FreeSignals,
    GaussianPrior,
    NoIntervention,
    NotPositiveDefiniteError,
    PrecisionReplicate,
    TieBreak,
    bundled_scenario,
    bundled_scenario_names,
    grad_posterior_variance,
    greedy_step,
    parse_scenario,
    posterior_variance,
    run_scenario,
    simulate,
)
from infotrap import dynamics
from infotrap.gaussian import _cholesky
from infotrap.scenarios import scenario_to_dict

from conftest import random_pd_prior

FAST_STEP = dynamics._Engine.step


def reference_step(self, ties=None):
    """The engine step as written with scipy's wrappers, recomputing every invariant."""
    if self._comps is not None:
        return FAST_STEP(self)
    env = self.env
    factor = cho_factor(self.precision, lower=True)
    dirs = env.directions
    sols = cho_solve(factor, dirs.T)
    current = float(np.dot(env.weights, np.einsum("rk,kr->r", dirs, sols)))
    gammas = env.coefficients @ sols
    quad = np.einsum("nk,kn->n", env.coefficients, cho_solve(factor, env.coefficients.T))
    m = float(self.replication)
    reductions = ((gammas**2) @ env.weights) * m / (1.0 + m * quad)
    if ties is not None:
        values = -reductions
        best = float(values.min())
        ties.append(int(np.sum(values <= best + dynamics.TIE_TOL * max(abs(best), 1e-300)) > 1))
    i = self._pick(-reductions)
    self.counts[i] += 1
    self.precision += m * env.source_outers[i]
    return int(i), current - float(reductions[i])


def _both(monkeypatch, run, ties=None):
    """``run()`` with the fast step, then with the reference step."""
    fast = run()
    with monkeypatch.context() as m:
        m.setattr(dynamics._Engine, "step", lambda self: reference_step(self, ties))
        ref = run()
    return fast, ref


def _assert_same(fast, ref):
    assert fast.choices == ref.choices
    assert fast.variance_path.tobytes() == ref.variance_path.tobytes()
    assert np.array_equal(fast.final_counts.counts, ref.final_counts.counts)
    assert str(fast.classification) == str(ref.classification)


def _random_case(rng, i):
    n = int(rng.integers(2, 8))
    k = int(rng.integers(1, min(n, 4) + 1))
    if i % 2:
        coefficients = rng.standard_normal((n, k))
    else:
        # Small integers, with a duplicated row: exact ties between sources.
        coefficients = rng.integers(-2, 3, size=(n, k)).astype(float)
        coefficients[-1] = coefficients[0]
        coefficients[0, 0] = coefficients[-1, 0] = 1.0
    objective = None
    if i % 3 == 0 and k > 1:
        objective = [(float(rng.uniform(0.5, 2.0)), rng.standard_normal(k)) for _ in range(2)]
    env = Environment(coefficients, objective)
    prior = random_pd_prior(rng, k) if i % 2 else GaussianPrior.from_diagonal(rng.integers(1, 4, k))
    intervention = (NoIntervention(), PrecisionReplicate(2), PrecisionReplicate(10))[i % 3]
    rule = TieBreak.random(i) if i % 4 < 2 else TieBreak.lowest_index()
    return env, prior, intervention, rule


def test_fast_step_matches_scipy_step_on_random_environments(monkeypatch):
    rng = np.random.default_rng(20260418)
    ties: list[int] = []
    for i in range(240):
        env, prior, intervention, rule = _random_case(rng, i)
        fast, ref = _both(
            monkeypatch,
            lambda: simulate(env, prior, 60, rule=rule, intervention=intervention),
            ties,
        )
        _assert_same(fast, ref)
    # The integer cases do exercise tie resolution.
    assert sum(ties) >= 1000


def test_fast_step_matches_scipy_step_on_parity_env(monkeypatch, parity_env, parity_prior):
    for rule in (TieBreak.lowest_index(), TieBreak.random(3)):
        for intervention in (NoIntervention(), PrecisionReplicate(2)):
            fast, ref = _both(
                monkeypatch,
                lambda: simulate(parity_env, parity_prior, 400, rule=rule, intervention=intervention),
            )
            _assert_same(fast, ref)


def test_fast_step_matches_scipy_step_on_bundled_scenarios(monkeypatch):
    for name in bundled_scenario_names():
        scenario = bundled_scenario(name)
        (fast, fast_report), (ref, ref_report) = _both(monkeypatch, lambda: run_scenario(scenario))
        _assert_same(fast, ref)
        assert fast_report == ref_report


def test_fast_step_matches_scipy_step_in_greedy_step(monkeypatch, example2, example2_trap_prior):
    rng = np.random.default_rng(5)
    for _ in range(30):
        counts = rng.integers(0, 50, size=3)
        for intervention in (NoIntervention(), PrecisionReplicate(10)):
            fast, ref = _both(
                monkeypatch,
                lambda: greedy_step(example2, example2_trap_prior, counts, intervention=intervention),
            )
            assert fast == ref


def test_single_source_run_does_not_call_scipy_wrappers(monkeypatch, example2, example2_trap_prior):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy wrapper called")

    monkeypatch.setattr(dynamics, "cho_factor", refuse)
    monkeypatch.setattr(dynamics, "cho_solve", refuse)
    simulate(example2, example2_trap_prior, 50, intervention=NoIntervention())
    simulate(example2, example2_trap_prior, 50, intervention=FreeSignals((np.array([0.0, 2.0]),)))


def test_cholesky_factor_is_bitwise_cho_factor():
    rng = np.random.default_rng(11)
    for k in (1, 2, 3, 5, 8):
        for _ in range(20):
            a = rng.standard_normal((k + 2, k))
            precision = a.T @ a + 0.1 * np.eye(k)
            assert _cholesky(precision).tobytes() == cho_factor(precision, lower=True)[0].tobytes()


# Precisions that must be refused: one holding inf, one holding NaN (inf - inf off the
# diagonal), and one that is exactly singular in floating point (1e8 + 1e-15 == 1e8).
# Coefficients must have finite squares, so the counts carry the overflow.
BAD_PRECISIONS = {
    "inf": (Environment([[1e154, 0.0]]), GaussianPrior.from_diagonal([1.0, 1.0]), [1e10]),
    "nan": (
        Environment([[1e154, 1e154], [1e154, -1e154]]),
        GaussianPrior.from_diagonal([1.0, 1.0]),
        [1e10, 1e10],
    ),
    "singular": (Environment([[1.0, 1.0]]), GaussianPrior.from_diagonal([1e15, 1e15]), [1e8]),
}


@pytest.mark.parametrize("case", sorted(BAD_PRECISIONS))
def test_bad_precision_raises_not_positive_definite(case):
    env, prior, counts = BAD_PRECISIONS[case]
    for fn in (posterior_variance, grad_posterior_variance, greedy_step):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NotPositiveDefiniteError):
            fn(env, prior, counts)


def test_engine_refuses_bad_precision_in_a_run():
    env = Environment([[1.0, 0.0], [0.0, 1.0]])
    engine = dynamics._Engine(env, GaussianPrior.from_diagonal([1.0, 1.0]), NoIntervention(), None)
    for bad in (np.nan, np.inf, -1.0):
        engine.precision[1, 1] = bad
        with pytest.raises(NotPositiveDefiniteError):
            engine.step()


def test_free_signals_fold_into_engine_precision(example2, example2_trap_prior):
    vectors = (np.array([0.0, 3.0]), np.array([0.5, 1.0]))
    engine = dynamics._Engine(example2, example2_trap_prior, FreeSignals(vectors), None)
    expected = np.array(example2_trap_prior.precision)
    for v in vectors:
        expected += np.outer(v, v)
    assert engine.precision.tobytes() == expected.tobytes()


def test_large_free_signals_give_a_report():
    # The covariance round trip of the free signals used to fail GaussianPrior's
    # conditioning check here (NotPositiveDefiniteError after the doublings).
    doc = scenario_to_dict(bundled_scenario("example2"))
    doc["intervention"] = {"free_signals_auto": {"gamma0": 1000}}
    trace, report = run_scenario(parse_scenario(doc))
    assert report["gamma_final"] >= 1000.0
    assert report["classification"] in ("efficient", "trap", "undetermined")
    assert len(trace.choices) == doc["horizon"]
    assert np.all(np.isfinite(trace.variance_path)) and np.all(trace.variance_path > 0)
