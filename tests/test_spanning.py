import math
from itertools import combinations

import numpy as np
import pytest

from infotrap import (
    Environment,
    GaussianPrior,
    SearchBoundError,
    SpanError,
    asymptotic_variance,
    best_set,
    beta_phi_lambda,
    check_assumptions,
    construct_trap_prior,
    design_free_signals,
    enumerate_minimal_spanning_sets,
    fit_perturbation_eta,
    is_subspace_optimal,
    simulate,
    subspace_closure,
)

from infotrap import dynamics, spanning

from conftest import random_environment


def test_enumerate_example2(example2):
    reports = enumerate_minimal_spanning_sets(example2)
    assert [r.indices for r in reports] == [(1, 2), (0,)]
    assert reports[0].phi == pytest.approx(2 / 3, abs=1e-12)
    assert reports[1].phi == pytest.approx(1.0, abs=1e-12)


def test_enumerate_precise_info(precise_info):
    reports = enumerate_minimal_spanning_sets(precise_info)
    by_set = {r.indices: r.phi for r in reports}
    assert by_set[(2, 3)] == pytest.approx(3 / 16, abs=1e-12)
    assert by_set[(0, 1)] == pytest.approx(1 / 5, abs=1e-12)
    assert reports[0].indices == (2, 3)


def test_enumerate_trivial_two_state():
    env = Environment([[1, 0], [0, 1]])
    reports = enumerate_minimal_spanning_sets(env)
    assert [r.indices for r in reports] == [(0,)]
    assert reports[0].phi == pytest.approx(1.0)


def test_enumerate_rejects_multi_direction():
    env = Environment([[1, 0], [0, 1]], objective=[(1.0, [1, 0]), (1.0, [0, 1])])
    with pytest.raises(SpanError):
        enumerate_minimal_spanning_sets(env)


def test_beta_phi_lambda_example2(example2):
    report = beta_phi_lambda(example2, [1, 2])
    assert report.beta[1] == pytest.approx(1 / 3, abs=1e-12)
    assert report.beta[2] == pytest.approx(-1 / 3, abs=1e-12)
    assert report.phi == pytest.approx(2 / 3, abs=1e-12)
    assert report.lambda_star.weights == pytest.approx([0, 0.5, 0.5], abs=1e-12)


def test_beta_phi_lambda_precise_info(precise_info):
    report = beta_phi_lambda(precise_info, [2, 3])
    assert report.beta[2] == pytest.approx(1 / 8, abs=1e-12)
    assert report.beta[3] == pytest.approx(1 / 16, abs=1e-12)
    assert report.phi == pytest.approx(3 / 16, abs=1e-12)
    assert report.lambda_star.weights == pytest.approx([0, 0, 2 / 3, 1 / 3], abs=1e-12)


def test_beta_phi_lambda_scalar():
    env = Environment([[2.0]])
    report = beta_phi_lambda(env, [0])
    assert report.beta[0] == pytest.approx(0.5)
    assert report.phi == pytest.approx(0.5)
    assert report.lambda_star.weights == pytest.approx([1.0])


def test_beta_phi_lambda_rejects_bad_sets(example2):
    with pytest.raises(SpanError):
        beta_phi_lambda(example2, [2])  # does not span the target
    with pytest.raises(SpanError):
        beta_phi_lambda(example2, [0, 1])  # representation forces a zero weight


# The refusal of an entry that is not an integer, or of indices that are not iterable.
_NOT_INDICES = "source index must be a non-bool integer|source indices must be an iterable"
_OUT_OF_RANGE = "source index must be >= 0 and at most 2"  # example2 has three sources


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda env: beta_phi_lambda(env, [1, 1, 2]), SpanError, "duplicate indices"),
        (lambda env: beta_phi_lambda(env, [1, 3]), SpanError, _OUT_OF_RANGE),
        (lambda env: beta_phi_lambda(env, [-1, 2]), SpanError, _OUT_OF_RANGE),
        (lambda env: beta_phi_lambda(env, []), SpanError, "the source set is empty"),
        (lambda env: beta_phi_lambda(env, [1.9, 2.2]), SpanError, _NOT_INDICES),
        (lambda env: beta_phi_lambda(env, [1.0, 2.0]), SpanError, _NOT_INDICES),
        (lambda env: beta_phi_lambda(env, "01"), SpanError, _NOT_INDICES),
        (lambda env: beta_phi_lambda(env, [True, False]), SpanError, _NOT_INDICES),
        (lambda env: beta_phi_lambda(env, [math.nan]), SpanError, _NOT_INDICES),
        (lambda env: beta_phi_lambda(env, [[1, 2]]), SpanError, _NOT_INDICES),
        (lambda env: beta_phi_lambda(env, np.array(1)), SpanError, _NOT_INDICES),
        (lambda env: subspace_closure(env, [0, 3]), SpanError, _OUT_OF_RANGE),
        (lambda env: subspace_closure(env, [-1]), SpanError, _OUT_OF_RANGE),
        (lambda env: subspace_closure(env, [0.5]), SpanError, _NOT_INDICES),
        (lambda env: subspace_closure(env, np.array([[0, 1]])), SpanError, _NOT_INDICES),
        (lambda env: subspace_closure(env, ""), SpanError, _NOT_INDICES),
        (lambda env: is_subspace_optimal(env, [1.9, 2.2]), SpanError, _NOT_INDICES),
        (lambda env: construct_trap_prior(env, [0.2], 0.01), SpanError, _NOT_INDICES),
        (lambda env: construct_trap_prior(env, [0], eps=0), ValueError, "eps must be positive"),
        (lambda env: construct_trap_prior(env, [0], math.inf), ValueError, "positive and finite"),
        (lambda env: construct_trap_prior(env, [0], math.nan), ValueError, "positive and finite"),
        (lambda env: best_set(env, [1, 3]), SpanError, _OUT_OF_RANGE),
        (lambda env: best_set(env, [0.5, 1]), SpanError, _NOT_INDICES),
    ],
    ids=[
        "bpl_duplicate",
        "bpl_above_range",
        "bpl_negative",
        "bpl_empty",
        "bpl_fractional",
        "bpl_float",
        "bpl_string",
        "bpl_bool",
        "bpl_nan",
        "bpl_2d",
        "bpl_scalar",
        "closure_above_range",
        "closure_negative",
        "closure_fractional",
        "closure_2d",
        "closure_string",
        "subspace_optimal_fractional",
        "trap_prior_fractional",
        "trap_prior_eps_zero",
        "trap_prior_eps_inf",
        "trap_prior_eps_nan",
        "best_set_start_above_range",
        "best_set_start_fractional",
    ],
)
def test_spanning_refusals(call, error, fragment, example2):
    with pytest.raises(error, match=fragment) as info:
        call(example2)
    assert type(info.value) is error


def test_span_residual_bound_is_absolute_below_unit_targets():
    # The residual bound is SPAN_TOL * max(1, max|u_k|): 1e-9 here, above the 1e-11 miss.
    env = Environment([[1, 0], [0, 1]], objective=[(1.0, [1e-3, 1e-11])])
    assert beta_phi_lambda(env, [0]).phi == pytest.approx(1e-3)


def test_subspace_closure_of_no_sources_is_empty(example2):
    assert subspace_closure(example2, []) == ()


def test_spanning_accepts_python_and_numpy_integers(example2):
    report = beta_phi_lambda(example2, [1, 2])
    for indices in (np.array([2, 1]), [np.int64(1), 2], (np.intp(2), np.int32(1))):
        assert beta_phi_lambda(example2, indices).beta == report.beta
        assert subspace_closure(example2, indices) == subspace_closure(example2, [1, 2])


@pytest.mark.xfail(
    strict=True,
    reason="the independence test sees only min(s, K) singular values, so a dependent "
    "set of more than K sources passes it (phi 2.0 here)",
)
def test_beta_phi_lambda_refuses_more_than_k_sources(parity_env):
    with pytest.raises(SpanError):
        beta_phi_lambda(parity_env, (0, 1, 2, 3))


def test_representation_residual(example2, precise_info):
    for env in (example2, precise_info):
        u = env.single_direction()
        for report in enumerate_minimal_spanning_sets(env):
            recon = report.beta_vector(env.num_sources) @ env.coefficients
            assert np.max(np.abs(recon - u)) < 1e-9
            assert report.phi == pytest.approx(
                sum(abs(b) for b in report.beta.values()), abs=1e-12
            )
            assert report.lambda_star.simplex_normalized


def test_phi_by_l1(example2, precise_info):
    """phi of the best set is the minimum of sum|beta_i| over all representations."""
    assert best_set(example2).phi == pytest.approx(2 / 3, abs=1e-12)
    assert best_set(precise_info).phi == pytest.approx(3 / 16, abs=1e-12)


def test_phi_by_l1_duplicate_sources():
    # splitting weight across identical sources does not shrink the total
    env = Environment([[1.0], [1.0]])
    assert best_set(env).phi == pytest.approx(1.0, abs=1e-12)


def test_phi_by_l1_infeasible():
    env = Environment([[0.0, 1.0]])  # the target is orthogonal to every source
    with pytest.raises(SpanError):
        best_set(env)


def test_phi_by_l1_matches_enumeration_randomized():
    rng = np.random.default_rng(42)
    done = 0
    while done < 50:
        env = random_environment(rng, n=int(rng.integers(2, 7)), k=int(rng.integers(1, 4)))
        try:
            reports = enumerate_minimal_spanning_sets(env)
        except SpanError:
            continue
        if not reports:
            continue
        done += 1
        assert best_set(env).phi == pytest.approx(reports[0].phi, rel=1e-10)


def _assert_best_set_matches_enumeration(env):
    reports = enumerate_minimal_spanning_sets(env)
    if not reports:
        with pytest.raises(SpanError):
            best_set(env)
        return
    star = best_set(env)
    assert star.indices == reports[0].indices
    assert star.phi == reports[0].phi


def _random_float_environments():
    rng = np.random.default_rng(11)
    for _ in range(250):
        yield random_environment(rng)


def _integer_environments():
    # Small integer coefficients and targets are full of tied and degenerate sets.
    rng = np.random.default_rng(12)
    for _ in range(250):
        n, k = int(rng.integers(1, 8)), int(rng.integers(1, 5))
        target = rng.integers(-2, 3, size=k)
        if not target.any():
            target[0] = 1
        yield Environment(rng.integers(-2, 3, size=(n, k)), objective=[(1.0, target)])


def test_best_set_matches_enumeration_random_float():
    for env in _random_float_environments():
        _assert_best_set_matches_enumeration(env)


def test_best_set_matches_enumeration_integer_coefficients():
    for env in _integer_environments():
        _assert_best_set_matches_enumeration(env)


def test_best_set_matches_enumeration_fixtures(parity_env, precise_info, example2, example3):
    for env in (parity_env, precise_info, example2, example3):
        _assert_best_set_matches_enumeration(env)


def _start_kind(env, start, best):
    rows = env.coefficients[list(start)]
    if np.linalg.matrix_rank(rows) < env.num_states:
        return "dependent"
    beta = np.abs(np.linalg.solve(rows.T, env.single_direction()))
    if beta.min() <= spanning.SPAN_TOL * beta.max():
        return "degenerate"
    return "optimal" if start == best else "suboptimal"


def _assert_every_start_gives_the_same_answer(env, kinds, enumeration_calls):
    """best_set from every K-subset start equals the cold search and enumeration, and
    enumerates only where the cold search does."""
    reports = enumerate_minimal_spanning_sets(env)
    starts = list(combinations(range(env.num_sources), env.num_states))
    enumeration_calls.clear()
    if not reports:
        for start in starts:
            with pytest.raises(SpanError):
                best_set(Environment(env.coefficients, env.objective), start)
        return
    cold = spanning._search_best_set(env)
    cold_enumerates = bool(enumeration_calls)
    first = reports[0]
    for start in starts:
        kinds[_start_kind(env, start, first.indices)] += 1
        enumeration_calls.clear()
        star = best_set(Environment(env.coefficients, env.objective), start)
        assert not enumeration_calls or cold_enumerates
        for report in (cold, first):
            assert star.indices == report.indices
            assert star.phi == report.phi
            assert star.beta == report.beta
            assert (star.lambda_star.weights == report.lambda_star.weights).all()


def test_best_set_from_every_start(parity_env, enumeration_calls):
    kinds = dict.fromkeys(("optimal", "suboptimal", "dependent", "degenerate"), 0)
    for env in (*_random_float_environments(), *_integer_environments(), parity_env):
        _assert_every_start_gives_the_same_answer(env, kinds, enumeration_calls)
    assert min(kinds.values()) >= 50, kinds


@pytest.fixture
def enumeration_calls(monkeypatch):
    calls = []
    enumerate_all = spanning.enumerate_minimal_spanning_sets

    def counting(env):
        calls.append(env)
        return enumerate_all(env)

    monkeypatch.setattr(spanning, "enumerate_minimal_spanning_sets", counting)
    return calls


def test_best_set_certified_without_enumeration(enumeration_calls):
    rng = np.random.default_rng(13)
    for n, k in [(3, 2), (6, 3), (8, 4), (30, 4)]:
        env = random_environment(rng, n=n, k=k)
        star = best_set(env)
        assert len(star.indices) == k
    assert enumeration_calls == []


def test_best_set_falls_back_on_ties(parity_env, enumeration_calls):
    best_set(parity_env)
    assert enumeration_calls == [parity_env]


def test_best_set_beyond_enumeration_cap():
    rng = np.random.default_rng(0)
    env = Environment(rng.standard_normal((30, 4)))
    trace = simulate(env, GaussianPrior.from_diagonal([1.0] * 4), 200)
    assert trace.classification.kind in ("efficient", "trap")
    assert trace.inefficiency_ratio is not None


def test_tied_environment_beyond_enumeration_cap_is_undetermined():
    # Identical sources tie, so only enumeration could order them, and its scan of
    # n * C(n, 1) entries is just past the bound.
    n = math.isqrt(spanning.MAX_SCAN_ENTRIES) + 1
    env = Environment(np.ones((n, 1)))
    message = f"^{n * n} entries of {n} sources' subsets exceed the subset-scan bound 20971500$"
    with pytest.raises(SearchBoundError, match=message):
        best_set(env)
    trace = simulate(env, GaussianPrior.from_diagonal([1.0]), 100)
    assert trace.classification.kind == "undetermined"


@pytest.fixture
def no_subset_tests(monkeypatch):
    """A scan bound of 8 entries, and no subset test: a refusal must come before any work."""

    def refuse(*args):
        raise AssertionError("a subset was tested past the scan bound")

    monkeypatch.setattr(spanning, "MAX_SCAN_ENTRIES", 8)
    monkeypatch.setattr(spanning, "_test_subsets", refuse)


@pytest.mark.parametrize(
    "search",
    [
        enumerate_minimal_spanning_sets,
        check_assumptions,
        best_set,
        lambda env: design_free_signals(env, 1.0),
        fit_perturbation_eta,
    ],
)
def test_every_span_search_is_refused_at_the_gate(search, no_subset_tests):
    # Three identical sources: a scan of 3 * 3 entries, and a tie the LP cannot certify,
    # so best_set falls back to enumeration.
    env = Environment(np.ones((3, 1)))
    with pytest.raises(SearchBoundError, match="^9 entries of 3 sources' subsets exceed the"):
        search(env)


def test_every_scan_the_twenty_source_cap_admitted_passes_the_gate(monkeypatch):
    # Count only: the gate runs and no subset is built.
    monkeypatch.setattr(spanning, "_subset_chunks", lambda n, size, k: iter(()))
    for n in range(1, 21):
        for k in range(1, 21):
            assert spanning._spanning_subsets(Environment(np.ones((n, k)))) == ([], [])
    with pytest.raises(SearchBoundError, match=f"^{21 * (2**21 - 1)} entries of 21 sources'"):
        spanning._spanning_subsets(Environment(np.ones((21, 21))))


def test_subspace_closure():
    env = Environment([[1.0], [2.0]])
    assert subspace_closure(env, [0]) == (0, 1)


def test_subspace_closure_example2(example2):
    assert subspace_closure(example2, [0]) == (0,)
    assert subspace_closure(example2, [0, 1, 2]) == (0, 1, 2)


def test_is_subspace_optimal():
    env = Environment([[1.0], [2.0]])
    assert not is_subspace_optimal(env, [0])  # the faster source shares its span
    assert is_subspace_optimal(env, [1])


def test_is_subspace_optimal_example2(example2):
    assert is_subspace_optimal(example2, [0])
    assert is_subspace_optimal(example2, [1, 2])


def test_check_assumptions_parity_env(parity_env):
    report = check_assumptions(parity_env)
    assert not report.unique_minimizer
    assert report.witnesses  # the tied pair of spanning sets is reported


def test_check_assumptions_example2(example2):
    report = check_assumptions(example2)
    assert report.unique_minimizer
    assert report.gap == pytest.approx(1 / 3, abs=1e-9)
    assert report.strong_linear_independence
    assert report.unique_minimizer_every_subspace
    assert not report.all_minimal_sets_size_K


def test_check_assumptions_generic_env():
    rng = np.random.default_rng(5)
    for _ in range(5):
        env = random_environment(rng, n=5, k=3)
        report = check_assumptions(env)
        assert report.all_minimal_sets_size_K
        assert report.strong_linear_independence


def test_construct_trap_prior_example2(example2):
    prior = construct_trap_prior(example2, [0], eps=0.01)
    assert np.diag(prior.covariance) == pytest.approx([0.01, 100.0], rel=1e-12)
    assert abs(prior.covariance[0, 1]) < 1e-12
    trace = simulate(example2, prior, 500)
    assert trace.classification.kind == "trap"
    assert trace.classification.trapped == (0,)
    assert all(c == 0 for c in trace.choices)


def test_construct_trap_prior_best_set_is_efficient(example2):
    prior = construct_trap_prior(example2, [1, 2], eps=0.01)
    trace = simulate(example2, prior, 2000)
    assert trace.classification.kind == "efficient"
    assert trace.frequency_estimate.weights == pytest.approx([0, 0.5, 0.5], abs=0.05)


def test_construct_trap_prior_example3(example3):
    prior = construct_trap_prior(example3, [2, 3, 4], eps=1e-4)
    trace = simulate(example3, prior, 2000)
    assert trace.classification.kind == "trap"
    assert trace.classification.trapped == (2, 3, 4)
    assert trace.inefficiency_ratio == pytest.approx(15.0, rel=1e-9)


def test_construct_trap_prior_rejects_dominated_set():
    env = Environment([[1.0], [2.0]])
    with pytest.raises(SpanError):
        construct_trap_prior(env, [0], eps=0.01)


def test_construct_trap_prior_rejects_full_rank_suboptimal():
    # both sets span the whole two-dimensional state space; only the best works
    env = Environment([[1, 0], [2, 0], [0, 1]])
    with pytest.raises(SpanError, match="best set|subspace"):
        construct_trap_prior(env, [0], eps=0.01)


def test_lambda_star_attains_squared_phi(example2, precise_info):
    rng = np.random.default_rng(7)
    for env in (example2, precise_info):
        reports = enumerate_minimal_spanning_sets(env)
        star = reports[0]
        assert asymptotic_variance(env, star.lambda_star) == pytest.approx(
            star.phi**2, abs=1e-10
        )
        for _ in range(1000):
            lam = rng.dirichlet(np.ones(env.num_sources))
            assert asymptotic_variance(env, lam) >= star.phi**2 - 1e-10


def _near_tie_env(rel_gap):
    # Source 1 alone has phi 1; the pair {2, 3} has phi 2 / x = 1 + rel_gap.
    x = 2.0 / (1.0 + rel_gap)
    return Environment([[1, 0], [x, 1], [0, 1]])


@pytest.mark.parametrize("factor, tied", [(0.99, True), (1.01, False)])
def test_unique_best_decisions_at_phi_tie_tolerance(factor, tied):
    env = _near_tie_env(spanning.PHI_TIE_TOL * factor)
    assert check_assumptions(env).unique_minimizer is not tied
    # Both tied sets are witnesses; every pair of sources is independent.
    assert check_assumptions(env).witnesses == ([(0,), (1, 2)] if tied else [])
    if tied:
        with pytest.raises(SpanError):
            fit_perturbation_eta(env)
        with pytest.raises(SpanError):
            design_free_signals(env, gamma=1.0)
    else:
        assert fit_perturbation_eta(env) > 0
        assert design_free_signals(env, gamma=1.0) == []  # the best set is one source


@pytest.mark.parametrize("factor, kind", [(0.99, "efficient"), (1.01, "trap")])
def test_classify_trap_at_phi_tie_tolerance(factor, kind):
    gap = spanning.PHI_TIE_TOL * factor
    env = _near_tie_env(gap)
    # The second half of the run sampled only the pair {1, 2}, whose phi is 1 + gap, at
    # that pair's own optimal frequencies (1/2, 1/2): within the tolerance it is as fast
    # as source 1 alone.
    label, ratio, _ = dynamics._classify(env, np.array([0, 5, 5]), np.zeros(3, dtype=int))
    assert label.kind == kind
    if kind == "trap":
        assert label.trapped == (1, 2)
        assert ratio == pytest.approx(1 + gap, rel=1e-15)
    else:
        assert label.trapped == () and ratio == 1.0


def test_classify_tied_set_off_its_frequencies_is_undetermined():
    # The tied pair {1, 2} sampled at (0.7, 0.3), off its optimum (1/2, 1/2).
    env = _near_tie_env(spanning.PHI_TIE_TOL * 0.99)
    label, ratio, _ = dynamics._classify(env, np.array([0, 7, 3]), np.zeros(3, dtype=int))
    assert label.kind == "undetermined" and ratio is None


def test_check_assumptions_tie_in_subspace_of_non_minimal_sets():
    # {1,2} and {3,4} tie at phi 2 in different planes; no minimal spanning set
    # has closure {1,2,3,4}, only non-minimal triples do. {5,6} is best overall.
    env = Environment(
        [[1, 1, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 1, 0], [1, 0, 0, 1], [0, 0, 0, 10]]
    )
    report = check_assumptions(env)
    assert report.unique_minimizer
    assert not report.unique_minimizer_every_subspace
    assert {(0, 1), (2, 3)} <= set(report.witnesses)
