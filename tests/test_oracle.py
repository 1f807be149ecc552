import importlib.util
import itertools
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from infotrap import (
    ConvergenceError,
    DimensionError,
    Environment,
    GaussianPrior,
    SearchBoundError,
    TieBreak,
    beta_phi_lambda,
    best_set,
    construct_trap_prior,
    greedy_step,
    greedy_vs_optimal,
    optimal_division,
    optimal_frequency_numeric,
    optimal_trajectory,
    dynamics,
    gaussian,
    oracle,
    parse_scenario,
    posterior_variance,
    round_to_total,
    simulate,
    trajectory_deviations,
)
from infotrap.scenarios import analysis_fields

from conftest import random_environment, random_pd_prior


def parity_claim_centers(t, beta, gamma):
    """Predicted optimal counts for the two-pair environment at budget t.

    Within each pair the difference of counts is pinned to the integer nearest
    the pair's prior precision (adjusted by one on the cheaper side when parity
    forces a mismatch), and the pair totals follow the distance-to-integer
    fractions.
    """
    r, s = round(beta), round(gamma)
    db, dg = abs(beta - r), abs(gamma - s)
    gap1, gap2 = r, s
    if (t - (r + s)) % 2 == 0:
        d1, d2 = db, dg
    elif db + (1 - dg) <= (1 - db) + dg:
        d1, d2 = db, 1 - dg
        gap2 = s + (1 if gamma > s else -1)
    else:
        d1, d2 = 1 - db, dg
        gap1 = r + (1 if beta > r else -1)
    f1 = d1 / (2 * d1 + 2 * d2)
    f2 = d2 / (2 * d1 + 2 * d2)
    return np.array([f1 * t + gap1 / 2, f1 * t - gap1 / 2, f2 * t + gap2 / 2, f2 * t - gap2 / 2])


def test_optimal_division_example2(example2, example2_trap_prior):
    result = optimal_division(example2, example2_trap_prior, 2)
    assert list(result.counts.counts) == [0, 1, 1]
    assert result.value == pytest.approx(0.175, abs=1e-12)
    assert result.num_optima == 1
    assert [list(d.counts) for d in result.all_optima] == [[0, 1, 1]]


def test_optimal_division_t1_matches_greedy(example2, example2_trap_prior):
    result = optimal_division(example2, example2_trap_prior, 1)
    choice = greedy_step(example2, example2_trap_prior, [0, 0, 0])
    expected = [0, 0, 0]
    expected[choice] = 1
    assert list(result.counts.counts) == expected


def test_optimal_division_certificate(example2, example2_trap_prior):
    rng = np.random.default_rng(9)
    t = 12
    result = optimal_division(example2, example2_trap_prior, t)
    for _ in range(100):
        q = rng.multinomial(t, [1 / 3] * 3)
        assert result.value <= posterior_variance(example2, example2_trap_prior, q) + 1e-15
    star = best_set(example2)
    rounded = round_to_total(star.lambda_star.weights, t)
    assert result.value <= posterior_variance(example2, example2_trap_prior, rounded) + 1e-15


def test_optimal_division_ties_enumerated():
    env = Environment([[1, 0], [1, 0], [0, 1]])
    prior = GaussianPrior.from_diagonal([1.0, 1.0])
    result = optimal_division(env, prior, 1)
    assert result.num_optima == 2
    assert list(result.counts.counts) == [0, 1, 0]  # lexicographically smallest
    assert [list(d.counts) for d in result.all_optima] == [[0, 1, 0], [1, 0, 0]]


def test_optimal_division_bound(example2, example2_trap_prior):
    with pytest.raises(SearchBoundError):
        optimal_division(example2, example2_trap_prior, 10**6)


def test_optimal_trajectory_single_source():
    env = Environment([[2.0]])
    prior = GaussianPrior.from_diagonal([1.0])
    results = optimal_trajectory(env, prior, 5)
    assert [list(r.counts.counts) for r in results] == [[t] for t in range(1, 6)]


def test_optimal_trajectory_matches_optimal_division(monkeypatch):
    # Blocks of 7 splits, so one budget's splits straddle blocks of the one scan.
    monkeypatch.setattr(dynamics, "COMPOSITION_BLOCK", 7)
    rng = np.random.default_rng(12)
    budgets = tied = 0
    for i in range(450):
        n, k = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        if i % 2:
            # Small integer rows, the last a copy of the first: exact and near ties.
            coefficients = rng.integers(-2, 3, size=(n, k)).astype(float)
            coefficients[0, 0] = 1.0
            coefficients[-1] = coefficients[0]
        else:
            coefficients = rng.uniform(-3, 3, size=(n, k))
        objective = None
        if i % 3 == 0:
            objective = [(float(rng.uniform(0.5, 2)), rng.standard_normal(k)) for _ in range(2)]
        env = Environment(coefficients, objective)
        prior = random_pd_prior(rng, k)
        trajectory = optimal_trajectory(env, prior, int(rng.integers(1, 16 - 2 * n)))
        for t, got in enumerate(trajectory, start=1):
            want = optimal_division(env, prior, t)
            assert got.value.hex() == want.value.hex()
            assert np.array_equal(got.counts.counts, want.counts.counts)
            assert got.num_optima == want.num_optima
            if want.all_optima is None:
                assert got.all_optima is None
            else:
                assert [d.counts.tolist() for d in got.all_optima] == [
                    d.counts.tolist() for d in want.all_optima
                ]
            budgets += 1
            tied += want.num_optima > 1
    assert budgets >= 2000 and tied >= 400


def test_optimal_division_matches_an_itertools_reference(monkeypatch):
    # Blocks of 7 splits, so the running minimum prunes kept splits across blocks. The
    # reference scores every split, built with itertools, in one call.
    monkeypatch.setattr(dynamics, "COMPOSITION_BLOCK", 7)
    rng = np.random.default_rng(25)
    tied = 0
    for i in range(300):
        n, k = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        if i % 2:
            # Small integer rows, the last a copy of the first: exact and near ties.
            coefficients = rng.integers(-2, 3, size=(n, k)).astype(float)
            coefficients[0, 0] = 1.0
            coefficients[-1] = coefficients[0]
        else:
            coefficients = rng.uniform(-3, 3, size=(n, k))
        objective = None
        if i % 3 == 0:
            objective = [(float(rng.uniform(0.5, 2)), rng.standard_normal(k)) for _ in range(2)]
        env = Environment(coefficients, objective)
        prior = random_pd_prior(rng, k)
        t = int(rng.integers(1, 16 - 2 * n))
        splits = np.array([s for s in itertools.product(range(t + 1), repeat=n) if sum(s) == t])
        values = oracle.block_variances(env, prior.precision, splits)
        best = float(values.min())
        optima = splits[values <= best * (1 + oracle.VALUE_TIE_TOL)]
        got = optimal_division(env, prior, t)
        assert got.value.hex() == best.hex()
        assert got.counts.counts.tolist() == optima[0].tolist()
        assert got.num_optima == len(optima)
        if len(optima) > 16:
            assert got.all_optima is None
        else:
            assert [d.counts.tolist() for d in got.all_optima] == optima.tolist()
        tied += len(optima) > 1
    assert tied >= 75


def test_trajectories_check_the_bound_first(monkeypatch, example2, example2_trap_prior):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the search-bound check")

    monkeypatch.setattr(oracle, "simulate", no_work)
    monkeypatch.setattr(oracle, "_run", no_work)
    monkeypatch.setattr(oracle, "compositions", no_work)
    assert optimal_trajectory(example2, example2_trap_prior, 0) == []
    # Both score every budget: 389 is the largest horizon whose budgets have at most
    # MAX_COMPOSITIONS splits over three sources, C(389 + 3, 3) = 9,962,680 of them.
    with pytest.raises(SearchBoundError, match="10039316 splits of every budget up to 390 "):
        optimal_trajectory(example2, example2_trap_prior, 390)
    with pytest.raises(SearchBoundError, match="every budget up to 5000 observations"):
        greedy_vs_optimal(example2, example2_trap_prior, 5000)


@pytest.mark.parametrize(
    "entry, every_budget",
    [(optimal_division, False), (optimal_trajectory, True), (greedy_vs_optimal, True)],
    ids=["division", "trajectory", "comparison"],
)
def test_each_oracle_entry_is_bounded_by_the_splits_it_scores(
    monkeypatch, entry, every_budget, example2, example2_trap_prior
):
    # A budget of 12 over three sources has C(14, 2) = 91 splits; every budget up to 12
    # has C(15, 3) = 455, the splits of 12 over the sources and an unused part.
    bound = math.comb(12 + 2 + every_budget, 2 + every_budget)
    monkeypatch.setattr(oracle, "MAX_COMPOSITIONS", bound)
    entry(example2, example2_trap_prior, 12)

    def no_work(*args, **kwargs):
        raise AssertionError("ran before the search-bound check")

    monkeypatch.setattr(oracle, "_run", no_work)
    monkeypatch.setattr(oracle, "compositions", no_work)
    monkeypatch.setattr(gaussian, "block_increments", no_work)
    with pytest.raises(SearchBoundError, match=f"exceed the exhaustive-search bound {bound}$"):
        entry(example2, example2_trap_prior, 13)


def test_greedy_vs_optimal_scans_the_splits_once(monkeypatch, example2, example2_trap_prior):
    calls = []
    scan = oracle.compositions
    monkeypatch.setattr(oracle, "compositions", lambda *args: calls.append(args) or scan(*args))
    rows = greedy_vs_optimal(example2, example2_trap_prior, 12)
    assert [r.t for r in rows] == list(range(1, 13))
    assert calls == [(12, 4)]


def test_greedy_vs_optimal_builds_no_division_vector(monkeypatch, example2, example2_trap_prior):
    def refuse(*args):
        raise AssertionError("built a DivisionVector")

    monkeypatch.setattr(oracle, "DivisionVector", refuse)
    rows = greedy_vs_optimal(example2, example2_trap_prior, 40)
    assert [r.t for r in rows] == list(range(1, 41))


def test_optimal_division_holds_one_block_of_splits():
    # 73,815 splits of 34 over five sources, scored one block of at most 16,384 at a time:
    # a traced peak near 2.6 MB, against 11.3 MB with every split in one block.
    env = Environment(np.random.default_rng(1).uniform(-3, 3, size=(5, 3)))
    prior = GaussianPrior.from_diagonal([1.0, 2.0, 3.0])
    tracemalloc.start()
    try:
        optimal_division(env, prior, 34)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_comparison_minima_keep_no_split():
    # One source: each of 200,000 budgets has one split, and the scan that keeps every
    # budget's co-optimal rows peaks near 18 MB traced. The comparison keeps the minima:
    # 1.6 MB of them, one block of splits and its scores.
    env, prior = Environment([[2.0]]), GaussianPrior.from_diagonal([1.0])
    horizon = 200_000
    tracemalloc.start()
    try:
        minima = oracle._minima(env, prior, horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert minima.tobytes() == oracle.block_variances(env, prior.precision, np.arange(1, horizon + 1)[:, None]).tobytes()


def test_greedy_column_is_the_unclassified_run(monkeypatch):
    # The greedy column is simulate's variance path, bit for bit, with no classification.
    rng = np.random.default_rng(24)
    cases = []
    for i in range(40):
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        if i % 2:
            # Small integer rows, the last a copy of the first: exact ties between sources.
            coefficients = rng.integers(-2, 3, size=(n, k)).astype(float)
            coefficients[0, 0] = 1.0
            coefficients[-1] = coefficients[0]
        else:
            coefficients = rng.standard_normal((n, k))
        env, prior = Environment(coefficients), random_pd_prior(rng, k)
        horizon = int(rng.integers(1, 16 - 2 * n))
        greedy = simulate(env, prior, horizon, rule=TieBreak.lowest_index()).variance_path
        cases.append((env, prior, horizon, greedy.tobytes()))

    def refuse(*args, **kwargs):
        raise AssertionError("classified the greedy run")

    monkeypatch.setattr(dynamics, "best_set", refuse)
    monkeypatch.setattr(dynamics, "beta_phi_lambda", refuse)
    for env, prior, horizon, greedy in cases:
        assert oracle._comparison_columns(env, prior, horizon)[0].tobytes() == greedy
        rows = greedy_vs_optimal(env, prior, horizon)
        assert np.array([r.greedy_variance for r in rows]).tobytes() == greedy


def test_greedy_vs_optimal_rows_are_the_greedy_path_and_the_trajectory_minima():
    rng = np.random.default_rng(20)
    budgets = tied = 0
    for i in range(50):
        n, k = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        if i % 2:
            # Small integer rows, the last a copy of the first: exact and near ties.
            coefficients = rng.integers(-2, 3, size=(n, k)).astype(float)
            coefficients[0, 0] = 1.0
            coefficients[-1] = coefficients[0]
        else:
            coefficients = rng.uniform(-3, 3, size=(n, k))
        env = Environment(coefficients)
        prior = random_pd_prior(rng, k)
        horizon = int(rng.integers(1, 16 - 2 * n))
        rows = greedy_vs_optimal(env, prior, horizon)
        greedy = simulate(env, prior, horizon).variance_path
        optima = optimal_trajectory(env, prior, horizon)
        assert [r.t for r in rows] == list(range(1, horizon + 1))
        for r, g, opt in zip(rows, greedy, optima, strict=True):
            assert r.greedy_variance.hex() == float(g).hex()
            assert r.optimal_variance.hex() == opt.value.hex()
            assert r.ratio.hex() == (r.greedy_variance / r.optimal_variance).hex()
            budgets += 1
            tied += opt.num_optima > 1
    assert budgets >= 200 and tied >= 40


def test_optimal_trajectory_example2_residuals(example2, example2_trap_prior):
    results = optimal_trajectory(example2, example2_trap_prior, 30)
    star = best_set(example2)
    dev = trajectory_deviations(results, star.lambda_star)
    assert np.max(np.abs(dev[9:30])) <= 2.0
    # the slow unbiased source is only worth taking at the very first budget
    assert all(r.counts.counts[0] == 0 for r in results[1:])


def test_optimal_trajectory_residuals_bounded_randomized():
    # needs a clearly unique best set: the residual constant blows up as the
    # runner-up's speed approaches the best set's
    from infotrap import enumerate_minimal_spanning_sets

    rng = np.random.default_rng(55)
    done = 0
    while done < 3:
        env = random_environment(rng, n=4, k=2)
        try:
            reports = enumerate_minimal_spanning_sets(env)
        except Exception:
            continue
        if len(reports) < 2 or reports[1].phi - reports[0].phi < 0.05 * reports[0].phi:
            continue
        done += 1
        star = reports[0]
        prior = random_pd_prior(rng, 2)
        results = optimal_trajectory(env, prior, 30)
        dev = np.abs(trajectory_deviations(results, star.lambda_star))
        assert dev[14:30].max() <= dev[4:15].max() + 1.0


def test_parity_environment_claim(parity_env, parity_prior):
    for t in (40, 41):
        result = optimal_division(parity_env, parity_prior, t)
        centers = parity_claim_centers(t, beta=2.3, gamma=3.8)
        assert np.max(np.abs(result.counts.counts - centers)) <= 2.0


def test_parity_environment_deviations_bounded(parity_env, parity_prior):
    caps = []
    for t in range(24, 45):
        result = optimal_division(parity_env, parity_prior, t)
        centers = parity_claim_centers(t, beta=2.3, gamma=3.8)
        caps.append(np.max(np.abs(result.counts.counts - centers)))
    assert max(caps) <= 2.5


def test_optimal_frequency_numeric_example2(example2):
    freq = optimal_frequency_numeric(example2)
    assert freq.weights == pytest.approx([0, 0.5, 0.5], abs=1e-4)


def test_optimal_frequency_numeric_precise_info(precise_info):
    freq, info = optimal_frequency_numeric(precise_info, full_output=True)
    assert freq.weights == pytest.approx([0, 0, 2 / 3, 1 / 3], abs=1e-4)
    assert info["unique"]
    assert info["value"] == pytest.approx((3 / 16) ** 2, rel=1e-9)


def test_optimal_frequency_numeric_flags_non_unique(parity_env):
    freq, info = optimal_frequency_numeric(parity_env, full_output=True)
    assert info["value"] == pytest.approx(4.0, rel=1e-6)
    assert not info["unique"]


def test_optimal_frequency_numeric_agrees_with_exact_randomized():
    rng = np.random.default_rng(77)
    done = 0
    while done < 10:
        env = random_environment(rng, n=5, k=3)
        try:
            star = best_set(env)
        except Exception:
            continue
        done += 1
        freq, info = optimal_frequency_numeric(env, full_output=True)
        assert np.max(np.abs(freq.weights - star.lambda_star.weights)) < 1e-4
        assert info["value"] == pytest.approx(star.phi**2, rel=1e-9)
        assert info["exact"]


def _two_target_environments(count, seed):
    """Seeded two-target environments; every other one has rank K - 1, targets in the row space."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(k + 1, k + 3))
        rank = k - i % 2
        c = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, k))
        directions = rng.standard_normal((2, n)) @ c
        yield Environment(c, list(zip(rng.uniform(0.2, 2.0, 2), directions)))


def _equivalence_terms(env, lam):
    """V and g_i = |Y' c_i|^2 at lam, where Y = M(lam)^+ [sqrt(w_r) u_r] by the pseudo-inverse."""
    c = env.coefficients
    y = np.linalg.pinv((c.T * lam) @ c) @ (env.directions.T * np.sqrt(env.weights))
    g = np.sum((c @ y) ** 2, axis=1)
    return float(lam @ g), g


def test_optimal_frequency_numeric_satisfies_equivalence_theorem():
    deficient = 0
    for env in _two_target_environments(30, seed=2010):
        deficient += np.linalg.matrix_rank(env.coefficients) < env.num_states
        freq, info = optimal_frequency_numeric(env, full_output=True)
        assert info["gap"] <= 1e-10
        value, g = _equivalence_terms(env, freq.weights)
        assert value == pytest.approx(info["value"], rel=1e-9)
        assert g.max() <= value * (1 + 1e-8)
        # A source with a small frequency may sit further below max g than the gap.
        on = freq.weights > 0
        assert g[on] == pytest.approx(np.full(on.sum(), value), rel=1e-6)
    assert deficient == 15


_ROTATION = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))[0]


@pytest.mark.parametrize(
    "coefficients, objective",
    [
        ([[1, 0], [0, 1]], None),
        (np.eye(3), [(1.0, [1, 0, 0]), (1.0, [0, 1, 0])]),
        (_ROTATION, [(1.0, _ROTATION.T @ [1, 0, 0])]),
    ],
)
def test_optimal_frequency_numeric_drops_an_unneeded_source(coefficients, objective):
    # The last source has g = 0 (up to rounding), so the iteration drives its
    # frequency to the floor while the information matrix stays factorizable.
    freq, info = optimal_frequency_numeric(Environment(coefficients, objective), full_output=True)
    assert info["gap"] <= 1e-10
    assert freq.weights[-1] == 0.0


@pytest.fixture(scope="module")
def multi_target_pool():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up while loading
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return {item.name: item.doc for item in workloads.BUILDERS["multi_target"]().items()}


@pytest.mark.parametrize("name", ["mt-k2-n4-11", "mt-k3-n5-00", "mt-k3-n5-04", "mt-k3-n5-16"])
def test_optimal_frequency_numeric_certifies_slow_pool_inputs(multi_target_pool, name):
    env = parse_scenario(multi_target_pool[name]).environment
    freq, info = optimal_frequency_numeric(env, full_output=True)
    assert info["gap"] <= 1e-10
    assert freq.simplex_normalized


def test_optimal_frequency_numeric_raises_at_iteration_cap(monkeypatch, example2):
    monkeypatch.setattr(oracle, "MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError):
        optimal_frequency_numeric(example2)


def test_optimal_frequency_numeric_refuses_an_underflowing_certificate():
    # Every g_i = |Y' c_i|^2 is about 1e-325, below the smallest float: the certificate's
    # ratio V / max g cannot be formed, and analysis reports null fields.
    env = Environment([[1e82]], objective=[(1.0, [3.67e-81]), (1.0, [1.74e-177])])
    with pytest.raises(ConvergenceError, match="underflows"):
        optimal_frequency_numeric(env)
    fields = analysis_fields(env)
    assert list(fields.values()) == [None] * 4


def test_greedy_vs_optimal_trap_ratio(example2, example2_trap_prior):
    rows = greedy_vs_optimal(example2, example2_trap_prior, 30)
    assert rows[0].ratio == pytest.approx(1.0, abs=1e-12)
    ratios = {r.t: r.ratio for r in rows}
    assert ratios[30] > ratios[10] > ratios[2]
    assert 2.1 < ratios[30] < 2.25  # heading toward the squared speed gap 1.5^2


def test_greedy_vs_optimal_efficient_regime(example2):
    prior = GaussianPrior.from_diagonal([1.0, 6.0])
    trace = simulate(example2, prior, 200)
    star = best_set(example2)
    benchmark = posterior_variance(
        example2, prior, round_to_total(star.lambda_star.weights, 200)
    )
    assert trace.variance_path[-1] / benchmark == pytest.approx(1.0, abs=0.05)


def test_round_to_total():
    assert list(round_to_total([0.5, 0.5], 3)) == [2, 1]
    assert round_to_total([1, 2], 2**53).tolist() == [3002399751580331, 6004799503160661]
    assert list(round_to_total([1, 1, 1], 7)) == [3, 2, 2]
    assert round_to_total([0.2, 0.8], 10).sum() == 10
    for weights, total in [([2, -1], 5), ([1.0, np.nan], 3), ([1.0, np.inf], 3), ([1, 1], -1)]:
        with pytest.raises(ValueError):
            round_to_total(weights, total)


def test_modified_alpha_sensitivity():
    """Stronger confounded sources raise both the trap threshold and its cost."""
    thresholds = {}
    for alpha in (3.0, 10.0, 30.0):
        env = Environment([[1, 0], [alpha, 1], [0, 1]])
        star = best_set(env)
        assert star.indices == (1, 2)
        ratio = beta_phi_lambda(env, [0]).phi / star.phi
        assert ratio == pytest.approx(alpha / 2, rel=1e-12)
        # first-step comparison flips where the confounder variance passes alpha^2 - 1
        boundary = alpha**2 - 1
        lo = simulate(env, GaussianPrior.from_diagonal([1.0, boundary * 0.9]), 600)
        hi = simulate(env, GaussianPrior.from_diagonal([1.0, boundary * 1.1]), 600)
        assert lo.classification.kind == "efficient"
        assert hi.classification.kind == "trap"
        thresholds[alpha] = boundary
    assert thresholds[3.0] < thresholds[10.0] < thresholds[30.0]
    # at the strongest variant the achieved slowdown clears a factor of five
    env = Environment([[1, 0], [30.0, 1], [0, 1]])
    trap = simulate(env, GaussianPrior.from_diagonal([1.0, 1000.0]), 600)
    assert trap.classification.kind == "trap"
    assert trap.inefficiency_ratio > 5.0


# A budget or horizon that is a bool or not an integer, and the oracle's three entries.
_NOT_INTEGERS = {
    "bool": True,
    "fraction": 2.5,
    "integral_float": 3.0,
    "numpy_float": np.float64(3.0),
    "string": "3",
}
_ORACLE_ENTRIES = {
    "division": optimal_division,
    "trajectory": optimal_trajectory,
    "comparison": greedy_vs_optimal,
}
_PAIR = (Environment([[1, 0], [0, 1]]), GaussianPrior.from_diagonal([1.0, 1.0]))


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (
            lambda: optimal_division(
                Environment([[1, 0], [0, 1]]), GaussianPrior.from_diagonal([1.0, 1.0]), 0
            ),
            ValueError,
            "budget must be >= 1",
        ),
        (lambda: round_to_total([0, 0], 3), ValueError, "weights must have positive sum"),
        (lambda: round_to_total([1e308, 1e308], 3), ValueError, "finite in floating point"),
        (
            lambda: round_to_total([1, 2], 2**70),
            ValueError,
            "total must be >= 0 and at most 9007199254740992",  # 2**53
        ),
    ]
    + [
        (lambda entry=entry, t=t: entry(*_PAIR, t), ValueError, "budget must be a non-bool integer")
        for entry in _ORACLE_ENTRIES.values()
        for t in _NOT_INTEGERS.values()
    ]
    + [
        (
            lambda entry=entry: entry(_PAIR[0], GaussianPrior.from_diagonal([1.0] * 3), 3),
            DimensionError,
            "prior has 3 states, environment has 2",
        )
        for entry in _ORACLE_ENTRIES.values()
    ],
    ids=["division_budget_zero", "round_zero_weights", "round_sum_overflows", "round_total_huge"]
    + [f"{name}_budget_{kind}" for name in _ORACLE_ENTRIES for kind in _NOT_INTEGERS]
    + [f"{name}_prior_size" for name in _ORACLE_ENTRIES],
)
def test_oracle_refusals(call, error, fragment):
    with pytest.raises(error, match=fragment) as info:
        call()
    assert type(info.value) is error


def test_oracle_takes_numpy_integer_budgets():
    env, prior = _PAIR
    assert optimal_division(env, prior, np.int64(4)).value == optimal_division(env, prior, 4).value
    assert len(optimal_trajectory(env, prior, np.int32(3))) == 3
    assert [r.t for r in greedy_vs_optimal(env, prior, np.uint8(5))] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("total", [2.5, 3.0, True], ids=["fraction", "integral_float", "bool"])
def test_round_to_total_refuses_a_total_that_is_not_an_integer(total):
    with pytest.raises(ValueError, match="total must be a non-bool integer") as info:
        round_to_total([1, 1], total)
    assert type(info.value) is ValueError


def test_round_to_total_takes_numpy_integers():
    for total in (np.int64(7), np.int32(7), np.uint8(7)):
        assert round_to_total([1, 1, 1], total).tolist() == [3, 2, 2]
