import math
from itertools import chain, combinations, islice
from types import SimpleNamespace

import numpy as np
import pytest

from infotrap import (
    AutoFreeSignals,
    BatchAllocate,
    DimensionError,
    DivisionVector,
    Environment,
    FreeSignals,
    GaussianPrior,
    NoIntervention,
    NotPositiveDefiniteError,
    PrecisionReplicate,
    SearchBoundError,
    SpanError,
    TieBreak,
    best_set,
    design_free_signals,
    escalate_gamma,
    grad_posterior_variance,
    greedy_step,
    optimal_division,
    posterior_variance,
    simulate,
)
from infotrap import dynamics, spanning
from infotrap.dynamics import compositions

from conftest import random_environment, random_pd_prior


def test_greedy_step_example2(example2, example2_trap_prior):
    zero = DivisionVector.zeros(3)
    assert greedy_step(example2, example2_trap_prior, zero) == 0
    low_prior = GaussianPrior.from_diagonal([1.0, 6.0])
    assert greedy_step(example2, low_prior, zero) == 1


def test_greedy_step_batch(example2, example2_trap_prior):
    choice = greedy_step(
        example2, example2_trap_prior, [0, 0, 0], intervention=BatchAllocate(2)
    )
    assert list(choice) == [0, 1, 1]


def test_greedy_step_batch_bounds(example2, example2_trap_prior):
    # The gate counts the candidates, C(B + N - 1, N - 1): 105 for a batch of 13 over three
    # sources, 80,601 for a batch of 400.
    choice = greedy_step(example2, example2_trap_prior, [0, 0, 0], intervention=BatchAllocate(13))
    assert choice.sum() == 13
    with pytest.raises(SearchBoundError, match="80601 splits of a batch of 400 observations"):
        greedy_step(example2, example2_trap_prior, [0, 0, 0], intervention=BatchAllocate(400))


def test_batch_bound_keeps_every_batch_up_to_12_over_up_to_8_sources():
    admitted = [math.comb(b + n - 1, n - 1) for b in range(1, 13) for n in range(1, 9)]
    assert max(admitted) == dynamics.MAX_BATCH_CANDIDATES == 50_388
    rng = np.random.default_rng(28)
    env = Environment(rng.standard_normal((8, 2)))
    prior = GaussianPrior.from_diagonal([1.0, 1.0])
    assert greedy_step(env, prior, [0] * 8, intervention=BatchAllocate(12)).sum() == 12


@pytest.mark.parametrize("call", [simulate, greedy_step], ids=["simulate", "greedy_step"])
def test_batch_gate_refuses_above_the_bound_before_any_work(
    monkeypatch, call, example2, example2_trap_prior
):
    def run(batch):
        start = 3 if call is simulate else [0, 0, 0]
        return call(example2, example2_trap_prior, start, intervention=BatchAllocate(batch))

    # A batch of 4 over three sources has 15 candidates, one of 5 has 21.
    monkeypatch.setattr(dynamics, "MAX_BATCH_CANDIDATES", 15)
    run(4)

    def no_work(*args, **kwargs):
        raise AssertionError("ran before the batch-allocation bound check")

    monkeypatch.setattr(dynamics, "compositions", no_work)
    monkeypatch.setattr(dynamics, "block_increments", no_work)
    with pytest.raises(SearchBoundError, match="21 splits of a batch of 5 observations over 3"):
        run(5)


def test_greedy_step_random_tie_break_reproducible():
    env = Environment([[1, 0], [1, 0], [0, 1]])  # identical first two sources
    prior = GaussianPrior.from_diagonal([1.0, 1.0])
    picks = {greedy_step(env, prior, [0, 0, 0], rule=TieBreak.random(s)) for s in range(16)}
    assert picks == {0, 1}
    again = [greedy_step(env, prior, [0, 0, 0], rule=TieBreak.random(3)) for _ in range(5)]
    assert len(set(again)) == 1
    # A numpy integer seed is kept as the Python int it equals.
    for seed in (np.int64(3), np.uint8(3)):
        rule = TieBreak.random(seed)
        assert rule == TieBreak.random(3) and type(rule.seed) is int


def test_simulate_trap_example2(example2, example2_trap_prior):
    trace = simulate(example2, example2_trap_prior, 1000)
    assert trace.classification.kind == "trap"
    assert trace.classification.trapped == (0,)
    assert trace.inefficiency_ratio == pytest.approx(1.5, abs=1e-9)
    assert all(c == 0 for c in trace.choices)
    assert trace.final_counts.counts[0] == 1000


def test_simulate_efficient_example2(example2):
    trace = simulate(example2, GaussianPrior.from_diagonal([1.0, 6.0]), 2000)
    assert trace.classification.kind == "efficient"
    assert trace.inefficiency_ratio == 1.0
    assert trace.frequency_estimate.weights == pytest.approx([0, 0.5, 0.5], abs=0.05)


def test_simulate_trap_precise_info(precise_info, precise_info_prior):
    trace = simulate(precise_info, precise_info_prior, 2000)
    assert trace.classification.kind == "trap"
    assert trace.classification.trapped == (0, 1)
    assert trace.inefficiency_ratio == pytest.approx((1 / 5) / (3 / 16), rel=1e-9)


def test_simulate_variance_path_monotone(example2, example2_trap_prior):
    trace = simulate(example2, example2_trap_prior, 200)
    path = trace.variance_path
    assert np.all(path > 0)
    assert np.all(np.diff(path) <= 1e-15)
    assert path[0] == pytest.approx(0.5, abs=1e-12)  # first acquisition of the unbiased source


def test_simulate_variance_path_matches_exact(example2):
    prior = GaussianPrior.from_diagonal([1.0, 6.0])
    trace = simulate(example2, prior, 50)
    counts = trace.counts_matrix()
    for t in (0, 9, 49):
        assert trace.variance_path[t] == pytest.approx(
            posterior_variance(example2, prior, counts[t]), rel=1e-10
        )


def test_simulate_realizations_do_not_change_choices(example2, example2_trap_prior):
    a = simulate(example2, example2_trap_prior, 100, sample_realizations=False)
    b = simulate(example2, example2_trap_prior, 100, sample_realizations=True, seed=99)
    assert a.choices == b.choices
    assert np.array_equal(a.variance_path, b.variance_path)
    assert b.final_mean is not None and b.final_mean.shape == (2,)


def test_final_mean_of_an_overflowing_final_precision_is_nan():
    # The second observation takes the precision past the largest float; no step uses
    # it, so the run stands, with realizations or without.
    env, prior = Environment([[1e154]]), GaussianPrior.from_diagonal([1.0])
    a = simulate(env, prior, 2, sample_realizations=False)
    b = simulate(env, prior, 2, sample_realizations=True)
    assert a.choices == b.choices
    assert a.variance_path.tobytes() == b.variance_path.tobytes()
    assert np.isnan(b.final_mean).all()


@pytest.mark.parametrize(
    "variances, intervention",
    [
        ([1.0, 6.0], NoIntervention()),
        ([1.0, 10.0], FreeSignals((np.array([0.0, 3.0]),))),
        ([1.0, 10.0], PrecisionReplicate(3)),
        ([1.0, 10.0], BatchAllocate(2)),
    ],
    ids=["none", "free_signals", "precision", "batch"],
)
def test_sampled_posterior_mean_is_calibrated(example2, variances, intervention):
    # With theta and every observation drawn from the model, the posterior mean
    # varies across seeds by the variance the data removed: Sigma0 - Sigma_T.
    prior = GaussianPrior.from_diagonal(variances)
    runs = [
        simulate(example2, prior, 40, intervention=intervention, sample_realizations=True, seed=s)
        for s in range(300)
    ]
    replication = intervention.batch if isinstance(intervention, PrecisionReplicate) else 1
    counts = runs[0].final_counts.counts * replication
    precision = prior.precision + (example2.coefficients.T * counts) @ example2.coefficients
    for v in getattr(intervention, "vectors", ()):
        precision = precision + np.outer(v, v)
    expected = np.diag(prior.covariance - np.linalg.inv(precision))
    sampled = np.var([run.final_mean for run in runs], axis=0, ddof=1)
    np.testing.assert_allclose(sampled, expected, rtol=0.25, atol=1e-9)


def test_sampled_posterior_mean_with_huge_replication(example2, example2_trap_prior):
    # 10**17 draws per period are summed in closed form, never materialized.
    trace = simulate(
        example2,
        example2_trap_prior,
        5,
        intervention=PrecisionReplicate(10**17),
        sample_realizations=True,
        seed=3,
    )
    assert np.all(np.isfinite(trace.final_mean))


def test_precision_replicate_trap_persists(example2, example2_trap_prior):
    for b in (1, 10, 100):
        trace = simulate(
            example2, example2_trap_prior, 400, intervention=PrecisionReplicate(b)
        )
        assert trace.classification.kind == "trap"
        assert trace.classification.trapped == (0,)


def test_precision_replicate_breaks_precise_info(precise_info, precise_info_prior):
    trace = simulate(
        precise_info, precise_info_prior, 2000, intervention=PrecisionReplicate(10)
    )
    assert trace.classification.kind == "efficient"
    assert trace.frequency_estimate.weights == pytest.approx([0, 0, 2 / 3, 1 / 3], abs=0.05)


def test_batch_allocation_escapes_trap(example2, example2_trap_prior):
    trace = simulate(example2, example2_trap_prior, 2000, intervention=BatchAllocate(2))
    assert trace.classification.kind == "efficient"
    assert trace.frequency_estimate.weights == pytest.approx([0, 0.5, 0.5], abs=0.05)
    assert trace.final_counts.total == 4000


def test_design_free_signals_example2(example2):
    vectors = design_free_signals(example2, gamma=5.0)
    assert len(vectors) == 1
    v = vectors[0]
    assert np.linalg.norm(v) == pytest.approx(5.0, rel=1e-12)
    assert abs(v[0]) < 1e-12  # aligned with the confounder, orthogonal to the target


def test_design_free_signals_single_source_best():
    env = Environment([[1, 0], [0.2, 1]])
    assert best_set(env).indices == (0,)
    assert design_free_signals(env, gamma=1.0) == []


def test_design_free_signals_example3(example3):
    vectors = design_free_signals(example3, gamma=2.0)
    assert len(vectors) == 1
    v = vectors[0]
    # the best pair involves the target and the first confounder only
    assert abs(v[0]) < 1e-9 and abs(v[2]) < 1e-12 and abs(v[3]) < 1e-12
    assert abs(v[1]) == pytest.approx(2.0, rel=1e-9)


def test_design_free_signals_requires_unique_best(parity_env):
    with pytest.raises(SpanError):
        design_free_signals(parity_env, gamma=1.0)


def test_escalate_gamma_breaks_example2_trap(example2, example2_trap_prior):
    gamma, trace = escalate_gamma(example2, example2_trap_prior, 2000, gamma0=1.0)
    assert trace.classification.kind == "efficient"
    assert gamma <= 1024.0


def test_escalate_gamma_designs_once(monkeypatch, example2, example2_trap_prior):
    calls = []
    enumerate_sets = spanning.enumerate_minimal_spanning_sets
    monkeypatch.setattr(
        spanning,
        "enumerate_minimal_spanning_sets",
        lambda env: calls.append(1) or enumerate_sets(env),
    )
    gamma, trace = escalate_gamma(example2, example2_trap_prior, 200, gamma0=32.0)
    assert (gamma, trace.classification.kind) == (8.0, "efficient")  # three runs
    assert len(calls) == 1


def test_escalate_gamma_halves_after_undetermined_runs(monkeypatch, example2, example2_trap_prior):
    # Designed signals make example2 efficient for gamma 1-16 and undetermined from 32 up.
    runs = []
    run = dynamics.simulate
    monkeypatch.setattr(dynamics, "simulate", lambda *a, **kw: runs.append(1) or run(*a, **kw))
    gamma, trace = escalate_gamma(example2, example2_trap_prior, 1000, gamma0=1000.0)
    assert (gamma, trace.classification.kind, len(runs)) == (15.625, "efficient", 7)


@pytest.mark.parametrize(
    "labels, gamma, runs",
    [
        (["trap", "trap", "efficient"], 12.0, 3),
        (["trap", "trap", "undetermined", "efficient"], 12.0, 3),
        (["undetermined", "undetermined", "trap", "efficient"], 0.75, 3),
        (["trap"] * 30, 3.0 * 2**dynamics.MAX_DOUBLINGS, dynamics.MAX_DOUBLINGS + 1),
        (["undetermined"] * 30, 3.0 / 2**dynamics.MAX_DOUBLINGS, dynamics.MAX_DOUBLINGS + 1),
    ],
    ids=["efficient", "trap_then_undetermined", "undetermined_then_trap", "cap_up", "cap_down"],
)
def test_escalate_gamma_stops_where_the_label_turns(
    monkeypatch, example2, example2_trap_prior, labels, gamma, runs
):
    scripted = iter(labels)
    seen = []

    def fake_simulate(*args, intervention, **kwargs):
        seen.append(intervention)
        return SimpleNamespace(classification=SimpleNamespace(kind=next(scripted)))

    monkeypatch.setattr(dynamics, "simulate", fake_simulate)
    got, trace = escalate_gamma(example2, example2_trap_prior, 50, gamma0=3.0)
    assert (got, len(seen)) == (gamma, runs)
    assert trace.classification.kind == labels[runs - 1]
    unit = design_free_signals(example2, 1.0)
    assert [v.tobytes() for v in seen[-1].vectors] == [(got * v).tobytes() for v in unit]


def test_escalate_gamma_without_signals_runs_once(monkeypatch):
    # The best set is the single source [1, 0, 0], so the design is empty and no
    # gamma changes the run; the run classifies undetermined.
    env = Environment([[2.0, -2.0, 1.0], [2.0, 1.0, -1.0], [1.0, 0.0, 0.0]])
    cov = [[0.34, 0.04, -0.15], [0.04, 0.01, -0.06], [-0.15, -0.06, 0.48]]
    prior = GaussianPrior(np.zeros(3), cov)
    assert design_free_signals(env, 1.0) == []
    runs = []
    run = dynamics.simulate
    monkeypatch.setattr(dynamics, "simulate", lambda *a, **kw: runs.append(1) or run(*a, **kw))
    gamma, trace = escalate_gamma(env, prior, 200, gamma0=3.0)
    assert (gamma, len(runs)) == (3.0, 1)
    assert trace.classification.kind == "undetermined"
    assert trace.variance_path.tobytes() == run(env, prior, 200).variance_path.tobytes()


def test_scaled_unit_design_is_bitwise_the_gamma_design():
    rng = np.random.default_rng(8)
    gammas = [float(g) for g in np.exp(rng.uniform(-5.0, 25.0, 8))] + [2.0**-3, 3.0, 1e10]
    designed = 0
    for _ in range(60):
        env = random_environment(rng)
        try:
            unit = design_free_signals(env, 1.0)
        except SpanError:
            continue
        designed += bool(unit)
        for gamma in gammas:
            direct = design_free_signals(env, gamma)
            assert [v.tobytes() for v in direct] == [(gamma * v).tobytes() for v in unit]
    assert designed >= 10


def test_escalate_gamma_trivial_when_already_efficient(example2):
    prior = GaussianPrior.from_diagonal([1.0, 6.0])
    gamma, trace = escalate_gamma(example2, prior, 2000, gamma0=1.0)
    assert gamma == 1.0
    assert trace.classification.kind == "efficient"


def test_escalate_gamma_precise_info(precise_info, precise_info_prior):
    gamma, trace = escalate_gamma(precise_info, precise_info_prior, 2000, gamma0=1.0)
    assert trace.classification.kind == "efficient"


def test_determinism_bitwise(example2, example2_trap_prior):
    kw = dict(rule=TieBreak.random(5), sample_realizations=True, seed=11)
    a = simulate(example2, example2_trap_prior, 300, **kw)
    b = simulate(example2, example2_trap_prior, 300, **kw)
    assert a.choices == b.choices
    assert a.variance_path.tobytes() == b.variance_path.tobytes()
    assert np.array_equal(a.final_mean, b.final_mean)


def test_argmax_invariant_to_objective_scale():
    rng = np.random.default_rng(23)
    for _ in range(20):
        env = random_environment(rng, n=4, k=3)
        prior = random_pd_prior(rng, 3)
        q = rng.integers(0, 5, size=4)
        base = greedy_step(env, prior, q)
        for scale in (0.1, 7.0, 1000.0):
            scaled = Environment(
                env.coefficients, objective=[(scale, env.objective[0][1])]
            )
            assert greedy_step(scaled, prior, q) == base


def test_directional_derivative_bound_on_trace(example2):
    prior = GaussianPrior.from_diagonal([1.0, 6.0])
    trace = simulate(example2, prior, 500)
    counts = trace.counts_matrix()
    star = best_set(example2)
    for t in (10, 100, 499):
        q = counts[t]
        grad = grad_posterior_variance(example2, prior, q)
        v = posterior_variance(example2, prior, q)
        assert abs(float(star.lambda_star.weights @ grad)) >= (
            v * v / star.phi**2
        ) * (1 - 1e-9)


def test_variance_tail_bound_on_efficient_trace(example2):
    # t*V approaches the squared best asymptotic standard deviation at a 1/t
    # rate; the constant is fitted over a window around half-horizon (integer
    # counts make the residual oscillate) with a safety factor of two.
    prior = GaussianPrior.from_diagonal([1.0, 6.0])
    horizon = 2000
    trace = simulate(example2, prior, horizon)
    phi2 = best_set(example2).phi ** 2
    resid = np.abs(np.arange(1, horizon + 1) * trace.variance_path - phi2)
    window = np.arange(950, 1050)
    c = 2.0 * np.max(window * resid[window - 1])
    for t in (1500, 2000):
        assert resid[t - 1] <= c / t


def test_bounded_deviation_when_horizon_doubles():
    rng = np.random.default_rng(31)
    done = 0
    while done < 3:
        env = random_environment(rng, n=5, k=3)
        star = best_set(env)
        if len(star.indices) != 3:
            continue
        done += 1
        prior = random_pd_prior(rng, 3)
        trace = simulate(env, prior, 2000)
        counts = trace.counts_matrix()
        ts = np.arange(1, 2001)[:, None]
        dev = np.abs(counts - star.lambda_star.weights[None, :] * ts)
        first = dev[499:1000].max()
        second = dev[999:2000].max()
        assert second <= first + 1.0


def test_trace_invariants_batch(example2, example2_trap_prior):
    trace = simulate(example2, example2_trap_prior, 100, intervention=BatchAllocate(3))
    assert trace.final_counts.total == 300
    assert trace.frequency_estimate.weights.sum() == pytest.approx(1.0)
    assert all(choice.sum() == 3 for choice in trace.choices)


def test_trap_boundary_independent_of_target_prior_variance(example2):
    """The confounder-variance boundary does not move with the target's prior variance.

    First-period comparison with prior diag(v, w): the confounded source wins iff
    (3v)^2 / (1 + 9v + w) >= v^2 / (1 + v), which simplifies to w <= 8 with every
    v term cancelling. The reference scenarios therefore pin v = 1 without loss.
    """
    for v in (0.5, 1.0, 2.0):
        below = simulate(example2, GaussianPrior.from_diagonal([v, 7.9]), 600)
        above = simulate(example2, GaussianPrior.from_diagonal([v, 8.1]), 600)
        assert below.classification.kind == "efficient"
        assert above.classification.kind == "trap"


def test_undetermined_for_multi_direction_objective():
    env = Environment([[1, 0], [0, 1]], objective=[(1.0, [1, 0]), (1.0, [0, 1])])
    trace = simulate(env, GaussianPrior.from_diagonal([1, 1]), 50)
    assert trace.classification.kind == "undetermined"
    assert trace.inefficiency_ratio is None



def reference_compositions(total, parts, block):
    """Stars and bars through itertools: ``parts - 1`` bar positions among
    ``total + parts - 1`` slots, in lexicographic order, ``block`` splits at a time."""
    slots = total + parts - 1
    bars = chain.from_iterable(combinations(range(slots), parts - 1))
    remaining = math.comb(slots, parts - 1)
    while remaining:
        m = min(remaining, block)
        remaining -= m
        positions = np.fromiter(islice(bars, m * (parts - 1)), np.int64).reshape(m, parts - 1)
        yield np.diff(positions, axis=1, prepend=-1, append=slots) - 1


def test_compositions_small_blocks_match_one_block(monkeypatch, precise_info, precise_info_prior):
    cases = [(t, n) for t in range(15) for n in range(1, 7)]
    whole = {(t, n): np.vstack(list(compositions(t, n))) for t, n in cases}
    expected = optimal_division(precise_info, precise_info_prior, 9)
    monkeypatch.setattr(dynamics, "COMPOSITION_BLOCK", 7)
    for (t, n), rows in whole.items():
        reference = np.vstack(list(reference_compositions(t, n, 7)))
        assert rows.dtype == reference.dtype and np.array_equal(rows, reference)
        blocks = list(compositions(t, n))
        assert max(len(b) for b in blocks) <= 7
        assert len(blocks) > 1 or len(rows) <= 7
        assert np.array_equal(np.vstack(blocks), rows)
        assert len(rows) == math.comb(t + n - 1, n - 1)
        assert np.all(rows.sum(axis=1) == t)
        assert np.array_equal(np.lexsort(rows.T[::-1]), np.arange(len(rows)))
        if n == 2:  # runs of first parts, not one row per block
            assert len(blocks) == math.ceil((t + 1) / 7)
    # the oracle keeps its answer and its tie order when the blocks shrink
    result = optimal_division(precise_info, precise_info_prior, 9)
    assert np.array_equal(result.counts.counts, expected.counts.counts)
    assert result.value == expected.value
    assert result.num_optima == expected.num_optima


def unpacked_block_count(total, parts, block):
    """Blocks of a generator that fixes the first part one value at a time once the splits
    of more than two parts overflow a block, and otherwise yields runs of at most ``block``
    first parts: the count to beat by packing first parts into blocks."""
    if parts == 1:
        return 1
    if parts > 2 and math.comb(total + parts - 1, parts - 1) > block:
        return sum(unpacked_block_count(total - f, parts - 1, block) for f in range(total + 1))
    return math.ceil((total + 1) / block)


def test_compositions_pack_first_parts_into_blocks(monkeypatch):
    assert [len(list(compositions(t, 5))) for t in (34, 60)] == [6, 51]
    assert [unpacked_block_count(t, 5, 131_072) for t in (34, 60)] == [1, 61]
    monkeypatch.setattr(dynamics, "COMPOSITION_BLOCK", 7)
    packed = unpacked = 0
    for t in range(15):
        for n in range(1, 7):
            sizes = [len(b) for b in compositions(t, n)]
            assert max(sizes) <= 7
            assert len(sizes) <= unpacked_block_count(t, n, 7)
            packed += len(sizes)
            unpacked += unpacked_block_count(t, n, 7)
    assert packed < unpacked


def test_run_refuses_a_horizon_above_the_bound_before_any_work(
    monkeypatch, example2, example2_trap_prior
):
    monkeypatch.setattr(dynamics, "MAX_HORIZON", 5)
    assert len(simulate(example2, example2_trap_prior, 5).variance_path) == 5

    def no_engine(*args, **kwargs):
        raise AssertionError("the engine was built")

    monkeypatch.setattr(dynamics, "_Engine", no_engine)
    with pytest.raises(ValueError, match="horizon must be >= 1 and at most 5, not 6"):
        simulate(example2, example2_trap_prior, 6)


def test_auto_free_signals_is_not_a_single_run_intervention(example2, example2_trap_prior):
    with pytest.raises(TypeError, match="escalate_gamma"):
        simulate(example2, example2_trap_prior, 10, intervention=AutoFreeSignals(1.0))
    with pytest.raises(TypeError, match="escalate_gamma"):
        greedy_step(example2, example2_trap_prior, [0, 0, 0], intervention=AutoFreeSignals(1.0))


# A horizon that is a bool or not an integer.
_NOT_INTEGERS = {
    "bool": True,
    "fraction": 2.5,
    "integral_float": 3.0,
    "numpy_float": np.float64(3.0),
    "string": "3",
}

_ABOVE_THE_LARGEST_FLOAT = "at most 1.7976931348623157e[+]308"

# A free-signal norm that the gamma0 rule refuses.
_NOT_GAMMAS = {"bool": True, "string": "3", "square_overflow": 1e200}

# A realization seed outside the scenario file's rule, integers 0..2**64 - 1, and the refusal.
_SEED_RANGE = "seed must be >= 0 and at most 18446744073709551615, not "
_NOT_SEEDS = {
    "bool": (True, "seed must be a non-bool integer"),
    "fraction": (2.5, "seed must be a non-bool integer"),
    "negative": (-1, _SEED_RANGE + "-1"),
    "above_64_bits": (2**64, _SEED_RANGE + "18446744073709551616"),
}
_SEEDED_RUNS = {
    "simulate": lambda env, prior, seed: simulate(
        env, prior, 10, sample_realizations=True, seed=seed
    ),
    "escalate": lambda env, prior, seed: escalate_gamma(
        env, prior, 10, 1.0, sample_realizations=True, seed=seed
    ),
}


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda env, prior: TieBreak("highest"), ValueError, "unknown tie-break kind 'highest'"),
        (lambda env, prior: TieBreak("random"), ValueError, "random tie-break needs a seed"),
        (lambda env, prior: PrecisionReplicate(0), ValueError, "batch must be >= 1"),
        (lambda env, prior: BatchAllocate(0), ValueError, "batch must be >= 1"),
        (
            lambda env, prior: FreeSignals(([1.0, np.nan],)),
            ValueError,
            "free-signal vector must hold finite numbers",
        ),
        (lambda env, prior: next(compositions(-1, 2)), ValueError, "total must be >= 0"),
        (lambda env, prior: next(compositions(True, 2)), ValueError, "total must be a non-bool"),
        (lambda env, prior: next(compositions(5, 3.0)), ValueError, "parts must be a non-bool"),
        (lambda env, prior: simulate(env, prior, horizon=0), ValueError, "horizon must be >= 1"),
        (
            lambda env, prior: simulate(env, prior, 10, intervention=FreeSignals(([1.0, 0, 0],))),
            ValueError,
            "must match the state count",
        ),
        (lambda env, prior: design_free_signals(env, 0), ValueError, "gamma0 must be positive"),
        (lambda env, prior: escalate_gamma(env, prior, 10, gamma0=0), ValueError, "gamma0 must"),
        (lambda env, prior: escalate_gamma(env, prior, 10, True), ValueError, "gamma0 must"),
        (lambda env, prior: escalate_gamma(env, prior, 10, 1e200), ValueError, "gamma0 must"),
        (lambda env, prior: AutoFreeSignals(True), ValueError, "gamma0 must be a finite number"),
        (lambda env, prior: AutoFreeSignals("3"), ValueError, "gamma0 must be a finite number"),
        (lambda env, prior: TieBreak.random(2.7), ValueError, "seed must be a non-bool integer"),
        (lambda env, prior: TieBreak.random(True), ValueError, "seed must be a non-bool integer"),
        (lambda env, prior: TieBreak.random(-1), ValueError, "seed must be >= 0"),
        (lambda env, prior: TieBreak("random", 2.5), ValueError, "seed must be a non-bool integer"),
        (
            lambda env, prior: simulate(env, prior, 10, intervention=FreeSignals(([1e200, 0],))),
            NotPositiveDefiniteError,
            "non-finite entries",
        ),
        (
            lambda env, prior: greedy_step(
                env, prior, [0] * 3, intervention=FreeSignals(([1e200, 0],))
            ),
            NotPositiveDefiniteError,
            "non-finite entries",
        ),
        (
            lambda env, prior: simulate(env, GaussianPrior.from_diagonal([1.0] * 3), 10),
            DimensionError,
            "prior has 3 states, environment has 2",
        ),
        (
            lambda env, prior: greedy_step(env, GaussianPrior.from_diagonal([1.0] * 3), [0] * 3),
            DimensionError,
            "prior has 3 states, environment has 2",
        ),
    ]
    + [
        (lambda env, prior, h=h: simulate(env, prior, h), ValueError, "horizon must be a non-bool")
        for h in _NOT_INTEGERS.values()
    ]
    + [
        (lambda env, prior, kind=kind, b=b: kind(b), ValueError, "batch must be a non-bool")
        for kind in (PrecisionReplicate, BatchAllocate)
        for b in _NOT_INTEGERS.values()
    ]
    + [
        (lambda env, prior, kind=kind: kind(10**400), ValueError, _ABOVE_THE_LARGEST_FLOAT)
        for kind in (PrecisionReplicate, BatchAllocate)
    ]
    + [
        (lambda env, prior, g=g: design_free_signals(env, g), ValueError, "gamma0 must")
        for g in _NOT_GAMMAS.values()
    ]
    + [
        (lambda env, prior, run=run, s=s: run(env, prior, s), ValueError, fragment)
        for run in _SEEDED_RUNS.values()
        for s, fragment in _NOT_SEEDS.values()
    ],
    ids=[
        "tie_break_kind",
        "random_without_seed",
        "replicate_zero",
        "batch_allocate_zero",
        "free_signal_nan",
        "compositions_negative",
        "compositions_bool_total",
        "compositions_float_parts",
        "horizon_zero",
        "free_signal_length",
        "design_gamma_zero",
        "escalate_gamma0_zero",
        "escalate_gamma0_bool",
        "escalate_gamma0_square_overflow",
        "auto_free_signals_bool",
        "auto_free_signals_string",
        "tie_break_seed_fraction",
        "tie_break_seed_bool",
        "tie_break_seed_negative",
        "tie_break_constructor_seed_fraction",
        "simulate_overflowing_free_signal",
        "greedy_step_overflowing_free_signal",
        "simulate_prior_size",
        "greedy_step_prior_size",
    ]
    + [f"horizon_{kind}" for kind in _NOT_INTEGERS]
    + [f"{name}_{kind}" for name in ("replicate", "batch_allocate") for kind in _NOT_INTEGERS]
    + ["replicate_overflowing", "batch_allocate_overflowing"]
    + [f"design_gamma_{kind}" for kind in _NOT_GAMMAS]
    + [f"{name}_seed_{kind}" for name in _SEEDED_RUNS for kind in _NOT_SEEDS],
)
def test_dynamics_refusals(call, error, fragment, example2, example2_trap_prior):
    with pytest.raises(error, match=fragment) as info:
        call(example2, example2_trap_prior)
    assert type(info.value) is error


def test_simulate_takes_numpy_integer_horizons(example2, example2_trap_prior):
    want = simulate(example2, example2_trap_prior, 200).variance_path
    for horizon in (np.int64(200), np.uint8(200)):
        got = simulate(example2, example2_trap_prior, horizon).variance_path
        assert got.tobytes() == want.tobytes()


def test_compositions_take_numpy_integers():
    # A uint8 total used to wrap (OverflowError) in the block arithmetic.
    want = [b.tolist() for b in compositions(5, 3)]
    for total, parts in ((np.uint8(5), 3), (np.int64(5), np.uint8(3))):
        assert [b.tolist() for b in compositions(total, parts)] == want


def test_batch_ties_go_to_the_lexicographically_smallest_count_vector():
    # Sources 0 and 1 are copies. The lowest-index rule picks source 0 of a single pick,
    # but a batch's candidates are count vectors in lexicographic order, so it picks the
    # smallest tied vector: all of the batch on source 1.
    env = Environment([[1, 0], [1, 0], [0, 1]])
    prior = GaussianPrior.from_diagonal([1.0, 1.0])
    assert greedy_step(env, prior, [0, 0, 0]) == 0
    assert simulate(env, prior, 3).choices == [0, 0, 0]
    for batch, want in ((1, [0, 1, 0]), (2, [0, 2, 0])):
        got = greedy_step(env, prior, [0, 0, 0], intervention=BatchAllocate(batch))
        assert got.tolist() == want
        run = simulate(env, prior, 3, intervention=BatchAllocate(batch))
        assert [c.tolist() for c in run.choices] == [want] * 3
