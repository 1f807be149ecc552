"""The engine's period loop against the scipy ``cho_factor``/``cho_solve`` step it replaces.

``_Engine.advance`` runs a stretch of periods in one frame; ``simulate`` calls it up
to the half mark and then for the rest, and ``greedy_step``'s ``step()`` is one
period of it. A single-source period makes one LAPACK ``posv`` call against the
targets and source rows stacked, gets the target variances and the quadratic
forms from one contraction, skips products by 1 and sums over one target, and
finds a unique winner with one count. These tests run a reference copy of the
plain scipy-wrapper step, one period at a time with its own copy of the tie rule,
on the same engine state, and require identical choices, bit-identical variance
paths and precisions, the same counts and tie RNG state, and the same
``NotPositiveDefiniteError`` on bad precisions. Where ``simulate`` or
``greedy_step`` runs under the reference, the reference takes ``advance``'s place
and must be seen to run. The solve helper itself must equal
``cho_solve(cho_factor(...))`` byte for byte, and a run must make exactly one
solve per period. The loop's C entry points (``c_einsum``, ``count_nonzero``) and
one target's ``dot`` must equal the numpy wrappers and the matmul they stand for,
byte for byte. A precision whose finite entries have an overflowing sum steps
like the reference; one that overflows is refused, and so is an inf or NaN entry
in either triangle or on the diagonal. The loop skips its finiteness test while
no entry can have overflowed, so a precision that overflows after those periods
must still be refused in the period the reference refuses it. A replicated run,
whose periods add per-run increments, matches the reference byte for byte after
every period.

The batch-allocation periods use candidate increments built once per run. They
are held to a copy of the per-period formulation that rebuilds them every
period, ties near the tolerance included, and must make one batched solve per
period. They return read-only rows of the run's candidates, so a caller cannot
change the run through them.
"""

import math

import numpy as np
import pytest
from scipy.linalg import _flapack, cho_factor, cho_solve

from infotrap import (
    BatchAllocate,
    Environment,
    FreeSignals,
    GaussianPrior,
    NoIntervention,
    NotPositiveDefiniteError,
    PrecisionReplicate,
    TieBreak,
    bundled_scenario,
    bundled_scenario_names,
    design_free_signals,
    grad_posterior_variance,
    greedy_step,
    parse_scenario,
    posterior_variance,
    run_scenario,
    simulate,
)
from infotrap import dynamics, gaussian
from infotrap.gaussian import _signal_precision, _solve_spd
from infotrap.scenarios import scenario_to_dict

from conftest import random_pd_prior

FAST_ADVANCE = dynamics._Engine.advance

# The reference's own copy of the tie tolerance, so a change to the engine's shows.
TIE_TOL = 1e-12


def reference_pick(values, rng):
    """Index of the minimum of ``values``; values within ``TIE_TOL`` (relative) of it are
    tied, and the lowest index wins, or ``rng`` chooses among them."""
    best = float(values.min())
    tied = np.nonzero(values <= best + TIE_TOL * max(abs(best), 1e-300))[0]
    if len(tied) == 1 or rng is None:
        return int(tied[0])
    return int(rng.choice(tied))


def _count_ties(values, ties):
    if ties is not None:
        best = float(values.min())
        ties.append(int(np.sum(values <= best + TIE_TOL * max(abs(best), 1e-300)) > 1))


def reference_batch_step(self, ties=None):
    """The batch-allocation step rebuilding every candidate precision each period."""
    env = self.env
    comps = self._comps
    precisions = self.precision[None, :, :] + np.einsum(
        "mn,nij->mij", comps.astype(float), env.source_outers
    )
    dirs = env.directions
    rhs = np.broadcast_to(dirs.T, (len(comps),) + dirs.T.shape)
    sols = np.linalg.solve(precisions, rhs)
    per_target = np.einsum("rk,mkr->mr", dirs, sols)
    values = sum(per_target[:, r] * w for r, w in enumerate(env.weights))  # targets in order
    _count_ties(values, ties)
    j = reference_pick(values, self.tie_rng)
    choice = comps[j]
    self.counts += choice
    self.precision += np.einsum("n,nij->ij", choice.astype(float), env.source_outers)
    return np.array(choice), float(values[j])


def reference_step(self, ties=None):
    """The engine step as written with scipy's wrappers, recomputing every invariant."""
    if self._comps is not None:
        return reference_batch_step(self, ties)
    env = self.env
    factor = cho_factor(self.precision, lower=True)
    dirs = env.directions
    sols = cho_solve(factor, dirs.T)
    current = float(np.dot(env.weights, np.einsum("rk,kr->r", dirs, sols)))
    gammas = env.coefficients @ sols
    quad = np.einsum("nk,kn->n", env.coefficients, cho_solve(factor, env.coefficients.T))
    m = float(self.replication)
    reductions = ((gammas**2) @ env.weights) * m / (1.0 + m * quad)
    values = -reductions
    _count_ties(values, ties)
    i = reference_pick(values, self.tie_rng)
    self.counts[i] += 1
    self.precision += m * env.source_outers[i]
    return int(i), current - float(reductions[i])


def reference_advance(self, values, ties=None):
    """``_Engine.advance`` as one reference step per period."""
    choices = []
    for t in range(len(values)):
        choice, values[t] = reference_step(self, ties)
        choices.append(choice)
    return choices


def _both(monkeypatch, run, ties=None):
    """``run()`` with the engine's loop, then with the reference in its place, which
    ``simulate`` and ``greedy_step`` must then have called."""
    fast = run()
    calls = []

    def reference(self, values):
        calls.append(len(values))
        return reference_advance(self, values, ties)

    with monkeypatch.context() as m:
        m.setattr(dynamics._Engine, "advance", reference)
        ref = run()
    assert sum(calls) >= 1
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
        for intervention in (NoIntervention(), PrecisionReplicate(10), BatchAllocate(3)):
            fast, ref = _both(
                monkeypatch,
                lambda: greedy_step(example2, example2_trap_prior, counts, intervention=intervention),
            )
            assert np.array_equal(fast, ref)


def fast_run(engine, horizon):
    """``horizon`` periods of the engine's loop, in the two calls ``simulate`` makes:
    (choices, variance path)."""
    values = np.empty(horizon)
    choices = FAST_ADVANCE(engine, values[: horizon // 2])
    choices += FAST_ADVANCE(engine, values[horizon // 2 :])
    return choices, values


def _engine_run(run, env, prior, intervention, rule, horizon):
    """``run(engine, horizon)`` on a fresh engine: choices, variance bytes, counts,
    precision bytes and the tie RNG state after the run."""
    rng = rule.make_rng()
    engine = dynamics._Engine(env, prior, intervention, rng)
    choices, values = run(engine, horizon)
    return (
        [np.asarray(c).tolist() for c in choices],
        values.tobytes(),
        engine.counts.tolist(),
        engine.precision.tobytes(),
        None if rng is None else rng.bit_generator.state,
    )


def _assert_engines_agree(env, prior, intervention, rule, horizon=80) -> int:
    """The engine's loop and the reference step agree on a run; returns the number of
    tied periods."""
    ties: list[int] = []

    def reference_run(engine, horizon):
        values = np.empty(horizon)
        return reference_advance(engine, values, ties), values

    fast = _engine_run(fast_run, env, prior, intervention, rule, horizon)
    ref = _engine_run(reference_run, env, prior, intervention, rule, horizon)
    assert fast == ref
    return sum(ties)


RULES = (TieBreak.lowest_index(), TieBreak.random(7))


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.kind)
@pytest.mark.parametrize("intervention", [NoIntervention(), PrecisionReplicate(3)], ids=str)
def test_exact_ties_from_duplicated_rows(rule, intervention):
    # Sources 0 and 2, and 1 and 3, are the same row: every pick between them is a tie.
    env = Environment([[1.0, 0.5], [0.0, 1.0], [1.0, 0.5], [0.0, 1.0], [2.0, -1.0]])
    prior = GaussianPrior.from_diagonal([1.0, 2.0])
    assert _assert_engines_agree(env, prior, intervention, rule) >= 40


def _near_tie_env(gap):
    """Two one-state sources whose first-period reductions differ by ``gap`` relative:
    with unit prior precision a source c drops the variance by c^2 / (1 + c^2)."""
    c = np.sqrt((1.0 + gap) / (1.0 - gap))
    env = Environment([[1.0], [c]])
    prior = GaussianPrior.from_diagonal([1.0])
    r = np.array([1.0, c * c]) / (1.0 + np.array([1.0, c * c]))
    assert (r[1] - r[0]) / r[1] == pytest.approx(gap, rel=1e-3)
    return env, prior


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.kind)
@pytest.mark.parametrize("gap,tied", [(0.9 * TIE_TOL, True), (1.1 * TIE_TOL, False)])
def test_near_ties_at_the_tolerance(rule, gap, tied):
    env, prior = _near_tie_env(gap)
    choices, _, _, _, rng_state = _engine_run(fast_run, env, prior, NoIntervention(), rule, 1)
    fresh = rule.make_rng()
    fresh_state = None if fresh is None else fresh.bit_generator.state
    if tied and rule.kind == "random":
        assert rng_state != fresh_state  # the tie drew from the RNG
    else:
        assert choices == [0 if tied else 1] and rng_state == fresh_state
    assert _assert_engines_agree(env, prior, NoIntervention(), rule, 1) == int(tied)
    _assert_engines_agree(env, prior, NoIntervention(), rule, 40)


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.kind)
@pytest.mark.parametrize("gap,tied", [(0.9 * TIE_TOL, True), (1.1 * TIE_TOL, False)])
def test_batch_near_ties_at_the_tolerance(rule, gap, tied):
    # One observation of source c leaves the variance 1 / (1 + c^2): the candidates' variances
    # differ by gap / (1 - gap) relative. The better source comes second, as candidate
    # [1, 0] after [0, 1], so a tie under the lowest index picks the worse one.
    env, prior = _near_tie_env(gap)
    env = Environment(env.coefficients[::-1])
    batch = BatchAllocate(1)
    choices, _, _, _, rng_state = _engine_run(fast_run, env, prior, batch, rule, 1)
    fresh = rule.make_rng()
    fresh_state = None if fresh is None else fresh.bit_generator.state
    if tied and rule.kind == "random":
        assert rng_state != fresh_state  # the tie drew from the RNG
    else:
        assert choices == [[0, 1] if tied else [1, 0]] and rng_state == fresh_state
    assert _assert_engines_agree(env, prior, batch, rule, 1) == int(tied)
    _assert_engines_agree(env, prior, batch, rule, 40)


def test_batch_choices_cannot_change_the_run(example2, example2_trap_prior):
    # A batch step returns a read-only row of the run's candidates, not a copy.
    batch = BatchAllocate(3)
    trace = simulate(example2, example2_trap_prior, 30, intervention=batch)
    expected = [c.tolist() for c in trace.choices]
    final, matrix = trace.final_counts.counts.tolist(), trace.counts_matrix().tolist()
    with pytest.raises(ValueError, match="read-only"):
        trace.choices[3][0] += 1
    assert [c.tolist() for c in trace.choices] == expected
    assert trace.final_counts.counts.tolist() == final
    assert trace.counts_matrix().tolist() == matrix
    engine = dynamics._Engine(example2, example2_trap_prior, batch, None)
    candidates = engine._comps.tolist()
    steps = [engine.step() for _ in range(30)]
    for choice, _ in steps[:5]:
        with pytest.raises(ValueError, match="read-only"):
            choice[:] = 0
    assert engine._comps.tolist() == candidates
    assert [c.tolist() for c, _ in steps] == expected
    assert np.array([v for _, v in steps]).tobytes() == trace.variance_path.tobytes()
    assert engine.counts.tolist() == final


EXAMPLE3 = [[10, 1, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
BRANCH_CASES = {
    "replicate-2": (Environment(EXAMPLE3), PrecisionReplicate(2)),
    "replicate-10": (Environment(EXAMPLE3), PrecisionReplicate(10)),
    "weighted-target": (Environment(EXAMPLE3, [(2.5, [1.0, 0.0, 0.0, 0.0])]), NoIntervention()),
    "weighted-replicated": (
        Environment(EXAMPLE3, [(0.3, [1.0, 1.0, 0.0, 0.0])]),
        PrecisionReplicate(2),
    ),
    "two-targets": (
        Environment(EXAMPLE3, [(1.0, [1.0, 0.0, 0.0, 0.0]), (0.7, [0.0, 0.0, 1.0, -1.0])]),
        NoIntervention(),
    ),
    "two-targets-replicated": (
        Environment(EXAMPLE3, [(1.0, [1.0, 0.0, 0.0, 0.0]), (0.7, [0.0, 0.0, 1.0, -1.0])]),
        PrecisionReplicate(10),
    ),
    "one-state": (Environment([[1.0], [-2.0], [0.5], [2.0]]), NoIntervention()),
    "one-state-weighted": (
        Environment([[1.0], [-2.0], [0.5]], [(3.0, [-1.5])]),
        PrecisionReplicate(2),
    ),
    "batch-1": (Environment(EXAMPLE3), BatchAllocate(1)),
    "batch-3": (Environment(EXAMPLE3), BatchAllocate(3)),
    "batch-two-targets": (
        Environment(EXAMPLE3, [(1.0, [1.0, 0.0, 0.0, 0.0]), (0.7, [0.0, 0.0, 1.0, -1.0])]),
        BatchAllocate(2),
    ),
    "batch-one-state": (Environment([[1.0], [-2.0], [0.5], [2.0]]), BatchAllocate(12)),
}


def _wide_env(n, k, targets):
    rng = np.random.default_rng(n * k + targets)
    objective = [(float(rng.uniform(0.5, 2.0)), rng.standard_normal(k)) for _ in range(targets)]
    return Environment(rng.standard_normal((n, k)), objective)


# Wide sizes: the stacked right-hand side has R + N columns.
BRANCH_CASES.update(
    {
        f"wide-{n}x{k}-targets{t}-replicate{m}": (
            _wide_env(n, k, t),
            NoIntervention() if m == 1 else PrecisionReplicate(m),
        )
        for n, k in ((13, 5), (50, 10))
        for t in (1, 2)
        for m in (1, 3)
    }
)


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.kind)
@pytest.mark.parametrize("case", sorted(BRANCH_CASES))
def test_fast_step_branches_match_reference(case, rule):
    env, intervention = BRANCH_CASES[case]
    k = env.num_states
    diagonal = GaussianPrior.from_diagonal(np.arange(1.0, k + 1))
    correlated = random_pd_prior(np.random.default_rng(len(case)), k)
    for prior in (diagonal, correlated):
        _assert_engines_agree(env, prior, intervention, rule)


# Candidate allocations per case in the random batch mix, to bound the suite's time.
BATCH_CANDIDATES = 2000


def _random_batch_case(rng, i):
    """N 1-8, K 1-5, B 1-12 with at most ``BATCH_CANDIDATES`` candidates; integer rows
    with a duplicated row (exact ties) on even ``i``, and two targets on every third."""
    n = int(rng.integers(1, 9))
    k = int(rng.integers(1, 6))
    batch = int(rng.integers(1, 13))
    while math.comb(batch + n - 1, n - 1) > BATCH_CANDIDATES:
        batch -= 1
    if i % 2:
        coefficients = rng.standard_normal((n, k))
    else:
        coefficients = rng.integers(-2, 3, size=(n, k)).astype(float)
        coefficients[0, 0] = 1.0
        coefficients[-1] = coefficients[0]
    objective = None
    if i % 3 == 0:
        objective = [(float(rng.uniform(0.5, 2.0)), rng.standard_normal(k)) for _ in range(2)]
    env = Environment(coefficients, objective)
    prior = random_pd_prior(rng, k) if i % 2 else GaussianPrior.from_diagonal(rng.integers(1, 4, k))
    rule = TieBreak.random(i) if i % 4 < 2 else TieBreak.lowest_index()
    return env, prior, BatchAllocate(batch), rule


def test_batch_step_matches_per_period_reference():
    rng = np.random.default_rng(20261018)
    tied = 0
    for i in range(120):
        env, prior, intervention, rule = _random_batch_case(rng, i)
        tied += _assert_engines_agree(env, prior, intervention, rule, horizon=25)
    # The integer cases do exercise tie resolution.
    assert tied >= 100


def test_batch_run_builds_increments_once_and_solves_once_per_period(
    monkeypatch, example2, example2_trap_prior
):
    # The step calls solve's gufunc itself and never np.linalg.solve.
    gesvs, increments, solves = [], [], []
    gesv, einsum, solve = gaussian._gesv, np.einsum, np.linalg.solve

    def counted_gesv(*args, **kwargs):
        gesvs.append(1)
        return gesv(*args, **kwargs)

    def counted_einsum(subscripts, *args, **kwargs):
        if subscripts == "mn,nij->mij":
            increments.append(1)
        return einsum(subscripts, *args, **kwargs)

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(gaussian, "_gesv", counted_gesv)
    monkeypatch.setattr(np, "einsum", counted_einsum)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    for horizon in (1, 37):
        gesvs.clear()
        increments.clear()
        solves.clear()
        simulate(example2, example2_trap_prior, horizon, intervention=BatchAllocate(3))
        assert (len(gesvs), len(increments), len(solves)) == (horizon, 1, 0)


def test_single_source_run_does_not_call_scipy_wrappers(monkeypatch, example2, example2_trap_prior):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy wrapper called")

    monkeypatch.setattr(dynamics, "cho_factor", refuse)
    monkeypatch.setattr(dynamics, "cho_solve", refuse)
    simulate(example2, example2_trap_prior, 50, intervention=NoIntervention())
    simulate(example2, example2_trap_prior, 50, intervention=FreeSignals((np.array([0.0, 2.0]),)))


def test_solve_is_bitwise_cho_solve():
    rng = np.random.default_rng(11)
    for k in range(1, 9):
        for _ in range(20):
            a = rng.standard_normal((k + 2, k))
            precision = a.T @ a + 0.1 * np.eye(k)
            factor = cho_factor(precision, lower=True)
            # The step's right-hand side: R + N stacked rows, transposed to Fortran order.
            stacked = rng.standard_normal((int(rng.integers(2, 16)), k)).T
            assert stacked.flags.f_contiguous
            for rhs in (rng.standard_normal((k, 1)), stacked, rng.standard_normal(k)):
                expected = cho_solve(factor, rhs)
                got = _solve_spd(precision, rhs)
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()


def test_single_source_run_makes_one_solve_per_period(monkeypatch, example2, example2_trap_prior):
    def refuse(*args, **kwargs):
        raise AssertionError("potrs called")

    calls = []
    posv = gaussian._posv

    def counted(*args, **kwargs):
        calls.append(1)
        return posv(*args, **kwargs)

    example2_trap_prior.precision  # cached before counting: it is computed by posv
    monkeypatch.setattr(gaussian, "_posv", counted)
    # cho_solve and get_lapack_funcs look potrs up in scipy's LAPACK module at call time;
    # no engine module may hold it from import time.
    potrs = _flapack.dpotrs
    assert not any(v is potrs for m in (gaussian, dynamics) for v in vars(m).values())
    monkeypatch.setattr(_flapack, "dpotrs", refuse)
    for horizon in (1, 37):
        calls.clear()
        simulate(example2, example2_trap_prior, horizon)
        assert len(calls) == horizon


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
    message = "leading minor" if case == "singular" else "non-finite"
    for fn in (posterior_variance, grad_posterior_variance, greedy_step):
        with pytest.raises(NotPositiveDefiniteError, match=message):
            fn(env, prior, counts)


def test_engine_refuses_bad_precision_in_a_run():
    env = Environment([[1.0, 0.0], [0.0, 1.0]])
    engine = dynamics._Engine(env, GaussianPrior.from_diagonal([1.0, 1.0]), NoIntervention(), None)
    for bad in (np.nan, np.inf, -1.0):
        engine.precision[1, 1] = bad
        with pytest.raises(NotPositiveDefiniteError):
            engine.step()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=str)
@pytest.mark.parametrize("where", ["upper", "lower", "diagonal"])
def test_engine_refuses_a_bad_entry_wherever_it_sits(where, bad):
    # posv reads only the lower triangle, so the finiteness test must see the upper one.
    env = Environment([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    prior = GaussianPrior.from_diagonal([1.0, 2.0, 3.0])
    cells = {
        "upper": [(0, 1), (0, 2), (1, 2)],
        "lower": [(1, 0), (2, 0), (2, 1)],
        "diagonal": [(0, 0), (1, 1), (2, 2)],
    }
    for cell in cells[where]:
        for intervention in (NoIntervention(), PrecisionReplicate(3)):
            engine = dynamics._Engine(env, prior, intervention, None)
            engine.step()
            engine.precision[cell] = bad
            with pytest.raises(NotPositiveDefiniteError, match="non-finite"):
                engine.step()


def test_non_finite_reduction_raises():
    # 1e150 has a finite square, but gamma^2 and quad overflow: a reduction is inf / inf.
    env = Environment([[1e150, 0.0], [0.0, 1.0], [1.0, 1.0]])
    prior = GaussianPrior.from_diagonal([1e10, 1.0])
    # simulate sets the error state itself: no numpy warning comes before the error.
    with pytest.raises(NotPositiveDefiniteError, match="variance reduction is not finite"):
        simulate(env, prior, 5)


def test_free_signals_fold_into_engine_precision(example2, example2_trap_prior):
    vectors = (np.array([0.0, 3.0]), np.array([0.5, 1.0]))
    engine = dynamics._Engine(example2, example2_trap_prior, FreeSignals(vectors), None)
    expected = np.array(example2_trap_prior.precision)
    for v in vectors:
        expected += np.outer(v, v)
    assert engine.precision.tobytes() == expected.tobytes()


def test_large_free_signals_give_a_report():
    # The covariance round trip of the free signals used to fail GaussianPrior's
    # conditioning check on example2 (NotPositiveDefiniteError at gamma 1000 * 2**10
    # and up). The escalation from gamma0 1000 now halves to an efficient run, so the
    # designed signals of its old last run, gamma 1000 * 2**20, run directly.
    doc = scenario_to_dict(bundled_scenario("example2"))
    doc["intervention"] = {"free_signals_auto": {"gamma0": 1000}}
    trace, report = run_scenario(parse_scenario(doc))
    assert (report["gamma_final"], report["classification"]) == (15.625, "efficient")
    signals = design_free_signals(bundled_scenario("example2").environment, 1000.0 * 2**20)
    doc["intervention"] = {"free_signals": [v.tolist() for v in signals]}
    trace, report = run_scenario(parse_scenario(doc))
    assert report["classification"] in ("efficient", "trap", "undetermined")
    assert len(trace.choices) == doc["horizon"]
    assert np.all(np.isfinite(trace.variance_path)) and np.all(trace.variance_path > 0)


def _engine_operands(rng, n, k, targets=1):
    """A random environment and the step's operands at a random engine state: the
    stacked target and source rows, and the solutions ``posv`` returns against them."""
    env = Environment(
        rng.standard_normal((n, k)),
        [(1.0, rng.standard_normal(k)) for _ in range(targets)],
    )
    engine = dynamics._Engine(env, random_pd_prior(rng, k), NoIntervention(), None)
    engine.precision += _signal_precision(env, rng.integers(0, 9, n).astype(float))
    return env, engine._rows, _solve_spd(engine.precision, engine._rhs)


def test_c_entry_points_match_numpy_wrappers():
    rng = np.random.default_rng(20261019)
    for _ in range(300):
        n, k, targets = int(rng.integers(1, 61)), int(rng.integers(1, 51)), int(rng.integers(1, 4))
        _, rows, sols = _engine_operands(rng, n, k, targets)
        got = dynamics.c_einsum("nk,kn->n", rows, sols)
        assert got.tobytes() == np.einsum("nk,kn->n", rows, sols).tobytes()
        scores = np.round(rng.standard_normal(n), int(rng.integers(0, 3)))
        near = scores >= scores.max() - 1e-12
        assert dynamics.count_nonzero(near) == np.count_nonzero(near)
        assert dynamics.count_nonzero(near) == int(near.sum())


def test_one_target_dot_is_bitwise_matmul():
    rng = np.random.default_rng(20261020)
    for _ in range(1000):
        n, k = int(rng.integers(1, 61)), int(rng.integers(1, 51))
        env, _, sols = _engine_operands(rng, n, k)
        got = env.coefficients.dot(sols[:, 0])
        expected = env.coefficients @ sols[:, :1]
        assert got.shape == (n,)
        assert got.tobytes() == expected.tobytes()


def _wide_case(rng, n, k, i):
    if i % 2:
        coefficients = rng.standard_normal((n, k))
    else:
        # Small integers, with a duplicated row: exact ties between sources.
        coefficients = rng.integers(-2, 3, size=(n, k)).astype(float)
        coefficients[0, 0] = 1.0
        coefficients[-1] = coefficients[0]
    objective = None
    if i % 3 == 0:
        objective = [(float(rng.uniform(0.5, 2.0)), rng.standard_normal(k)) for _ in range(2)]
    elif i % 3 == 1:
        objective = [(float(rng.uniform(0.5, 2.0)), rng.standard_normal(k))]
    env = Environment(coefficients, objective)
    prior = random_pd_prior(rng, k) if i % 2 else GaussianPrior.from_diagonal(rng.integers(1, 4, k))
    intervention = (NoIntervention(), PrecisionReplicate(3))[i // 4 % 2]
    rule = TieBreak.random(i) if i % 4 < 2 else TieBreak.lowest_index()
    return env, prior, intervention, rule


def test_fast_step_matches_reference_on_wide_shapes():
    rng = np.random.default_rng(20261021)
    tied = 0
    # The wide_sources benchmark's shapes: 10 to 13 sources over 4 or 5 states.
    for i in range(48):
        n, k = int(rng.integers(10, 14)), int(rng.integers(4, 6))
        tied += _assert_engines_agree(*_wide_case(rng, n, k, i), horizon=60)
    assert tied >= 100
    # Up to 60 sources over 50 states, at short horizons.
    for i, (n, k) in enumerate(((60, 50), (60, 7), (25, 50), (50, 50), (33, 20))):
        _assert_engines_agree(*_wide_case(rng, n, k, i), horizon=12)


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.kind)
@pytest.mark.parametrize("m", [3, 7, 2**40 + 1])
def test_replicated_step_matches_reference_after_every_period(m, rule):
    # The step's per-run increments m * c_i c_i' and the ones of 1 + m quad, against the
    # reference's per-period products, byte for byte after each period.
    rng = np.random.default_rng(20261022)
    for i in range(12):
        n, k = int(rng.integers(10, 14)), int(rng.integers(4, 6))
        env, prior, _, _ = _wide_case(rng, n, k, i)
        fast, ref = (
            dynamics._Engine(env, prior, PrecisionReplicate(m), rule.make_rng()) for _ in range(2)
        )
        for _ in range(40):
            (choices, values), (ref_choice, ref_value) = fast_run(fast, 1), reference_step(ref)
            assert choices == [ref_choice]
            assert values.tobytes() == np.float64(ref_value).tobytes()
            assert fast.precision.tobytes() == ref.precision.tobytes()
            assert fast.counts.tolist() == ref.counts.tolist()
        if rule.kind == "random":
            assert fast.tie_rng.bit_generator.state == ref.tie_rng.bit_generator.state


def test_precision_overflow_in_a_run_raises_non_finite():
    # State 0 has variance 1e-10, so one replicated observation of source 0 has a
    # finite reduction, but adds 1e290 * 1e20 to the precision: the next step refuses it.
    env = Environment([[1e10, 0.0], [0.0, 1.0]])
    prior = GaussianPrior.from_diagonal([1e-10, 1.0])
    replicate = PrecisionReplicate(10**290)
    assert simulate(env, prior, 1, intervention=replicate).choices == [0]
    with pytest.raises(NotPositiveDefiniteError, match="non-finite"):
        simulate(env, prior, 2, intervention=replicate)
    with pytest.raises(NotPositiveDefiniteError, match="non-finite"):
        greedy_step(env, prior, [1, 0], intervention=replicate)


def test_overflow_after_the_unchecked_periods_is_refused_in_its_period(monkeypatch):
    # Each pick of the one source adds c^2 = 1.6e307 to the precision, a finite increment:
    # the loop runs no finiteness test for its first 8e307 / 1.6e307 periods, and the
    # twelfth pick overflows. The reference refuses the precision in the period after it.
    env = Environment([[4e153, 0.0]])
    prior = GaussianPrior.from_diagonal([1.0, 1.0])
    reference = dynamics._Engine(env, prior, NoIntervention(), None)
    refused = 0
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
        while True:  # scipy's cho_factor refuses a non-finite precision
            reference_step(reference)
            refused += 1
    engine = dynamics._Engine(env, prior, NoIntervention(), None)
    assert 0 < engine._unchecked_periods() < refused == 12
    # One call spans the unchecked periods and the overflow: refused in the same period.
    with np.errstate(over="ignore"), pytest.raises(NotPositiveDefiniteError, match="non-finite"):
        engine.advance(np.empty(3 * refused))
    assert engine.counts.tolist() == [refused]
    fast, ref = _both(monkeypatch, lambda: simulate(env, prior, refused))
    _assert_same(fast, ref)
    for horizon in (refused + 1, 3 * refused):
        with pytest.raises(NotPositiveDefiniteError, match="non-finite"):
            simulate(env, prior, horizon)
    fast, ref = _both(monkeypatch, lambda: greedy_step(env, prior, [refused - 1]))
    assert fast == ref == 0
    with pytest.raises(NotPositiveDefiniteError, match="non-finite"):
        greedy_step(env, prior, [refused])


# Free signals put 1e308 + 1 on the first two diagonal entries: every entry is finite,
# but their sum overflows. States 2 (the target) and 3 (a confounder) keep unit variance.
HUGE_SUM_ENV = Environment(
    [
        [1e154, 0.0, 0.0, 0.0],
        [0.0, 1e154, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 3.0, 1.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.5, 0.0],
    ],
    [(1.0, [0.0, 0.0, 1.0, 0.0])],
)
HUGE_SUM_SIGNALS = FreeSignals(
    (np.array([1e154, 0.0, 0.0, 0.0]), np.array([0.0, 1e154, 0.0, 0.0]))
)


def test_precision_with_overflowing_sum_steps_like_the_reference(monkeypatch):
    prior = GaussianPrior.from_diagonal([1.0, 1.0, 1.0, 1.0])
    engine = dynamics._Engine(HUGE_SUM_ENV, prior, HUGE_SUM_SIGNALS, None)
    assert np.isfinite(engine.precision).all()
    with np.errstate(over="ignore"):
        assert not math.isfinite(engine.precision.sum())
    # simulate and greedy_step set the error state: no error and no warning.
    for rule in RULES:
        fast, ref = _both(
            monkeypatch,
            lambda: simulate(HUGE_SUM_ENV, prior, 40, rule=rule, intervention=HUGE_SUM_SIGNALS),
        )
        _assert_same(fast, ref)
        assert len(set(fast.choices)) > 1
    fast, ref = _both(
        monkeypatch,
        lambda: greedy_step(HUGE_SUM_ENV, prior, [1, 1, 0, 0, 0, 0], intervention=NoIntervention()),
    )
    assert fast == ref == 3
    # The engine state after each step, byte for byte, in the run's error state.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for rule in RULES:
            _assert_engines_agree(HUGE_SUM_ENV, prior, HUGE_SUM_SIGNALS, rule, horizon=40)
