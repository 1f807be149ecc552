"""The batched one-scan spanning analysis against the per-subset, multi-scan reference.

``spanning._test_subsets`` tests a stack of same-size subsets with one SVD and one
``_represent`` call; ``_spanning_subsets`` passes it each chunk of the scan and
``beta_phi_lambda`` a stack of one set. ``check_assumptions`` reads every subspace
check from the scan's one list of spanning subsets, ``is_subspace_optimal`` filters
one enumeration by the closure, and ``subspace_closure`` makes one ``_represent`` call
with each source as its own right-hand side. The reference below tests and solves
subset by subset (``_independent`` and ``_solve_representation``), rescans the subsets
of each closure and tests the closure source by source with the same span test; the
outputs must be equal bit for bit, not close.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from scipy.linalg import qr

from infotrap import (
    Environment,
    SpanError,
    best_set,
    check_assumptions,
    enumerate_minimal_spanning_sets,
    is_subspace_optimal,
    spanning,
    subspace_closure,
)
from infotrap.spanning import PHI_TIE_TOL, SPAN_TOL, AssumptionReport, phi_tied


def _independent(rows):
    sv = np.linalg.svd(rows, compute_uv=False)
    return sv.size > 0 and sv[-1] > SPAN_TOL * sv[0]


def _solve_representation(rows, u):
    """Coefficients beta with rows' beta = u, or None when u is outside the span.

    A representation that is not finite does not span: an overflowing beta gives a
    residual of inf or NaN, which fails the test without a warning.
    """
    beta, *_ = np.linalg.lstsq(rows.T, u, rcond=None)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.linalg.norm(rows.T @ beta - u, np.inf)
    tol = SPAN_TOL * max(1.0, float(np.linalg.norm(u, np.inf)))
    if not residual <= tol or not np.isfinite(beta).all():
        return None
    return beta


def _ref_beta_phi_lambda(env, subset):
    """``beta_phi_lambda`` for a sorted tuple of distinct, in-range indices."""
    rows = env.coefficients[list(subset)]
    if not _independent(rows):
        raise SpanError(f"sources {subset} are linearly dependent, not minimally spanning")
    beta = _solve_representation(rows, spanning._target(env))
    if beta is None:
        raise SpanError(f"sources {subset} do not span the target direction")
    if np.min(np.abs(beta)) <= SPAN_TOL * np.max(np.abs(beta)):
        raise SpanError(f"sources {subset} are not minimal: some coefficient is zero")
    return spanning._report_from(subset, beta, env.num_sources)


def _ref_spanning_subsets(env, u, pool):
    c = env.coefficients
    for size in range(1, min(env.num_states, len(pool)) + 1):
        for subset in combinations(pool, size):
            rows = c[list(subset)]
            if not _independent(rows):
                continue
            beta = _solve_representation(rows, u)
            if beta is not None:
                yield subset, beta


def _ref_enumerate(env, allowed=None):
    u = spanning._target(env)
    pool = tuple(range(env.num_sources)) if allowed is None else tuple(sorted(allowed))
    reports = [
        spanning._report_from(subset, beta, env.num_sources)
        for subset, beta in _ref_spanning_subsets(env, u, pool)
        if np.min(np.abs(beta)) > SPAN_TOL * np.max(np.abs(beta))
    ]
    reports.sort(key=lambda r: (r.phi, r.indices))
    return reports


def _ref_closure(env, indices):
    subset = sorted(set(int(i) for i in indices))
    if not subset:
        return ()
    c = env.coefficients
    return tuple(j for j in range(len(c)) if _solve_representation(c[subset], c[j]) is not None)


def _ref_is_subspace_optimal(env, indices):
    report = spanning.beta_phi_lambda(env, indices)
    for rival in _ref_enumerate(env, allowed=_ref_closure(env, report.indices)):
        if rival.indices != report.indices and rival.phi <= report.phi * (1 + PHI_TIE_TOL):
            return False
    return True


def _ref_check_assumptions(env):
    reports = _ref_enumerate(env)
    witnesses = []
    if not reports:
        raise SpanError("no spanning set: the target is not identified from the sources")
    unique_minimizer = not phi_tied(reports)
    if len(reports) == 1:
        gap = float("inf")
    elif unique_minimizer:
        gap = reports[1].phi - reports[0].phi
    else:
        witnesses.extend(r.indices for r in reports if r.phi <= reports[0].phi * (1 + PHI_TIE_TOL))
        gap = 0.0
    n, k = env.num_sources, env.num_states
    sli = n >= k
    if sli:
        for subset in combinations(range(n), k):
            sv = np.linalg.svd(env.coefficients[list(subset)], compute_uv=False)
            if sv[-1] <= SPAN_TOL * max(sv[0], 1e-300):
                sli = False
                witnesses.append(subset)
    unique_everywhere = True
    seen = set()
    for subset, _ in _ref_spanning_subsets(env, spanning._target(env), tuple(range(n))):
        closure = _ref_closure(env, subset)
        if closure in seen:
            continue
        seen.add(closure)
        local = _ref_enumerate(env, allowed=closure)
        if phi_tied(local):
            unique_everywhere = False
            witnesses.extend([local[0].indices, local[1].indices])
    return AssumptionReport(
        unique_minimizer=unique_minimizer,
        gap=float(gap),
        strong_linear_independence=sli,
        unique_minimizer_every_subspace=unique_everywhere,
        all_minimal_sets_size_K=all(len(r.indices) == k for r in reports),
        witnesses=sorted(set(witnesses)),
    )


def _outcome(fn, env):
    try:
        report = fn(env)
    except SpanError as exc:
        return ("SpanError", str(exc))
    return {**report.to_dict(), "gap": report.gap.hex()}


def _fields(report):
    return (
        report.indices,
        report.phi.hex(),
        {i: b.hex() for i, b in report.beta.items()},
        report.lambda_star.weights.tobytes(),
    )


def _random_environment(rng, max_n=6, max_k=4):
    """Float or small-integer coefficients with duplicated rows, zeroed columns and rescaled rows."""
    n, k = int(rng.integers(1, max_n + 1)), int(rng.integers(1, max_k + 1))
    if rng.random() < 0.5:
        c = rng.integers(-2, 3, size=(n, k)).astype(float)
        target = rng.integers(-2, 3, size=k).astype(float)
    else:
        c = rng.uniform(-5, 5, size=(n, k))
        target = rng.uniform(-5, 5, size=k)
    if n > 1 and rng.random() < 0.3:
        c[rng.integers(n)] = c[rng.integers(n)]
    if k > 1 and rng.random() < 0.2:
        c[:, rng.integers(k)] = 0.0
    if rng.random() < 0.3:
        c *= 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    if not target.any():
        target[0] = 1.0
    return Environment(c, objective=[(1.0, target)])


def _assert_same_scan(env):
    """Compare the outputs of one scan: the assumption report, the enumeration and the
    best set; return the reference report and enumeration."""
    expected = _outcome(_ref_check_assumptions, env)
    assert _outcome(check_assumptions, env) == expected
    reports = enumerate_minimal_spanning_sets(env)
    ref = _ref_enumerate(env)
    assert [_fields(r) for r in reports] == [_fields(r) for r in ref]
    # The certified LP answer or, without a certificate, the enumeration fallback.
    if ref:
        assert _fields(best_set(env)) == _fields(ref[0])
    else:
        with pytest.raises(SpanError):
            best_set(env)
    return expected, ref


def _assert_same_analysis(env, every_set=True):
    """Compare every output; return the reference assumption report (or its error)."""
    expected, ref = _assert_same_scan(env)
    # Each is_subspace_optimal call enumerates; the best, the runner-up and the
    # worst set keep the test fast and cover ties and dominated sets.
    for r in ref if every_set else ref[:2] + ref[2:][-1:]:
        assert is_subspace_optimal(env, r.indices) == _ref_is_subspace_optimal(env, r.indices)
    _assert_same_closures(env)
    return expected


def _assert_same_closures(env):
    """Every subset's closure equals the source-by-source reference."""
    n = env.num_sources
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            assert subspace_closure(env, subset) == _ref_closure(env, subset), (env, subset)


def test_one_scan_matches_multi_scan_on_random_environments():
    rng = np.random.default_rng(2024)
    ties = subspace_ties = 0
    for _ in range(1000):
        report = _assert_same_analysis(_random_environment(rng), every_set=False)
        if isinstance(report, dict):
            ties += not report["unique_minimizer"]
            subspace_ties += not report["unique_minimizer_every_subspace"]
    # The mix must exercise the tie paths, not only generic environments.
    assert ties >= 50 and subspace_ties >= 50


def test_one_scan_matches_multi_scan_on_fixtures(parity_env, precise_info, example2, example3):
    non_minimal_tie = Environment(
        [[1, 1, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 1, 0], [1, 0, 0, 1], [0, 0, 0, 10]]
    )
    subnormal = Environment([[1e-320, 0], [3, 1], [0, 1]])  # {0} has no finite beta
    for env in (parity_env, precise_info, example2, example3, non_minimal_tie, subnormal):
        _assert_same_analysis(env)


def test_one_scan_matches_multi_scan_beyond_twenty_sources():
    # Sources are no longer capped at 20: 24 sources at K=2 are 7,200 scan entries. Small
    # integer coefficients repeat rows, so phi ties occur as well as a unique best set.
    rng = np.random.default_rng(24)
    envs = [
        Environment(rng.standard_normal((24, 2))),
        Environment(rng.integers(-2, 3, size=(24, 2))),
    ]
    reports = [_assert_same_scan(env)[0] for env in envs]
    assert [r["unique_minimizer"] for r in reports] == [True, False]
    for env in envs:
        for r in _ref_enumerate(env)[:3]:
            assert is_subspace_optimal(env, r.indices) == _ref_is_subspace_optimal(env, r.indices)


def _near_dependent_environment(rng):
    """Random sources, K of them with singular-value ratio between 1e-9 and 1e-3."""
    k = int(rng.integers(2, 7))
    n = int(rng.integers(k, k + 4))
    c = rng.uniform(-5, 5, size=(n, k))
    q1, _ = np.linalg.qr(rng.standard_normal((k, k)))
    q2, _ = np.linalg.qr(rng.standard_normal((k, k)))
    ratio = 10.0 ** rng.uniform(-9, -3)
    c[rng.choice(n, k, replace=False)] = (q1 * np.geomspace(1.0, ratio, k)) @ q2
    return Environment(c, objective=[(1.0, rng.uniform(-5, 5, size=k))])


def test_batched_scan_matches_per_subset_reference():
    rng = np.random.default_rng(15)
    envs = [_random_environment(rng, max_n=12, max_k=6) for _ in range(60)]
    envs += [_near_dependent_environment(rng) for _ in range(60)]
    assert any(env.num_sources < env.num_states for env in envs)
    assert max(env.num_sources for env in envs) == 12
    skipped = missed = 0
    for env in envs[60:]:
        _assert_same_closures(env)
    for env in envs:
        _assert_same_scan(env)
        n, k = env.num_sources, env.num_states
        scanned, _ = spanning._spanning_subsets(env)
        for span in scanned:
            if span.whole:
                # The scan skips this closure's solve: it must be every source.
                skipped += 1
                assert subspace_closure(env, span.indices) == tuple(range(n))
            elif len(span.indices) == k:
                missed += subspace_closure(env, span.indices) != tuple(range(n))
    # Ill-conditioned K-subsets that miss sources exist in the mix; the margin keeps
    # every one of them on the solve.
    assert skipped > 1000 and missed > 0


def _set_outcome(fn, env, subset):
    try:
        return _fields(fn(env, subset))
    except SpanError as exc:
        return ("SpanError", str(exc))


_REFUSALS = ("linearly dependent", "do not span", "not minimal")


def test_beta_phi_lambda_matches_per_subset_reference_on_every_subset():
    """Every subset of every size, sets of more than K sources included: the same
    report bits, or the same refusal."""
    rng = np.random.default_rng(17)
    envs = [_random_environment(rng) for _ in range(400)]
    envs += [_near_dependent_environment(rng) for _ in range(24)]
    seen = set()
    for env in envs:
        n = env.num_sources
        for size in range(1, n + 1):
            for subset in combinations(range(n), size):
                got = _set_outcome(spanning.beta_phi_lambda, env, subset)
                assert got == _set_outcome(_ref_beta_phi_lambda, env, subset), (env, subset)
                kind = "report"
                if got[0] == "SpanError":
                    kind = next(r for r in _REFUSALS if r in got[1])
                seen.add((kind, size > env.num_states))
    for env in envs[400:]:
        _assert_same_closures(env)
    # Every outcome occurs, and sets of more than K sources give reports and refusals.
    assert {kind for kind, _ in seen} == {"report", *_REFUSALS}
    assert {("report", True), ("linearly dependent", True), ("not minimal", True)} <= seen


def test_near_dependent_k_subset_misses_sources():
    env = Environment([[1, 0], [1, 1e-7], [0.3, 1], [2, -0.7]])
    assert subspace_closure(env, (0, 1)) == (0, 1, 3)
    whole = {span.indices: span.whole for span in spanning._spanning_subsets(env)[0]}
    assert whole[(0, 1)] is False and whole[(2, 3)] is True


@pytest.mark.parametrize("name", ["example3", "parity_env"])
def test_check_assumptions_scans_subsets_once(name, request, monkeypatch):
    env = request.getfixturevalue(name)
    scans = []
    scan = spanning._spanning_subsets

    def counting(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(spanning, "_spanning_subsets", counting)
    check_assumptions(env)
    assert len(scans) == 1


@pytest.mark.parametrize("name", ["example3", "parity_env"])
def test_check_assumptions_stacks_each_subset_once(name, request, monkeypatch):
    """One SVD call per subset size, or per chunk of one size: the stacked rows are
    every subset exactly once, in lexicographic order, and chunking, by rows or by
    floats, changes nothing."""
    env = request.getfixturevalue(name)
    n, k = env.num_sources, env.num_states
    expected = _outcome(check_assumptions, env)
    stacks = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        stacks.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    shipped = (spanning.SCAN_CHUNK, spanning.SCAN_FLOATS)
    for chunk, floats in (shipped, (3, shipped[1]), (shipped[0], 2 * k)):
        monkeypatch.setattr(spanning, "SCAN_CHUNK", chunk)
        monkeypatch.setattr(spanning, "SCAN_FLOATS", floats)
        stacks.clear()
        assert _outcome(check_assumptions, env) == expected
        want = []
        for size in range(1, min(n, k) + 1):
            subsets = list(combinations(range(n), size))
            rows = max(1, min(chunk, floats // (size * k)))  # 2 * k floats: 2 subsets, then 1
            for start in range(0, len(subsets), rows):
                want.append(np.stack([env.coefficients[list(s)] for s in subsets[start : start + rows]]))
        assert [(a.shape, a.tobytes()) for a in stacks] == [(a.shape, a.tobytes()) for a in want]
        assert (len(want) > min(n, k)) is ((chunk, floats) != shipped)  # a small bound split


def test_scan_chunks_are_bounded_by_their_floats():
    # Size-10 subsets of 20 sources at K=10,000: 16 rows of 100,000 floats each.
    chunks = [len(c) for c in spanning._subset_chunks(20, 10, 10_000)]
    assert chunks[0] == 16 and 16 * 10 * 10_000 <= spanning.SCAN_FLOATS < 17 * 10 * 10_000
    assert max(chunks) == 16 and sum(chunks) == math.comb(20, 10)
    # Up to s * K = 400 a chunk has SCAN_CHUNK rows; beyond it, fewer.
    assert [len(next(spanning._subset_chunks(20, 4, k))) for k in (100, 101)] == [4096, 4055]
    # One subset's floats above the bound still make a chunk of one row.
    assert len(next(spanning._subset_chunks(3, 2, spanning.SCAN_FLOATS))) == 1


@pytest.mark.parametrize("layout", ["c", "transposed"])
def test_represent_matches_lstsq_bit_for_bit(layout):
    """The coefficients are lstsq's bits, and the span flag is the reference's test."""
    rng = np.random.default_rng(9)
    spanned = set()
    for k in range(1, 7):
        for s in range(1, k + 1):
            if layout == "c":
                a = rng.uniform(-5, 5, size=(24, k, s))
            else:  # the scan's layout: each matrix a transposed (s, K) row block
                a = rng.uniform(-5, 5, size=(24, s, k)).transpose(0, 2, 1)
            a[::3] = np.round(a[::3])
            a[1::4, :, -1] = a[1::4, :, 0]  # rank-deficient, or (K, 1) when s == 1
            a[2::8] = 0.0
            v = rng.uniform(-5, 5, size=(24, k))
            v[::2] = (a[::2] @ rng.uniform(-5, 5, size=(12, s, 1)))[:, :, 0]  # in the span
            x, spans = spanning._represent(a, v)
            assert x.shape == (len(a), s) and spans.shape == (len(a),)
            for ai, vi, xi, si in zip(a, v, x, spans):
                ref, *_ = np.linalg.lstsq(ai, vi, rcond=None)
                assert xi.tobytes() == ref.tobytes()
                assert si == (_solve_representation(ai.T, vi) is not None)
                spanned.add(bool(si))
    assert spanned == {False, True}


def test_represent_keeps_lstsq_error_state():
    a = np.ones((2, 3, 2))
    a[1, 0, 0] = np.nan  # the SVD does not converge
    with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError):
        spanning._represent(a, np.ones((2, 3)))


def test_closure_uses_the_targets_span_test():
    """A source within ``SPAN_TOL`` of the span is in the closure, as the scan calls the
    pair dependent."""
    env = Environment([[1, 0], [0, 1e-10], [1, 1]])
    assert (0, 1) in spanning._spanning_subsets(env)[1]
    assert subspace_closure(env, [0]) == (0, 1)


def test_span_analysis_does_not_call_np_linalg_lstsq(example3, monkeypatch):
    def analysis():
        star = best_set(example3).indices
        return (
            subspace_closure(example3, [0]),
            is_subspace_optimal(example3, star),
            check_assumptions(example3).to_dict(),
        )

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    expected = analysis()
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    assert analysis() == expected


def test_pivoted_qr_matches_scipy_qr_bit_for_bit():
    """``_elfving_best``'s QR calls LAPACK's geqp3 itself; it must equal
    ``scipy.linalg.qr(..., mode="r", pivoting=True)``, pivots and bits."""
    rng = np.random.default_rng(16)
    mats = [_random_environment(rng, max_n=12, max_k=6).coefficients.T for _ in range(200)]
    mats += [_near_dependent_environment(rng).coefficients.T for _ in range(60)]
    for k in range(1, 7):
        square = rng.uniform(-5, 5, size=(k, k))
        wide = rng.uniform(-5, 5, size=(k, k + 5))
        deficient = wide.copy()
        deficient[:, -2:] = deficient[:, :2]
        deficient[-1] = 0.0
        mats += [square, wide, deficient, np.round(wide)]
    assert {np.sign(a.shape[0] - a.shape[1]) for a in mats} == {-1, 0, 1}
    for a in mats:
        r, pivots = spanning._pivoted_qr_r(a)
        ref_r, ref_pivots = qr(a, mode="r", pivoting=True)
        assert (r.shape, r.dtype, r.tobytes()) == (ref_r.shape, ref_r.dtype, ref_r.tobytes())
        assert (pivots.dtype, pivots.tobytes()) == (ref_pivots.dtype, ref_pivots.tobytes())
