"""The one-scan spanning analysis against the multi-scan version it replaced.

``check_assumptions`` reads every subspace check from one list of spanning
subsets, ``is_subspace_optimal`` filters one enumeration by the closure, and
``subspace_closure`` makes one least-squares solve for all sources. The
reference below rescans the subsets of each closure and solves source by
source; the outputs must be equal, not close.
"""

from itertools import combinations

import numpy as np
import pytest

from infotrap import (
    Environment,
    SpanError,
    check_assumptions,
    enumerate_minimal_spanning_sets,
    is_subspace_optimal,
    spanning,
    subspace_closure,
)
from infotrap.spanning import PHI_TIE_TOL, SPAN_TOL, AssumptionReport, phi_tied


def _ref_spanning_subsets(env, u, pool):
    c = env.coefficients
    for size in range(1, min(env.num_states, len(pool)) + 1):
        for subset in combinations(pool, size):
            rows = c[list(subset)]
            if not spanning._independent(rows):
                continue
            beta = spanning._solve_representation(rows, u)
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
    rows = env.coefficients[subset]
    closure = []
    for j in range(env.num_sources):
        cj = env.coefficients[j]
        coef, *_ = np.linalg.lstsq(rows.T, cj, rcond=None)
        residual = np.linalg.norm(rows.T @ coef - cj)
        if residual <= SPAN_TOL * max(float(np.linalg.norm(cj)), 1e-300):
            closure.append(j)
    return tuple(closure)


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
        return fn(env).to_dict()
    except SpanError as exc:
        return ("SpanError", str(exc))


def _fields(report):
    return report.indices, report.beta, report.phi, report.lambda_star.weights.tobytes()


def _random_environment(rng):
    """Float or small-integer coefficients with duplicated rows, zeroed columns and rescaled rows."""
    n, k = int(rng.integers(1, 7)), int(rng.integers(1, 5))
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


def _assert_same_analysis(env, every_set=True):
    """Compare every output; return the reference assumption report (or its error)."""
    expected = _outcome(_ref_check_assumptions, env)
    assert _outcome(check_assumptions, env) == expected
    reports = enumerate_minimal_spanning_sets(env)
    ref = _ref_enumerate(env)
    assert [_fields(r) for r in reports] == [_fields(r) for r in ref]
    # Each is_subspace_optimal call enumerates; the best, the runner-up and the
    # worst set keep the test fast and cover ties and dominated sets.
    for r in ref if every_set else ref[:2] + ref[2:][-1:]:
        assert is_subspace_optimal(env, r.indices) == _ref_is_subspace_optimal(env, r.indices)
    n = env.num_sources
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            assert subspace_closure(env, subset) == _ref_closure(env, subset)
    return expected


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
    for env in (parity_env, precise_info, example2, example3, non_minimal_tie):
        _assert_same_analysis(env)


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
def test_check_assumptions_tests_each_subset_once(name, request, monkeypatch):
    env = request.getfixturevalue(name)
    calls = []
    independent = spanning._independent

    def counting(rows):
        calls.append(rows.tobytes())
        return independent(rows)

    monkeypatch.setattr(spanning, "_independent", counting)
    check_assumptions(env)
    n, k = env.num_sources, env.num_states
    expected = [
        env.coefficients[list(subset)].tobytes()
        for size in range(1, min(n, k) + 1)
        for subset in combinations(range(n), size)
    ]
    assert sorted(calls) == sorted(expected)
