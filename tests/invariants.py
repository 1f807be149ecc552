"""Randomized analytic invariant checks, shared by the property and acceptance suites.

Each check runs a given number of randomized instances and returns the number of
violations (0 expected). Instances are drawn from a seeded generator so failures
reproduce exactly.
"""

import math

import numpy as np

from infotrap import (
    Environment,
    GaussianPrior,
    asymptotic_variance,
    best_set,
    enumerate_minimal_spanning_sets,
    fit_perturbation_eta,
    grad_asymptotic_variance,
    grad_posterior_variance,
    posterior_variance,
)
from infotrap.oracle import round_to_total

from conftest import random_environment, random_pd_prior


def _central_diff(f, x, i, h):
    xp = np.array(x, dtype=float)
    xm = np.array(x, dtype=float)
    xp[i] += h
    xm[i] -= h
    return (f(xp) - f(xm)) / (2 * h)


def _posterior_variance_mp(env, prior, q, dps=40):
    """Posterior variance evaluated in high-precision arithmetic.

    Float64 evaluations of V carry roundoff of order cond(P) * eps, which a
    step-1e-5 difference quotient amplifies past the 1e-6 comparison target;
    the independent oracle therefore needs more digits than the code under test.
    """
    from mpmath import mp, matrix, lu_solve

    with mp.workdps(dps):
        k = env.num_states
        cov = matrix(prior.covariance.tolist())
        p = cov**-1
        c = env.coefficients
        for i in range(env.num_sources):
            qi = mp.mpf(float(q[i]))
            for a in range(k):
                for b in range(k):
                    p[a, b] += qi * mp.mpf(c[i, a]) * mp.mpf(c[i, b])
        total = mp.mpf(0)
        for w, d in env.objective:
            rhs = matrix([mp.mpf(x) for x in d])
            sol = lu_solve(p, rhs)
            total += mp.mpf(w) * sum(mp.mpf(d[j]) * sol[j] for j in range(k))
        return float(total)


def _central_diff_mp(env, prior, q, i, h):
    """Fourth-order central difference of V at step h, high-precision evaluations."""
    def at(delta):
        x = np.array(q, dtype=float)
        x[i] += delta
        return _posterior_variance_mp(env, prior, x)

    return (at(-2 * h) - 8 * at(-h) + 8 * at(h) - at(2 * h)) / (12 * h)


def _second_central_diff(f, x, i, h):
    xp = np.array(x, dtype=float)
    xm = np.array(x, dtype=float)
    xp[i] += h
    xm[i] -= h
    return (f(xp) - 2 * f(x) + f(xm)) / (h * h)


def check_monotonicity(rng, instances) -> int:
    """One more observation never raises the posterior variance."""
    bad = 0
    for _ in range(instances):
        env = random_environment(rng)
        prior = random_pd_prior(rng, env.num_states)
        t = int(rng.integers(0, 21))
        q = rng.multinomial(t, np.full(env.num_sources, 1 / env.num_sources))
        v = posterior_variance(env, prior, q)
        for i in range(env.num_sources):
            step = q.astype(float)
            step[i] += 1
            if posterior_variance(env, prior, step) > v + 1e-12:
                bad += 1
    return bad


def check_midpoint_convexity(rng, instances) -> int:
    bad = 0
    for _ in range(instances):
        env = random_environment(rng)
        prior = random_pd_prior(rng, env.num_states)
        q = rng.uniform(0, 15, env.num_sources)
        r = rng.uniform(0, 15, env.num_sources)
        lhs = posterior_variance(env, prior, q) + posterior_variance(env, prior, r)
        rhs = 2 * posterior_variance(env, prior, (q + r) / 2)
        if lhs < rhs - 1e-12:
            bad += 1
    return bad


def check_gradient_posterior(rng, instances, step=1e-5, rel_tol=1e-6) -> int:
    bad = 0
    for _ in range(instances):
        env = random_environment(rng)
        prior = random_pd_prior(rng, env.num_states)
        q = rng.uniform(0.1, 20, env.num_sources)
        grad = grad_posterior_variance(env, prior, q)
        fd = np.array(
            [_central_diff_mp(env, prior, q, i, step) for i in range(env.num_sources)]
        )
        err = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-12)
        if err >= rel_tol:
            bad += 1
    return bad


def check_gradient_asymptotic(rng, instances, step=1e-5, rel_tol=1e-6) -> int:
    bad = 0
    done = 0
    while done < instances:
        env = random_environment(rng)
        if np.linalg.matrix_rank(env.coefficients) < env.num_states:
            continue  # sources must span all states for differentiability
        lam = rng.uniform(0.2, 1.5, env.num_sources)
        done += 1
        grad = grad_asymptotic_variance(env, lam)
        fd = np.array(
            [
                _central_diff(lambda x: asymptotic_variance(env, x), lam, i, step)
                for i in range(env.num_sources)
            ]
        )
        err = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-12)
        if err >= rel_tol:
            bad += 1
    return bad


def check_second_derivative_ratio(rng, instances) -> int:
    """|d2V/dq_j^2| stays below (2/q_j) |dV/dq_j| for positive counts."""
    bad = 0
    for _ in range(instances):
        env = random_environment(rng)
        prior = random_pd_prior(rng, env.num_states)
        q = rng.uniform(0.5, 10, env.num_sources)
        grad = grad_posterior_variance(env, prior, q)
        for j in range(env.num_sources):
            if abs(grad[j]) < 1e-10:
                continue  # ratio degenerates when the source is uninformative
            second = _second_central_diff(
                lambda x: _posterior_variance_mp(env, prior, x), q, j, 5e-4
            )
            if abs(second / grad[j]) > (2 / q[j]) * (1 + 1e-5) + 1e-9:
                bad += 1
    return bad


def check_discrete_derivative_sandwich(rng, instances) -> int:
    """q/(q+1) |dV| <= one-step drop <= |dV|."""
    bad = 0
    for _ in range(instances):
        env = random_environment(rng)
        prior = random_pd_prior(rng, env.num_states)
        q = rng.uniform(0.0, 12, env.num_sources)
        grad = grad_posterior_variance(env, prior, q)
        v = posterior_variance(env, prior, q)
        for j in range(env.num_sources):
            step = q.copy()
            step[j] += 1
            drop = v - posterior_variance(env, prior, step)
            lo = q[j] / (q[j] + 1) * abs(grad[j])
            hi = abs(grad[j])
            if not (lo - 1e-12 <= drop <= hi + 1e-12):
                bad += 1
    return bad


def check_homogeneity(rng, instances) -> int:
    """Scaling all frequencies by c scales the asymptotic variance by 1/c.

    Restricted to decently conditioned information matrices: the quadratic form
    is computed to about cond * machine-eps, so the 1e-12 comparison is only
    meaningful below condition 1e3.
    """
    bad = 0
    done = 0
    while done < instances:
        env = random_environment(rng)
        lam = rng.uniform(0, 2, env.num_sources)
        c = float(rng.uniform(0.1, 10))
        a = asymptotic_variance(env, lam)
        if not math.isinf(a) and a != 0:
            info = (env.coefficients.T * lam) @ env.coefficients
            eigs = np.linalg.eigvalsh(info)
            if eigs[0] <= 0 or eigs[-1] / eigs[0] > 1e3:
                continue
        done += 1
        b = asymptotic_variance(env, c * lam)
        if math.isinf(a) or a == 0:
            if not (math.isinf(b) or b == 0):
                bad += 1
            continue
        if abs(b - a / c) > 1e-12 * abs(a / c):
            bad += 1
    return bad


def check_directional_derivative_bound(rng, instances) -> int:
    """Moving along the optimal frequencies cuts variance at rate >= V^2/phi^2."""
    bad = 0
    done = 0
    while done < instances:
        env = random_environment(rng, n=int(rng.integers(2, 6)), k=int(rng.integers(1, 4)))
        try:
            star = best_set(env)
        except Exception:
            continue
        done += 1
        prior = random_pd_prior(rng, env.num_states)
        q = rng.uniform(0, 10, env.num_sources)
        grad = grad_posterior_variance(env, prior, q)
        v = posterior_variance(env, prior, q)
        directional = float(star.lambda_star.weights @ grad)
        if abs(directional) < (v * v / star.phi**2) * (1 - 1e-9) - 1e-15:
            bad += 1
    return bad


def check_asymptotic_floor(rng, instances) -> int:
    """Vinf(lam) is never below the squared best asymptotic standard deviation."""
    bad = 0
    done = 0
    while done < instances:
        env = random_environment(rng, n=int(rng.integers(2, 7)), k=int(rng.integers(1, 4)))
        try:
            floor = best_set(env).phi ** 2
        except Exception:
            continue
        done += 1
        lam = rng.dirichlet(np.ones(env.num_sources))
        if asymptotic_variance(env, lam) < floor - 1e-10:
            bad += 1
    return bad


def check_alpha_sum_lemma(rng, instances) -> int:
    """Outside sources have coordinate sums below 1 in the sign-normalized best basis."""
    bad = 0
    done = 0
    while done < instances:
        k = int(rng.integers(2, 5))
        n = k + int(rng.integers(1, 4))
        env = random_environment(rng, n=n, k=k)
        reports = enumerate_minimal_spanning_sets(env)
        if not reports or len(reports[0].indices) != k:
            continue
        if len(reports) >= 2 and reports[1].phi - reports[0].phi <= 1e-6 * reports[1].phi:
            continue  # need a clearly unique best set
        star = reports[0]
        done += 1
        basis = env.coefficients[list(star.indices)].T  # columns are the best set
        signs = np.sign([star.beta[i] for i in star.indices])
        for j in range(n):
            if j in star.indices:
                continue
            alpha = np.linalg.solve(basis, env.coefficients[j])
            if abs(float(alpha @ signs)) >= 1.0:
                bad += 1
    return bad


def check_perturbation_bound(rng, instances) -> int:
    """Vinf(lam) >= phi*^2 / (1 - eta * outside-mass), with eta fitted per environment."""
    bad = 0
    done = 0
    while done < instances:
        env = random_environment(rng, n=int(rng.integers(3, 7)), k=int(rng.integers(2, 4)))
        try:
            eta = fit_perturbation_eta(env)
            star = best_set(env)
        except Exception:
            continue
        done += 1
        lam = rng.dirichlet(np.ones(env.num_sources))
        rho = 1.0 - float(sum(lam[i] for i in star.indices))
        bound = star.phi**2 / (1 - eta * rho)
        if asymptotic_variance(env, lam) < bound * (1 - 1e-9):
            bad += 1
        if rho > 0.01 and not bound > star.phi**2:
            bad += 1  # the bound must strictly improve on the flat floor
    return bad


def check_convergence_rate(rng, instances) -> int:
    """t*V at rounded frequency counts approaches Vinf at a 1/t rate.

    The constant is fitted at t=100 with a safety factor of two, then checked at
    t=200 and t=400. Frequencies are drawn on a 1/20 lattice so the rounded
    counts equal lam*t exactly at the test budgets; otherwise the O(1) rounding
    pattern oscillates with t and masks the rate being tested.
    """
    bad = 0
    done = 0
    while done < instances:
        env = random_environment(rng, n=int(rng.integers(2, 6)), k=int(rng.integers(1, 4)))
        if np.linalg.matrix_rank(env.coefficients) < env.num_states:
            continue
        parts = rng.multinomial(20 - env.num_sources, np.full(env.num_sources, 1 / env.num_sources))
        lam = (parts + 1) / 20.0  # full support, entries on the 1/20 lattice
        vstar = asymptotic_variance(env, lam)
        if math.isinf(vstar):
            continue
        done += 1
        prior = random_pd_prior(rng, env.num_states)

        def residual(t):
            counts = round_to_total(lam, t)
            return abs(t * posterior_variance(env, prior, counts) - vstar)

        c = 2.0 * 100 * residual(100)
        for t in (200, 400):
            if residual(t) > c / t + 1e-14:
                bad += 1
    return bad


ALL_CHECKS = [
    check_monotonicity,
    check_midpoint_convexity,
    check_gradient_posterior,
    check_gradient_asymptotic,
    check_second_derivative_ratio,
    check_discrete_derivative_sandwich,
    check_homogeneity,
    check_directional_derivative_bound,
    check_asymptotic_floor,
    check_alpha_sum_lemma,
    check_perturbation_bound,
    check_convergence_rate,
]
