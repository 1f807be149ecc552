"""Correctness checks against independent references, run outside the timed region.

- Final variances are recomputed from the final counts with plain
  ``numpy.linalg.solve``.
- ``phi_best`` and inefficiency ratios are compared with Elfving's linear
  program, min ||beta||_1 subject to C' beta = u, solved with HiGHS.
- Multi-target optima are checked with the equivalence theorem.
- Oracle values are recomputed from the returned counts, and the last
  greedy-versus-optimal row against a brute-force search of this file's own.
- Discrete outputs must equal the reference recorded in ``reference.json``.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog

from infotrap import Environment, dynamics
from workloads import DISCRETE, SWEEP_GRID

REL_TOL = 1e-8
LP_TOL = 1e-7
# The numeric optimizer stops at a relative optimality residual of 1e-10 or
# snaps to an exact support; 1e-6 leaves room for the snap's rounding.
EQUIVALENCE_TOL = 1e-6


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def _model(doc: dict):
    c = np.asarray(doc["coefficients"], dtype=float)
    dirs = np.array([o["direction"] for o in doc["objective"]], dtype=float)
    weights = np.array([o["weight"] for o in doc["objective"]], dtype=float)
    cov = np.asarray(doc["prior_cov"], dtype=float)
    return c, dirs, weights, cov


def _variance(precision: np.ndarray, dirs: np.ndarray, weights: np.ndarray) -> float:
    sols = np.linalg.solve(precision, dirs.T)
    return float(weights @ np.einsum("rk,kr->r", dirs, sols))


def final_variance(doc: dict, counts, gamma_final=None) -> float:
    """Weighted posterior variance after ``counts``, built from the document alone."""
    c, dirs, weights, cov = _model(doc)
    iv = doc["intervention"]
    scale = iv["precision"] if isinstance(iv, dict) and "precision" in iv else 1
    precision = np.linalg.inv(cov) + (c.T * (scale * np.asarray(counts, dtype=float))) @ c
    if gamma_final is not None:
        env = Environment(c, [(w, d) for w, d in zip(weights, dirs)])
        for p in dynamics.design_free_signals(env, gamma_final):
            precision += np.outer(p, p)
    return _variance(precision, dirs, weights)


def elfving_phi(doc: dict) -> float:
    """min sum|beta_i| subject to sum_i beta_i c_i = u, as a linear program."""
    c, dirs, _, _ = _model(doc)
    n = c.shape[0]
    res = linprog(
        np.ones(2 * n),
        A_eq=np.hstack([c.T, -c.T]),
        b_eq=dirs[0],
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"Elfving LP failed: {res.message}")
    return float(res.fun)


def set_phi(doc: dict, indices) -> float:
    c, dirs, _, _ = _model(doc)
    beta, *_ = np.linalg.lstsq(c[list(indices)].T, dirs[0], rcond=None)
    return float(np.abs(beta).sum())


def _expected_ratio(doc: dict, phi_best: float, kind: str, trapped) -> float | None:
    if kind == "efficient":
        return 1.0
    if kind == "trap":
        return set_phi(doc, trapped) / phi_best
    return None


def _check_ratio(problems: list, doc, phi_best, kind, trapped, ratio, where="") -> None:
    expected = _expected_ratio(doc, phi_best, kind, trapped)
    if (expected is None) != (ratio is None) or (
        expected is not None and not _close(ratio, expected, LP_TOL)
    ):
        problems.append(f"{where}inefficiency_ratio {ratio!r} != Elfving LP {expected!r}")


def equivalence_violation(doc: dict, weights_star) -> tuple[float, float]:
    """Largest relative violation of the equivalence theorem at ``weights_star``, and f there.

    For f(lam) = sum_r w_r u_r' M(lam)^+ u_r, lam is optimal on the simplex iff
    every source has sum_r w_r (c_i' M^+ u_r)^2 <= f(lam), with equality on the
    support of lam.
    """
    c, dirs, weights, _ = _model(doc)
    lam = np.asarray(weights_star, dtype=float)
    info = (c.T * lam) @ c
    pinv = np.linalg.pinv(info, rcond=1e-10, hermitian=True)
    x = pinv @ dirs.T
    value = float(weights @ np.einsum("rk,kr->r", dirs, x))
    g = (c @ x) ** 2 @ weights
    support = lam > 1e-9
    violation = max(
        float(np.max(g)) / value - 1.0,
        float(np.max(np.abs(g[support] / value - 1.0))),
    )
    return violation, value


def _brute_force_optimum(doc: dict, t: int) -> float:
    c, dirs, weights, cov = _model(doc)
    n = c.shape[0]
    # Compositions of t into n parts, from stars and bars.
    rows = []
    for bars in itertools.combinations(range(t + n - 1), n - 1):
        edges = (-1, *bars, t + n - 1)
        rows.append([edges[i + 1] - edges[i] - 1 for i in range(n)])
    q = np.asarray(rows, dtype=float)
    precisions = np.linalg.inv(cov)[None] + np.einsum("mn,ni,nj->mij", q, c, c)
    rhs = np.broadcast_to(dirs.T, (len(rows),) + dirs.T.shape)
    sols = np.linalg.solve(precisions, rhs)
    return float(np.min(np.einsum("rk,mkr->mr", dirs, sols) @ weights))


class Checker:
    """Checks op outputs; caches the LP per input, since fixed inputs repeat."""

    def __init__(self, reference: dict):
        self.reference = reference
        self._phi: dict[str, float] = {}

    def _phi_best(self, item) -> float:
        if item.name not in self._phi:
            self._phi[item.name] = elfving_phi(item.doc)
        return self._phi[item.name]

    def expected_error(self, item) -> str | None:
        return self.reference.get(item.name, {}).get("error")

    def check(self, item, out: dict) -> list[str]:
        problems: list[str] = []
        ref = self.reference.get(item.name)
        if ref is None:
            problems.append("no recorded reference for this input")
        else:
            # An input that raised when the reference was recorded has no
            # outputs to compare; its independent checks below still apply.
            for key in DISCRETE:
                if key in ref and out.get(key) != ref[key]:
                    problems.append(f"{key} {out.get(key)!r} != reference {ref[key]!r}")
        if out.get("artifact_matches") is False:
            problems.append("written artifact differs from the returned report")
        getattr(self, "_check_" + item.kind)(item, out, problems)
        return problems

    def _check_trace(self, item, out, problems) -> None:
        doc = item.doc
        expected = final_variance(doc, out["counts"], out.get("gamma_final"))
        if not _close(out["variance"], expected, REL_TOL):
            problems.append(f"final variance {out['variance']!r} != numpy solve {expected!r}")
        if len(doc["objective"]) == 1:
            phi = self._phi_best(item)
            _check_ratio(problems, doc, phi, out["classification"], out["trapped"], out["ratio"])

    _check_simulate = _check_trace

    def _check_scenario(self, item, out, problems) -> None:
        self._check_trace(item, out, problems)
        if out["report_ratio"] != out["ratio"]:
            problems.append("report and trace disagree on the inefficiency ratio")
        if len(item.doc["objective"]) == 1:
            phi = self._phi_best(item)
            if not _close(out["phi_best"], phi, LP_TOL):
                problems.append(f"phi_best {out['phi_best']!r} != Elfving LP {phi!r}")
        else:
            violation, value = equivalence_violation(item.doc, out["lambda_star"])
            if violation > EQUIVALENCE_TOL:
                problems.append(f"equivalence theorem violated by {violation:.3e}")
            if not _close(out["phi_best"] ** 2, value, EQUIVALENCE_TOL):
                problems.append(f"phi_best^2 {out['phi_best'] ** 2!r} != Vinf(lambda_star) {value!r}")

    def _check_sweep(self, item, out, problems) -> None:
        phi = self._phi_best(item)
        for value, (kind, trapped), ratio in zip(SWEEP_GRID, out["rows"], out["row_ratios"]):
            trapped0 = [i - 1 for i in trapped]
            _check_ratio(problems, item.doc, phi, kind, trapped0, ratio, f"v={value}: ")

    def _check_optimal_division(self, item, out, problems) -> None:
        if sum(out["counts"]) != item.doc["horizon"]:
            problems.append("optimal counts do not sum to the budget")
        expected = final_variance(item.doc, out["counts"])
        if not _close(out["value"], expected, REL_TOL):
            problems.append(f"optimal value {out['value']!r} != numpy solve {expected!r}")

    def _check_greedy_vs_optimal(self, item, out, problems) -> None:
        t = item.doc["horizon"]
        greedy, optimal = out["greedy"], out["optimal"]
        if out["num_rows"] != t:
            problems.append(f"{out['num_rows']} rows for horizon {t}")
        if any(g < o * (1 - REL_TOL) for g, o in zip(greedy, optimal)):
            problems.append("greedy variance below the optimum")
        if any(b > a * (1 + REL_TOL) for a, b in zip(optimal, optimal[1:])):
            problems.append("optimal variance increases with the budget")
        expected = _brute_force_optimum(item.doc, t)
        if not _close(optimal[-1], expected, REL_TOL):
            problems.append(f"optimum at t={t} {optimal[-1]!r} != brute force {expected!r}")

