"""Host speed, measured with a fixed kernel timed around every op.

The benchmark runs on shared hosts whose vCPUs slow down and speed up, by up to
1.6x within seconds and by 30-40% averaged over minutes, with what other
tenants run on the same cores. Every op's time moves with it, so raw wall
times of the same code spread further across runs than any useful bound.

The kernel below does a fixed amount of work of the kinds the program does:
interpreted arithmetic, method calls on small objects, JSON, sorting and
small dense factorizations and solves. It does not touch ``infotrap``, so
program changes move the reported times as they move the raw ones. Its
breadth matters: a tight arithmetic loop alone slowed less than the program
under the same contention (log-log slope about 1.2), while this mix tracked
it (slope about 1.0).

The kernel is timed right before and right after every op, on the same CPU.
An op's time multiplied by ``REF_KERNEL_S`` over the mean of its kernel times
is the time the op would take at the reference speed, the speed at which the
kernel takes exactly ``REF_KERNEL_S``. Each op gets its own factor because
the host's speed also changes within a run; over windows of one long run,
per-op factors steadied the median and p90 latency more than one factor for
the whole run.
"""

from __future__ import annotations

import json
import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

REF_KERNEL_S = 1e-3  # about the kernel's time on the host this was defined on
_rng = np.random.default_rng(0)
_DOC = {
    "rows": [
        {"name": f"r{i}", "v": [float(x) for x in _rng.random(6)], "tag": str(i % 7)}
        for i in range(20)
    ]
}
_G = _rng.standard_normal((6, 6))
_S = _G @ _G.T + 6 * np.eye(6)
_V = _rng.standard_normal(6)
# Bound at import, before a traced run wraps numpy.linalg.solve, so that the
# kernel neither shows in the trace nor pays for it.
_solve = np.linalg.solve


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def at(self, x: int) -> int:
        return self.a * x + self.b


def kernel() -> float:
    """Run the fixed kernel once; returns its wall time in seconds."""
    start = time.perf_counter()
    s = 0
    for i in range(1500):
        s += i * i % 7
    points = [_Point(i, i + 1) for i in range(120)]
    buckets = {}
    for p in points:
        buckets[p.a % 17] = buckets.get(p.a % 17, 0) + p.at(3)
    s += sum(p.at(2) for p in points if p.b & 1)
    s += len(sorted((p.b % 13, p.a) for p in points))
    rows = sorted(json.loads(json.dumps(_DOC))["rows"], key=lambda r: (r["tag"], -r["v"][0]))
    s += len(",".join(f"{r['name']}:{r['v'][1]:.4f}" for r in rows))
    m = _S.copy()
    for _ in range(3):
        x = cho_solve(cho_factor(m), _V)
        m = m + np.outer(x, x) * 1e-3
        s += float(x @ _V) > 0
    for _ in range(20):
        _solve(m, _V)
    return time.perf_counter() - start


def bracket(timed, reps: int = 1) -> tuple[float, float]:
    """Call ``timed()``, which returns seconds, between ``reps`` kernel runs on each side.

    Returns those seconds as measured and at the reference speed.
    """
    before = sum(kernel() for _ in range(reps))
    spent = timed()
    after = sum(kernel() for _ in range(reps))
    return spent, spent * REF_KERNEL_S * 2 * reps / (before + after)
