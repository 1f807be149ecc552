"""The benchmark tracer looks package names up by ``module.__dict__``.

Renaming or removing one of them breaks ``perfbench/selfcheck.py --trace 1``
with a ``KeyError``; this test catches that in the unit suite instead.
"""

import importlib.util
from pathlib import Path

import numpy as np

from infotrap import Environment, GaussianPrior, dynamics, spanning

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_and_detaches():
    tracing = _tracing()
    solve = np.linalg.solve
    tracer = tracing.install()
    try:
        assert np.linalg.solve is not solve
    finally:
        tracer.detach()
    assert np.linalg.solve is solve
    for owner, attr, original, _ in tracer._targets:
        assert owner.__dict__[attr] is original


def test_classification_searches_inside_the_best_set_span(monkeypatch):
    """A run classifies through ``dynamics.best_set``, once, from its window's sources,
    so the tracer's ``spanning.best_set`` span times the whole search."""
    starts = []
    best_set = dynamics.best_set

    def counting(env, start=()):
        starts.append(start)
        return best_set(env, start)

    monkeypatch.setattr(dynamics, "best_set", counting)
    spans = []
    elfving_best = spanning._elfving_best

    def recording(env, start=()):
        spans.append(tracer.spans[tracer.stack[-1]][tracing.NAME])
        return elfving_best(env, start)

    monkeypatch.setattr(spanning, "_elfving_best", recording)
    tracing = _tracing()
    tracer = tracing.install()
    tracer.op = 0
    try:
        env = Environment([[1, 0], [3, 1], [0, 1]])
        trace = dynamics.simulate(env, GaussianPrior.from_diagonal([1.0, 6.0]), 400)
    finally:
        tracer.detach()
    assert trace.classification.kind == "efficient"
    assert starts == [trace.frequency_estimate.support()] == [(1, 2)]
    assert spans == ["spanning.best_set"]
