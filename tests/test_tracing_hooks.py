"""The benchmark tracer looks package names up by ``module.__dict__``.

Renaming or removing one of them breaks ``perfbench/selfcheck.py --trace 1``
with a ``KeyError``; this test catches that in the unit suite instead.
"""

import importlib.util
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_detaches():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    solve = np.linalg.solve
    tracer = tracing.install()
    try:
        assert np.linalg.solve is not solve
    finally:
        tracer.detach()
    assert np.linalg.solve is solve
    for owner, attr, original, _ in tracer._targets:
        assert owner.__dict__[attr] is original
