"""Golden outputs: CLI artifacts of the bundled scenarios and numeric-optimizer results.

``tests/data/golden.json`` holds sha256 digests of every file that
``infotrap simulate``, ``analyze``, ``sweep``, ``oracle --t 30`` and
``compare --t 30`` write for the four bundled scenarios, and of
``optimal_frequency_numeric``'s full output on the multi-target environments
the other tests use. The digests were recorded before the spectral-inverse,
evaluator and composition kernels were merged; the ``oracle`` and ``compare``
digests were recorded before the exhaustive scan stopped building result
objects. A change that moves any of these outputs by one bit fails here.
Regenerate them only for a deliberate output change::

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden.json

``INTERVENTION_TRACES`` pins, inline, example2's trace CSV under ``{"batch": 2}``
and ``{"precision": 10}``, which no bundled scenario writes.
"""

import hashlib
import json
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from infotrap import Environment, optimal_frequency_numeric
from infotrap.cli import main as cli_main
from infotrap.scenarios import (
    bundled_scenario,
    bundled_scenario_names,
    parse_scenario,
    run_scenario,
    scenario_to_dict,
    write_trace_csv,
)

GOLDEN = Path(__file__).parent / "data" / "golden.json"
SWEEP_ARGS = ["--state", "2", "--grid", "6,7.9,8.1,12"]
COMMANDS = (
    ["simulate"],
    ["analyze"],
    ["sweep", *SWEEP_ARGS],
    ["oracle", "--t", "30"],
    ["compare", "--t", "30"],
)

# The multi-target objectives of test_gaussian, test_dynamics/test_spanning and test_scenarios.
NUMERIC_ENVS = {
    "weighted_axes": ([[1, 0], [0, 1]], [(2.0, [1, 0]), (0.5, [0, 1])]),
    "both_axes": ([[1, 0], [0, 1]], [(1.0, [1, 0]), (1.0, [0, 1])]),
    "example2_weighted": ([[1, 0], [3, 1], [0, 1]], [(1.0, [1, 0]), (0.5, [0, 1])]),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests(out: Path) -> dict[str, str]:
    runner = CliRunner()
    for name in bundled_scenario_names():
        path = str(resources.files("infotrap").joinpath("data", f"{name}.json"))
        for args in COMMANDS:
            result = runner.invoke(cli_main, [*args, path, "--out", str(out), "--quiet"])
            assert result.exit_code == 0, result.output
    return {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())}


def numeric_digests() -> dict[str, str]:
    out = {}
    for name, (coefficients, objective) in NUMERIC_ENVS.items():
        freq, info = optimal_frequency_numeric(Environment(coefficients, objective), full_output=True)
        record = [
            [float(x).hex() for x in freq.weights],
            [float(x).hex() for x in info["alternate"].weights],
            [float(info[k]).hex() for k in ("value", "alternate_value", "gap")],
            [info["unique"], info["exact"]],
        ]
        out[name] = _sha(json.dumps(record).encode())
    return out


def test_bundled_artifacts_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert artifact_digests(tmp_path) == golden["artifacts"]


# sha256 of example2's trace CSV under the two paper_scenarios interventions that no golden
# artifact covers, recorded from the per-row writer before blocks were formatted whole.
INTERVENTION_TRACES = {
    "batch2": (
        {"batch": 2},
        "0c0c33f871d64c378ddc7decbf8dc4d6498c0f32ef0a28de3cbdfdae4bec875a",
    ),
    "precision10": (
        {"precision": 10},
        "5da9e2ea6f9cf5d7e5f2d3f5b567653758ad2c89770b45c4f62deaaeb205cde7",
    ),
}


@pytest.mark.parametrize(
    "intervention, digest", INTERVENTION_TRACES.values(), ids=list(INTERVENTION_TRACES)
)
def test_example2_intervention_traces_match_pins(tmp_path, intervention, digest):
    doc = scenario_to_dict(bundled_scenario("example2"))
    scenario = parse_scenario(dict(doc, intervention=intervention))
    trace, _ = run_scenario(scenario)
    write_trace_csv(tmp_path / "trace.csv", scenario, trace)
    assert _sha((tmp_path / "trace.csv").read_bytes()) == digest


def test_numeric_optimizer_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert numeric_digests() == golden["numeric"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"artifacts": artifact_digests(Path(tmp)), "numeric": numeric_digests()}
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
