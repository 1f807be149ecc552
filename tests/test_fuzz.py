"""Field fuzzing of the scenario parser and the command-line front end.

Two properties: a mutated bundled document either parses or is refused with a
``ScenarioError`` naming its field; and a valid but extreme document run through every
subcommand ends with exit status 0, or with status 1 and nothing but ``Error: `` lines,
never a traceback. The runs are derandomized, so a failure reproduces.
"""

import copy
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from infotrap import ScenarioError, bundled_scenario_names, oracle, parse_scenario
from infotrap.cli import main as cli_main
from infotrap.scenarios import bundled_scenario, scenario_to_dict

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_ODD_VALUES = [
    None,
    True,
    "3",
    "",
    [],
    {},
    [[1.0]],
    [[[1.0, 2.0]]],
    math.nan,
    math.inf,
    -math.inf,
    1e308,
    -1e308,
    10**400,
    2**64,
    0,
    -1,
    1.5,
    1e-320,
]


def _locations(node, at=()):
    """Every (container path, key) in a nested document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield at, key
        if isinstance(value, (dict, list)) and value:
            yield from _locations(value, at + (key,))


def _mutate(doc, data):
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        locations = list(_locations(doc))
        if not locations:
            break
        at, key = data.draw(st.sampled_from(locations), label="location")
        parent = doc
        for step in at:
            parent = parent[step]
        kind = data.draw(st.sampled_from(["replace", "delete", "nest", "scale"]), label="kind")
        if kind == "replace":
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(_ODD_VALUES), label="value"))
        elif kind == "delete":
            del parent[key]
        elif kind == "nest":
            parent[key] = [parent[key]]
        elif isinstance(parent[key], float):
            by = data.draw(st.sampled_from([1e154, 1e-160, -1.0, 1e300]), label="by")
            parent[key] = float(parent[key]) * by
        elif isinstance(parent[key], int) and not isinstance(parent[key], bool):
            parent[key] *= data.draw(st.sampled_from([10**154, -1, 10**300]), label="by")
    return doc


@settings(FUZZ, max_examples=400)
@given(name=st.sampled_from(bundled_scenario_names()), data=st.data())
def test_mutated_documents_parse_or_name_their_field(name, data):
    doc = _mutate(scenario_to_dict(bundled_scenario(name)), data)
    try:
        parse_scenario(doc)
    except ScenarioError as exc:
        assert str(exc).startswith("scenario."), str(exc)


def _scaled(k: int, low: int, high: int):
    """A k-vector of entries in [-1, 1] times one power of ten in [10**low, 10**high]."""
    entries = st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k)
    return st.tuples(entries, st.integers(low, high)).map(
        lambda pair: [x * 10.0 ** pair[1] for x in pair[0]]
    )


@st.composite
def extreme_documents(draw, name: str):
    k = draw(st.integers(1, 3), label="states")
    n = draw(st.integers(1, 5), label="sources")
    variances = [10.0 ** draw(st.integers(-6, 6)) for _ in range(k)]
    cov = [[variances[i] if i == j else 0.0 for j in range(k)] for i in range(k)]
    if k > 1:
        rho = draw(st.floats(-0.999, 0.999))
        cov[0][1] = cov[1][0] = rho * math.sqrt(variances[0] * variances[1])
    interventions = st.one_of(
        st.just("none"),
        st.builds(lambda b: {"precision": b}, st.integers(1, 10**6)),
        st.builds(lambda b: {"batch": b}, st.integers(1, 4)),
        st.builds(
            lambda v: {"free_signals": v}, st.lists(_scaled(k, -5, 150), min_size=1, max_size=2)
        ),
        st.builds(lambda e: {"free_signals_auto": {"gamma0": 10.0**e}}, st.floats(-3, 33)),
    )
    objective = draw(
        st.none()
        | st.lists(
            st.builds(
                lambda w, d: {"weight": w, "direction": d},
                st.floats(1e-3, 1e5),
                _scaled(k, -3, 3),
            ),
            min_size=1,
            max_size=2,
        )
    )
    return {
        "name": name,
        "coefficients": [draw(_scaled(k, -160, 154)) for _ in range(n)],
        "objective": objective,
        "prior_mean": draw(_scaled(k, -3, 3)),
        "prior_cov": cov,
        "horizon": draw(st.integers(1, 40)),
        "tie_break": draw(
            st.just("lowest_index") | st.builds(lambda s: {"random": s}, st.integers(0, 99))
        ),
        "intervention": draw(interventions),
        "sample_realizations": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32)),
    }


@settings(FUZZ, max_examples=100)
@given(
    docs=st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=2, unique=True).flatmap(
        lambda names: st.tuples(*(extreme_documents(name) for name in names))
    ),
    budget=st.integers(1, 4),
    data=st.data(),
)
def test_extreme_documents_end_every_subcommand_cleanly(docs, budget, data):
    k = len(docs[0]["prior_mean"])
    state = data.draw(st.integers(1, k), label="state")
    grid = data.draw(st.sampled_from(["0.5,2", "1e-3,1e3", "1e-6", "3,1"]), label="grid")
    commands = [
        ["analyze"],
        ["simulate"],
        ["oracle", "--t", str(budget)],
        ["sweep", "--state", str(state), "--grid", grid],
        ["compare", "--t", str(budget)],
    ]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(oracle, "MAX_ITERATIONS", 50):
        path = Path(tmp) / "scenarios.json"
        path.write_text(json.dumps(list(docs)))
        for command in commands:
            args = [command[0], str(path), *command[1:], "--out", str(Path(tmp) / "out"), "--quiet"]
            result = CliRunner().invoke(cli_main, args)
            if result.exit_code == 0:
                assert result.exception is None and result.output == "", (command, result.output)
                continue
            assert result.exit_code == 1, (command, result.output, result.exception)
            assert isinstance(result.exception, SystemExit), (command, result.exception)
            lines = result.output.splitlines()
            assert lines and all(line.startswith("Error: ") for line in lines), (command, lines)
