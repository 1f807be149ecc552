import ast
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import infotrap
from infotrap import (
    AutoFreeSignals,
    Environment,
    GaussianPrior,
    Scenario,
    ScenarioError,
    SpanError,
    SweepSpec,
    best_set,
    bundled_scenario,
    bundled_scenario_names,
    emit_scenario,
    parse_scenario,
    parse_scenario_file,
    run_scenario,
    sweep,
    write_report_json,
    write_trace_csv,
)
from infotrap import dynamics, oracle, scenarios, spanning
from infotrap.dynamics import Classification, SimulationTrace
from infotrap.gaussian import DivisionVector, FrequencyVector
from infotrap.cli import main as cli_main
from infotrap.scenarios import MAX_HORIZON, analysis_fields, scenario_to_dict


def test_bundled_names():
    assert bundled_scenario_names() == [
        "example2",
        "example2_efficient",
        "example3",
        "precise_info",
    ]


def test_bundled_example2_contents():
    s = bundled_scenario("example2")
    assert s.environment.coefficients.tolist() == [[1, 0], [3, 1], [0, 1]]
    assert np.diag(s.prior.covariance).tolist() == [1.0, 10.0]
    assert s.horizon == 1000


def test_bundled_precise_info_contents():
    s = bundled_scenario("precise_info")
    assert s.environment.coefficients.shape == (4, 3)
    assert np.diag(s.prior.covariance).tolist() == [0.1, 0.1, 0.039]
    assert s.environment.objective[0][1].tolist() == [1.0, 1.0, 0.0]


def test_round_trip_all_bundled():
    for name in bundled_scenario_names():
        s = bundled_scenario(name)
        assert parse_scenario(emit_scenario(s)) == s


def test_parse_rejects_indefinite_covariance():
    doc = scenario_to_dict(bundled_scenario("example2"))
    doc["prior_cov"] = [[1, 2], [2, 1]]
    with pytest.raises(ScenarioError, match="positive definite"):
        parse_scenario(doc)


def test_parse_names_ill_conditioned_covariance():
    # Positive definite, but past the conditioning bound: the refusal says which.
    doc = scenario_to_dict(bundled_scenario("example2"))
    doc["prior_cov"] = [[1e154, 0], [0, 1]]
    with pytest.raises(ScenarioError, match="prior_cov: covariance is too ill-conditioned") as info:
        parse_scenario(doc)
    assert "1.000e-154" in str(info.value) and "1e-12" in str(info.value)
    assert "positive definite" not in str(info.value)


def test_parse_error_paths():
    base = scenario_to_dict(bundled_scenario("example2"))

    doc = dict(base)
    del doc["horizon"]
    with pytest.raises(ScenarioError, match="horizon"):
        parse_scenario(doc)

    doc = dict(base)
    doc["intervention"] = {"warp": 9}
    with pytest.raises(ScenarioError, match="intervention"):
        parse_scenario(doc)

    doc = dict(base)
    doc["prior_mean"] = [0, 0, 0]
    with pytest.raises(ScenarioError, match="prior"):
        parse_scenario(doc)

    doc = dict(base)
    doc["intervention"] = {"free_signals": [[1, 0, 0]]}
    with pytest.raises(ScenarioError, match="free_signals"):
        parse_scenario(doc)


def _example2_doc(**overrides):
    doc = scenario_to_dict(bundled_scenario("example2"))
    doc.update(overrides)
    return doc


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda out: parse_scenario("{not json"), "scenario: invalid JSON"),
        # Python's int refuses to read more than 4,300 digits, with a plain ValueError.
        (lambda out: parse_scenario('{"horizon": 1' + "0" * 5000 + "}"), "scenario: invalid JSON"),
        (lambda out: parse_scenario("[1, 2]"), "scenario: expected an object"),
        (lambda out: parse_scenario(_example2_doc(name="")), "name: must be a non-empty string"),
        (lambda out: parse_scenario(_example2_doc(name=7)), "name: must be a non-empty string"),
        (
            lambda out: parse_scenario(
                _example2_doc(prior_mean=[0, 0, 0], prior_cov=np.eye(3).tolist())
            ),
            "prior_cov: prior has 3 states, environment has 2",
        ),
        (lambda out: parse_scenario(_example2_doc(tie_break="highest")), "tie_break: expected"),
        (
            lambda out: parse_scenario(_example2_doc(sample_realizations="yes")),
            "sample_realizations: must be a boolean",
        ),
        (
            lambda out: parse_scenario(_example2_doc(intervention="precision")),
            'intervention: expected "none" or an object',
        ),
    ],
    ids=[
        "invalid_json",
        "integer_past_the_digit_limit",
        "not_an_object",
        "empty_name",
        "non_string_name",
        "prior_size",
        "unknown_tie_break",
        "non_boolean_realizations",
        "intervention_string",
    ],
)
def test_scenario_refusals(call, fragment, tmp_path):
    with pytest.raises(ScenarioError, match=re.escape(fragment)) as info:
        call(tmp_path / "out")
    assert type(info.value) is ScenarioError
    assert not (tmp_path / "out").exists()


def test_cli_refuses_an_integer_past_the_digit_limit(tmp_path):
    path = tmp_path / "scenario.json"
    text = json.dumps(_example2_doc()).replace('"horizon": 1000', '"horizon": 1' + "0" * 5000)
    path.write_text(text)
    result = CliRunner().invoke(cli_main, ["simulate", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert "invalid JSON" in result.output and "Traceback" not in result.output


def test_parse_rejects_bool_horizon():
    doc = scenario_to_dict(bundled_scenario("example2"))
    doc["horizon"] = True
    with pytest.raises(ScenarioError, match=r"\.horizon: "):
        parse_scenario(doc)


@pytest.mark.parametrize("name", bundled_scenario_names())
@pytest.mark.parametrize("entry", [1e308, -1e308])
def test_parse_rejects_overflowing_prior_cov(name, entry):
    doc = scenario_to_dict(bundled_scenario(name))
    doc["prior_cov"][0][0] = entry
    with pytest.raises(ScenarioError, match=r"\.prior_cov: "):
        parse_scenario(doc)


def test_parse_bounds_horizon():
    doc = scenario_to_dict(bundled_scenario("example2"))
    doc["horizon"] = MAX_HORIZON
    assert parse_scenario(doc).horizon == MAX_HORIZON
    for bad in (MAX_HORIZON + 1, 2**70):
        doc["horizon"] = bad
        with pytest.raises(ScenarioError, match=r"\.horizon: "):
            parse_scenario(doc)


def test_cli_refuses_huge_horizon(tmp_path):
    path = _write_scenario(tmp_path, horizon=2**70)
    result = CliRunner().invoke(cli_main, ["simulate", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert "horizon" in result.output and len(result.output.strip().splitlines()) == 1
    assert "Traceback" not in result.output


def test_parse_rejects_bad_random_tie_break_seed():
    base = scenario_to_dict(bundled_scenario("example2"))
    for bad in (-1, True, 1.5, "7"):
        doc = dict(base)
        doc["tie_break"] = {"random": bad}
        with pytest.raises(ScenarioError, match=r"\.tie_break\.random: "):
            parse_scenario(doc)


def test_parse_rejects_path_like_names():
    base = scenario_to_dict(bundled_scenario("example2"))
    for bad in ("../../x", "..", "sub/x", "sub\\x"):
        doc = dict(base)
        doc["name"] = bad
        with pytest.raises(ScenarioError, match=r"\.name: "):
            parse_scenario(doc)


def test_cli_rejects_name_outside_out(tmp_path):
    doc = scenario_to_dict(bundled_scenario("example2"))
    doc["name"] = "../escaped"
    doc["horizon"] = 10
    path = tmp_path / "in" / "bad.json"
    path.parent.mkdir()
    path.write_text(json.dumps(doc))
    out = tmp_path / "in" / "out"
    for command in ("simulate", "analyze"):
        result = CliRunner().invoke(cli_main, [command, str(path), "--out", str(out)])
        assert result.exit_code != 0
        assert "name" in result.output
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["bad.json"]


def test_parse_interventions():
    base = scenario_to_dict(bundled_scenario("example2"))
    for raw, attr in [
        ({"precision": 4}, "batch"),
        ({"batch": 2}, "batch"),
    ]:
        doc = dict(base)
        doc["intervention"] = raw
        s = parse_scenario(doc)
        assert getattr(s.intervention, attr) == list(raw.values())[0]
    doc = dict(base)
    doc["intervention"] = {"free_signals_auto": {"gamma0": 1.0}}
    s = parse_scenario(doc)
    assert s.intervention == AutoFreeSignals(1.0)
    assert scenario_to_dict(s)["intervention"] == {"free_signals_auto": {"gamma0": 1.0}}
    # Valid documents emit unchanged JSON; an integer gamma0 emits as a float.
    for raw, emitted in [
        ({"precision": 3}, {"precision": 3}),
        ({"batch": 2}, {"batch": 2}),
        ({"free_signals_auto": {"gamma0": 1000}}, {"free_signals_auto": {"gamma0": 1000.0}}),
        ({"free_signals_auto": {"gamma0": 2.5}}, {"free_signals_auto": {"gamma0": 2.5}}),
    ]:
        doc = dict(base, intervention=raw)
        text = emit_scenario(parse_scenario(doc))
        assert json.loads(text)["intervention"] == emitted
        assert emit_scenario(parse_scenario(text)) == text


def test_duplicate_names_rejected(tmp_path):
    doc = scenario_to_dict(bundled_scenario("example2"))
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([doc, doc]))
    with pytest.raises(ScenarioError, match="unique"):
        parse_scenario_file(path)


def _run_and_write(scenario, out):
    """Run one scenario and write its trace CSV and report JSON under ``out``, as
    ``infotrap simulate`` does; returns the report."""
    out.mkdir(parents=True, exist_ok=True)
    trace, report = run_scenario(scenario)
    write_trace_csv(out / f"{scenario.name}_trace.csv", scenario, trace)
    write_report_json(out / f"{scenario.name}_report.json", report)
    return report


def test_run_batch_example2_report(tmp_path, capsys):
    report = _run_and_write(bundled_scenario("example2"), tmp_path)
    assert report["classification"] == "trap"
    assert report["trapped_set"] == [1]
    assert report["inefficiency_ratio"] == pytest.approx(1.5, abs=1e-9)
    assert report["phi_best"] == pytest.approx(2 / 3, abs=1e-12)
    assert report["best_set"] == [2, 3]
    assert report["lambda_star"] == pytest.approx([0, 0.5, 0.5], abs=1e-12)
    assert report["assumption_report"]["unique_minimizer"] is True
    trace_path = tmp_path / "example2_trace.csv"
    report_path = tmp_path / "example2_report.json"
    assert trace_path.exists() and report_path.exists()
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "t,choice,posterior_variance,count_1,count_2,count_3"
    assert lines[1].startswith("1,1,0.5")
    assert len(lines) == 1001
    on_disk = json.loads(report_path.read_text())
    assert on_disk == report
    assert capsys.readouterr() == ("", "")  # the library prints nothing


def test_regression_all_bundled_classifications(tmp_path):
    expected = {
        "example2": ("trap", [1]),
        "example2_efficient": ("efficient", []),
        "example3": ("trap", [3, 4, 5]),
        "precise_info": ("trap", [1, 2]),
    }
    for name in expected:
        report = _run_and_write(bundled_scenario(name), tmp_path)
        kind, trapped = expected[report["name"]]
        assert report["classification"] == kind
        assert report["trapped_set"] == trapped


def test_reports_byte_identical(tmp_path):
    doc = scenario_to_dict(bundled_scenario("example2"))
    doc["horizon"] = 300
    doc["tie_break"] = {"random": 7}
    doc["sample_realizations"] = True
    doc["seed"] = 123
    s = parse_scenario(doc)
    a, b = tmp_path / "a", tmp_path / "b"
    _run_and_write(s, a)
    _run_and_write(s, b)
    for suffix in ("_trace.csv", "_report.json"):
        assert (a / f"example2{suffix}").read_bytes() == (b / f"example2{suffix}").read_bytes()


def test_batch_trace_csv_choice_format(tmp_path):
    doc = scenario_to_dict(bundled_scenario("example2"))
    doc["name"] = "example2_batch"
    doc["horizon"] = 5
    doc["intervention"] = {"batch": 2}
    _run_and_write(parse_scenario(doc), tmp_path)
    lines = (tmp_path / "example2_batch_trace.csv").read_text().splitlines()
    assert lines[1].split(",")[1] == "0;1;1"  # semicolon-joined per-source counts
    assert lines[1].split(",")[3:] == ["0", "1", "1"]


def test_free_signal_escalation_scenario(tmp_path):
    doc = scenario_to_dict(bundled_scenario("example2"))
    doc["name"] = "example2_auto"
    doc["horizon"] = 2000
    doc["intervention"] = {"free_signals_auto": {"gamma0": 1.0}}
    report = _run_and_write(parse_scenario(doc), tmp_path)
    assert report["classification"] == "efficient"
    assert report["gamma_final"] == 1.0


def test_sweep_threshold_example2():
    base = bundled_scenario("example2")
    spec = SweepSpec(base=base, state_index=1, grid=[6, 7, 7.9, 8.1, 9, 12])
    report = sweep(spec)
    kinds = [row["classification"] for row in report["rows"]]
    assert kinds == ["efficient", "efficient", "efficient", "trap", "trap", "trap"]
    assert report["threshold"] == 8.1


@pytest.fixture
def elfving_calls(monkeypatch):
    calls = []
    search = spanning._elfving_best

    def counting(env, start=()):
        calls.append(env)
        return search(env, start)

    monkeypatch.setattr(spanning, "_elfving_best", counting)
    return calls


def test_one_best_set_per_environment(elfving_calls, monkeypatch):
    spec = SweepSpec(base=bundled_scenario("example2"), state_index=1, grid=[6, 7, 7.9, 8.1, 9, 12])
    swept = sweep(spec)
    assert len(elfving_calls) == 1  # six grid points share one environment
    _, report = run_scenario(bundled_scenario("example2"))
    assert len(elfving_calls) == 2  # classification and report fields share it too
    # Searched afresh at every call, the best set gives the same outputs.
    monkeypatch.setattr(dynamics, "best_set", spanning._search_best_set)
    monkeypatch.setattr(scenarios, "best_set", spanning._search_best_set)
    assert sweep(spec) == swept
    assert run_scenario(bundled_scenario("example2"))[1] == report
    assert len(elfving_calls) == 2 + 6 + 2


def test_efficient_run_certifies_its_window_without_qr(elfving_calls, monkeypatch):
    qr_calls = []
    qr = spanning._pivoted_qr_r

    def counting(a):
        qr_calls.append(a)
        return qr(a)

    monkeypatch.setattr(spanning, "_pivoted_qr_r", counting)
    scenario = bundled_scenario("example2_efficient")
    env = scenario.environment
    trace = dynamics.simulate(env, scenario.prior, scenario.horizon)
    assert trace.classification.kind == "efficient"
    assert len(trace.frequency_estimate.support()) == env.num_states
    # The window's two sources are the best set: one certified pass, no QR.
    assert len(elfving_calls) == 1 and qr_calls == []
    assert analysis_fields(env)["best_set"] == [2, 3]
    assert len(elfving_calls) == 1 and qr_calls == []


def test_unspanned_target_raises_on_every_best_set_call():
    env = Environment([[0, 1], [0, 2]])
    for _ in range(2):
        with pytest.raises(SpanError, match="no spanning set"):
            best_set(env)


def test_subnormal_coefficient_gives_a_report():
    # Source 1 alone would need beta = 1e320: it does not span, and nothing warns
    # (tier-1 turns a RuntimeWarning into an error).
    doc = scenario_to_dict(bundled_scenario("example2"))
    doc["coefficients"][0][0] = 1e-320
    scenario = parse_scenario(doc)
    _, report = run_scenario(scenario)
    assert report["best_set"] == [2, 3]
    assert report["assumption_report"]["unique_minimizer"] is True
    with pytest.raises(SpanError, match="do not span"):
        spanning.beta_phi_lambda(scenario.environment, [0])
    assert spanning.subspace_closure(scenario.environment, [0]) == (0,)


def test_sweep_single_point():
    base = bundled_scenario("example2")
    report = sweep(SweepSpec(base=base, state_index=1, grid=[9.0]))
    assert report["threshold"] is None
    assert len(report["rows"]) == 1


def test_sweep_stronger_confounded_source():
    doc = scenario_to_dict(bundled_scenario("example2"))
    doc["name"] = "example2_c10"
    doc["coefficients"] = [[1, 0], [10, 1], [0, 1]]
    base = parse_scenario(doc)
    spec = SweepSpec(base=base, state_index=1, grid=[6, 7.9, 8.1, 12, 50, 98, 100, 120])
    report = sweep(spec)
    assert report["threshold"] == 100.0  # boundary moves to variance 99


def test_sweep_grid_validation():
    base = bundled_scenario("example2")
    with pytest.raises(ScenarioError):
        SweepSpec(base=base, state_index=1, grid=[])
    with pytest.raises(ScenarioError):
        SweepSpec(base=base, state_index=1, grid=[2.0, 1.0])
    with pytest.raises(ScenarioError):
        SweepSpec(base=base, state_index=5, grid=[1.0])


@pytest.mark.parametrize(
    "state_index, grid, field",
    [
        (True, [6.0, 7.0, 9.0], "state_index"),
        (1.0, [6.0], "state_index"),
        (-1, [6.0], "state_index"),
        (2, [6.0], "state_index"),
        (1, ["6", 7, 9], "grid"),
        (1, [True, 7.0], "grid"),
        (1, [6.0, math.inf], "grid"),
        (1, [6.0, math.nan], "grid"),
        (1, [[6.0, 7.0]], "grid"),
        (1, 6.0, "grid"),
        (1, [0.0, 7.0], "grid"),
    ],
)
def test_sweep_spec_reads_fields_by_the_parsers_rules(state_index, grid, field):
    # The library sweep refuses what a scenario file's integers and numbers refuse: a bool
    # is not state 1, a string is not a variance.
    base = bundled_scenario("example2")
    with pytest.raises(ScenarioError, match=f"^{field}: "):
        SweepSpec(base=base, state_index=state_index, grid=grid)


def test_sweep_spec_takes_numpy_integers_and_arrays():
    base = bundled_scenario("example2")
    spec = SweepSpec(base=base, state_index=np.int64(1), grid=np.array([6, 7, 9]))
    assert type(spec.state_index) is int and spec.state_index == 1
    assert spec.grid.dtype == float and spec.grid.tolist() == [6.0, 7.0, 9.0]


def _write_scenario(tmp_path, **overrides):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_example2_doc(**overrides)))
    return path


def test_cli_simulate(tmp_path):
    path = _write_scenario(tmp_path, horizon=200)
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main, ["simulate", str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    line = f"example2: trap on sources [1] (inefficiency 1.5) -> {out / 'example2_report.json'}"
    assert result.output == line + "\n"
    assert (out / "example2_report.json").exists()
    assert (out / "example2_trace.csv").exists()


def test_cli_simulate_quiet(tmp_path):
    path = _write_scenario(tmp_path, horizon=50)
    out = tmp_path / "out"
    result = CliRunner().invoke(
        cli_main, ["simulate", str(path), "--out", str(out), "--quiet"]
    )
    assert result.exit_code == 0
    assert result.output == ""


def test_cli_analyze(tmp_path):
    path = _write_scenario(tmp_path)
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main, ["analyze", str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "example2_analysis.json").read_text())
    assert report["best_set"] == [2, 3]
    assert report["phi_best"] == pytest.approx(2 / 3)


def test_cli_oracle(tmp_path):
    path = _write_scenario(tmp_path)
    out = tmp_path / "out"
    result = CliRunner().invoke(
        cli_main, ["oracle", str(path), "--t", "2", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    report = json.loads((out / "example2_oracle.json").read_text())
    assert report["counts"] == [0, 1, 1]
    assert report["value"] == pytest.approx(0.175)


def test_cli_sweep(tmp_path):
    path = _write_scenario(tmp_path, horizon=400)
    out = tmp_path / "out"
    result = CliRunner().invoke(
        cli_main,
        ["sweep", str(path), "--state", "2", "--grid", "7.9,8.1", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((out / "example2_sweep.json").read_text())
    assert report["threshold"] == 8.1


def test_cli_compare(tmp_path):
    path = _write_scenario(tmp_path)
    out = tmp_path / "out"
    result = CliRunner().invoke(
        cli_main, ["compare", str(path), "--t", "10", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    lines = (out / "example2_compare.csv").read_text().splitlines()
    assert lines[0] == "t,greedy_variance,optimal_variance,ratio"
    assert len(lines) == 11


def test_cli_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    result = CliRunner().invoke(cli_main, ["simulate", str(path)])
    assert result.exit_code != 0


@pytest.mark.parametrize(
    "args, option",
    [
        (["oracle", "--t", "0"], "--t"),
        (["compare", "--t", "0"], "--t"),
        (["sweep", "--state", "2", "--grid", "nan"], "grid"),
        (["sweep", "--state", "2", "--grid", "1,inf"], "grid"),
        (["sweep", "--state", "2", "--grid", "1e-300"], "1e-300"),
        (["compare", "--t", str(MAX_HORIZON + 1)], "--t"),
        (["sweep", "--state", "2", "--grid", "1,a"], "--grid: could not convert"),
        (["sweep", "--state", "3", "--grid", "6,12"], "--state must be >= 1 and at most 2, not 3"),
    ],
)
def test_cli_rejects_bad_options_without_traceback(tmp_path, args, option):
    path = _write_scenario(tmp_path, horizon=20)
    result = CliRunner().invoke(cli_main, [args[0], str(path), *args[1:], "--out", str(tmp_path)])
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit), result.exception
    assert option in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"intervention": {"batch": 400}}, "exceed the batch-allocation bound"),
        ({"intervention": {"free_signals_auto": {"gamma0": 1e100}}}, "not positive"),
        ({"intervention": {"free_signals": [[1e200, 0]]}}, "non-finite entries"),
        (
            {
                "coefficients": [[1, 1], [1, -1], [1, 0]],
                "intervention": {"free_signals_auto": {"gamma0": 1.0}},
            },
            "no unique best set",
        ),
        (
            {"coefficients": [[1e150, 0], [0, 1], [1, 1]], "prior_cov": [[1e10, 0], [0, 1]]},
            "variance reduction is not finite",
        ),
    ],
    ids=[
        "batch_bound",
        "huge_gamma0",
        "overflowing_free_signal",
        "tied_best_set",
        "non_finite_reduction",
    ],
)
@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--state", "2", "--grid", "6,12"]])
def test_cli_run_errors_name_the_scenario(tmp_path, overrides, message, command):
    path = _write_scenario(tmp_path, horizon=20, **overrides)
    result = CliRunner().invoke(
        cli_main, [command[0], str(path), *command[1:], "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert "example2: " in result.output and message in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "command, overrides",
    [(["simulate"], {"intervention": {"batch": 2}}), (["oracle", "--t", "3"], {})],
    ids=["batch", "oracle"],
)
def test_cli_singular_candidate_precision_names_the_scenario(tmp_path, command, overrides):
    # A prior precision of 1e-154 vanishes beside two observations of source 2, so the
    # candidate precision [[18, 6], [6, 2]] is singular.
    path = _write_scenario(tmp_path, horizon=20, prior_cov=[[1e154, 0], [0, 1e154]], **overrides)
    result = CliRunner().invoke(
        cli_main, [command[0], str(path), *command[1:], "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.output == "Error: example2: a candidate posterior precision is singular\n"


def test_cli_simulate_runs_every_scenario_after_a_failure(tmp_path):
    docs = [
        _example2_doc(name="bad", horizon=20, intervention={"batch": 400}),
        _example2_doc(name="good", horizon=20),
        _example2_doc(name="worse", horizon=20, intervention={"batch": 400}),
    ]
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(docs))
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main, ["simulate", str(path), "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    bound = (
        "80601 splits of a batch of 400 observations over 3 sources "
        "exceed the batch-allocation bound 50388"
    )
    assert result.output.splitlines() == [
        f"Error: bad: {bound}",
        f"good: trap on sources [1] (inefficiency 1.5) -> {out / 'good_report.json'}",
        f"Error: worse: {bound}",
    ]
    assert sorted(p.name for p in out.iterdir()) == ["good_report.json", "good_trace.csv"]
    # A scenario's artifacts do not depend on its neighbours.
    path.write_text(json.dumps(docs[1:2]))
    alone = tmp_path / "alone"
    result = CliRunner().invoke(cli_main, ["simulate", str(path), "--out", str(alone), "--quiet"])
    assert result.exit_code == 0, result.output
    for name in ("good_report.json", "good_trace.csv"):
        assert (out / name).read_bytes() == (alone / name).read_bytes()


@pytest.mark.parametrize(
    "command, message, artifacts",
    [
        (
            ["oracle", "--t", "3"],
            "a candidate posterior precision is singular",
            ["good_oracle.json"],
        ),
        (
            ["sweep", "--state", "2", "--grid", "6,12"],
            "grid: variance 6 gives an invalid prior",
            ["good_sweep.json"],
        ),
        (
            ["compare", "--t", "3"],
            "a variance reduction is not finite (inf)",
            ["good_compare.csv"],
        ),
    ],
    ids=["oracle", "sweep", "compare"],
)
def test_cli_runs_every_scenario_after_a_failure(tmp_path, command, message, artifacts):
    # A prior precision of 1e-154 leaves a singular or overflowing candidate in each run.
    bad = [[1e154, 0], [0, 1e154]]
    docs = [
        _example2_doc(name="bad", horizon=20, prior_cov=bad),
        _example2_doc(name="good", horizon=20),
        _example2_doc(name="worse", horizon=20, prior_cov=bad),
    ]
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(docs))
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main, [command[0], str(path), *command[1:], "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    lines = result.output.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("Error: bad: ") and message in lines[0]
    assert lines[1].startswith("good: ")
    assert lines[2] == lines[0].replace("bad", "worse", 1)
    assert sorted(p.name for p in out.iterdir()) == artifacts


def test_cli_sweep_refuses_state_zero_once(tmp_path):
    docs = [_example2_doc(name="first", horizon=20), _example2_doc(name="second", horizon=20)]
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(docs))
    result = CliRunner().invoke(
        cli_main, ["sweep", str(path), "--state", "0", "--grid", "6,12", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.output.count("--state") == 1 and "Traceback" not in result.output


def test_cli_oracle_refuses_an_indefinite_candidate(tmp_path):
    # Cancellation leaves the candidate after one observation with variance -4.4e-170;
    # the oracle's tie test keeps no row for a negative minimum.
    doc = {"name": "big", "coefficients": [[1e90, 1e91]], "prior_cov": [[1, 0], [0, 1]]}
    doc.update(prior_mean=[0, 0], horizon=5)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    result = CliRunner().invoke(
        cli_main, ["oracle", str(path), "--t", "3", "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.output == "Error: big: a candidate posterior precision is singular\n"


# A document found by fuzzing: an LU solve calls its final precision singular, while the
# step's Cholesky solve factors it. Rounded values do not reproduce it.
_FINAL_MEAN_DOC = {
    "name": "final_mean",
    "coefficients": [
        [-0.014928362606180337, 0.011815941141798606],
        [-0.013628059664509237, 0.009251175309932613],
        [-0.007344136045938951, -0.009309370603097675],
        [-0.022261441931272403, -0.014325311259225851],
        [-0.01612018897180794, -0.018392593659696185],
        [0.004715755160667675, 0.02119494260871428],
        [-0.023602108687502735, -0.005226328533076272],
    ],
    "prior_mean": [-1.3708725907667527, 1.0622022401290105],
    "prior_cov": [
        [87.65878374981604, 0.18499436866755442],
        [0.18499436866755442, 0.25983674884978786],
    ],
    "horizon": 16,
    "tie_break": {"random": 78},
    "intervention": {"free_signals_auto": {"gamma0": 3.1257076720181743e33}},
    "seed": 0,
}


def test_sample_realizations_moves_only_final_mean(tmp_path):
    reports = []
    for flag in (False, True):
        path = tmp_path / f"doc_{flag}.json"
        path.write_text(json.dumps(dict(_FINAL_MEAN_DOC, sample_realizations=flag)))
        out = tmp_path / f"out_{flag}"
        result = CliRunner().invoke(cli_main, ["simulate", str(path), "--out", str(out)])
        assert result.exit_code == 0 and result.exception is None, result.output
        reports.append((out / "final_mean_report.json").read_bytes())
    assert reports[0] == reports[1]
    _, trace = scenarios._run_trace(parse_scenario(dict(_FINAL_MEAN_DOC, sample_realizations=True)))
    assert trace.final_mean.shape == (2,) and np.all(np.isfinite(trace.final_mean))


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_uncertified_multi_target_optimum_reports_nulls(tmp_path, monkeypatch, command):
    monkeypatch.setattr(oracle, "MAX_ITERATIONS", 1)
    objective = [{"weight": 1.0, "direction": [1, 0]}, {"weight": 0.5, "direction": [0, 1]}]
    path = _write_scenario(tmp_path, horizon=20, objective=objective)
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main, [command, str(path), "--out", str(out)])
    assert result.exit_code == 0 and result.exception is None, result.output
    (report_path,) = out.glob("example2_*.json")
    report = json.loads(report_path.read_text())
    for key in ("phi_best", "best_set", "lambda_star", "assumption_report"):
        assert report[key] is None


@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_cli_search_bound_exits_before_any_work(tmp_path, command):
    path = _write_scenario(tmp_path, horizon=20)
    result = CliRunner().invoke(
        cli_main, [command, str(path), "--t", "5000", "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.output.startswith("Error: example2: ") and "exhaustive-search bound" in result.output
    assert result.output.count("\n") == 1


def test_cli_compare_is_bounded_by_the_splits_of_every_budget(monkeypatch, tmp_path):
    # Every budget up to 12 over example2's three sources has C(15, 3) = 455 splits; up
    # to 13, C(16, 3) = 560.
    monkeypatch.setattr(oracle, "MAX_COMPOSITIONS", 455)
    path = _write_scenario(tmp_path, horizon=20)

    def compare(t):
        args = ["compare", str(path), "--t", str(t), "--out", str(tmp_path / "out")]
        return CliRunner().invoke(cli_main, args)

    result = compare(12)
    assert result.exit_code == 0, result.output
    assert len((tmp_path / "out" / "example2_compare.csv").read_text().splitlines()) == 13

    def no_work(*args, **kwargs):
        raise AssertionError("ran before the search-bound check")

    monkeypatch.setattr(oracle, "_run", no_work)
    monkeypatch.setattr(oracle, "compositions", no_work)
    monkeypatch.setattr(infotrap.gaussian, "block_increments", no_work)
    result = compare(13)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.output == (
        "Error: example2: 560 splits of every budget up to 13 observations over 3 sources "
        "exceed the exhaustive-search bound 455\n"
    )


def test_run_scenario_multi_direction_report(tmp_path):
    doc = scenario_to_dict(bundled_scenario("example2"))
    doc["name"] = "weighted"
    doc["objective"] = [
        {"weight": 1.0, "direction": [1, 0]},
        {"weight": 0.5, "direction": [0, 1]},
    ]
    doc["horizon"] = 60
    s = parse_scenario(doc)
    trace, report = run_scenario(s)
    assert report["assumption_report"] is None  # numeric-only path
    assert report["classification"] == "undetermined"
    assert report["inefficiency_ratio"] is None


@pytest.mark.parametrize("c", [1e155, 1e160, 1e200])
def test_parse_rejects_coefficients_with_overflowing_squares(c):
    doc = dict(scenario_to_dict(bundled_scenario("example2")), coefficients=[[c, 0], [3, 1], [0, 1]])
    with pytest.raises(ScenarioError, match="coefficients"):
        parse_scenario(doc)


def test_cli_simulate_rejects_overflowing_coefficients(tmp_path):
    path = _write_scenario(tmp_path, coefficients=[[1e200, 0], [3, 1], [0, 1]], horizon=5)
    result = CliRunner().invoke(cli_main, ["simulate", str(path), "--out", str(tmp_path)])
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit), result.exception
    assert "coefficients" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("gamma0", [float("nan"), float("inf"), 1e308, 0, -1])
def test_parse_rejects_bad_free_signals_auto_gamma0(gamma0):
    doc = scenario_to_dict(bundled_scenario("example2"))
    doc["intervention"] = {"free_signals_auto": {"gamma0": gamma0}}
    with pytest.raises(ScenarioError, match="gamma0"):
        parse_scenario(doc)


@pytest.mark.parametrize(
    "raw, field",
    [
        ({"precision": 2.7}, "precision"),
        ({"precision": "3"}, "precision"),
        ({"precision": True}, "precision"),
        ({"batch": True}, "batch"),
        ({"batch": 2.0}, "batch"),
        ({"free_signals_auto": {"gamma0": True}}, "free_signals_auto"),
        ({"free_signals_auto": {"gamma0": "3"}}, "free_signals_auto"),
        ({"free_signals_auto": {"gamma0": None}}, "free_signals_auto"),
        ({"free_signals_auto": {"gamma0": 10**400}}, "free_signals_auto"),
        ({"precision": 10**400}, "precision"),
    ],
)
def test_parse_rejects_coerced_intervention_values(raw, field):
    doc = scenario_to_dict(bundled_scenario("example2"))
    doc["intervention"] = raw
    with pytest.raises(ScenarioError, match=rf"\.intervention\.{field}: "):
        parse_scenario(doc)


def test_analysis_fields_beyond_enumeration_cap(monkeypatch):
    # Beyond the scan bound the best set comes from the certified LP alone: no
    # enumeration, and no detour through the numeric frequency optimizer. 30 sources at
    # K=4 scan 30 * 31,930 entries, within the shipped bound and past the patched one.
    env = Environment(np.random.default_rng(0).standard_normal((30, 4)))

    def refuse(env):
        raise AssertionError("enumerated beyond the bound")

    monkeypatch.setattr(infotrap.spanning, "enumerate_minimal_spanning_sets", refuse)
    assert analysis_fields(env)["assumption_report"]["unique_minimizer"] is True
    monkeypatch.setattr(infotrap.spanning, "MAX_SCAN_ENTRIES", 30 * 31_930 - 1)
    fields = analysis_fields(env)
    star = best_set(env)
    assert fields["phi_best"] == star.phi == 0.5562948950325473
    assert fields["best_set"] == [i + 1 for i in star.indices]
    assert fields["assumption_report"] is None


def test_analysis_fields_of_a_tie_beyond_the_scan_bound_are_null(monkeypatch):
    # Identical sources tie, so only enumeration could order them, and it is refused.
    monkeypatch.setattr(infotrap.spanning, "MAX_SCAN_ENTRIES", 8)
    fields = analysis_fields(Environment(np.ones((3, 1))))
    assert fields == dict.fromkeys(["phi_best", "best_set", "lambda_star", "assumption_report"])


_UNIDENTIFIED = {
    # one target outside the sources' span
    "unidentified": {"coefficients": [[0, 1], [0, 2], [0, 1.5]]},
    # two targets, e1 spanned and e3 not
    "unidentified_multi": {
        "coefficients": [[1, 0, 0], [0, 1, 0]],
        "objective": [
            {"weight": 1.0, "direction": [1, 0, 0]},
            {"weight": 1.0, "direction": [0, 0, 1]},
        ],
        "prior_mean": [0, 0, 0],
        "prior_cov": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    },
    # no source observes anything, and the targets are tiny: still not spanned
    "unidentified_tiny": {
        "coefficients": [[0, 0], [0, 0], [0, 0]],
        "objective": [
            {"weight": 1.0, "direction": [1.9e-273, 0]},
            {"weight": 1.0, "direction": [0, 1.9e-273]},
        ],
    },
}


def test_unidentified_target_reports_nulls(tmp_path):
    for name, fields in _UNIDENTIFIED.items():
        doc = scenario_to_dict(bundled_scenario("example2"))
        doc.update(fields, name=name, horizon=20)
        report = _run_and_write(parse_scenario(doc), tmp_path)
        assert report["classification"] == "undetermined"
        for key in ("phi_best", "best_set", "lambda_star", "assumption_report"):
            assert report[key] is None
        assert (tmp_path / f"{name}_trace.csv").exists()
        assert json.loads((tmp_path / f"{name}_report.json").read_text()) == report
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        result = CliRunner().invoke(cli_main, ["analyze", str(path), "--out", str(tmp_path)])
        assert result.exit_code == 0 and result.exception is None, result.output
        assert "phi=n/a" in result.output


def test_library_does_not_print():
    # Only the command-line front end writes to the terminal, through click.echo.
    package = Path(infotrap.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "cli.py":
            continue
        calls = [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ]
        assert calls == [], f"{path.name} calls print on lines {calls}"


def test_one_search_bound_gate():
    # Every exhaustive search is refused by gaussian._check_search, and sources are not capped.
    package = Path(infotrap.__file__).parent
    raised, gates = [], []
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "MAX_SOURCES_ENUMERATION" not in text, path.name
        tree = ast.parse(text)
        raised += [
            (path.name, call.lineno)
            for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "SearchBoundError"
        ]
        gates += [(path.name, f) for f in tree.body if getattr(f, "name", "") == "_check_search"]
    [(module, line)] = raised
    [(gate_module, gate)] = gates
    assert module == gate_module == "gaussian.py" and gate.lineno < line <= gate.end_lineno


def _tests_for_bool(node):
    """Lines of the ``isinstance`` calls under ``node`` whose type argument names a bool."""
    return [
        call.lineno
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "isinstance"
        and len(call.args) == 2
        and any(
            (isinstance(n, ast.Name) and n.id == "bool")
            or (isinstance(n, ast.Attribute) and n.attr in ("bool", "bool_"))
            for n in ast.walk(call.args[1])
        )
    ]


def test_bools_are_told_from_numbers_in_one_gate_and_one_reader():
    # Every integer goes through gaussian._as_int and every number through
    # gaussian._numbers; only a scenario's sample_realizations flag is read as a bool.
    package = Path(infotrap.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = [(n.name, n) for n in tree.body if isinstance(n, ast.FunctionDef)]
        owners += [
            (f"{c.name}.{f.name}", f)
            for c in tree.body
            if isinstance(c, ast.ClassDef)
            for f in c.body
            if isinstance(f, ast.FunctionDef)
        ]
        found += [(path.name, name) for name, node in owners for _ in _tests_for_bool(node)]
        # None outside a function or a method, where no owner above would see it.
        assert len(_tests_for_bool(tree)) == sum(f == path.name for f, _ in found), path.name
    assert sorted(found) == [
        ("gaussian.py", "_as_int"),
        ("gaussian.py", "_numbers"),
        ("scenarios.py", "parse_scenario"),
    ]


# Public in their module but not re-exported by the package.
_NOT_REEXPORTED = {"dynamics": {"Intervention", "compositions"}}


def test_package_reexports_each_modules_all():
    # A public name removed from a module's __all__ must leave the package too.
    package = Path(infotrap.__file__).parent
    tree = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        node.module: {alias.name for alias in node.names}
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    assert set(imported) == {"gaussian", "spanning", "dynamics", "oracle", "scenarios"}
    for module, names in imported.items():
        public = set(getattr(infotrap, module).__all__)
        assert names == public - _NOT_REEXPORTED.get(module, set()), module
        assert _NOT_REEXPORTED.get(module, set()) <= public, module


def _fresh_interpreter(code):
    """Run ``code`` in a new interpreter that imports this checkout's package."""
    src = str(Path(infotrap.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env).returncode


def test_cli_import_leaves_out_scipy_optimize():
    code = "import sys, infotrap.cli; sys.exit('scipy.optimize' in sys.modules)"
    assert _fresh_interpreter(code) == 0


def test_cli_import_leaves_out_scipy_linalg():
    code = "import sys, infotrap.cli; sys.exit('scipy.linalg' in sys.modules)"
    assert _fresh_interpreter(code) == 0


def test_library_imports_scipy_linalg_and_optimize_only_inside_functions():
    # Importing either costs every command its start-up time; LAPACK comes from
    # scipy's extension module, which gaussian loads by itself.
    slow = ("scipy.linalg", "scipy.optimize")
    package = Path(infotrap.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nodes = [tree]
        found = []
        while nodes:
            node = nodes.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                names = []
            if any(name == m or name.startswith(m + ".") for name in names for m in slow):
                found.append(node.lineno)
            nodes.extend(ast.iter_child_nodes(node))
        assert found == [], f"{path.name} imports scipy.linalg or scipy.optimize on lines {found}"


# The third order hides the extension file's suffix from gaussian's loader, which
# then imports the module the ordinary way.
@pytest.mark.parametrize(
    "first, second",
    [
        ("import infotrap", "import scipy.linalg"),
        ("import scipy.linalg", "import infotrap"),
        ("import importlib.machinery as m; m.EXTENSION_SUFFIXES[:] = ['.missing']", "import infotrap"),
    ],
    ids=["infotrap-first", "scipy-first", "file-missing"],
)
def test_posv_is_scipys_in_either_import_order(first, second):
    # gaussian loads scipy's LAPACK module under its own name, so scipy's lookup
    # returns the very function the package calls, and the same module for geqp3.
    code = f"""{first}
{second}
import sys
import numpy as np
from scipy.linalg import get_lapack_funcs
from infotrap import gaussian
a = np.ones((2, 3)).T
assert get_lapack_funcs(("posv",), dtype=np.float64)[0] is gaussian._posv
assert get_lapack_funcs(("geqp3",), (a,))[0] is gaussian._flapack.dgeqp3
assert sys.modules["scipy.linalg._flapack"] is gaussian._flapack
"""
    assert _fresh_interpreter(code) == 0


_NUMBER_CASES = [
    ({"coefficients": [["1", 0], [3, 1], [0, 1]]}, "coefficients"),
    ({"coefficients": [[True, 0], [3, 1], [0, 1]]}, "coefficients"),
    ({"coefficients": [[10**400, 0], [3, 1], [0, 1]]}, "coefficients"),
    ({"coefficients": [[1, 0], [3], [0, 1]]}, "coefficients"),
    ({"coefficients": [1, 0]}, "coefficients"),
    ({"objective": [{"weight": True, "direction": [1, 0]}]}, "objective[0].weight"),
    ({"objective": [{"weight": "1", "direction": [1, 0]}]}, "objective[0].weight"),
    ({"objective": [{"weight": [1.0], "direction": [1, 0]}]}, "objective[0].weight"),
    ({"objective": [{"weight": 1.0, "direction": [True, 0]}]}, "objective[0].direction"),
    ({"objective": [{"weight": 1.0, "direction": ["1", 0]}]}, "objective[0].direction"),
    ({"prior_mean": [0, False]}, "prior_mean"),
    ({"prior_mean": ["0", 0]}, "prior_mean"),
    ({"prior_mean": [10**400, 0]}, "prior_mean"),
    ({"prior_cov": [[1, 0], [0, "10"]]}, "prior_cov"),
    ({"prior_cov": [[True, 0], [0, 10]]}, "prior_cov"),
    ({"prior_cov": [[10**400, 0], [0, 10]]}, "prior_cov"),
    ({"intervention": {"free_signals": [[0, True]]}}, "intervention.free_signals"),
    ({"intervention": {"free_signals": [["0", 1]]}}, "intervention.free_signals"),
    ({"intervention": {"free_signals": [[0, 10**400]]}}, "intervention.free_signals"),
    ({"seed": True}, "seed"),
]


@pytest.mark.parametrize("changes, field", _NUMBER_CASES)
def test_parse_rejects_coerced_numbers(changes, field):
    doc = dict(scenario_to_dict(bundled_scenario("example2")), **changes)
    with pytest.raises(ScenarioError, match="^" + re.escape(f"scenario.{field}: ")):
        parse_scenario(doc)
    # The same document as JSON text, where such values arrive from files.
    with pytest.raises(ScenarioError, match="^" + re.escape(f"scenario.{field}: ")):
        parse_scenario(json.dumps(doc))


# One field of a scenario file: the text that carries a value X, the changes a value makes
# to an example2 document, and the library call that owns the field.
_C, _U = [[1, 0], [3, 1], [0, 1]], [1, 0]
_PRIOR = ([0, 0], [[1, 0], [0, 10]])
_ENV = Environment(_C)
_X = object()


def _simulated(arguments):
    """A call that runs example2 with the keyword arguments ``arguments(value)``."""
    return lambda v: dynamics.simulate(_ENV, GaussianPrior(*_PRIOR), **arguments(v))


_FIELDS = {
    "coefficients": ([[_X, 0], [3, 1], [0, 1]], "coefficients", Environment),
    "objective[0].weight": (_X, "weight", lambda w: Environment(_C, [(w, _U)])),
    "objective[0].direction": ([_X, 0], "direction", lambda d: Environment(_C, [(1.0, d)])),
    "prior_mean": ([_X, 0], "prior_mean", lambda m: GaussianPrior(m, _PRIOR[1])),
    "prior_cov": ([[_X, 0], [0, 10]], "prior_cov", lambda s: GaussianPrior(_PRIOR[0], s)),
    "horizon": (_X, "horizon", _simulated(lambda h: dict(horizon=h))),
    "seed": (_X, "seed", _simulated(lambda s: dict(horizon=2, sample_realizations=True, seed=s))),
    "tie_break.random": (_X, "random", dynamics.TieBreak.random),
    "intervention.precision": (_X, "precision", dynamics.PrecisionReplicate),
    "intervention.batch": (_X, "batch", dynamics.BatchAllocate),
    "intervention.free_signals": (
        [[_X, 0], [0, 1]],
        "free_signals",
        _simulated(lambda v: dict(horizon=2, intervention=dynamics.FreeSignals(v))),
    ),
    "intervention.free_signals_auto": (_X, "gamma0", AutoFreeSignals),
}


def _fill(text, value):
    if text is _X:
        return value
    return [_fill(t, value) for t in text] if isinstance(text, list) else text


def _in_document(field, value):
    key = _FIELDS[field][1]
    if field.startswith("objective"):
        entry = {"weight": 1.0, "direction": _U, key: value}
        return {"objective": [entry]}
    if field == "tie_break.random":
        return {"tie_break": {"random": value}}
    if field == "intervention.free_signals_auto":
        return {"intervention": {"free_signals_auto": {"gamma0": value}}}
    if field.startswith("intervention."):
        return {"intervention": {key: value}}
    return {key: value}


# Raw values put in a field's place X, and two whole field values: one with a row
# longer than the others, and one nested a level too deep.
_RAW = {
    "bool": True,
    "string": "1",
    "fraction": 2.5,
    "negative": -1,
    "huge": 10**400,
    "nan": float("nan"),
    "numpy_int": np.int64(3),
}


def _field_value(field, raw):
    text = _FIELDS[field][0]
    if raw == "depth":
        return [_fill(text, 1)]
    if raw == "ragged":
        rows = _fill(text, 1)
        if isinstance(rows, list) and isinstance(rows[0], list):
            return [rows[0] + [0]] + rows[1:]
        return [[1], [1, 2]]
    return _fill(text, _RAW[raw])


@pytest.mark.parametrize("raw", [*_RAW, "ragged", "depth"])
@pytest.mark.parametrize("field", list(_FIELDS))
def test_files_and_library_calls_share_one_rule(field, raw):
    # The parser and the library call that owns a field accept and refuse the same value.
    value = _field_value(field, raw)
    doc = dict(scenario_to_dict(bundled_scenario("example2")), **_in_document(field, value))
    try:
        _FIELDS[field][2](value)
        library_refuses = False
    except ValueError:
        library_refuses = True
    # A weight the reader accepts can still be refused by Environment, on the pair's path.
    prefix = re.escape(f"scenario.{field}: ")
    if field.startswith("objective"):
        prefix = f"({prefix}|{re.escape('scenario.coefficients/objective: ')})"
    if library_refuses:
        with pytest.raises(ScenarioError, match="^" + prefix):
            parse_scenario(doc)
    else:
        parse_scenario(doc)


def test_parse_reads_integers_as_floats():
    doc = scenario_to_dict(bundled_scenario("example2"))
    ints = dict(
        doc,
        coefficients=[[1, 0], [3, 1], [0, 1]],
        objective=[{"weight": 1, "direction": [1, 0]}],
        prior_mean=[0, 0],
        prior_cov=[[1, 0], [0, 10]],
        intervention={"free_signals": [[0, 2]]},
    )
    floats = dict(doc, intervention={"free_signals": [[0.0, 2.0]]})
    assert emit_scenario(parse_scenario(ints)) == emit_scenario(parse_scenario(floats))


def one_shot_trace_csv(path, scenario, trace):
    """The trace CSV built whole and written at once: the reference for the block writer."""
    n = scenario.environment.num_sources
    picks = np.asarray(trace.choices, dtype=np.int64)
    if picks.ndim == 2:
        labels = [";".join(map(str, row)) for row in picks.tolist()]
        steps = picks
    else:
        labels = (picks + 1).tolist()
        steps = np.zeros((picks.size, n), dtype=np.int64)
        steps[np.arange(picks.size), picks] = 1
    row = "%d,%s,%.17g" + ",%d" * n
    lines = ["t,choice,posterior_variance," + ",".join(f"count_{i+1}" for i in range(n))]
    columns = zip(labels, trace.variance_path.tolist(), np.cumsum(steps, axis=0).tolist())
    lines += [row % (t, label, v, *counts) for t, (label, v, counts) in enumerate(columns, 1)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def one_shot_compare_csv(path, rows):
    """The compare CSV built whole from ``greedy_vs_optimal`` rows: the reference for the
    block writer."""
    lines = ["t,greedy_variance,optimal_variance,ratio"]
    for r in rows:
        lines.append(f"{r.t},{r.greedy_variance:.17g},{r.optimal_variance:.17g},{r.ratio:.17g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "intervention",
    ["none", {"precision": 2}, {"batch": 2}, {"free_signals": [[0.5, 1.0]]}],
    ids=["single_source", "precision", "batch", "free_signals"],
)
@pytest.mark.parametrize("horizon", [1, 6, 7, 8, 15])
def test_trace_csv_in_blocks_matches_one_shot(monkeypatch, tmp_path, intervention, horizon):
    # Blocks of 7 periods: a horizon one short of, at, one past and two blocks past a block.
    monkeypatch.setattr(dynamics, "COMPOSITION_BLOCK", 7)
    scenario = parse_scenario(_example2_doc(horizon=horizon, intervention=intervention))
    trace, _ = run_scenario(scenario)
    scenarios.write_trace_csv(tmp_path / "blocks.csv", scenario, trace)
    one_shot_trace_csv(tmp_path / "whole.csv", scenario, trace)
    written = (tmp_path / "blocks.csv").read_bytes()
    assert written == (tmp_path / "whole.csv").read_bytes()
    assert written.count(b"\n") == horizon + 1


@pytest.mark.parametrize("budget", [1, 7, 8, 30])
def test_cli_compare_in_blocks_matches_one_shot(monkeypatch, tmp_path, budget):
    monkeypatch.setattr(dynamics, "COMPOSITION_BLOCK", 7)
    path = _write_scenario(tmp_path)
    out = tmp_path / "out"
    args = ["compare", str(path), "--t", str(budget), "--out", str(out)]
    result = CliRunner().invoke(cli_main, args)
    assert result.exit_code == 0, result.output
    s = bundled_scenario("example2")
    rows = oracle.greedy_vs_optimal(s.environment, s.prior, budget)
    one_shot_compare_csv(tmp_path / "whole.csv", rows)
    assert (out / "example2_compare.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert result.output.startswith(f"example2: final ratio {rows[-1].ratio:.4f} -> ")


def test_compare_csv_writes_an_overflowing_ratio_as_inf(tmp_path):
    greedy, optimal = np.array([2.0, 1e300]), np.array([1.0, 1e-10])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        last = scenarios.write_compare_csv(tmp_path / "c.csv", greedy, optimal)
    assert last == np.inf == 1e300 / 1e-10
    assert (tmp_path / "c.csv").read_text().splitlines() == [
        "t,greedy_variance,optimal_variance,ratio",
        "1,2,1,2",
        "2,1.0000000000000001e+300,1e-10,inf",
    ]


# Any float the writers may meet, the edge cases drawn often: zero, subnormals, the
# largest magnitudes, inf and NaN.
_FLOATS = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2e-308, 1e308, 1.7976931348623157e308, math.inf, math.nan]),
    st.floats(),
)
# A positive finite optimum: a greedy variance of 1e308 over a subnormal one overflows.
_OPTIMA = st.one_of(st.sampled_from([5e-324, 1e-310, 1e308]), st.floats(1e-320, 1e308))


@st.composite
def _trace_columns(draw):
    """(N, choices, variance path) of a 1..30-period run over N = 1..13 sources; the choices
    are all source indices or all per-source count vectors."""
    n, periods = draw(st.integers(1, 13)), draw(st.integers(1, 30))
    if draw(st.booleans()):
        choice = st.tuples(*[st.integers(0, 3)] * n)
    else:
        choice = st.integers(0, n - 1)
    choices = draw(st.lists(choice, min_size=periods, max_size=periods))
    return n, choices, np.array(draw(st.lists(_FLOATS, min_size=periods, max_size=periods)))


WRITER_PROPERTY = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@WRITER_PROPERTY
@given(columns=_trace_columns())
def test_trace_csv_matches_the_per_row_reference(monkeypatch, tmp_path, columns):
    # Blocks of 7 periods, so most draws span several blocks.
    monkeypatch.setattr(dynamics, "COMPOSITION_BLOCK", 7)
    n, choices, variances = columns
    scenario = SimpleNamespace(environment=SimpleNamespace(num_sources=n))
    trace = SimpleNamespace(choices=choices, variance_path=variances)
    scenarios.write_trace_csv(tmp_path / "blocks.csv", scenario, trace)
    one_shot_trace_csv(tmp_path / "whole.csv", scenario, trace)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@WRITER_PROPERTY
@given(pairs=st.lists(st.tuples(_FLOATS, _OPTIMA), min_size=1, max_size=30))
@example(pairs=[(2.0, 1.0)] * 7 + [(1e300, 1e-10), (1e308, 5e-324)])
def test_compare_csv_matches_the_per_row_reference(monkeypatch, tmp_path, pairs):
    # Blocks of 7 budgets; the explicit example overflows two ratios in the second block.
    monkeypatch.setattr(dynamics, "COMPOSITION_BLOCK", 7)
    greedy, optimal = (np.array(column) for column in zip(*pairs))
    last = scenarios.write_compare_csv(tmp_path / "blocks.csv", greedy, optimal)
    rows = [
        SimpleNamespace(t=t, greedy_variance=g, optimal_variance=o, ratio=g / o)
        for t, (g, o) in enumerate(pairs, 1)
    ]
    one_shot_compare_csv(tmp_path / "whole.csv", rows)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert last == rows[-1].ratio or math.isnan(last) and math.isnan(rows[-1].ratio)


def _traced_peak(write) -> int:
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The writers' memory tests scale the block and the run down together, since tracing
# every allocation slows formatting tenfold. A run of 25,000 periods in blocks of 2,048
# keeps the ratio of run to block of 2x10^5 periods in blocks of 16,384.
LONG_RUN, SHORT_BLOCK = 25_000, 2_048


def test_trace_csv_holds_one_block_of_periods(monkeypatch, tmp_path):
    # A synthetic trace over five sources, not a 25,000-step run. Blocks of 2,048 periods
    # peak near 0.94 MB traced, against 10.9 MB for the whole trace in one block.
    monkeypatch.setattr(dynamics, "COMPOSITION_BLOCK", SHORT_BLOCK)
    rng = np.random.default_rng(3)
    choices = rng.integers(0, 5, LONG_RUN).tolist()
    counts = np.bincount(choices, minlength=5)
    trace = SimulationTrace(
        choices=choices,
        variance_path=rng.uniform(0, 1, LONG_RUN),
        final_counts=DivisionVector(counts),
        classification=Classification("undetermined"),
        inefficiency_ratio=None,
        frequency_estimate=FrequencyVector(counts / LONG_RUN),
    )
    scenario = bundled_scenario("example3")
    peak = _traced_peak(lambda: scenarios.write_trace_csv(tmp_path / "t.csv", scenario, trace))
    assert peak < 4 * 2**20
    last = (tmp_path / "t.csv").read_text().splitlines()[-1]
    assert last.split(",")[3:] == [str(c) for c in counts]


def test_compare_csv_holds_one_block_of_budgets(monkeypatch, tmp_path):
    # Blocks of 2,048 budgets peak near 0.68 MB traced, against 6.0 MB for every budget in
    # one block.
    monkeypatch.setattr(dynamics, "COMPOSITION_BLOCK", SHORT_BLOCK)
    rng = np.random.default_rng(4)
    greedy, optimal = rng.uniform(1, 2, LONG_RUN), rng.uniform(0.5, 1, LONG_RUN)
    peak = _traced_peak(lambda: scenarios.write_compare_csv(tmp_path / "c.csv", greedy, optimal))
    assert peak < 3 * 2**20
