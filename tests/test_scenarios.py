import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import infotrap
from infotrap import (
    AutoFreeSignals,
    Environment,
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
    run_batch,
    run_scenario,
    sweep,
)
from infotrap import dynamics, scenarios, spanning
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


def test_run_batch_empty(tmp_path):
    out = tmp_path / "out"
    assert run_batch([], out) == []
    assert not any(out.iterdir())


def test_run_batch_example2_report(tmp_path, capsys):
    s = bundled_scenario("example2")
    reports = run_batch([s], tmp_path)
    report = reports[0]
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
    scenarios = [bundled_scenario(n) for n in expected]
    reports = run_batch(scenarios, tmp_path)
    for report in reports:
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
    run_batch([s], a)
    run_batch([s], b)
    for suffix in ("_trace.csv", "_report.json"):
        assert (a / f"example2{suffix}").read_bytes() == (b / f"example2{suffix}").read_bytes()


def test_batch_trace_csv_choice_format(tmp_path):
    doc = scenario_to_dict(bundled_scenario("example2"))
    doc["name"] = "example2_batch"
    doc["horizon"] = 5
    doc["intervention"] = {"batch": 2}
    run_batch([parse_scenario(doc)], tmp_path)
    lines = (tmp_path / "example2_batch_trace.csv").read_text().splitlines()
    assert lines[1].split(",")[1] == "0;1;1"  # semicolon-joined per-source counts
    assert lines[1].split(",")[3:] == ["0", "1", "1"]


def test_free_signal_escalation_scenario(tmp_path):
    doc = scenario_to_dict(bundled_scenario("example2"))
    doc["name"] = "example2_auto"
    doc["horizon"] = 2000
    doc["intervention"] = {"free_signals_auto": {"gamma0": 1.0}}
    s = parse_scenario(doc)
    reports = run_batch([s], tmp_path)
    assert reports[0]["classification"] == "efficient"
    assert reports[0]["gamma_final"] == 1.0


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

    def counting(env):
        calls.append(env)
        return search(env)

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


def _write_scenario(tmp_path, **overrides):
    doc = scenario_to_dict(bundled_scenario("example2"))
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
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
        ({"intervention": {"batch": 13}}, "batch allocation search supports"),
        ({"intervention": {"free_signals_auto": {"gamma0": 1e100}}}, "not positive"),
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
    ids=["batch_bound", "huge_gamma0", "tied_best_set", "non_finite_reduction"],
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
    # Beyond the cap the best set comes from the certified LP alone: no enumeration,
    # and no detour through the numeric frequency optimizer.
    env = Environment(np.random.default_rng(0).standard_normal((30, 4)))

    def refuse(env):
        raise AssertionError("enumerated beyond the cap")

    monkeypatch.setattr(infotrap.spanning, "enumerate_minimal_spanning_sets", refuse)
    fields = analysis_fields(env)
    star = best_set(env)
    assert fields["phi_best"] == star.phi == 0.5562948950325473
    assert fields["best_set"] == [i + 1 for i in star.indices]
    assert fields["assumption_report"] is None


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
}


def test_unidentified_target_reports_nulls(tmp_path):
    for name, fields in _UNIDENTIFIED.items():
        doc = scenario_to_dict(bundled_scenario("example2"))
        doc.update(fields, name=name, horizon=20)
        report = run_batch([parse_scenario(doc)], tmp_path)[0]
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
