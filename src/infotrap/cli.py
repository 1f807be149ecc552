"""Command-line front end for scenario analysis, simulation, and oracle runs."""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click

from .dynamics import MAX_HORIZON
from .oracle import _comparison_columns, optimal_division
from .scenarios import (
    RUN_ERRORS,
    ScenarioError,
    SweepSpec,
    analysis_fields,
    parse_scenario_file,
    run_scenario,
    sweep as run_sweep,
    write_compare_csv,
    write_report_json,
    write_trace_csv,
)


@click.group()
def main():
    """Sequential information acquisition: analysis, simulation, and oracles.

    Each subcommand runs every scenario of FILE. One that cannot run is reported and
    the others still run; the exit status is then 1.
    """


def scenario_command(job):
    """A subcommand that runs ``job(scenario, out, **options)`` on each scenario of FILE.

    The job writes the scenario's artifact under ``--out`` and returns its progress line.
    A scenario that cannot run is reported as ``Error: <name>: <message>`` and the others
    still run; the exit status is then 1.
    """

    @functools.wraps(job)  # name, help and the job's own options
    def command(file, out: Path, quiet: bool, **options):
        try:
            scenarios = parse_scenario_file(file)
        except ScenarioError as exc:
            raise click.ClickException(str(exc)) from exc
        out.mkdir(parents=True, exist_ok=True)
        failed = False
        for scenario in scenarios:
            try:
                line = job(scenario, out, **options)
            except RUN_ERRORS as exc:
                click.echo(f"Error: {scenario.name}: {exc}", err=True)
                failed = True
            else:
                if not quiet:
                    click.echo(line)
        if failed:
            sys.exit(1)

    shared = [
        click.Argument(["file"], type=click.Path(exists=True, dir_okay=False)),
        click.Option(
            ["--out"],
            type=click.Path(file_okay=False, path_type=Path),
            default=Path("."),
            show_default=True,
            help="Directory for emitted artifacts.",
        ),
        click.Option(["--quiet"], is_flag=True, help="Suppress progress output."),
    ]
    return main.command(params=shared)(command)


@scenario_command
def analyze(scenario, out: Path) -> str:
    """Spanning-set analysis of each scenario's environment (no simulation)."""
    report = {"name": scenario.name, **analysis_fields(scenario.environment)}
    path = out / f"{scenario.name}_analysis.json"
    write_report_json(path, report)
    phi = report["phi_best"]
    phi_txt = "n/a" if phi is None else f"{phi:.6g}"
    return f"{scenario.name}: best set {report['best_set']} phi={phi_txt} -> {path}"


@scenario_command
def simulate(scenario, out: Path) -> str:
    """Run each scenario, writing a trace CSV and a report JSON."""
    trace, report = run_scenario(scenario)
    write_trace_csv(out / f"{scenario.name}_trace.csv", scenario, trace)
    path = out / f"{scenario.name}_report.json"
    write_report_json(path, report)
    ratio = report["inefficiency_ratio"]
    ratio_txt = "n/a" if ratio is None else f"{ratio:.6g}"
    label = report["classification"]
    if report["trapped_set"]:
        label += f" on sources {report['trapped_set']}"
    return f"{scenario.name}: {label} (inefficiency {ratio_txt}) -> {path}"


@scenario_command
@click.option("--t", "budget", type=click.IntRange(1), required=True, help="Observation budget.")
def oracle(scenario, out: Path, budget: int) -> str:
    """Exact optimal allocation of an observation budget for each scenario."""
    result = optimal_division(scenario.environment, scenario.prior, budget)
    report = {
        "name": scenario.name,
        "t": budget,
        "counts": [int(c) for c in result.counts.counts],
        "value": result.value,
        "num_optima": result.num_optima,
        "all_optima": (
            None
            if result.all_optima is None
            else [[int(c) for c in d.counts] for d in result.all_optima]
        ),
    }
    write_report_json(out / f"{scenario.name}_oracle.json", report)
    return f"{scenario.name}: n({budget})={report['counts']} V={result.value:.6g}"


def _grid(ctx, param, grid: str) -> list[float]:
    try:
        return [float(v) for v in grid.split(",") if v.strip()]
    except ValueError as exc:
        raise click.ClickException(f"--grid: {exc}") from exc


@scenario_command
@click.option("--state", type=click.IntRange(1), required=True, help="1-based state index to vary.")
@click.option("--grid", required=True, callback=_grid, help="Comma-separated increasing variances.")
def sweep(scenario, out: Path, state: int, grid: list[float]) -> str:
    """Classify each scenario across a grid of one prior variance."""
    states = scenario.prior.num_states
    if state > states:
        raise ScenarioError(f"--state must be >= 1 and at most {states}, not {state}")
    report = run_sweep(SweepSpec(base=scenario, state_index=state - 1, grid=grid))
    path = out / f"{scenario.name}_sweep.json"
    write_report_json(path, report)
    return f"{scenario.name}: threshold={report['threshold']} -> {path}"


@scenario_command
@click.option(
    "--t", "budget", type=click.IntRange(1, MAX_HORIZON), required=True, help="Comparison horizon."
)
def compare(scenario, out: Path, budget: int) -> str:
    """Greedy-versus-optimal variance table up to the given horizon."""
    greedy, optimal = _comparison_columns(scenario.environment, scenario.prior, budget)
    path = out / f"{scenario.name}_compare.csv"
    ratio = write_compare_csv(path, greedy, optimal)
    return f"{scenario.name}: final ratio {ratio:.4f} -> {path}"


if __name__ == "__main__":
    main()
