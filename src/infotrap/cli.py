"""Command-line front end for scenario analysis, simulation, and oracle runs."""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

import click

from .dynamics import SearchBoundError
from .gaussian import NotPositiveDefiniteError
from .oracle import greedy_vs_optimal, optimal_division
from .scenarios import (
    MAX_HORIZON,
    ScenarioError,
    SweepSpec,
    analysis_fields,
    parse_scenario_file,
    run_batch,
    sweep as run_sweep,
    write_report_json,
)
from .spanning import SpanError


@click.group()
def main():
    """Sequential information acquisition: analysis, simulation, and oracles."""


def _load(file) -> list:
    try:
        return parse_scenario_file(file)
    except ScenarioError as exc:
        raise click.ClickException(str(exc)) from exc


@contextmanager
def _running(scenario):
    """Report what a parsed scenario can still raise when it runs (a search beyond its
    bound, a posterior precision that is not positive definite, no unique best set to
    design free signals for, a bad sweep grid) as an error naming the scenario."""
    try:
        yield
    except (SearchBoundError, NotPositiveDefiniteError, SpanError, ScenarioError) as exc:
        raise click.ClickException(f"{scenario.name}: {exc}") from exc


out_option = click.option(
    "--out",
    type=click.Path(file_okay=False, path_type=Path),
    default=Path("."),
    show_default=True,
    help="Directory for emitted artifacts.",
)
quiet_option = click.option("--quiet", is_flag=True, help="Suppress progress output.")


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@out_option
@quiet_option
def analyze(file, out: Path, quiet: bool):
    """Spanning-set analysis of each scenario's environment (no simulation)."""
    out.mkdir(parents=True, exist_ok=True)
    for scenario in _load(file):
        report = {"name": scenario.name}
        with _running(scenario):
            report.update(analysis_fields(scenario.environment))
        path = out / f"{scenario.name}_analysis.json"
        write_report_json(path, report)
        if not quiet:
            phi = report["phi_best"]
            phi_txt = "n/a" if phi is None else f"{phi:.6g}"
            click.echo(f"{scenario.name}: best set {report['best_set']} phi={phi_txt} -> {path}")


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@out_option
@quiet_option
def simulate(file, out: Path, quiet: bool):
    """Run each scenario, writing a trace CSV and a report JSON. A scenario that cannot
    run is reported and the others still run; the exit status is then 1."""
    failed = False
    for scenario in _load(file):
        try:
            with _running(scenario):
                (report,) = run_batch([scenario], out)
        except click.ClickException as exc:
            exc.show()
            failed = True
            continue
        if not quiet:
            ratio = report["inefficiency_ratio"]
            ratio_txt = "n/a" if ratio is None else f"{ratio:.6g}"
            label = report["classification"]
            if report["trapped_set"]:
                label += f" on sources {report['trapped_set']}"
            path = out / f"{scenario.name}_report.json"
            click.echo(f"{scenario.name}: {label} (inefficiency {ratio_txt}) -> {path}")
    if failed:
        sys.exit(1)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--t", "budget", type=click.IntRange(1), required=True, help="Observation budget.")
@out_option
@quiet_option
def oracle(file, budget: int, out: Path, quiet: bool):
    """Exact optimal allocation of an observation budget for each scenario."""
    out.mkdir(parents=True, exist_ok=True)
    for scenario in _load(file):
        with _running(scenario):
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
        path = out / f"{scenario.name}_oracle.json"
        write_report_json(path, report)
        if not quiet:
            click.echo(f"{scenario.name}: n({budget})={report['counts']} V={result.value:.6g}")


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--state", type=int, required=True, help="1-based state index to vary.")
@click.option("--grid", required=True, help="Comma-separated increasing variances.")
@out_option
@quiet_option
def sweep(file, state: int, grid: str, out: Path, quiet: bool):
    """Classify each scenario across a grid of one prior variance."""
    out.mkdir(parents=True, exist_ok=True)
    try:
        values = [float(v) for v in grid.split(",") if v.strip()]
    except ValueError as exc:
        raise click.ClickException(f"--grid: {exc}") from exc
    for scenario in _load(file):
        with _running(scenario):
            report = run_sweep(SweepSpec(base=scenario, state_index=state - 1, grid=values))
        path = out / f"{scenario.name}_sweep.json"
        write_report_json(path, report)
        if not quiet:
            click.echo(f"{scenario.name}: threshold={report['threshold']} -> {path}")


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--t", "budget", type=click.IntRange(1), required=True, help="Comparison horizon.")
@out_option
@quiet_option
def compare(file, budget: int, out: Path, quiet: bool):
    """Greedy-versus-optimal variance table up to the given horizon."""
    if budget > MAX_HORIZON:
        raise click.ClickException(f"--t {budget} exceeds the largest horizon {MAX_HORIZON}")
    out.mkdir(parents=True, exist_ok=True)
    for scenario in _load(file):
        with _running(scenario):
            rows = greedy_vs_optimal(scenario.environment, scenario.prior, budget)
        path = out / f"{scenario.name}_compare.csv"
        lines = ["t,greedy_variance,optimal_variance,ratio"]
        for r in rows:
            lines.append(
                f"{r.t},{r.greedy_variance:.17g},{r.optimal_variance:.17g},{r.ratio:.17g}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        if not quiet:
            click.echo(f"{scenario.name}: final ratio {rows[-1].ratio:.4f} -> {path}")


if __name__ == "__main__":
    main()
