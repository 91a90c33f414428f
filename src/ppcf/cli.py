"""The ppcf command-line interface."""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import click

from .denotation import EMPTY_ENV, FixConfig, compile_deterministic, interpret
from .harness import AdequacyConfig, adequacy_check, cdf_grid, denotational_masses
from .intervals import FULL_LINE, IntervalSet, format_interval_set, parse_interval_set
from .measure import ConcreteMeasure
from .parser import ParseError, SourceProgram, format_type, parse, parse_term, pretty
from .reduction import Exhausted, StuckNormal, Value, collect_outcomes
from .stability import GALLERY, PointFn, check_pre_stable
from .terms import REAL
from .typecheck import TypeCheckError, typecheck


def _load_program(source: str) -> SourceProgram:
    """Treat the argument as a path if one exists, else as inline source."""
    if source == "-":
        return parse(sys.stdin.read())
    path = Path(source)
    if path.exists():
        return parse(path.read_text(encoding="utf-8"))
    return parse(source)


@contextmanager
def _input_errors():
    """Report malformed source as a usage error: exit 2, not a verdict's 1."""
    try:
        yield
    except (ParseError, TypeCheckError) as exc:
        raise click.UsageError(str(exc)) from None


def _resolve_seed(seed: int) -> int:
    env = os.environ.get("PPCF_SEED")
    if not env:
        return seed
    try:
        return int(env)
    except ValueError:
        raise click.UsageError(f"PPCF_SEED must be an integer, got {env!r}") from None


def _parse_intervals(intervals: str | None, cdf: str | None,
                     default=None) -> tuple[IntervalSet, ...]:
    if intervals and cdf:
        raise click.UsageError("choose one of --intervals and --cdf")
    if intervals:
        try:
            return tuple(parse_interval_set(part) for part in intervals.split(";"))
        except ValueError as exc:
            raise click.UsageError(f"bad --intervals spec {intervals!r}: {exc}") from None
    if cdf:
        try:
            lo, hi, steps = cdf.split(":")
            return cdf_grid(float(lo), float(hi), int(steps))
        except ValueError as exc:
            raise click.UsageError(f"bad --cdf spec {cdf!r}: {exc}") from None
    if default is not None:
        return default
    raise click.UsageError("need --intervals or --cdf")


@click.group()
def main():
    """PPCF: stochastic operational and measure-valued semantics."""


@main.command("parse")
@click.argument("source")
def parse_cmd(source):
    """Parse a program and print it back."""
    try:
        prog = _load_program(source)
    except ParseError as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(2)
    for name, body in prog.definitions:
        click.echo(f"def {name} = {pretty(body)};")
    click.echo(pretty(prog.main))


@main.command("typecheck")
@click.argument("source")
def typecheck_cmd(source):
    """Typecheck a program and print the type of its main term."""
    try:
        prog = _load_program(source)
        ty = typecheck({}, prog.inlined_main())
    except (ParseError, TypeCheckError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    click.echo(format_type(ty))


@main.command("run")
@click.argument("source")
@click.option("--runs", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--budget", type=click.IntRange(min=0), default=10_000, show_default=True)
@click.option("--seed", default=0, show_default=True)
def run_cmd(source, runs, budget, seed):
    """Run the operational semantics; print outcomes or a summary."""
    with _input_errors():
        term = _load_program(source).inlined_main()
        typecheck({}, term)
    outcomes = collect_outcomes(term, runs, budget, _resolve_seed(seed))
    if runs == 1:
        o = outcomes[0]
        if isinstance(o, Value):
            click.echo(repr(o.value))
        elif isinstance(o, StuckNormal):
            click.echo(f"stuck normal form after {o.steps} steps: {pretty(o.term)}")
        else:
            click.echo(f"exhausted budget of {o.steps} steps")
        return
    values = [o.value for o in outcomes if isinstance(o, Value)]
    summary = {
        "runs": runs,
        "budget": budget,
        "seed": _resolve_seed(seed),
        "value_runs": len(values),
        "exhausted_runs": sum(1 for o in outcomes if isinstance(o, Exhausted)),
        "stuck_runs": sum(1 for o in outcomes if isinstance(o, StuckNormal)),
        "mean_value": (sum(values) / len(values)) if values else None,
        "min_value": min(values) if values else None,
        "max_value": max(values) if values else None,
    }
    click.echo(json.dumps(summary, sort_keys=True, indent=2))


def _default_denote_intervals(measure) -> tuple[IntervalSet, ...]:
    """Atom singletons, their complement, and the whole line."""
    out: list[IntervalSet] = []
    rest = FULL_LINE
    if isinstance(measure, ConcreteMeasure):
        for atom in measure.atoms:
            point = IntervalSet.point(atom.location)
            out.append(point)
            rest = rest.difference(point)
    if out:
        out.append(rest)
    out.append(FULL_LINE)
    return tuple(out)


@main.command("denote")
@click.argument("source")
@click.option("--intervals", default=None, help='e.g. "[0,0.5) + {1}; (0.5,1]"')
@click.option("--cdf", default=None, help="lo:hi:steps grid of (-inf, x] queries")
def denote_cmd(source, intervals, cdf):
    """Print denotational masses on the requested interval sets."""
    with _input_errors():
        term = _load_program(source).inlined_main()
        typecheck({}, term)
    fix = FixConfig()
    if intervals is None and cdf is None:
        value = interpret(term, EMPTY_ENV, fix=fix)
        queries = _default_denote_intervals(value.measure)
        masses = [value.measure.mass(u) for u in queries]
    else:
        queries = _parse_intervals(intervals, cdf)
        masses = denotational_masses(term, queries, fix=fix)
        for m in masses:
            if isinstance(m, Exception):
                raise m
    report = [
        {"interval": format_interval_set(u), "mass": m}
        for u, m in zip(queries, masses)
    ]
    click.echo(json.dumps(report, sort_keys=True, indent=2))


@main.command("check")
@click.argument("source")
@click.option("--intervals", default=None)
@click.option("--cdf", default=None)
@click.option("--runs", default=100_000, show_default=True)
@click.option("--budget", default=10_000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--delta", default=0.01, show_default=True, help="DKW miss probability")
@click.option("--bonferroni", is_flag=True, help="split delta across the query grid")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def check_cmd(source, intervals, cdf, runs, budget, seed, delta, bonferroni, fmt):
    """Adequacy check: operational vs denotational masses."""
    queries = _parse_intervals(intervals, cdf)
    try:
        cfg = AdequacyConfig(intervals=queries, runs=runs, budget=budget, confidence=delta,
                             seed=_resolve_seed(seed), bonferroni=bonferroni)
    except ValueError as exc:  # --runs below the floor, --budget < 0, --delta outside (0, 1)
        raise click.UsageError(str(exc)) from None
    with _input_errors():  # adequacy_check typechecks before it runs anything
        report = adequacy_check(_load_program(source), cfg)
    click.echo(report.to_json() if fmt == "json" else report.to_csv(), nl=False)
    sys.exit(0 if report.overall_pass else 1)


@main.command("stability")
@click.argument("target", required=False)
@click.option("--fn", "fn_expr", default=None,
              help="first-order deterministic expression in x1..xk to check")
@click.option("--n", type=click.IntRange(min=0), default=1, show_default=True,
              help="pre-stability order")
@click.option("--grid", type=click.IntRange(min=2), default=8, show_default=True)
@click.option("--slack", default=1e-9, show_default=True)
@click.option("--fn-arity", type=click.IntRange(min=1), default=1, show_default=True,
              help="arity k of an expression target")
def stability_cmd(target, fn_expr, n, grid, slack, fn_arity):
    """Check pre-stability of wpor, poly, identity, or an expression."""
    if (target is None) == (fn_expr is None):
        raise click.UsageError("give exactly one of a named TARGET or --fn EXPR")
    if not (math.isfinite(slack) and slack >= 0.0):  # click.FloatRange lets NaN through
        raise click.BadParameter(f"{slack!r} is not finite and >= 0", param_hint="'--slack'")
    if fn_expr is not None:
        fn = _point_fn_from_expr(fn_expr, fn_arity)
    elif target in GALLERY:
        fn = GALLERY[target]()
    else:
        fn = _point_fn_from_expr(target, fn_arity)
    report = check_pre_stable(fn, n, grid, slack)
    click.echo(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    sys.exit(0 if report.passed else 1)


def _point_fn_from_expr(text: str, k: int) -> PointFn:
    """A PointFn from a first-order deterministic PPCF expression in x1..xk."""
    inputs = tuple(f"x{i + 1}" for i in range(k))
    with _input_errors():
        term = parse_term(text)
        ty = typecheck(dict.fromkeys(inputs, REAL), term)
    if ty != REAL:
        raise click.UsageError("stability expression must have type real")
    fn = compile_deterministic(term, inputs)
    if fn is None:
        raise click.UsageError("stability expression must be deterministic and first-order:"
                               " no sample, fun, application or fix")
    return PointFn(k, fn, text)


if __name__ == "__main__":
    main()
