"""Adequacy bench: run both semantics on one program and compare.

A query passes when |denotational - empirical| <= DKW + quad_tol, where
quad_tol budgets the denotational side: the quadrature tolerance
``quadrature.ABS_TOL`` plus the fixpoint stopping tolerance
``denotation.MASS_TOL``.  Budget-exhausted runs are reported
separately and never counted inside any query set.

Reports are plain dicts serialized with sorted keys; everything in them
is a deterministic function of the program and the config (runtime
stats are step/iteration counts, not wall-clock), so equal seeds give
byte-identical JSON.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

from .denotation import MASS_TOL, NonConvergent, interpret
from .intervals import IntervalSet, format_interval_set
from .parser import SourceProgram, format_type
from .primitives import DEFAULT_TABLE, PrimitiveTable
from .quadrature import ABS_TOL, QuadratureFailure
from .reduction import Exhausted, Value, collect_outcomes, dkw_bound
from .terms import REAL, Term, Type
from .typecheck import TypeCheckError, typecheck


@dataclass(frozen=True)
class AdequacyConfig:
    intervals: tuple[IntervalSet, ...]
    runs: int = 100_000
    budget: int = 10_000
    confidence: float = 0.01
    seed: int = 0
    bonferroni: bool = False

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))
        if self.runs < 100:
            raise ValueError("adequacy needs runs >= 100")
        if self.budget < 0:
            raise ValueError("adequacy needs budget >= 0")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")


@dataclass(frozen=True)
class QueryResult:
    interval: IntervalSet
    denotational: float | None
    empirical: float
    dkw: float
    quad_tol: float
    passed: bool
    error: str | None = None


@dataclass(frozen=True)
class AdequacyReport:
    program: str
    queries: tuple[QueryResult, ...]
    exhausted_fraction: float
    overall_pass: bool
    stats: dict

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "queries": [
                {
                    "interval": format_interval_set(q.interval),
                    "denotational_mass": q.denotational,
                    "empirical_mass": q.empirical,
                    "dkw_bound": q.dkw,
                    "quad_tol": q.quad_tol,
                    "pass": q.passed,
                    **({"error": q.error} if q.error else {}),
                }
                for q in self.queries
            ],
            "exhausted_fraction": self.exhausted_fraction,
            "overall_pass": self.overall_pass,
            "stats": self.stats,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["interval", "denotational_mass", "empirical_mass", "dkw_bound", "quad_tol", "pass", "error"]
        )
        for q in self.queries:
            writer.writerow(
                [
                    format_interval_set(q.interval),
                    "" if q.denotational is None else repr(q.denotational),
                    repr(q.empirical),
                    repr(q.dkw),
                    repr(q.quad_tol),
                    str(q.passed).lower(),
                    q.error or "",
                ]
            )
        return out.getvalue()


# a chain whose `y` sits under a primitive nests one pushforward per
# iterate, and a long one passes the recursion limit: reported, as a
# chain that does not settle is
DENOTATION_ERRORS = (NonConvergent, QuadratureFailure, RecursionError)


def denotational_masses(term: Term, intervals, *,
                        table: PrimitiveTable = DEFAULT_TABLE) -> list[float | Exception]:
    """Masses of the program denotation on each interval set.

    The program is interpreted once for all the sets.  A tail-affine
    ``fix`` (every ``#observe``) is solved in closed form.  Every other
    ``fix`` stops its Kleene chain when the total mass moves by less than
    ``MASS_TOL``; the iterates increase, so no set's mass moves by
    more than the total does, and that one test bounds every query.  A
    denotation error is returned in place of a mass: one raised while
    interpreting for every set, one raised by a set's mass query for
    that set only.
    """
    try:
        measure = interpret(term, table=table)
    except DENOTATION_ERRORS as exc:
        return [exc] * len(intervals)
    masses: list[float | Exception] = []
    for u in intervals:
        try:
            masses.append(measure.mass(u))
        except DENOTATION_ERRORS as exc:
            masses.append(exc)
    return masses


def require_ground(term: Term, ty: Type) -> None:
    """Raise TypeCheckError unless a program's type is real: only ground
    programs have masses to report."""
    if ty != REAL:
        raise TypeCheckError(f"program must have type real, not {format_type(ty)}", term)


def adequacy_check(program: SourceProgram, cfg: AdequacyConfig,
                   op_table: PrimitiveTable | None = None,
                   den_table: PrimitiveTable | None = None) -> AdequacyReport:
    """Compare the two semantics of a closed ground program.

    `op_table` / `den_table` substitute primitive tables on one side
    only; the default shares DEFAULT_TABLE (fault injection hooks).
    """
    op_table = op_table or DEFAULT_TABLE
    den_table = den_table or DEFAULT_TABLE
    term = program.inlined_main()
    require_ground(term, typecheck({}, term, den_table))

    outcomes = collect_outcomes(term, cfg.runs, cfg.budget, cfg.seed, op_table)
    values = sorted(o.value for o in outcomes if isinstance(o, Value))
    exhausted = sum(1 for o in outcomes if isinstance(o, Exhausted))
    steps_total = sum(o.steps for o in outcomes)

    per_query_confidence = cfg.confidence
    if cfg.bonferroni and cfg.intervals:
        per_query_confidence = cfg.confidence / len(cfg.intervals)
    dkw = dkw_bound(cfg.runs, per_query_confidence)
    quad_tol = ABS_TOL + MASS_TOL

    dens = denotational_masses(term, cfg.intervals, table=den_table)
    queries = []
    overall = True
    for u, den in zip(cfg.intervals, dens):
        empirical = u.count(values) / cfg.runs
        if isinstance(den, Exception):
            queries.append(
                QueryResult(u, None, empirical, dkw, quad_tol, False,
                            error=f"{type(den).__name__}: {den}")
            )
            overall = False
            continue
        passed = abs(den - empirical) <= dkw + quad_tol
        overall = overall and passed
        queries.append(QueryResult(u, den, empirical, dkw, quad_tol, passed))

    return AdequacyReport(
        program=program.text,
        queries=tuple(queries),
        exhausted_fraction=exhausted / cfg.runs,
        overall_pass=overall,
        stats={
            "runs": cfg.runs,
            "budget": cfg.budget,
            "seed": cfg.seed,
            "confidence": cfg.confidence,
            "bonferroni": cfg.bonferroni,
            "total_steps": steps_total,
            "value_runs": len(values),
            "exhausted_runs": exhausted,
        },
    )


def cdf_grid(lo: float, hi: float, steps: int) -> tuple[IntervalSet, ...]:
    """CDF-style queries (-inf, x] for x on an inclusive grid."""
    if steps < 1:
        raise ValueError("cdf grid needs at least one step")
    xs = [lo + (hi - lo) * i / (steps - 1) for i in range(steps)] if steps > 1 else [lo]
    return tuple(IntervalSet.interval(-math.inf, x, False, True) for x in xs)
