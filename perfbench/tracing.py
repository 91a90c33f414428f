"""Spans and counts around the calls into each ppcf layer.

The traced run replaces functions at the import sites ppcf itself calls
through (``ppcf.measure.integrate_adaptive``, ``ppcf.harness.interpret``
and so on) with wrappers that record a span per call and count work
from arguments and results.  Nothing in ppcf is edited.  A target that
no longer exists is skipped, and every metric that depends on it is
reported as absent rather than as zero.

A span is ``[name, start, end, parent, op, outer]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``op`` the operation id
(-1 outside operations) and ``outer`` the span's layer when no span of
the same layer encloses it, else None.  A layer's time is the sum of its
outer spans; a self time is a span minus the children named in the
metric's definition.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import defaultdict
from pathlib import Path
from time import perf_counter

NAME, START, END, PARENT, OP, OUTER = range(6)

# wrapper target -> (span name, layer)
TARGETS = {
    "ppcf.harness.adequacy_check": ("harness.adequacy_check", "harness"),
    "ppcf.harness.collect_outcomes": ("reduction.collect_outcomes", "reduction"),
    "ppcf.reduction.collect_outcomes": ("reduction.collect_outcomes", "reduction"),
    "ppcf.reduction.estimate_mass": ("reduction.estimate_mass", "reduction"),
    "ppcf.reduction.run": ("reduction.run", "reduction"),
    "ppcf.harness.interpret": ("denotation.interpret", "denotation.interpret"),
    "ppcf.denotation.fixpoint": ("denotation.fixpoint", "denotation.fix"),
    "ppcf.harness.denotational_masses": ("measure.denotational_masses", "measure"),
    "ppcf.measure.integrate_adaptive": ("quadrature.integrate_adaptive", "quadrature"),
    "ppcf.cli.check_pre_stable": ("stability.check_pre_stable", "stability"),
    "ppcf.parser.parse": ("parser.parse", "parser"),
    "ppcf.parser.parse_term": ("parser.parse_term", "parser"),
    "ppcf.harness.typecheck": ("typecheck.typecheck", "typecheck"),
    "ppcf.cli.typecheck": ("typecheck.typecheck", "typecheck"),
}
RNG_TARGET = "ppcf.rng.RngStream.uniform"
PRIMITIVES_TARGET = "ppcf.primitives.PrimitiveTable"
CLI_SPAN = "cli.invoke"

_REDUCTION = ("ppcf.harness.collect_outcomes", "ppcf.reduction.collect_outcomes",
              "ppcf.reduction.estimate_mass", "ppcf.reduction.run")
_STABILITY = ("ppcf.cli.check_pre_stable",)
_QUADRATURE = ("ppcf.measure.integrate_adaptive",)

# metric -> (unit, better, wrapper targets it needs)
PER_LAYER = {
    "reduction.runs": ("count", "higher", _REDUCTION),
    "reduction.steps": ("count", "lower", _REDUCTION),
    "reduction.steps_per_run": ("steps/run", "lower", _REDUCTION),
    "reduction.exhausted": ("count", "lower", _REDUCTION),
    "reduction.s": ("s", "lower", _REDUCTION),
    "reduction.steps_per_s": ("1/s", "higher", _REDUCTION),
    "rng.draws": ("count", "lower", (RNG_TARGET,)),
    "harness.check_s": ("s", "lower", ("ppcf.harness.adequacy_check",)),
    "harness.queries": ("count", "higher", ("ppcf.harness.adequacy_check",)),
    "harness.self_s": ("s", "lower", ("ppcf.harness.adequacy_check",)),
    "denotation.interpret_calls": ("count", "lower", ("ppcf.harness.interpret",)),
    "denotation.interpret_s": ("s", "lower", ("ppcf.harness.interpret",)),
    "denotation.fix_calls": ("count", "lower", ("ppcf.denotation.fixpoint",)),
    "denotation.kleene_iters": ("count", "lower", ("ppcf.denotation.fixpoint",)),
    "denotation.fix_s": ("s", "lower", ("ppcf.denotation.fixpoint",)),
    "measure.query_s": ("s", "lower", ("ppcf.harness.denotational_masses",
                                       "ppcf.harness.interpret")),
    "quadrature.calls": ("count", "lower", _QUADRATURE),
    "quadrature.integrand_evals": ("count", "lower", _QUADRATURE),
    "quadrature.evals_per_query": ("evals/query", "lower",
                                   _QUADRATURE + ("ppcf.harness.adequacy_check",)),
    "quadrature.s": ("s", "lower", _QUADRATURE),
    "quadrature.failures": ("count", "lower", _QUADRATURE),
    "primitives.op_evals": ("count", "lower", (PRIMITIVES_TARGET,)),
    "primitives.den_evals": ("count", "lower", (PRIMITIVES_TARGET,)),
    "stability.checked": ("count", "higher", _STABILITY),
    "stability.fn_evals": ("count", "lower", _STABILITY),
    "stability.s": ("s", "lower", _STABILITY),
    "stability.evals_per_s": ("1/s", "higher", _STABILITY),
    "cli.self_s": ("s", "lower", _STABILITY),
    "parser.parse_s": ("s", "lower", ("ppcf.parser.parse", "ppcf.parser.parse_term")),
    "typecheck.s": ("s", "lower", ("ppcf.harness.typecheck", "ppcf.cli.typecheck")),
    "trace.ops_per_s": ("1/s", "higher", ()),
}


def _resolve(mods, target: str):
    """(owner, attribute, current value) for a dotted target, or None."""
    parts = target.split(".")
    owner = mods.modules.get(".".join(parts[:2]))
    for part in parts[2:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self.installed: set[str] = set()
        self.op_table = None
        self.den_table = None

    # -- spans ---------------------------------------------------------

    def begin(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        outer = layer if self.depth[layer] == 0 else None
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, outer])
        self.depth[layer] += 1
        self.stack.append(index)
        return index

    def end(self, index: int, layer: str) -> None:
        self.spans[index][END] = perf_counter()
        self.depth[layer] -= 1
        self.stack.pop()

    # -- wrappers --------------------------------------------------------

    def install(self, mods) -> None:
        """Wrap every target that exists in the loaded ppcf modules."""
        hooks = {
            "ppcf.harness.adequacy_check": dict(on_result=self._on_report),
            "ppcf.harness.collect_outcomes": dict(on_result=self._on_outcomes),
            "ppcf.reduction.collect_outcomes": dict(on_result=self._on_outcomes),
            "ppcf.reduction.run": dict(on_result=self._on_outcome, skip_nested=True),
            "ppcf.harness.interpret": dict(count="denotation.interpret_calls"),
            "ppcf.denotation.fixpoint": dict(on_result=self._on_fixpoint,
                                             count="denotation.fix_calls"),
            "ppcf.measure.integrate_adaptive": dict(prepare=self._count_integrand,
                                                    on_error=self._on_quadrature_error,
                                                    count="quadrature.calls"),
            "ppcf.cli.check_pre_stable": dict(prepare=self._count_point_fn,
                                              on_result=self._on_stability),
        }
        for target, (name, layer) in TARGETS.items():
            found = _resolve(mods, target)
            if found is None:
                continue
            owner, attr, fn = found
            setattr(owner, attr, self._wrap(fn, name, layer, **hooks.get(target, {})))
            self.installed.add(target)
        self._install_rng(mods)
        self._install_tables(mods)

    def _wrap(self, fn, name, layer, on_result=None, on_error=None, prepare=None,
              count=None, skip_nested=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip_nested and tracer.depth[layer]:
                return fn(*args, **kwargs)  # counted by the enclosing span
            if count is not None:
                tracer.counts[count] += 1
            if prepare is not None:
                args = prepare(args)
            index = tracer.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc, tracer.depth[layer] == 1)
                raise
            finally:
                tracer.end(index, layer)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _install_rng(self, mods) -> None:
        found = _resolve(mods, RNG_TARGET)
        if found is None:
            return
        owner, attr, uniform = found
        counts = self.counts

        def counted_uniform(stream):
            counts["rng.draws"] += 1
            return uniform(stream)

        setattr(owner, attr, counted_uniform)
        self.installed.add(RNG_TARGET)

    def _install_tables(self, mods) -> None:
        """Counting primitive tables for adequacy_check's op_table/den_table hooks."""
        found = _resolve(mods, PRIMITIVES_TARGET)
        base = getattr(mods.modules.get("ppcf.primitives"), "DEFAULT_TABLE", None)
        if found is None or base is None:
            return
        self.op_table = CountingTable(base, self.counts, "primitives.op_evals")
        self.den_table = CountingTable(base, self.counts, "primitives.den_evals")
        self.installed.add(PRIMITIVES_TARGET)

    # -- counts from arguments and results ---------------------------------

    def _on_report(self, report) -> None:
        self.counts["harness.queries"] += len(report.queries)

    def _on_outcome(self, outcome) -> None:
        self._on_outcomes((outcome,))

    def _on_outcomes(self, outcomes) -> None:
        counts = self.counts
        counts["reduction.runs"] += len(outcomes)
        counts["reduction.steps"] += sum(o.steps for o in outcomes)
        counts["reduction.exhausted"] += sum(
            1 for o in outcomes if type(o).__name__ == "Exhausted")

    def _on_fixpoint(self, value) -> None:
        chain = getattr(getattr(value, "measure", None), "chain", None)
        if chain is not None:
            self.counts["denotation.kleene_iters"] += len(chain)

    def _count_integrand(self, args):
        f, *rest = args
        counts = self.counts

        def counted(x):
            counts["quadrature.integrand_evals"] += 1
            return f(x)

        return (counted, *rest)

    def _on_quadrature_error(self, exc, outermost: bool) -> None:
        if outermost and type(exc).__name__ == "QuadratureFailure":
            self.counts["quadrature.failures"] += 1

    def _count_point_fn(self, args):
        f, *rest = args
        evaluate = f.eval
        counts = self.counts

        def counted(*coords):
            counts["stability.fn_evals"] += 1
            return evaluate(*coords)

        return (dataclasses.replace(f, eval=counted), *rest)

    def _on_stability(self, report) -> None:
        self.counts["stability.checked"] += report.checked

    # -- results -----------------------------------------------------------

    def metrics(self, ops: int, wall_s: float) -> dict[str, float]:
        """Per-layer metrics whose wrapper targets were all installed."""
        spans = self.spans
        layer_s: dict[str, float] = defaultdict(float)
        child_s: dict[tuple[int, str], float] = defaultdict(float)
        for span in spans:
            duration = span[END] - span[START]
            if span[OUTER] is not None:
                layer_s[span[OUTER]] += duration
            if span[PARENT] >= 0:
                child_s[(span[PARENT], span[NAME])] += duration
        children_of = defaultdict(float)
        for (parent, _name), seconds in child_s.items():
            children_of[parent] += seconds

        def self_time(name: str, minus: str | None) -> float:
            total = 0.0
            for i, span in enumerate(spans):
                if span[NAME] == name:
                    duration = span[END] - span[START]
                    total += duration - (children_of[i] if minus is None
                                         else child_s[(i, minus)])
            return total

        c = self.counts
        reduction_s = layer_s["reduction"]
        stability_s = layer_s["stability"]
        values = {
            "reduction.runs": c["reduction.runs"],
            "reduction.steps": c["reduction.steps"],
            "reduction.steps_per_run": _ratio(c["reduction.steps"], c["reduction.runs"]),
            "reduction.exhausted": c["reduction.exhausted"],
            "reduction.s": reduction_s,
            "reduction.steps_per_s": _ratio(c["reduction.steps"], reduction_s),
            "rng.draws": c["rng.draws"],
            "harness.check_s": layer_s["harness"],
            "harness.queries": c["harness.queries"],
            "harness.self_s": self_time("harness.adequacy_check", None),
            "denotation.interpret_calls": c["denotation.interpret_calls"],
            "denotation.interpret_s": layer_s["denotation.interpret"],
            "denotation.fix_calls": c["denotation.fix_calls"],
            "denotation.kleene_iters": c["denotation.kleene_iters"],
            "denotation.fix_s": layer_s["denotation.fix"],
            "measure.query_s": self_time("measure.denotational_masses", "denotation.interpret"),
            "quadrature.calls": c["quadrature.calls"],
            "quadrature.integrand_evals": c["quadrature.integrand_evals"],
            "quadrature.evals_per_query": _ratio(c["quadrature.integrand_evals"],
                                                 c["harness.queries"]),
            "quadrature.s": layer_s["quadrature"],
            "quadrature.failures": c["quadrature.failures"],
            "primitives.op_evals": c["primitives.op_evals"],
            "primitives.den_evals": c["primitives.den_evals"],
            "stability.checked": c["stability.checked"],
            "stability.fn_evals": c["stability.fn_evals"],
            "stability.s": stability_s,
            "stability.evals_per_s": _ratio(c["stability.fn_evals"], stability_s),
            "cli.self_s": self_time(CLI_SPAN, "stability.check_pre_stable"),
            "parser.parse_s": layer_s["parser"],
            "typecheck.s": layer_s["typecheck"],
            "trace.ops_per_s": _ratio(ops, wall_s),
        }
        return {name: values[name] for name, (_unit, _better, needs) in PER_LAYER.items()
                if all(t in self.installed for t in needs)}

    def write(self, path: Path) -> None:
        """All spans as CSV: name, start, end, parent, op (seconds, perf_counter)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("index,name,start,end,parent,op\n")
            for i, span in enumerate(self.spans):
                out.write(f"{i},{span[NAME]},{span[START]!r},{span[END]!r},"
                          f"{span[PARENT]},{span[OP]}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class CountingTable:
    """A primitive table whose functions count their evaluations.

    Quacks like ``ppcf.primitives.PrimitiveTable`` for ``lookup``, the one
    method the interpreters call; everything else comes from the base.
    """

    def __init__(self, base, counts, key: str):
        self._base = base
        self._counts = counts
        self._key = key
        self._wrapped = {}

    def lookup(self, name: str):
        prim = self._wrapped.get(name)
        if prim is None:
            prim = self._base.lookup(name)
            fn, counts, key = prim.fn, self._counts, self._key

            def counted(*values):
                counts[key] += 1
                return fn(*values)

            prim = dataclasses.replace(prim, fn=counted)
            self._wrapped[name] = prim
        return prim

    def __getattr__(self, attr):
        return getattr(self._base, attr)
