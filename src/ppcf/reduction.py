"""Call-by-name stochastic reduction and the Monte-Carlo mass estimator.

The small-step rules are the executable spec.  A term decomposes into
an evaluation context (a stack of frames) and a unique redex, or is a
normal form.  Frames restrict where reduction may happen: head of an
application, the scrutinee of ``ifz``, the bound position of ``let``,
and the leftmost non-numeral primitive argument.  ``decompose``,
``contract`` and ``step`` state these rules; tests check ``run`` against
them.

``run`` is an environment machine for the same rules: a Krivine-style
call-by-name machine (Krivine, "A call-by-name lambda-calculus machine",
HOSC 2007) with call-by-value ground ``let``.  It never rebuilds or
substitutes into the term, so the cost of a step does not grow with
the term.  It counts exactly the contractions the rules count, draws
in the same order and calls the same primitives on the same floats.

``collect_outcomes`` lays the runs' paths out as a tree of straight-line
code (Gal and Franz, "Incremental dynamic code generation with trace
trees", 2006).  Only ``ifz`` reads a value, so a run's contractions,
draws and primitive calls up to its next ``ifz`` on a drawn value do not
depend on what it draws.  A recording run is a real run on the machine:
each draw and primitive result is a slot holding its real float, each
``ifz`` on a slot ends a segment of the path and branches, and a ``fix``
state that repeats an earlier one of the same run (the same node,
environment and frames, by identity) is a back edge, since the machine
goes on from there as it did the first time.  The tree compiles through
``ir.compile_tree`` to one function, and every run executes it on its own
stream.  A run that reaches a branch nobody has taken goes on through
the recording machine, which first serves it the draws and results it
already has, and adds its path to the tree.  After ``MAX_RECORDINGS``
recordings such a run goes on through ``run`` instead, and after a
recording that ends stuck every run does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .intervals import IntervalSet
from .ir import SAMPLE, compile_tree
from .primitives import DEFAULT_TABLE, PrimitiveTable
from .rng import RngStream
from .terms import (
    Abs,
    App,
    Fix,
    Ifz,
    Let,
    Numeral,
    Prim,
    Term,
    Var,
    _SampleTerm,
    substitute,
)


class InvariantViolation(Exception):
    pass


# -- evaluation context frames ---------------------------------------------


@dataclass(frozen=True)
class AppFrame:
    arg: Term


@dataclass(frozen=True)
class IfzFrame:
    then: Term
    otherwise: Term


@dataclass(frozen=True)
class LetFrame:
    name: str
    body: Term


@dataclass(frozen=True)
class PrimFrame:
    op: str
    done: tuple[Term, ...]  # numerals to the left of the hole
    pending: tuple[Term, ...]  # untouched arguments to the right


Frame = AppFrame | IfzFrame | LetFrame | PrimFrame


def plug(frames: tuple[Frame, ...], t: Term) -> Term:
    """Rebuild the term with t in the hole."""
    for frame in reversed(frames):
        match frame:
            case AppFrame(arg):
                t = App(t, arg)
            case IfzFrame(then, otherwise):
                t = Ifz(t, then, otherwise)
            case LetFrame(name, body):
                t = Let(name, t, body)
            case PrimFrame(op, done, pending):
                t = Prim(op, done + (t,) + pending)
    return t


@dataclass(frozen=True)
class NormalForm:
    term: Term


@dataclass(frozen=True)
class Split:
    context: tuple[Frame, ...]
    redex: Term


Decomposition = NormalForm | Split


def _is_redex(t: Term) -> bool:
    match t:
        case App(Abs(), _) | Fix() | _SampleTerm():
            return True
        case Ifz(Numeral(), _, _):
            return True
        case Let(_, Numeral(), _):
            return True
        case Prim(_, args):
            return all(isinstance(a, Numeral) for a in args)
    return False


def decompose(t: Term) -> Decomposition:
    """Unique context/redex split, or NormalForm when nothing fires."""
    frames: list[Frame] = []
    current = t
    while True:
        match current:
            case _ if _is_redex(current):
                return Split(tuple(frames), current)
            case App(fun, arg):
                frames.append(AppFrame(arg))
                current = fun
            case Ifz(scrutinee, then, otherwise):
                frames.append(IfzFrame(then, otherwise))
                current = scrutinee
            case Let(name, bound, body):
                frames.append(LetFrame(name, body))
                current = bound
            case Prim(op, args):
                for i, a in enumerate(args):
                    if not isinstance(a, Numeral):
                        frames.append(PrimFrame(op, args[:i], args[i + 1:]))
                        current = a
                        break
                else:  # pragma: no cover - all-numeral Prim is a redex above
                    return NormalForm(t)
            case _:
                # numeral, abstraction, or free variable under the hole:
                # nothing fires anywhere the context grammar allows
                return NormalForm(t)


def contract(redex: Term, rng: RngStream, table: PrimitiveTable = DEFAULT_TABLE) -> Term:
    """Fire the reduction rule for a redex; only `sample` touches the rng."""
    match redex:
        case App(Abs(name, _, body), arg):
            return substitute(body, name, arg)
        case Prim(op, args):
            values = [a.value for a in args]
            return Numeral(table.lookup(op).fn(*values))
        case Ifz(Numeral(value), then, otherwise):
            return then if value == 0.0 else otherwise
        case Let(name, Numeral() as numeral, body):
            return substitute(body, name, numeral)
        case Fix(body):
            return App(body, redex)
        case _SampleTerm():
            return Numeral(rng.uniform())
    raise InvariantViolation(f"not a redex: {redex!r}")


def step(t: Term, rng: RngStream, table: PrimitiveTable = DEFAULT_TABLE) -> Term:
    match decompose(t):
        case NormalForm():
            raise InvariantViolation("step called on a normal form")
        case Split(context, redex):
            return plug(context, contract(redex, rng, table))


# -- whole-program runs ------------------------------------------------------


@dataclass(frozen=True)
class Value:
    value: float
    steps: int


@dataclass(frozen=True)
class StuckNormal:
    term: Term
    steps: int


@dataclass(frozen=True)
class Exhausted:
    steps: int


Outcome = Value | StuckNormal | Exhausted


# continuation frames of the machine: (_ARG, term, env) is a pending
# argument thunk, (_IFZ, node, env) and (_LET, node, env) wait for their
# numeral, (_PRIM, node, env, values) holds the arguments evaluated so far
_ARG, _IFZ, _LET, _PRIM = range(4)
_UNBOUND = object()


def run(t: Term, budget: int, rng: RngStream, table: PrimitiveTable = DEFAULT_TABLE) -> Outcome:
    """Reduce a closed ground term for at most `budget` steps.

    An eval/apply loop over closures.  The environment maps a name to a
    `(term, env)` thunk, or to a float for a `let`-bound numeral; looking
    one up costs no step.  Every contraction the rules count (beta, `fix`,
    `ifz` and `let` of a numeral, an all-numeral primitive, `sample`)
    first tests `steps == budget`.  A stuck state is handed to the spec.
    A recording run (a `_Recorder` as stream) sees each `fix` state.
    """
    if budget < 0:
        raise ValueError("run needs budget >= 0")
    recorder = rng if type(rng) is _Recorder else None
    steps = 0
    draws: list[float] = []
    results: list[float] = []
    stack: list = []
    env: dict = {}
    term = t
    while True:
        # eval: descend to a numeral, pushing frames
        cls = type(term)
        if cls is Var:
            bound = env.get(term.name, _UNBOUND)
            if type(bound) is tuple:
                term, env = bound
                continue
            if bound is _UNBOUND:
                return _stuck(t, steps, draws, results)
            value = bound
        elif cls is Numeral:
            value = term.value
        elif cls is App:
            stack.append((_ARG, term.arg, env))
            term = term.fun
            continue
        elif cls is Prim:
            stack.append((_PRIM, term, env, []))
            term = term.args[0]
            continue
        elif cls is Abs:
            if not stack or stack[-1][0] != _ARG:
                return _stuck(t, steps, draws, results)
            if steps == budget:
                return Exhausted(budget)
            steps += 1
            _, arg, arg_env = stack.pop()
            env = {**env, term.name: (arg, arg_env)}
            term = term.body
            continue
        elif cls is Ifz:
            stack.append((_IFZ, term, env))
            term = term.scrutinee
            continue
        elif cls is Let:
            stack.append((_LET, term, env))
            term = term.bound
            continue
        elif cls is Fix:
            if recorder is not None:
                recorder.at_fix(term, env, stack, steps)
            if steps == budget:
                return Exhausted(budget)
            steps += 1
            stack.append((_ARG, term, env))
            term = term.body
            continue
        else:  # sample
            if steps == budget:
                return Exhausted(budget)
            steps += 1
            value = rng.uniform()
            draws.append(value)
        # apply: hand the numeral to the frames until one resumes evaluation
        while True:
            if not stack:
                return Value(value, steps)
            frame = stack.pop()
            kind = frame[0]
            if kind == _PRIM:
                values = frame[3]
                values.append(value)
                args = frame[1].args
                if len(values) < len(args):
                    stack.append(frame)
                    term, env = args[len(values)], frame[2]
                    break
                if steps == budget:
                    return Exhausted(budget)
                steps += 1
                value = Numeral(table.lookup(frame[1].op).fn(*values)).value
                results.append(value)
            elif kind == _IFZ:
                if steps == budget:
                    return Exhausted(budget)
                steps += 1
                node = frame[1]
                term, env = (node.then if value == 0.0 else node.otherwise), frame[2]
                break
            elif kind == _LET:
                if steps == budget:
                    return Exhausted(budget)
                steps += 1
                node = frame[1]
                term, env = node.body, {**frame[2], node.name: value}
                break
            else:  # a numeral applied to an argument
                return _stuck(t, steps, draws, results)


class _Replay:
    """A run's first draws and primitive results, served again in order;
    past them, the draws of `rng` and the primitives of `table`."""

    def __init__(self, draws, results, rng=None, table=None):
        self._draws, self._results = iter(draws), iter(results)
        self.rng, self.table = rng, table

    def uniform(self) -> float:
        for value in self._draws:
            return value
        self.uniform = self.rng.uniform
        return self.uniform()

    def lookup(self, name: str):
        for value in self._results:
            self.value = value
            return self
        self.lookup = self.table.lookup
        return self.lookup(name)

    def fn(self, *values: float) -> float:
        return self.value


def _stuck(t: Term, steps: int, draws: list[float], results: list[float]) -> StuckNormal:
    """The spec's stuck term: replay the machine's steps with `step`.

    The replay reads the run's own draws and primitive results as plain
    floats, so the caller's stream and table see each call once.
    """
    replay = _Replay(map(float, draws), map(float, results))
    for _ in range(steps):
        t = step(t, replay, replay)
    if isinstance(decompose(t), Split):
        raise InvariantViolation(f"machine stuck after {steps} steps, spec is not: {t!r}")
    return StuckNormal(t, steps)


# recording runs per collect_outcomes call; past them, a run the tree does
# not cover finishes on `run`, so loops whose state never repeats stay bounded
MAX_RECORDINGS = 8


class _Slot(float):
    """A draw or primitive result of a recording run: its real value, its
    code slot `i`, and the recorder that an ``ifz`` on it reports to."""

    __slots__ = ("i", "recorder")

    def __eq__(self, other):
        taken = float(self) == other
        self.recorder.guard(self.i, taken)
        return taken


class _Recorder:
    """Stream, table and budget of one recording run, laying its path
    along the tree `root` over the code list `code`.

    Where the tree has the path, each event takes the tree's slot; past
    its end, the run's events are appended.  The run's first draws and
    primitive results are `draws` and `results`; the rest come from
    `stream` and `table`, and each primitive's ``fn`` gets plain floats.
    The machine tests ``steps == budget`` before every contraction, and
    with a recorder as budget that test hands the recorder the step count.
    """

    def __init__(self, code, root, budget, draws, results, stream, table):
        self.code, self.budget, self.table = code, budget, table
        self.source = _Replay(draws, results, stream, table)
        self.node, self.at, self.base = root, 0, 0
        self.steps = 0
        self.states = {}  # a fix state -> (its node, the objects it names)

    def __lt__(self, other):
        return self.budget < other

    def __eq__(self, steps):
        self.steps = steps
        return steps == self.budget

    def uniform(self) -> _Slot:
        return self._event(SAMPLE, (), self.source.uniform())

    def lookup(self, name: str) -> _Recorder:
        self.op, self.prim = name, self.table.lookup(name)
        return self

    def fn(self, *values: float) -> _Slot:
        return self._event(self.prim, values, self.source.lookup(self.op).fn(*map(float, values)))

    def _event(self, prim, values, value: float) -> _Slot:
        step = self.steps + 1 - self.base
        events = self.node[0]
        if self.at < len(events):
            i, recorded = events[self.at]
            if recorded != step:
                raise InvariantViolation("a run left its recorded path")
        else:
            self._past_tree()  # raises unless the recording goes on from here
            self.code.append((prim, tuple(map(self._ref, values))))
            i = len(self.code) - 1
            events.append((i, step))
        self.at += 1
        slot = _Slot(value)
        slot.i, slot.recorder = i, self
        return slot

    def _ref(self, value: float) -> int:
        if type(value) is _Slot:
            return value.i
        self.code.append((None, value))
        return len(self.code) - 1

    def _past_tree(self, kind: str | None = None, step: int = 0) -> bool:
        """Whether the run is past the tree here, at an open end that the
        recording goes on from; if not, the tree ends here in `kind` at
        `step`."""
        end = self.node[1]
        if self.at == len(self.node[0]):
            if end[0] == "open":
                return True
            if end[0] == kind and end[1] == step:
                return False
        raise InvariantViolation("a run left its recorded path")

    def _enter(self, node, steps: int) -> None:
        self.node, self.at, self.base = node, 0, steps

    def guard(self, i: int, taken: bool) -> None:
        step = self.steps + 1 - self.base
        if self._past_tree("guard", step):
            self.node[1] = ["guard", step, i, None, None]
        end = self.node[1]
        if end[2] != i:
            raise InvariantViolation("a run left its recorded path")
        branch = 3 if taken else 4
        if end[branch] is None:
            end[branch] = [[], ("open", 0)]
        self._enter(end[branch], self.steps + 1)

    def at_fix(self, term, env, stack, steps: int) -> None:
        """A back edge when this state repeats one of this run: the same
        node, environment and frames, and as many values in each
        primitive frame."""
        key = (id(term), id(env), tuple(map(id, stack)),
               tuple(len(frame[3]) for frame in stack if frame[0] == _PRIM))
        seen = self.states.get(key)
        step = steps - self.base
        if self._past_tree("jump", step):
            self.node[1] = ("jump", step, [[], ("open", 0)] if seen is None else seen[0])
        target = self.node[1][2]
        if seen is None:
            self.states[key] = (target, term, env, list(stack))
        elif seen[0] is not target:
            raise InvariantViolation("a run left its recorded path")
        self._enter(target, steps)

    def finish(self, outcome: Outcome) -> Outcome:
        """The run's outcome, its end laid into the tree."""
        if type(outcome) is Value:
            step = outcome.steps - self.base
            if self._past_tree("value", step):
                self.node[1] = ("value", step, self._ref(outcome.value))
            return Value(float(outcome.value), outcome.steps)
        end = self.node[1]
        if self.at == len(self.node[0]) and end[0] == "open":
            self.node[1] = ("open", max(end[1], self.budget + 1 - self.base))
        return Exhausted(self.budget)


def collect_outcomes(t: Term, runs: int, budget: int, seed: int,
                     table: PrimitiveTable = DEFAULT_TABLE) -> list[Outcome]:
    """Independent reproducible runs; run i owns stream offset i * 2**40.

    Every run has `run`'s outcome, draws the same stream positions and
    calls each primitive's ``fn`` from `table` on the same floats in the
    same order.  Run 0 is recorded; every later run executes the compiled
    tree on its own stream.  The tree's code makes the machine's draws and
    calls in its order and tests the budget once per node.  At a branch
    no run has taken, or at an open end, the run goes on through the
    recording machine, served its draws and results so far, and the tree
    grows by its path and compiles again.  Once `MAX_RECORDINGS` runs
    have been recorded, such a run goes on through `run` instead.  A
    recording that ends stuck sends every later run to `run`.
    """
    if budget < 0:
        raise ValueError("collect_outcomes needs budget >= 0")
    code, root = [], [[], ("open", 0)]
    body, logs, recordings = None, False, 0
    exhausted = Exhausted(budget)
    outcomes = []
    for i in range(runs):
        stream = RngStream.for_run(seed, i)
        draws = results = ()
        if body is not None:
            if logs:
                draws, results = [], []
                got = body(stream.uniform, draws.append, results.append)
            else:
                got = body(stream.uniform, None, None)
            if got is None:
                outcomes.append(exhausted)
                continue
            if got is not False:
                outcomes.append(Value(*got))
                continue
        if recordings == MAX_RECORDINGS:
            replay = _Replay(draws, results, stream, table)
            outcomes.append(run(t, budget, replay, replay))
            continue
        recordings += 1
        recorder = _Recorder(code, root, budget, draws, results, stream, table)
        outcome = run(t, recorder, recorder, recorder)
        if type(outcome) is StuckNormal:
            body, recordings = None, MAX_RECORDINGS
            outcomes.append(outcome)
            continue
        outcomes.append(recorder.finish(outcome))
        body, logs = compile_tree(code, root, budget)
    return outcomes


def dkw_bound(runs: int, confidence: float) -> float:
    """Dvoretzky-Kiefer-Wolfowitz epsilon at miss probability `confidence`."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    return math.sqrt(math.log(2.0 / confidence) / (2.0 * runs))


@dataclass(frozen=True)
class Estimate:
    p_hat: float
    dkw: float
    runs: int
    exhausted: int


def estimate_mass(t: Term, u: IntervalSet, runs: int, budget: int, seed: int,
                  confidence: float = 0.01,
                  table: PrimitiveTable = DEFAULT_TABLE) -> Estimate:
    """Fraction of runs landing in u, with its DKW confidence radius."""
    if runs < 1:
        raise ValueError("estimate_mass needs runs >= 1")
    outcomes = collect_outcomes(t, runs, budget, seed, table)
    hits = u.count(sorted(o.value for o in outcomes if isinstance(o, Value)))
    exhausted = sum(1 for o in outcomes if isinstance(o, Exhausted))
    return Estimate(hits / runs, dkw_bound(runs, confidence), runs, exhausted)
