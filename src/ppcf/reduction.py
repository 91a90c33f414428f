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

``collect_outcomes`` first runs the machine once over symbolic draws.
Only ``ifz`` reads a value, so a run that meets no ``ifz`` takes the
same steps and calls the same primitives whatever it draws.  When that
run ends in a value, its draws and primitive results are lowered to one
``ir`` code list and compiled, and every run replays it on its own
stream; every run of any other program goes to ``run``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .intervals import IntervalSet
from .ir import compile_code
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
    """
    if budget < 0:
        raise ValueError("run needs budget >= 0")
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
    """A run's draws and primitive results, served again in order."""

    def __init__(self, draws: list[float], results: list[float]):
        self.uniform = iter(draws).__next__
        self._next_result = iter(results).__next__

    def lookup(self, name: str) -> _Replay:
        return self

    def fn(self, *values: float) -> float:
        return self._next_result()


def _stuck(t: Term, steps: int, draws: list[float], results: list[float]) -> StuckNormal:
    """The spec's stuck term: replay the machine's steps with `step`.

    The replay reads the run's own draws and primitive results, so the
    caller's stream and table see each call once.
    """
    replay = _Replay(draws, results)
    for _ in range(steps):
        t = step(t, replay, replay)
    if isinstance(decompose(t), Split):
        raise InvariantViolation(f"machine stuck after {steps} steps, spec is not: {t!r}")
    return StuckNormal(t, steps)


class _Guarded(Exception):
    """A recording run compared a slot: its path depends on its draws."""


class _Slot(float):
    """A draw or primitive result of a recording run.  Its float value is
    its event index; comparing it (an ``ifz``) stops the recording."""

    __slots__ = ()

    def __eq__(self, other):
        raise _Guarded


class _Recorder:
    """Stream and table of a recording run: each draw and primitive call
    returns a fresh slot and logs an event, None or (primitive, args)."""

    def __init__(self, table: PrimitiveTable):
        self.table = table
        self.events: list = []

    def _slot(self, event) -> _Slot:
        self.events.append(event)
        return _Slot(len(self.events) - 1)

    def uniform(self) -> _Slot:
        return self._slot(None)

    def lookup(self, name: str):
        prim = self.table.lookup(name)
        return replace(prim, fn=lambda *values: self._slot((prim, values)))

    def compile(self, out: float):
        """(body, draws): the recorded value as compiled code of the draws."""
        draws = [i for i, event in enumerate(self.events) if event is None]
        at = {i: j for j, i in enumerate(draws)}  # event index -> code slot
        code: list = [(None, None)] * len(draws)

        def slot(v):
            if type(v) is _Slot:
                return at[int(v)]
            code.append((None, v))
            return len(code) - 1

        for i, event in enumerate(self.events):
            if event is not None:
                prim, values = event
                code.append((prim, tuple(slot(v) for v in values)))
                at[i] = len(code) - 1
        return compile_code(code, len(draws), slot(out)), len(draws)


def collect_outcomes(t: Term, runs: int, budget: int, seed: int,
                     table: PrimitiveTable = DEFAULT_TABLE) -> list[Outcome]:
    """Independent reproducible runs; run i owns stream offset i * 2**40.

    `run` first reduces `t` once with a recorder for stream and table, so
    draws and primitive results are slots.  If that run reaches a value
    without an ``ifz`` comparing a slot, every run takes its steps and
    calls its primitives, and each run is the recorded code replayed on
    its own draws: ``uniform`` once per draw in draw order, then each
    primitive's ``fn`` from `table` in the machine's order, on the floats
    the machine would pass it.  The values are the machine's since a
    primitive maps floats to finite floats, so the ``Numeral`` the
    machine wraps each result in keeps it as it is.  Any other recording
    (an ``ifz``, a stuck term or an exhausted budget) sends every run to
    `run`.
    """
    if budget < 0:
        raise ValueError("collect_outcomes needs budget >= 0")
    recorder = _Recorder(table)
    try:
        recorded = run(t, budget, recorder, recorder)
    except _Guarded:
        recorded = None
    if not isinstance(recorded, Value):
        return [run(t, budget, RngStream.for_run(seed, i), table) for i in range(runs)]
    body, draws = recorder.compile(recorded.value)
    streams = (RngStream.for_run(seed, i) for i in range(runs))
    return [Value(body(*[s.uniform() for _ in range(draws)]), recorded.steps) for s in streams]


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
