"""Compositional measure semantics.

Ground-type meanings are ``Measure``s; arrow-type meanings are
``SemFunction``s, host closures mapping meanings to meanings.  An
environment is a dict from names to meanings.  The only observables are
ground masses, so function values are never compared.

A ``let`` whose body is deterministic denotes the pushforward of its
bound measure along the body, lowered once to straight-line code
(``_lower``), the code ``compile_deterministic`` runs.  Two independent
lets, ``let x = M in let y = N in P`` with ``x`` not free in ``N``, fuse
into one pushforward of the product of ``M`` and ``N`` along ``P``: by
the commutativity of the measure semantics, the let-integral over ``M``
it replaces, bit for bit.  A third let nests.
The same code is inverted: where the last input reaches the value
through one path of primitives with preimages, each using it once (a
``let`` only names a slot), a mass query pulls the set back along the
path to an interval set of that input, whatever jumps the body makes in
the other inputs.  The other slots are evaluated at the outer inputs'
values, and interval ranges carried forward from the ``hull()`` of the
last bound measure give each preimage the range of its free slot.  The
outer input is integrated with the let-integral's ``MASS_REFINE``
pre-split.  Any other body falls back to quadrature.

A ground ``fix (fun y : real -> M)`` whose ``y`` occurs in ``M`` only in
tail position (``M`` itself, an ``ifz`` branch, a ``let`` body) is solved
in closed form.  Its functional is affine, ``F(nu) = A + q*nu`` with
``A = F(0)`` and ``q = |F(delta_0)| - |A|``, so the least fixpoint is the
geometric series ``A / (1 - q)``.  Every ``#observe`` is such a loop.

Every other ``fix`` is Kleene iteration from the zero value.  Iteration
stops when the total mass moves by less than ``mass_tol``.  The iterates
are an increasing chain of sub-probability measures, so between two of
them no set's mass grows by more than the total mass does: the one test
bounds the step of every query, and the denotation does not depend on
which sets are asked for.  At arrow types the fixpoint re-runs that
iteration for every spine of arguments reaching ground type.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intervals import FULL_LINE, IntervalSet
from .measure import (
    MASS_REFINE,
    ConcreteMeasure,
    FixpointChainMeasure,
    IntegralMeasure,
    Measure,
    dirac,
    lebesgue_unit,
    mix,
    pushforward,
)
from .primitives import DEFAULT_TABLE, Primitive, PrimitiveTable, range_image
from .terms import (
    REAL,
    Abs,
    App,
    Fix,
    Ifz,
    Let,
    Numeral,
    Prim,
    Term,
    Type,
    Var,
    _SampleTerm,
    free_vars,
)

_ZERO_SET = IntervalSet.point(0.0)
_NONZERO_SET = _ZERO_SET.complement()
_SELECT = Primitive("ifz", 3, lambda c, then, otherwise: then if c == 0.0 else otherwise)


@dataclass(frozen=True)
class FixConfig:
    mass_tol: float = 1e-6
    max_iters: int = 10_000

    def __post_init__(self):
        if self.mass_tol <= 0:
            raise ValueError("mass_tol must be positive")


DEFAULT_FIX = FixConfig()


class NonConvergent(Exception):
    def __init__(self, iters: int, last_masses: dict):
        super().__init__(f"fixpoint did not settle within {iters} iterations")
        self.iters = iters
        self.last_masses = last_masses


# -- semantic values --------------------------------------------------------


@dataclass(frozen=True)
class SemFunction:
    fn: object  # meaning -> meaning
    domain: Type

    def apply(self, arg):
        return self.fn(arg)


def zero_value(ty: Type):
    if ty == REAL:
        return ConcreteMeasure()
    return SemFunction(lambda _arg: zero_value(ty.codomain), ty.domain)


# -- the interpretation -----------------------------------------------------


def interpret(t: Term, env: dict | None = None, *, fix: FixConfig = DEFAULT_FIX,
              table: PrimitiveTable = DEFAULT_TABLE):
    """The meaning of `t`: a Measure at ground type, a SemFunction at arrow
    type.  `env` maps the free variables of `t` to their meanings."""

    def den(t: Term, env: dict):
        match t:
            case Var(name):
                try:
                    return env[name]
                except KeyError:
                    raise KeyError(f"unbound variable {name!r} in environment") from None
            case Numeral(value):
                return dirac(value)
            case _SampleTerm():
                return lebesgue_unit()
            case Abs(name, annot, body):
                return SemFunction(lambda arg: den(body, {**env, name: arg}), annot)
            case App(fun, arg):
                fun_value = den(fun, env)
                if not isinstance(fun_value, SemFunction):
                    raise TypeError("application of a ground-type value")
                return fun_value.apply(den(arg, env))
            case Prim(op, args):
                return pushforward(table.lookup(op), [_ground(den(a, env)) for a in args])
            case Ifz(scrutinee, then, otherwise):
                scrut = _ground(den(scrutinee, env))
                p_zero = scrut.mass(_ZERO_SET)
                p_nonzero = scrut.mass(_NONZERO_SET)
                branches = []
                coeffs = []
                if p_zero != 0.0:
                    branches.append(_ground(den(then, env)))
                    coeffs.append(p_zero)
                if p_nonzero != 0.0:
                    branches.append(_ground(den(otherwise, env)))
                    coeffs.append(p_nonzero)
                return mix(coeffs, branches)
            case Let(name, bound, body):
                bound_measure = _ground(den(bound, env))
                pushed = _let_pushforward(t, bound_measure, env, table,
                                          lambda b: _ground(den(b, env)))
                if pushed is not None:
                    return pushed
                return let_bind(bound_measure,
                                lambda r: _ground(den(body, {**env, name: dirac(r)})))
            case Fix(body):
                fun = den(body, env)
                if not isinstance(fun, SemFunction):
                    raise TypeError("fix needs a function value")
                if isinstance(body, Abs) and body.annot == REAL and _tail_only(body.body, body.name):
                    solved = _solve_affine(fun)
                    if solved is not None:
                        return solved
                return fixpoint(fun, fix)
        raise TypeError(f"not a term: {t!r}")

    return den(t, {} if env is None else env)


def _ground(v) -> Measure:
    if not isinstance(v, Measure):
        raise TypeError("expected a ground-type value")
    return v


def compile_deterministic(t: Term, inputs: tuple[str, ...], env: dict | None = None,
                          table: PrimitiveTable = DEFAULT_TABLE):
    """Compile a deterministic first-order ground term to a float function.

    The function takes one float per name in `inputs` and gives the same
    value, bit for bit, as reducing the term with those numerals
    substituted.  Other free variables must be unit Diracs in `env`.
    Returns None on ``sample``, ``fun``, application or ``fix``.  A ``let``
    pushforward runs the same code, and ``ppcf stability --fn`` checks it.
    """
    code, out = _lower(t, inputs, {} if env is None else env, table)
    return None if out is None else lambda *xs: _run(code, xs)[out]


def _lower(t: Term, inputs: tuple[str, ...], env: dict, table: PrimitiveTable):
    """Lower `t` to straight-line code: (code, slot of the value or None).

    The first slots are the inputs, (None, None); each later one is
    (primitive, argument slots) or (None, constant).  A ``let`` names its
    bound's slot.  An ``ifz`` selects between both branches' slots: every
    primitive is total and pure, so the value is the same.
    """
    code = [(None, None)] * len(inputs)

    def lower(t: Term, scope: dict):
        match t:
            case Numeral(value):
                code.append((None, value))
                return len(code) - 1
            case Var(name) if name in scope:
                return scope[name]
            case Var(name):  # a unit Dirac in `env` is a constant
                m = env.get(name)
                if (isinstance(m, ConcreteMeasure) and not m.lebesgue
                        and len(m.atoms) == 1 and m.atoms[0].weight == 1.0):
                    return lower(Numeral(m.atoms[0].location), scope)
                return None
            case Prim(op, args):
                prim = table.lookup(op)
            case Ifz(scrutinee, then, otherwise):
                prim, args = _SELECT, (scrutinee, then, otherwise)
            case Let(name, bound, body):
                slot = lower(bound, scope)
                return None if slot is None else lower(body, {**scope, name: slot})
            case _:
                return None
        slots = tuple(lower(a, scope) for a in args)
        if None in slots:
            return None
        code.append((prim, slots))
        return len(code) - 1

    return code, lower(t, {name: i for i, name in enumerate(inputs)})


def _run(code: list, xs, skip=()) -> list:
    """The value of every slot at inputs `xs`, None at the slots in `skip`."""
    values = list(xs)
    for i in range(len(values), len(code)):
        prim, arg = code[i]
        values.append(None if i in skip else arg if prim is None
                      else prim.fn(*[values[j] for j in arg]))
    return values


def _chain(code: list, out: int, k: int):
    """The steps (primitive, position, argument slots) from slot `out` down
    to input `k`, and the slots that depend on `k`; None unless each step
    uses `k` through one argument and has a preimage (``ifz`` has none)."""
    marked = {k}
    for i, (prim, args) in enumerate(code):
        if prim is not None and not marked.isdisjoint(args):
            marked.add(i)
    steps = []
    while out in marked and out != k:
        prim, args = code[out]
        on = [p for p, j in enumerate(args) if j in marked]
        if len(on) != 1 or prim.preimage is None:
            return None
        steps.append((prim, on[0], args))
        out = args[on[0]]
    return (steps, marked) if out == k else None


def _let_pushforward(t: Let, first: Measure, env: dict, table: PrimitiveTable,
                     ground) -> Measure | None:
    """The pushforward a ``let`` denotes when its body lowers, else None.

    ``let x = M in let y = N in P`` with x not free in N, N not lowering
    and both bounds continuous is one pushforward of M and N along P
    lowered in (x, y); any other ``let`` whose body lowers in (x,) is
    one of M.  `ground` interprets N in `env`.
    """
    names, bounds, body = (t.name,), [first], t.body
    code, out = _lower(body, names, env, table)
    if (out is None and first.has_continuous and isinstance(body, Let)
            and t.name not in free_vars(body.bound)):
        # where P lowers in (x, y), N does not, or the body would have
        names, body = (t.name, body.name), body.body
        code, out = _lower(body, names, env, table)
        if out is not None:
            bounds.append(ground(t.body.bound))
    # an atom-only N mixes exactly unfused
    if out is None or not all(m.has_continuous for m in bounds[1:]):
        return None
    steps, marked = _chain(code, out, len(names) - 1) or (None, None)

    def preimage(i, fixed, lo, hi, target):
        values = _run(code, fixed, marked)  # None wherever input k reaches
        frames = []
        for prim, slot, arg_slots in reversed(steps):  # forward, from the input
            args = [values[j] for j in arg_slots]
            frames.append((prim, slot, args, lo, hi))
            lo, hi = range_image(prim, slot, args, lo, hi)
        for prim, slot, args, lo, hi in reversed(frames):  # backward, from the result
            target = prim.preimage(slot, args, lo, hi, target)
            if target is None:
                return None
        return target

    return pushforward(Primitive("let", len(names), lambda *xs: _run(code, xs)[out],
                                 None if steps is None else preimage),
                       bounds, MASS_REFINE)


def let_bind(bound: Measure, body) -> Measure:
    """The ground let: U |-> integral of body(r)(U) against `bound`.

    An atom-only bound collapses to an exact weighted sum of body
    measures; anything else stays a lazily-queried integral.
    """
    if isinstance(bound, ConcreteMeasure) and not bound.lebesgue:
        coeffs = [atom.weight for atom in bound.atoms]
        measures = [body(atom.location) for atom in bound.atoms]
        return mix(coeffs, measures)
    return IntegralMeasure(bound, body)


# -- fixpoints ----------------------------------------------------------------


def _tail_only(t: Term, y: str) -> bool:
    """Whether `y` occurs free in `t` only in tail position."""
    match t:
        case Var(_):
            return True
        case Ifz(scrutinee, then, otherwise):
            return (y not in free_vars(scrutinee)
                    and _tail_only(then, y) and _tail_only(otherwise, y))
        case Let(name, bound, body):
            return y not in free_vars(bound) and (name == y or _tail_only(body, y))
    return y not in free_vars(t)


def _solve_affine(f: SemFunction) -> Measure | None:
    """Least fixpoint of a ground functional F(nu) = A + q*nu: A / (1 - q).

    q is read off F at a probability measure; the unit Dirac at 0 keeps
    a deterministic ``let`` body compilable.  Returns None when rounding
    leaves 1 - q <= 0 with |A| > 0, so the caller iterates instead.
    """
    a = _ground(f.apply(zero_value(REAL)))
    a_mass = a.total_mass()
    if a_mass == 0.0:
        return ConcreteMeasure()
    gap = 1.0 - _ground(f.apply(dirac(0.0))).total_mass() + a_mass
    if gap <= 0.0:
        return None
    return mix([1.0 / gap], [a])


def _iterate_ground(make_measure, cfg: FixConfig) -> Measure:
    """Iterate k -> make_measure(k) until the total mass settles.

    make_measure(k) must be the ground meaning of the k-th Kleene
    iterate; iterates are walked in order so each one's memo cache is
    primed before the next one integrates over it.
    """
    chain = [make_measure(0)]
    total = chain[0].total_mass()
    for _ in range(cfg.max_iters):
        nxt = make_measure(len(chain))
        chain.append(nxt)
        previous, total = total, nxt.total_mass()
        if abs(total - previous) < cfg.mass_tol:
            return FixpointChainMeasure(chain)
    raise NonConvergent(cfg.max_iters, {FULL_LINE.key(): total})


def fixpoint(f: SemFunction, cfg: FixConfig = DEFAULT_FIX):
    """sup of f^n(0) from the zero value of f's domain type.

    At ground type the chain of iterates is materialized once; at
    arrow types the value is lazily unrolled and the iteration re-runs
    for each spine of arguments that reaches ground type.
    """
    ty = f.domain

    def value_at(ty: Type, spine: tuple):
        if ty == REAL:
            iterates = [zero_value(f.domain)]

            def make_measure(k: int) -> Measure:
                while len(iterates) <= k:
                    iterates.append(f.apply(iterates[-1]))
                v = iterates[k]
                for arg in spine:
                    v = v.apply(arg)
                return _ground(v)

            return _iterate_ground(make_measure, cfg)
        return SemFunction(lambda arg: value_at(ty.codomain, spine + (arg,)), ty.domain)

    return value_at(ty, ())
