"""Compositional measure semantics.

Ground-type meanings are ``Measure``s; arrow-type meanings are
``SemFunction``s, host closures mapping meanings to meanings.  An
environment is a dict from names to meanings.  The only observables are
ground masses, so function values are never compared.

A ``let`` whose body is deterministic denotes the pushforward of its
bound measure along the body, lowered once and compiled to one
straight-line function (see ``ir``).  Two independent lets, ``let x = M
in let y = N in P`` with ``x`` not free in ``N``, fuse into one
pushforward of the product of ``M`` and ``N`` along ``P``: by the
commutativity of the measure semantics, the let-integral over ``M`` it
replaces, bit for bit.  A third let nests.  Where the body inverts on
its last input (``ir.preimage``), a mass query pulls the set back to an
interval set of that input, from the ``hull()`` of the last bound
measure, and integrates the outer input with the let-integral's
``MASS_REFINE`` pre-split.

A body that does not lower but is a guard splits as the paper's ``ifz``
splits a measure: ``let x = M in ifz S then A else B``, M continuous and
S inverting in x, is ``let x = M|V0 in A`` plus ``let x = M|V1 in B``,
with V0 and V1 the preimages of ``{0}`` and its complement under S and
``M|V`` the restriction ``U |-> M(U ∩ V)``.  A branch without x is its
meaning times ``M(V)``; x alone is ``M|V``.  Any other body falls back
to quadrature.

A ground ``fix (fun y : real -> M)`` whose ``y`` occurs in ``M`` only in
tail position (``M`` itself, an ``ifz`` branch, a ``let`` body) is solved
in closed form.  Its functional is affine, ``F(nu) = A + q*nu`` with
``A = F(0)`` and ``q = |F(delta_0)| - |A|``, so the least fixpoint is the
geometric series ``A / (1 - q)``.  Every ``#observe`` is such a loop,
and its ``A`` is its prior restricted to the window.

Every other ``fix`` is Kleene iteration from the zero value.  Iteration
stops when the total mass moves by less than ``MASS_TOL``.  The iterates
are an increasing chain of sub-probability measures, so between two of
them no set's mass grows by more than the total mass does: the one test
bounds the step of every query, and the denotation does not depend on
which sets are asked for.  At arrow types the fixpoint re-runs that
iteration for every spine of arguments reaching ground type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import ir
from .intervals import FULL_LINE, IntervalSet
from .measure import (
    MASS_REFINE,
    ConcreteMeasure,
    FixpointChainMeasure,
    IntegralMeasure,
    Measure,
    RestrictedMeasure,
    dirac,
    lebesgue_unit,
    mix,
    pushforward,
)
from .primitives import DEFAULT_TABLE, Primitive, PrimitiveTable
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


# Kleene iteration stops when the total mass moves by less than MASS_TOL,
# and raises NonConvergent after MAX_ITERS steps past iterate 0
MASS_TOL = 1e-6
MAX_ITERS = 10_000


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


def interpret(t: Term, env: dict | None = None, *, table: PrimitiveTable = DEFAULT_TABLE):
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
                return den_let(name, _ground(den(bound, env)), body, env)
            case Fix(body):
                fun = den(body, env)
                if not isinstance(fun, SemFunction):
                    raise TypeError("fix needs a function value")
                if isinstance(body, Abs) and body.annot == REAL and _tail_only(body.body, body.name):
                    solved = _solve_affine(fun)
                    if solved is not None:
                        return solved
                return fixpoint(fun)
        raise TypeError(f"not a term: {t!r}")

    def den_let(name: str, bound: Measure, body: Term, env: dict) -> Measure:
        """``let name = M in body``, with M's meaning `bound`."""
        pushed = _let_pushforward(name, bound, body, env, table, lambda b: _ground(den(b, env)))
        if pushed is not None:
            return pushed
        sides = _guard_sides(name, bound, body, env, table)
        if sides is None:
            return let_bind(bound, lambda r: _ground(den(body, {**env, name: dirac(r)})))
        coeffs, measures = [], []
        for side, branch in zip(sides, (body.then, body.otherwise)):
            part = RestrictedMeasure(bound, side)
            if name in free_vars(branch):
                coeffs.append(1.0)
                measures.append(part if branch == Var(name) else den_let(name, part, branch, env))
            else:
                coeffs.append(part.total_mass())
                measures.append(_ground(den(branch, env)) if coeffs[-1] else ConcreteMeasure())
        return mix(coeffs, measures)

    return den(t, {} if env is None else env)


def _ground(v) -> Measure:
    if not isinstance(v, Measure):
        raise TypeError("expected a ground-type value")
    return v


def _let_pushforward(name: str, first: Measure, body: Term, env: dict,
                     table: PrimitiveTable, ground) -> Measure | None:
    """The pushforward ``let name = M in body`` denotes when its body
    lowers, else None; `first` is M's meaning.

    ``let x = M in let y = N in P`` with x not free in N, N not lowering
    and both bounds continuous is one pushforward of M and N along P
    lowered in (x, y); any other ``let`` whose body lowers in (x,) is
    one of M.  `ground` interprets N in `env`.
    """
    names, bounds = (name,), [first]
    code, out = ir.lower(body, names, env, table)
    if (out is None and first.has_continuous and isinstance(body, Let)
            and name not in free_vars(body.bound)):
        # where P lowers in (x, y), N does not, or the body would have
        names = (name, body.name)
        code, out = ir.lower(body.body, names, env, table)
        if out is not None:
            bounds.append(ground(body.bound))
    # an atom-only N mixes exactly unfused
    if out is None or not all(m.has_continuous for m in bounds[1:]):
        return None
    n = len(names)
    return pushforward(Primitive("let", n, ir.compile_code(code, n, out), ir.preimage(code, out, n)),
                       bounds, MASS_REFINE)


def _guard_sides(name: str, bound: Measure, body: Term, env: dict, table: PrimitiveTable):
    """The preimages of ``{0}`` and its complement under S for a body
    ``ifz S then A else B``, or None unless `bound` is continuous and S
    inverts in `name`."""
    if not (bound.has_continuous and isinstance(body, Ifz)):
        return None
    code, out = ir.lower(body.scrutinee, (name,), env, table)
    pull_back = None if out is None else ir.preimage(code, out, 1)
    if pull_back is None:
        return None
    lo, hi = bound.hull()
    sides = tuple(pull_back(0, [None], lo, hi, s) for s in (_ZERO_SET, _NONZERO_SET))
    return None if None in sides else sides


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


def fixpoint(f: SemFunction):
    """sup of f^n(0) from the zero value of f's domain type.

    At ground type the iterates are walked in order, each one's memo
    cache primed before the next one integrates over it, until the total
    mass settles.  At arrow types the value is lazily unrolled and the
    iteration re-runs for each spine of arguments that reaches ground
    type.
    """

    def value_at(ty: Type, spine: tuple):
        if ty != REAL:
            return SemFunction(lambda arg: value_at(ty.codomain, spine + (arg,)), ty.domain)
        iterate, chain, total = zero_value(f.domain), [], math.inf
        while True:
            v = iterate
            for arg in spine:
                v = v.apply(arg)
            chain.append(_ground(v))
            previous, total = total, chain[-1].total_mass()
            if abs(total - previous) < MASS_TOL:
                return FixpointChainMeasure(chain)
            if len(chain) > MAX_ITERS:
                raise NonConvergent(MAX_ITERS, {FULL_LINE: total})
            iterate = f.apply(iterate)

    return value_at(f.domain, ())
