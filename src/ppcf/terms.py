"""Abstract syntax of PPCF terms and types.

Terms are immutable; sharing subterms is always safe.  Numerals carry
finite 64-bit floats only.  Capture-avoiding substitution renames bound
variables with a global counter, producing names like ``x#3``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass


# -- types ----------------------------------------------------------------


class Type:
    __slots__ = ()


class _RealType(Type):
    __slots__ = ()

    def __repr__(self):
        return "real"

    def __eq__(self, other):
        return isinstance(other, _RealType)

    def __hash__(self):
        return hash("real")


REAL = _RealType()


@dataclass(frozen=True, repr=False)
class Arrow(Type):
    domain: Type
    codomain: Type

    def __repr__(self):
        dom = f"({self.domain!r})" if isinstance(self.domain, Arrow) else repr(self.domain)
        return f"{dom} -> {self.codomain!r}"


# -- terms ----------------------------------------------------------------


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Abs(Term):
    name: str
    annot: Type
    body: Term


@dataclass(frozen=True)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True)
class Fix(Term):
    body: Term


@dataclass(frozen=True)
class Numeral(Term):
    value: float

    def __post_init__(self):
        if not isinstance(self.value, float):
            object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise ValueError(f"numerals must be finite, got {self.value}")


@dataclass(frozen=True)
class Prim(Term):
    op: str
    args: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Ifz(Term):
    scrutinee: Term
    then: Term
    otherwise: Term


class _SampleTerm(Term):
    __slots__ = ()

    def __repr__(self):
        return "Sample"

    def __eq__(self, other):
        return isinstance(other, _SampleTerm)

    def __hash__(self):
        return hash("sample")


SAMPLE = _SampleTerm()


@dataclass(frozen=True)
class Let(Term):
    name: str
    bound: Term
    body: Term


# -- free variables / substitution -----------------------------------------

_fresh_counter = itertools.count()


def fresh_name(base: str) -> str:
    root = base.split("#", 1)[0]
    return f"{root}#{next(_fresh_counter)}"


def free_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(name):
            return frozenset((name,))
        case Abs(name, _, body):
            return free_vars(body) - {name}
        case App(fun, arg):
            return free_vars(fun) | free_vars(arg)
        case Fix(body):
            return free_vars(body)
        case Numeral() | _SampleTerm():
            return frozenset()
        case Prim(_, args):
            out = frozenset()
            for a in args:
                out |= free_vars(a)
            return out
        case Ifz(scrutinee, then, otherwise):
            return free_vars(scrutinee) | free_vars(then) | free_vars(otherwise)
        case Let(name, bound, body):
            return free_vars(bound) | (free_vars(body) - {name})
    raise TypeError(f"not a term: {t!r}")


def substitute(t: Term, x: str, s: Term) -> Term:
    """Capture-avoiding t{s/x}."""
    fv_s = free_vars(s)

    def go(t: Term) -> Term:
        match t:
            case Var(name):
                return s if name == x else t
            case Abs(name, annot, body):
                if name == x or x not in free_vars(body):
                    return t
                if name in fv_s:
                    renamed = fresh_name(name)
                    body = substitute(body, name, Var(renamed))
                    return Abs(renamed, annot, go(body))
                return Abs(name, annot, go(body))
            case App(fun, arg):
                return App(go(fun), go(arg))
            case Fix(body):
                return Fix(go(body))
            case Numeral() | _SampleTerm():
                return t
            case Prim(op, args):
                return Prim(op, tuple(go(a) for a in args))
            case Ifz(scrutinee, then, otherwise):
                return Ifz(go(scrutinee), go(then), go(otherwise))
            case Let(name, bound, body):
                new_bound = go(bound)
                if name == x or x not in free_vars(body):
                    return Let(name, new_bound, body)
                if name in fv_s:
                    renamed = fresh_name(name)
                    body = substitute(body, name, Var(renamed))
                    return Let(renamed, new_bound, go(body))
                return Let(name, new_bound, go(body))
        raise TypeError(f"not a term: {t!r}")

    return go(t)


def alpha_equal(t1: Term, t2: Term) -> bool:
    """Structural equality up to renaming of bound variables."""

    def go(a, b, env1, env2):
        match a, b:
            case Var(n1), Var(n2):
                return env1.get(n1, n1) == env2.get(n2, n2)
            case Abs(n1, ty1, b1), Abs(n2, ty2, b2):
                if ty1 != ty2:
                    return False
                tag = object()
                return go(b1, b2, {**env1, n1: tag}, {**env2, n2: tag})
            case App(f1, a1), App(f2, a2):
                return go(f1, f2, env1, env2) and go(a1, a2, env1, env2)
            case Fix(b1), Fix(b2):
                return go(b1, b2, env1, env2)
            case Numeral(v1), Numeral(v2):
                return v1 == v2
            case _SampleTerm(), _SampleTerm():
                return True
            case Prim(o1, a1s), Prim(o2, a2s):
                return (
                    o1 == o2
                    and len(a1s) == len(a2s)
                    and all(go(p, q, env1, env2) for p, q in zip(a1s, a2s))
                )
            case Ifz(s1, t1_, e1), Ifz(s2, t2_, e2):
                return (
                    go(s1, s2, env1, env2)
                    and go(t1_, t2_, env1, env2)
                    and go(e1, e2, env1, env2)
                )
            case Let(n1, m1, b1), Let(n2, m2, b2):
                if not go(m1, m2, env1, env2):
                    return False
                tag = object()
                return go(b1, b2, {**env1, n1: tag}, {**env2, n2: tag})
        return False

    return go(t1, t2, {}, {})
