"""Macro layer: the standard combinators definable from the core syntax.

The parser expands each ``#name(...)`` call through ``expand_macro`` as
it reads it, so nothing past the parser sees a macro.  The branching macro
``ifU`` is supported at ground type, which is all the bundled
combinators need; its test is *inverted* in the expansion because the
core conditional tests for zero.
"""

from __future__ import annotations

import math

from .intervals import IntervalSet
from .primitives import chi_name
from .terms import (
    REAL,
    SAMPLE,
    Abs,
    App,
    Arrow,
    Fix,
    Ifz,
    Let,
    Numeral,
    Prim,
    Term,
    Var,
)

TWO_PI = 2.0 * math.pi

REAL_TO_REAL = Arrow(REAL, REAL)


class UnknownMacro(Exception):
    pass


class ArityError(Exception):
    pass


def _chi(u: IntervalSet, arg: Term) -> Term:
    return Prim(chi_name(u), (arg,))


def if_in_set(scrutinee: Term, u: IntervalSet, then: Term, otherwise: Term) -> Term:
    """if scrutinee in U then ... else ... at ground type (branches swap)."""
    return Ifz(_chi(u, scrutinee), otherwise, then)


def bernoulli_term() -> Term:
    return Abs("p", REAL, Let("x", SAMPLE, Prim("le", (Var("x"), Var("p")))))


def exponential_term() -> Term:
    return Let("x", SAMPLE, Prim("neg_log", (Var("x"),)))


def normal_term() -> Term:
    # Box-Muller: sqrt(-2 log x) * cos(2 pi y)
    radius = Prim("sqrt", (Prim("mul", (Numeral(-2.0), Prim("log", (Var("x"),)))),))
    angle = Prim("cos", (Prim("mul", (Numeral(TWO_PI), Var("y"))),))
    return Let("x", SAMPLE, Let("y", SAMPLE, Prim("mul", (radius, angle))))


def gaussian_term() -> Term:
    body = Prim("add", (Prim("mul", (Var("s"), Var("y"))), Var("m")))
    return Abs("m", REAL, Abs("s", REAL, Let("y", normal_term(), body)))


def observe_term(u: IntervalSet) -> Term:
    # \m. fix(\y. let x = m in if x in U then x else y)
    loop = Fix(Abs("y", REAL, Let("x", Var("m"), if_in_set(Var("x"), u, Var("x"), Var("y")))))
    return Abs("m", REAL, loop)


def expectation_term(n: int) -> Term:
    if n < 1:
        raise ArityError("expectation requires n >= 1")
    draw = App(Var("f"), Var("m"))
    total = draw
    for _ in range(n - 1):
        total = Prim("add", (total, draw))
    body = Prim("div", (total, Numeral(float(n))))
    return Abs("f", REAL_TO_REAL, Abs("m", REAL, body))


# name -> (argument kinds, builder); kinds: "term", "iset", "int"
MACRO_SIGNATURES = {
    "ifU": (("term", "iset", "term", "term"), lambda l, u, m, n: if_in_set(l, u, m, n)),
    "bernoulli": ((), bernoulli_term),
    "exponential": ((), exponential_term),
    "normal": ((), normal_term),
    "gaussian": ((), gaussian_term),
    "observe": (("iset",), observe_term),
    "expectation": (("int",), expectation_term),
}


def expand_macro(name: str, args: tuple) -> Term:
    sig = MACRO_SIGNATURES.get(name)
    if sig is None:
        raise UnknownMacro(name)
    kinds, builder = sig
    if len(args) != len(kinds):
        raise ArityError(f"macro #{name} expects {len(kinds)} arguments, got {len(args)}")
    checked = []
    for kind, a in zip(kinds, args):
        if kind == "term" and isinstance(a, Term):
            checked.append(a)
        elif kind == "iset" and isinstance(a, IntervalSet):
            checked.append(a)
        elif kind == "int" and isinstance(a, int) and not isinstance(a, bool):
            checked.append(a)
        else:
            raise ArityError(f"macro #{name}: bad argument {a!r} for slot {kind}")
    return builder(*checked)
