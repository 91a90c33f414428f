import math

import pytest

from ppcf.intervals import IntervalSet
from ppcf.primitives import chi_name
from ppcf.sugar import ArityError, UnknownMacro, expand_macro
from ppcf.terms import (
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
    Var,
    alpha_equal,
    free_vars,
    substitute,
)
from ppcf.typecheck import TypeCheckError, typecheck


def test_numeral_rejects_non_finite():
    with pytest.raises(ValueError):
        Numeral(math.nan)
    with pytest.raises(ValueError):
        Numeral(math.inf)


# -- substitution -----------------------------------------------------------


def test_substitute_direct():
    assert substitute(Var("x"), "x", Numeral(3.0)) == Numeral(3.0)


def test_substitute_no_capture_needed():
    t = Abs("x", REAL, App(Var("x"), Var("y")))
    got = substitute(t, "y", Var("z"))
    assert got == Abs("x", REAL, App(Var("x"), Var("z")))


def test_substitute_capture_avoidance():
    # (\y. x){y/x} must rename the binder
    t = Abs("y", REAL, Var("x"))
    got = substitute(t, "x", Var("y"))
    assert isinstance(got, Abs)
    assert got.name != "y"
    assert got.body == Var("y")
    assert alpha_equal(got, Abs("w", REAL, Var("y")))


def test_substitute_self_is_alpha_identity():
    terms = [
        Abs("x", REAL, App(Var("x"), Var("y"))),
        Let("a", SAMPLE, Prim("add", (Var("a"), Var("y")))),
        Ifz(Var("y"), Numeral(1.0), Fix(Abs("z", REAL, Var("z")))),
    ]
    for t in terms:
        assert alpha_equal(substitute(t, "y", Var("y")), t)


def test_substitute_free_vars_law():
    t = Let("a", Var("x"), Prim("add", (Var("a"), Var("x"))))
    s = App(Var("f"), Var("g"))
    got = substitute(t, "x", s)
    assert free_vars(got) == (free_vars(t) - {"x"}) | free_vars(s)


def test_let_bound_shadowing():
    # x free in bound, shadowed in body
    t = Let("x", Var("x"), Var("x"))
    got = substitute(t, "x", Numeral(2.0))
    assert got == Let("x", Numeral(2.0), Var("x"))


# -- typechecking -----------------------------------------------------------


def test_sample_types_real():
    assert typecheck({}, SAMPLE) == REAL


def test_identity_function_type():
    assert typecheck({}, Abs("x", REAL, Var("x"))) == Arrow(REAL, REAL)


def test_apply_numeral_fails():
    with pytest.raises(TypeCheckError):
        typecheck({}, App(Numeral(3.0), Numeral(4.0)))


def test_let_requires_ground():
    bad = Let("f", Abs("x", REAL, Var("x")), Numeral(1.0))
    with pytest.raises(TypeCheckError):
        typecheck({}, bad)


def test_ifz_requires_ground_branches():
    bad = Ifz(Numeral(0.0), Abs("x", REAL, Var("x")), Abs("x", REAL, Var("x")))
    with pytest.raises(TypeCheckError):
        typecheck({}, bad)


def test_fix_requires_endo():
    with pytest.raises(TypeCheckError):
        typecheck({}, Fix(Abs("x", REAL, Abs("y", REAL, Var("x")))))
    assert typecheck({}, Fix(Abs("x", REAL, Var("x")))) == REAL


def test_unbound_variable():
    with pytest.raises(TypeCheckError):
        typecheck({}, Var("nope"))


def test_prim_arity_checked():
    with pytest.raises(TypeCheckError):
        typecheck({}, Prim("add", (Numeral(1.0),)))


def test_typecheck_deterministic():
    t = Abs("f", Arrow(REAL, REAL), App(Var("f"), SAMPLE))
    assert typecheck({}, t) == typecheck({}, t)


# -- sugar -------------------------------------------------------------------


def test_bernoulli_shape():
    t = expand_macro("bernoulli", ())
    want = Abs("p", REAL, Let("x", SAMPLE, Prim("le", (Var("x"), Var("p")))))
    assert alpha_equal(t, want)


def test_ifu_swaps_branches():
    u = IntervalSet.closed(0.0, 0.5)
    t = expand_macro("ifU", (Var("l"), u, Var("m"), Var("n")))
    assert t == Ifz(Prim(chi_name(u), (Var("l"),)), Var("n"), Var("m"))


def test_observe_shape():
    u = IntervalSet.closed(0.0, 0.5)
    t = expand_macro("observe", (u,))
    loop = Fix(
        Abs(
            "y",
            REAL,
            Let("x", Var("m"), Ifz(Prim(chi_name(u), (Var("x"),)), Var("y"), Var("x"))),
        )
    )
    assert alpha_equal(t, Abs("m", REAL, loop))


def test_expectation_has_n_copies():
    t = expand_macro("expectation", (3,))
    body = t.body.body  # under \f. \m.
    assert isinstance(body, Prim) and body.op == "div"
    assert body.args[1] == Numeral(3.0)

    def count_apps(term):
        if isinstance(term, App):
            return 1
        if isinstance(term, Prim):
            return sum(count_apps(a) for a in term.args)
        return 0

    assert count_apps(body.args[0]) == 3


def test_unknown_macro():
    with pytest.raises(UnknownMacro):
        expand_macro("mystery", ())


def test_macro_arity_error():
    with pytest.raises(ArityError):
        expand_macro("observe", ())
    with pytest.raises(ArityError):
        expand_macro("expectation", (0,))


def test_expanded_macros_typecheck():
    cases = {
        "bernoulli": Arrow(REAL, REAL),
        "exponential": REAL,
        "normal": REAL,
        "gaussian": Arrow(REAL, Arrow(REAL, REAL)),
    }
    for name, want in cases.items():
        assert typecheck({}, expand_macro(name, ())) == want
    u = IntervalSet.closed(0.0, 1.0)
    assert typecheck({}, expand_macro("observe", (u,))) == Arrow(REAL, REAL)
    assert typecheck({}, expand_macro("expectation", (2,))) == Arrow(
        Arrow(REAL, REAL), Arrow(REAL, REAL)
    )
