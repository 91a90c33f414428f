"""The compiled evaluator of deterministic terms against reduction."""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppcf.ir import compile_deterministic
from ppcf.intervals import parse_interval_set
from ppcf.parser import parse_term
from ppcf.primitives import DEFAULT_TABLE, chi_name
from ppcf.reduction import Value, run
from ppcf.rng import RngStream
from ppcf.terms import REAL, SAMPLE, Abs, App, Fix, Ifz, Let, Numeral, Prim, Var, substitute

INPUTS = ("x1", "x2", "x3")
OPS = ("add", "sub", "mul", "div", "eq", "lt", "le", "log", "neg_log", "exp", "sqrt", "cos")
CHIS = tuple(
    chi_name(parse_interval_set(text))
    for text in ("[0,0.5]", "{0} + (1,inf)", "(-inf,0.25)", "{}")
)
# zeros and negatives reach div's denominator and log's domain edge;
# the huge ones saturate through the MAXREAL clamps
CONSTANTS = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.5, 710.0, 1e300, -1e300, 1e-300)


@st.composite
def deterministic_terms(draw, names=INPUTS, depth=4):
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        if draw(st.booleans()):
            return Var(draw(st.sampled_from(names)))
        return Numeral(draw(st.sampled_from(CONSTANTS)))

    def sub(scope=names):
        return deterministic_terms(scope, depth - 1)

    kind = draw(st.sampled_from(("prim", "chi", "ifz", "let")))
    if kind == "prim":
        op = draw(st.sampled_from(OPS))
        arity = DEFAULT_TABLE.lookup(op).arity
        return Prim(op, tuple(draw(sub()) for _ in range(arity)))
    if kind == "chi":
        return Prim(draw(st.sampled_from(CHIS)), (draw(sub()),))
    if kind == "ifz":
        return Ifz(draw(sub()), draw(sub()), draw(sub()))
    name = draw(st.sampled_from(("y", "z", "x1")))  # "x1" shadows an input
    return Let(name, draw(sub()), draw(sub(names + (name,))))


def _reduce(t, point):
    for name, c in zip(INPUTS, point):
        t = substitute(t, name, Numeral(c))
    outcome = run(t, 100_000, RngStream(0))
    assert isinstance(outcome, Value), outcome
    return outcome.value


@settings(max_examples=300, deadline=None)
@given(
    deterministic_terms(),
    st.tuples(*[st.floats(0.0, 1.0)] * 3),
)
@example(parse_term("x1 / (x2 - x2)"), (0.3, 0.7, 0.0))
@example(parse_term("log(x1 - 1) + neg_log(0 - x2)"), (0.3, 0.7, 0.0))
@example(parse_term("log(x1 * 0)"), (0.0, 0.0, 0.0))
@example(parse_term("exp(x1 * 1000) * exp(x2 * 1000)"), (1.0, 1.0, 0.0))
@example(parse_term("let y = sqrt(0 - x1) in ifz y then cos(x3) else y"), (0.5, 0.0, 0.25))
def test_compiled_equals_reduction_bit_for_bit(t, point):
    f = compile_deterministic(t, INPUTS)
    assert f is not None
    assert f(*point).hex() == _reduce(t, point).hex()


_NOT_DETERMINISTIC = (
    SAMPLE,
    App(Abs("w", REAL, Var("w")), Numeral(1.0)),
    Fix(Abs("w", REAL, Var("w"))),
)


@settings(max_examples=100, deadline=None)
@given(
    deterministic_terms(),
    st.sampled_from(_NOT_DETERMINISTIC),
    st.sampled_from(("prim", "ifz", "let-bound", "let-body")),
)
def test_sample_fun_and_fix_do_not_compile(t, bad, where):
    wrapped = {
        "prim": Prim("add", (t, bad)),
        "ifz": Ifz(t, t, bad),
        "let-bound": Let("y", bad, t),
        "let-body": Let("y", t, bad),
    }[where]
    assert compile_deterministic(wrapped, INPUTS) is None


def test_unbound_variable_does_not_compile():
    assert compile_deterministic(parse_term("x1 + x4"), INPUTS) is None


def test_inputs_are_positional():
    f = compile_deterministic(parse_term("x1 - 2 * x2"), ("x2", "x1"))
    assert f(1.0, 0.25) == 0.25 - 2.0
    assert f(0.5, 1.0) == 0.0


def test_a_named_slot_is_computed_once():
    cos = DEFAULT_TABLE.lookup("cos")
    calls = []

    def counted(x):
        calls.append(x)
        return cos.fn(x)

    table = DEFAULT_TABLE.with_override("cos", dataclasses.replace(cos, fn=counted))
    f = compile_deterministic(parse_term("let w = cos(x1) in w * w + w"), ("x1",), table=table)
    assert f(0.5).hex() == "0x1.a5d1e071b004bp+0"
    assert f(0.5).hex() == "0x1.a5d1e071b004bp+0"
    assert calls == [0.5, 0.5]  # one call per evaluation
