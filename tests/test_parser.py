import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppcf.intervals import IntervalSet, format_interval_set, parse_interval_set
from ppcf.parser import ParseError, format_type, parse, parse_term, pretty
from ppcf.primitives import chi_name
from ppcf.sugar import expand_macro
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
)


def test_let_sample_sum():
    t = parse_term("let x = sample in x + x")
    assert t == Let("x", SAMPLE, Prim("add", (Var("x"), Var("x"))))


def test_cbn_diagonal():
    t = parse_term("(fun x : real -> x = x) sample")
    assert t == App(Abs("x", REAL, Prim("eq", (Var("x"), Var("x")))), SAMPLE)


def test_unbalanced_paren_position():
    with pytest.raises(ParseError) as err:
        parse_term("((")
    assert err.value.line == 1
    assert err.value.col == 3


def test_parse_error_carries_expected_set():
    with pytest.raises(ParseError) as err:
        parse_term("let x sample in x")
    assert "=" in err.value.expected


def test_application_left_assoc():
    t = parse_term("f g h")
    assert t == App(App(Var("f"), Var("g")), Var("h"))


def test_precedence_mul_over_add():
    t = parse_term("1 + 2 * 3")
    assert t == Prim("add", (Numeral(1.0), Prim("mul", (Numeral(2.0), Numeral(3.0)))))


def test_cmp_non_assoc():
    with pytest.raises(ParseError):
        parse_term("1 = 2 = 3")


def test_fix_binds_one_atom():
    t = parse_term("fix f x")
    assert t == App(Fix(Var("f")), Var("x"))


def test_ifz_form():
    t = parse_term("ifz sample then 1 else 0")
    assert t == Ifz(SAMPLE, Numeral(1.0), Numeral(0.0))


def test_chi_literal():
    t = parse_term("chi[[0,0.5] + {2}](sample)")
    assert isinstance(t, Prim)
    assert t.op.startswith("chi[")


def test_named_primitive_call():
    t = parse_term("log(0.5)")
    assert t == Prim("log", (Numeral(0.5),))


def test_named_binary_primitive_call():
    assert parse_term("add(1, 2)") == parse_term("1 + 2")
    for src in ("add(1)", "add", "add + 1"):
        with pytest.raises(ParseError):
            parse_term(src)


def test_primitive_name_cannot_be_bound():
    with pytest.raises(ParseError):
        parse_term("fun log : real -> log")


def test_negative_literal():
    assert parse_term("(-2)") == Numeral(-2.0)
    assert parse_term("3 - 2") == Prim("sub", (Numeral(3.0), Numeral(2.0)))


def test_scientific_literals():
    assert parse_term("1e-3") == Numeral(0.001)
    assert parse_term("2.5e2") == Numeral(250.0)


def test_unreadable_numerals_are_parse_errors_at_their_token():
    for src, col in (("1e400", 1), ("(-1e400)", 3), ("1 + ²", 5),
                     ("#expectation(²) (fun x : real -> x) sample", 14)):
        with pytest.raises(ParseError) as err:
            parse_term(src)
        assert (err.value.line, err.value.col) == (1, col), src


def test_decimal_digits_of_other_scripts_still_parse():
    assert parse_term("1 + ٣") == parse_term("1 + 3")


def test_comments():
    t = parse_term("1 + -- trailing words\n 2")
    assert t == Prim("add", (Numeral(1.0), Numeral(2.0)))


def test_definitions_inline():
    prog = parse("def half = fun x : real -> x / 2;\nhalf 4")
    assert len(prog.definitions) == 1
    inlined = prog.inlined_main()
    assert isinstance(inlined, App)
    assert isinstance(inlined.fun, Abs)


def test_duplicate_definition_rejected():
    with pytest.raises(ParseError):
        parse("def a = 1; def a = 2; a")


def test_macro_parses():
    t = parse_term("#observe([0,0.5]) sample")
    assert isinstance(t, App)
    assert t.arg is SAMPLE


def test_nested_macros_expand_as_they_are_read():
    u = parse_interval_set("[0,0.5]")
    t = parse_term("#observe([0,0.5]) #exponential")
    assert t == App(expand_macro("observe", (u,)), expand_macro("exponential", ()))


def test_integer_slot_rejects_an_exponent():
    for src in ("#expectation(1E5) sample", "#expectation(1e5) sample",
                "#expectation(2.0) sample"):
        with pytest.raises(ParseError, match="integer"):
            parse_term(src)


@pytest.mark.parametrize("literal", ["[0,+inf)", "[0,infinity)", "[0,inf)", "[0,Infinity)"])
def test_chi_literal_spells_endpoints_as_the_cli_does(literal):
    assert parse_term(f"chi[{literal}](x)").op == chi_name(parse_interval_set("[0,inf)"))


@pytest.mark.parametrize("src,col", [
    ("chi[[- 1,0]](x)", 5),          # no space inside a signed endpoint
    ("chi[[0,1 000]](x)", 5),        # nor inside a number
    ("chi[[0, 1 -- one\n]](x)", 5),  # nor a comment inside the literal
    ("chi[[1,0]](x)", 5),
    ("chi[{-inf}](x)", 5),
    ("#observe(\n [0,1) + (2,nan]) sample", 2),
])
def test_bad_interval_literal_is_a_parse_error_at_the_literal(src, col):
    with pytest.raises(ParseError) as err:
        parse_term(src)
    assert err.value.col == col


def test_macro_argument_rejected_by_builder_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_term("1 +\n  #expectation(0) (fun x : real -> x) sample")
    assert (err.value.line, err.value.col) == (2, 3)
    assert "n >= 1" in str(err.value)


def test_pretty_numerals():
    assert pretty(Numeral(5.0)) == "5"
    assert pretty(Numeral(0.5)) == "0.5"
    assert pretty(Numeral(-2.0)) == "(-2)"
    assert pretty(SAMPLE) == "sample"


def test_pretty_minimal_parens():
    for src in ("f g h", "f (g h)", "1 + 2 * 3", "(1 + 2) * 3", "fix f x"):
        assert pretty(parse_term(src)) == src


def test_types_roundtrip():
    ty = Arrow(Arrow(REAL, REAL), Arrow(REAL, REAL))
    src = f"fun f : ({format_type(ty.domain)}) -> f"
    t = parse_term(src)
    assert t.annot == ty.domain


# -- round-trip property -----------------------------------------------------

CORPUS = [
    "sample",
    "5",
    "(-2.5)",
    "let x = sample in x + x",
    "(fun x : real -> x = x) sample",
    "fun f : (real -> real) -> fun m : real -> (f m + f m) / 2",
    "fix (fun y : real -> y)",
    "ifz chi[[0,0.5]](sample) then 1 else sample * 2",
    "let x = sample in let y = sample in sqrt((-2) * log(x)) * cos(6.283185307179586 * y)",
    "1 <= 2",
    "(1 + 2) * 3 - 4 / 5",
    "neg_log(sample)",
    "f (g h) (fix k)",
    "fun x#3 : real -> x#3",
]


@pytest.mark.parametrize("src", CORPUS)
def test_roundtrip_corpus(src):
    t = parse_term(src)
    assert alpha_equal(parse_term(pretty(t)), t)


_names = st.sampled_from(["x", "y", "f", "g", "x#1"])
_chi_sets = st.sampled_from(
    ["{}", "{0.5}", "[0,0.5]", "(-inf,0.25]", "[0,1e+20]"]
).map(parse_interval_set)


def _terms(depth):
    if depth == 0:
        return st.one_of(
            st.just(SAMPLE),
            st.builds(Numeral, st.floats(-100, 100, allow_nan=False, width=32)),
            _names.map(Var),
        )
    sub = _terms(depth - 1)
    return st.one_of(
        sub,
        st.builds(lambda n, b: Abs(n, REAL, b), _names, sub),
        st.builds(App, sub, sub),
        st.builds(Fix, sub),
        st.builds(lambda a, b: Prim("add", (a, b)), sub, sub),
        st.builds(lambda a, b: Prim("mul", (a, b)), sub, sub),
        st.builds(lambda a, b: Prim("le", (a, b)), sub, sub),
        st.builds(lambda a: Prim("log", (a,)), sub),
        st.builds(lambda u, a: Prim(chi_name(u), (a,)), _chi_sets, sub),
        st.builds(Ifz, sub, sub, sub),
        st.builds(Let, _names, sub, sub),
    )


_endpoints = st.floats(allow_nan=False)
_drawn_sets = st.lists(
    st.one_of(
        st.builds(IntervalSet.interval, _endpoints, _endpoints, st.booleans(), st.booleans()),
        st.builds(IntervalSet.point, st.floats(allow_nan=False, allow_infinity=False)),
    ),
    max_size=4,
).map(lambda sets: IntervalSet([p for s in sets for p in s.pieces]))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_chi_sets, _drawn_sets))
def test_chi_literal_reads_the_interval_set_format(s):
    assert parse_term(f"chi[{format_interval_set(s)}](x)").op == chi_name(s)


@settings(max_examples=300, deadline=None)
@given(_terms(3))
def test_roundtrip_random_terms(t):
    assert alpha_equal(parse_term(pretty(t)), t)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="()[]{}xyf+-*/=<#. 0123456789\n", max_size=40))
def test_fuzz_never_crashes(text):
    try:
        parse(text)
    except ParseError:
        pass
