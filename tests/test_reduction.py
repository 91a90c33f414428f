import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppcf.intervals import IntervalSet, parse_interval_set
from ppcf.parser import parse_term
from ppcf import ir, reduction
from ppcf.primitives import DEFAULT_TABLE, Primitive, chi_name
from ppcf.reduction import (
    Exhausted,
    InvariantViolation,
    NormalForm,
    Split,
    StuckNormal,
    Value,
    collect_outcomes,
    contract,
    decompose,
    estimate_mass,
    plug,
    run,
    step,
)
from ppcf.rng import RngStream, uniform_at
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
from ppcf.typecheck import typecheck

# closed well-typed corpus with a mix of redex kinds
CORPUS = [
    "3 + 2",
    "(fun x : real -> x + x) 3",
    "(fun x : real -> x = x) sample",
    "let x = 5 in x * x",
    "let x = sample in x + x",
    "ifz 0 then 1 else 2",
    "ifz 3 then 1 else 2",
    "ifz sample then 1 else 2",
    "(fun f : (real -> real) -> f (f 1)) (fun x : real -> x + 1)",
    "fix (fun y : real -> y)",
    "#bernoulli 0.3",
    "#exponential",
    "#normal",
    "#observe([0,0.5]) sample",
    "#expectation(2) (fun x : real -> x) sample",
    "neg_log(sample)",
    "let x = sample in ifz chi[[0,0.5]](x) then 0 else x",
]


def _terms():
    return [parse_term(src) for src in CORPUS]


# -- decompose ----------------------------------------------------------------


def test_numeral_is_normal():
    assert decompose(Numeral(3.0)) == NormalForm(Numeral(3.0))


def test_abstraction_is_normal():
    t = Abs("x", REAL, Var("x"))
    assert decompose(t) == NormalForm(t)


def test_app_head_context():
    inner = App(Abs("x", REAL, Var("x")), Numeral(1.0))
    t = App(inner, Numeral(2.0))
    d = decompose(t)
    assert isinstance(d, Split)
    assert d.redex == inner
    assert len(d.context) == 1


def test_let_bound_context():
    t = Let("x", SAMPLE, Var("x"))
    d = decompose(t)
    assert isinstance(d, Split)
    assert d.redex is SAMPLE


def test_prim_leftmost_nonnumeral():
    t = Prim("add", (Numeral(1.0), Prim("add", (Numeral(2.0), Numeral(3.0)))))
    d = decompose(t)
    assert isinstance(d, Split)
    assert d.redex == Prim("add", (Numeral(2.0), Numeral(3.0)))


def test_unique_decomposition_plugs_back():
    for t in _terms():
        d = decompose(t)
        if isinstance(d, Split):
            assert plug(d.context, d.redex) == t


def test_no_second_redex_position():
    # walking every proper context position of the split must not give
    # another redex position admitted by the context grammar
    for t in _terms():
        d = decompose(t)
        if not isinstance(d, Split):
            continue
        # decompose again after plugging a fresh hole marker: the split
        # point is unique iff re-decomposing the plugged term matches
        assert decompose(plug(d.context, d.redex)) == d


# -- step ---------------------------------------------------------------------


def test_step_ifz_zero_takes_then():
    t = Ifz(Numeral(0.0), Numeral(1.0), Numeral(2.0))
    assert step(t, RngStream(0)) == Numeral(1.0)


def test_step_ifz_nonzero_takes_else():
    t = Ifz(Numeral(3.0), Numeral(1.0), Numeral(2.0))
    assert step(t, RngStream(0)) == Numeral(2.0)


def test_step_fix_unrolls():
    f = Abs("x", REAL, Var("x"))
    assert step(Fix(f), RngStream(0)) == App(f, Fix(f))


def test_step_sample_draws_from_stream():
    rng = RngStream(99, 5)
    expected = uniform_at(99, 5)
    assert step(SAMPLE, rng) == Numeral(expected)
    assert rng.counter == 6


def test_step_on_normal_form_raises():
    with pytest.raises(InvariantViolation):
        step(Numeral(1.0), RngStream(0))


def test_non_sample_steps_leave_counter_alone():
    for t in _terms():
        rng = RngStream(7)
        d = decompose(t)
        if isinstance(d, Split) and d.redex is not SAMPLE:
            step(t, rng)
            assert rng.counter == 0


def test_subject_reduction():
    for t in _terms():
        ty = typecheck({}, t)
        current = t
        rng = RngStream(13)
        for _ in range(25):
            d = decompose(current)
            if isinstance(d, NormalForm):
                break
            current = step(current, rng)
            assert typecheck({}, current) == ty


# -- run ----------------------------------------------------------------------


def test_run_arithmetic():
    assert run(parse_term("3 + 2"), 10, RngStream(0)) == Value(5.0, 1)


def test_run_divergent_exhausts():
    out = run(parse_term("fix (fun x : real -> x)"), 40, RngStream(0))
    assert out == Exhausted(40)


def test_run_let_diagonal_always_one():
    for seed in range(20):
        out = run(parse_term("let x = sample in x = x"), 10, RngStream(seed))
        assert isinstance(out, Value) and out.value == 1.0


def test_run_stuck_normal_form():
    # ill-typed on purpose: a lambda applied to nothing is already normal
    out = run(Abs("x", REAL, Var("x")), 10, RngStream(0))
    assert isinstance(out, StuckNormal)


def test_run_rejects_negative_budget():
    with pytest.raises(ValueError):
        run(parse_term("3 + 2"), -1, RngStream(0))
    with pytest.raises(ValueError):
        collect_outcomes(parse_term("3 + 2"), 0, -1, seed=0)


def test_run_determinism():
    t = parse_term("#normal")
    a = run(t, 100, RngStream(5, 17))
    b = run(t, 100, RngStream(5, 17))
    assert a == b


# -- estimate_mass ---------------------------------------------------------------


def test_estimate_bernoulli():
    t = parse_term("#bernoulli 0.3")
    est = estimate_mass(t, IntervalSet.point(1.0), runs=10_000, budget=100, seed=0)
    assert abs(est.p_hat - 0.3) <= est.dkw
    assert est.exhausted == 0


def test_estimate_cbn_diagonal_is_zero():
    t = parse_term("(fun x : real -> x = x) sample")
    est = estimate_mass(t, IntervalSet.point(0.0), runs=2_000, budget=100, seed=0)
    assert est.p_hat == 1.0


def test_estimate_observe_empty_all_exhaust():
    t = parse_term("#observe([2,3]) sample")
    est = estimate_mass(t, IntervalSet.closed(0.0, 1.0), runs=200, budget=300, seed=0)
    assert est.p_hat == 0.0
    assert est.exhausted == 200


def test_estimate_reproducible():
    t = parse_term("#bernoulli 0.5")
    a = estimate_mass(t, IntervalSet.point(1.0), runs=500, budget=50, seed=3)
    b = estimate_mass(t, IntervalSet.point(1.0), runs=500, budget=50, seed=3)
    assert a == b


def test_estimate_requires_runs():
    with pytest.raises(ValueError):
        estimate_mass(parse_term("sample"), IntervalSet.point(0.0), runs=0, budget=5, seed=0)


# -- rng ----------------------------------------------------------------------


def test_rng_range_and_determinism():
    rng = RngStream(42)
    values = [rng.uniform() for _ in range(2_000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert RngStream(42).uniform() == values[0]
    mean = sum(values) / len(values)
    assert abs(mean - 0.5) < 0.02


def test_rng_counter_pure():
    assert uniform_at(7, 123) == uniform_at(7, 123)
    assert uniform_at(7, 123) != uniform_at(7, 124)
    assert uniform_at(7, 123) != uniform_at(8, 123)


def test_rng_streams_disjoint():
    a = RngStream.for_run(1, 0)
    b = RngStream.for_run(1, 1)
    assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]


# -- the machine against the small-step rules -----------------------------------

RR = Arrow(REAL, REAL)
NAMES = ("x", "y", "f")  # few names, so binders shadow each other
OPS = ("add", "sub", "mul", "div", "lt", "eq", "cos", "neg_log")
CHIS = tuple(chi_name(parse_interval_set(s)) for s in ("[0,0.5]", "{0} + (1,inf)"))
BUDGET = 150


@st.composite
def typed_terms(draw, ty=REAL, scope=(), depth=5):
    """Well-typed terms of type `ty` (real or real -> real) over `scope`."""
    ctx = dict(scope)  # a later binding shadows an earlier one
    in_scope = sorted(n for n, t in ctx.items() if t == ty)

    def sub(t=REAL, binds=()):
        return draw(typed_terms(t, scope + binds, depth - 1))

    def name():
        return draw(st.sampled_from(NAMES))

    leaf = depth <= 0 or draw(st.integers(0, 4)) == 0
    if ty == RR:
        kind = draw(st.sampled_from(("var", "abs") if leaf else ("abs", "fix", "app")))
        if kind == "var" and in_scope:
            return Var(draw(st.sampled_from(in_scope)))
        if kind == "fix":  # fix (fun g : real -> real -> fun x : real -> ...)
            g, x = name(), name()
            return Fix(Abs(g, RR, Abs(x, REAL, sub(REAL, ((g, RR), (x, REAL))))))
        if kind == "app":  # (fun g : real -> real -> ...) at real -> real
            g = name()
            return App(Abs(g, RR, sub(RR, ((g, RR),))), sub(RR))
        x = name()
        return Abs(x, REAL, sub(REAL, ((x, REAL),)))
    if leaf:
        kind = draw(st.sampled_from(("num", "sample", "var")))
        if kind == "var" and in_scope:
            return Var(draw(st.sampled_from(in_scope)))
        if kind == "sample":
            return SAMPLE
        return Numeral(draw(st.sampled_from((0.0, 1.0, -2.5, 0.5))))
    kind = draw(st.sampled_from(("prim", "chi", "ifz", "let", "app", "fix", "hof")))
    if kind == "prim":
        op = draw(st.sampled_from(OPS))
        return Prim(op, tuple(sub() for _ in range(DEFAULT_TABLE.lookup(op).arity)))
    if kind == "chi":
        return Prim(draw(st.sampled_from(CHIS)), (sub(),))
    if kind == "ifz":
        return Ifz(sub(), sub(), sub())
    if kind == "let":
        x = name()
        return Let(x, sub(), sub(REAL, ((x, REAL),)))
    if kind == "app":
        return App(sub(RR), sub())
    if kind == "fix":
        y = name()
        return Fix(Abs(y, REAL, sub(REAL, ((y, REAL),))))
    f = name()  # a higher-order redex: (fun f : real -> real -> ...) F
    return App(Abs(f, RR, sub(REAL, ((f, RR),))), sub(RR))


class RecordingTable:
    """The default table, logging each primitive call with its bits."""

    def __init__(self):
        self.calls = []

    def lookup(self, name):
        prim = DEFAULT_TABLE.lookup(name)

        def fn(*values):
            self.calls.append((name, tuple(v.hex() for v in values)))
            return prim.fn(*values)

        return dataclasses.replace(prim, fn=fn)


def _reference(t, budget, rng, table):
    """The rules run literally; also (counter, calls) after each step."""
    trail = [(rng.counter, len(table.calls))]
    for steps in range(budget + 1):
        d = decompose(t)
        if isinstance(d, NormalForm):
            return (Value(t.value, steps) if isinstance(t, Numeral)
                    else StuckNormal(t, steps)), trail
        if steps == budget:
            return Exhausted(budget), trail
        t = plug(d.context, contract(d.redex, rng, table))
        trail.append((rng.counter, len(table.calls)))


def _same(a, b):
    if type(a) is not type(b) or a.steps != b.steps:
        return False
    if isinstance(a, Value):
        return a.value.hex() == b.value.hex()
    if isinstance(a, StuckNormal):  # renamed binders differ in their fresh suffix
        return alpha_equal(a.term, b.term)
    return True


@settings(max_examples=150, deadline=None)
@given(st.one_of(typed_terms(REAL), typed_terms(RR)), st.integers(0, 2**32))
@example(parse_term("#expectation(3) (fun x : real -> x) sample"), 1)
@example(parse_term("#observe([0,0.3]) sample"), 2)
@example(parse_term("(fun x : real -> fun y : real -> x + y) sample"), 3)
@example(App(Abs("x", REAL, Var("z")), SAMPLE), 4)  # a free variable
@example(App(Prim("add", (SAMPLE, Numeral(1.0))), SAMPLE), 5)  # a numeral applied
@example(Let("x", Abs("y", REAL, Var("y")), Var("x")), 6)  # a function bound by let
@example(Prim("add", (SAMPLE, Abs("y", REAL, Var("y")))), 7)  # a function as an argument
@example(Ifz(Abs("y", REAL, Var("y")), SAMPLE, SAMPLE), 8)  # a function tested
def test_machine_matches_the_rules(t, seed):
    spec_table = RecordingTable()
    want, trail = _reference(t, BUDGET, RngStream(seed, 7), spec_table)
    for budget in (BUDGET, *range(want.steps + 1)):
        if budget < want.steps:  # the rules stop after `budget` steps
            expected, (counter, n_calls) = Exhausted(budget), trail[budget]
        else:
            expected, (counter, n_calls) = want, trail[-1]
        rng, table = RngStream(seed, 7), RecordingTable()
        got = run(t, budget, rng, table)
        assert _same(got, expected), (budget, got, expected)
        assert rng.counter == counter
        assert table.calls == spec_table.calls[:n_calls]


# loops whose fix state never repeats: the argument grows, or the stack
COUNTER = ("(fix (fun f : (real -> real) -> fun n : real -> "
           "ifz sample <= 0.5 then n else f (n + 1))) 0")
GROWING = "fix (fun y : real -> let x = sample in #ifU(x, [0,0.05], x * 2, y * 0.5))"


def _counted(collect):
    """(outcomes, the stream positions drawn, the primitive calls) of
    `collect` given a fresh RecordingTable."""
    uniform, draws = RngStream.uniform, []

    def counted(stream):
        draws.append(stream.counter)
        return uniform(stream)

    table = RecordingTable()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RngStream, "uniform", counted)
        outcomes = collect(table)
    return outcomes, draws, table.calls


@settings(max_examples=100, deadline=None)
@given(st.one_of(typed_terms(REAL), typed_terms(RR)), st.integers(0, 2**32))
@example(parse_term("(fun x : real -> x + x) sample"), 1)  # call by name draws twice
@example(parse_term("let x = sample in x * x + 1"), 2)  # one slot read twice
@example(parse_term("1 + 2"), 3)  # no draws
@example(parse_term("#observe([0,0.3]) sample"), 4)  # guarded
@example(parse_term("#expectation(3) (fun x : real -> x) sample"), 5)  # exhausts budget 3
@example(App(Prim("add", (SAMPLE, Numeral(1.0))), SAMPLE), 6)  # stuck
@example(parse_term("#observe([0.2,0.25]) sample"), 7)  # a loop of one guard
@example(parse_term("#observe([0.3,0.8]) #exponential"), 8)
@example(parse_term("#observe([0,0.5]) sample + 1"), 9)  # a frame that stays put
@example(parse_term("#observe([0,0.5]) (#observe([0.2,0.9]) sample)"), 10)  # nested loops
@example(parse_term("ifz sample <= 0.5 then sample else sample * 2"), 11)  # a guard, no loop
@example(parse_term(COUNTER), 12)  # a state that never repeats
@example(parse_term(GROWING), 13)  # a stack that grows
def test_collect_outcomes_is_run_by_run_the_machine(t, seed):
    runs = 3
    for budget in (0, 3, 40, 10_000):
        want, want_draws, want_calls = _counted(
            lambda table: [run(t, budget, RngStream.for_run(seed, i), table) for i in range(runs)])
        got, got_draws, got_calls = _counted(
            lambda table: collect_outcomes(t, runs, budget, seed, table))
        assert len(got) == runs and all(map(_same, got, want)), (budget, got, want)
        assert got_draws == want_draws
        assert got_calls == want_calls


@pytest.mark.parametrize("src", [
    "#observe([0.2,0.25]) sample",
    "#observe([0.3,0.8]) #exponential",
    "#observe([0,0.5]) sample + 1",
    "#observe([0,0.5]) (#observe([0.2,0.9]) sample)",
    "ifz sample <= 0.5 then sample else sample * 2",
    COUNTER,
    GROWING,
])
def test_guarded_runs_replay_as_the_machine_runs_them(src):
    # enough runs that replays, runs falling off the tree and budgets
    # running out partway through a loop all happen
    t, runs = parse_term(src), 300
    for budget in (0, 3, 40, 10_000):
        want, want_draws, want_calls = _counted(
            lambda table: [run(t, budget, RngStream.for_run(11, i), table) for i in range(runs)])
        got, got_draws, got_calls = _counted(
            lambda table: collect_outcomes(t, runs, budget, 11, table))
        assert all(map(_same, got, want)), budget
        assert got_draws == want_draws
        assert got_calls == want_calls


def _mechanism(src, runs):
    """(compiles, recording runs, other runs) of one collect_outcomes call."""
    counts = {"compiles": 0, "recordings": 0, "runs": 0}
    compile_tree, machine = reduction.compile_tree, reduction.run

    def counted_compile(*args):
        counts["compiles"] += 1
        return compile_tree(*args)

    def counted_run(t, budget, rng, table=DEFAULT_TABLE):
        counts["recordings" if isinstance(rng, reduction._Recorder) else "runs"] += 1
        return machine(t, budget, rng, table)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "compile_tree", counted_compile)
        mp.setattr(reduction, "run", counted_run)
        collect_outcomes(parse_term(src), runs, 10_000, 1)
    return counts


def test_a_rejection_loop_is_recorded_then_replayed():
    counts = _mechanism("#observe([0.2,0.25]) sample", 2_000)
    assert 1 <= counts["compiles"] <= 3
    assert counts["recordings"] == counts["compiles"] and counts["runs"] == 0


def test_same_shaped_trees_compile_one_source():
    # two windows of one prior record trees that differ only in the chi
    # their namespaces hold, so the second call compiles no new source
    ir._compiled.cache_clear()
    collect_outcomes(parse_term("#observe([0.2,0.9]) sample"), 200, 10_000, 1)
    first = ir._compiled.cache_info()
    t = parse_term("#observe([0.3,0.8]) sample")
    got = collect_outcomes(t, 200, 10_000, 1)
    second = ir._compiled.cache_info()
    assert first.misses >= 1 and second.misses == first.misses and second.hits > first.hits
    assert all(map(_same, got, [run(t, 10_000, RngStream.for_run(1, i)) for i in range(200)]))


@pytest.mark.parametrize("src", [COUNTER, GROWING])
def test_recording_stops_at_the_cap(src):
    counts = _mechanism(src, 2_000)
    assert counts["recordings"] == counts["compiles"] == reduction.MAX_RECORDINGS
    assert counts["runs"] > 0  # runs past the tree go on through the machine


INF_ADD = DEFAULT_TABLE.with_override("add", Primitive("add", 2, lambda a, b: math.inf))
# finite for the first runs of seed 0, so a run that replays the tree meets it
LATE_INF_ADD = DEFAULT_TABLE.with_override(
    "add", Primitive("add", 2, lambda a, b: math.inf if a > 0.98 else a + b))


@pytest.mark.parametrize("table", [INF_ADD, LATE_INF_ADD])
@pytest.mark.parametrize("src", ["sample + 1", "#observe([0,0.5]) (sample + 1)",
                                 "#observe([1,1.5]) (sample + 1)"])
def test_replay_keeps_the_primitive_contract(src, table):
    t, runs = parse_term(src), 200
    with pytest.raises(ValueError) as want:
        for i in range(runs):
            run(t, 100, RngStream.for_run(0, i), table)
    with pytest.raises(ValueError) as got:
        collect_outcomes(t, runs, 100, 0, table)
    assert str(got.value) == str(want.value) == "numerals must be finite, got inf"
