"""Workload inputs: rounds of operations drawn from the workload seed.

A workload is a fixed list of *slots* (a program family, a query shape
and a stratum of each parameter range) that repeats once per round.
Slot j of a parameter with J strata draws from the j-th of J equal
strata, shifted per round along a golden-ratio sequence, so every round
covers every range evenly.  Where a parameter sets an operation's cost,
slots come in antithetic pairs ``(j + u) / J`` and ``(j + 1 - u) / J``,
so the cost of a round hardly depends on the seed; where the cost is
steep at the end of a range (narrow ``#observe`` windows) the end point
is a slot of its own.  Runs on different seeds thus do the same mix of
work at different points.

Within a round the ops of each group (one family, or one stratum pair)
are spread evenly over the round rather than run back to back, so every
cost tier samples the machine's speed over the whole run.

A run executes ``ceil(seconds / round_s)`` rounds, and each round is
sized so that they last a little longer than ``--seconds`` on the
recording host.  The program sees only the generated source text,
interval sets and configuration values.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass, field

import oracle

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
BUDGET = 10_000
ADEQUACY_RUNS = 2_000
CONDITIONING_RUNS = 500


@dataclass
class Op:
    """One operation: pure input data plus the ppcf objects built in set-up."""

    slot: str
    family: str
    kind: str  # "adequacy" | "estimate" | "stability"
    params: dict
    text: str = ""
    ts: tuple[float, ...] = ()
    runs: int = 0
    seed: int = 0
    argv: tuple[str, ...] = ()
    prepared: dict = field(default_factory=dict)


class Draw:
    """Seeded draws for one (workload, round)."""

    def __init__(self, workload: str, seed: int, r: int):
        self.workload, self.seed, self.r = workload, seed, r

    def u(self, slot: str, k: int = 0) -> float:
        offset = random.Random(f"{self.seed}/{self.workload}/{slot}/{k}").random()
        return (offset + self.r * GOLDEN) % 1.0

    def between(self, slot: str, lo: float, hi: float, k: int = 0, digits: int = 4) -> float:
        return round(lo + (hi - lo) * self.u(slot, k), digits)

    def stratum(self, slot: str, j: int, count: int, k: int = 0) -> float:
        """A point of the j-th of `count` equal strata of [0, 1)."""
        return (j + self.u(slot, k)) / count

    def pair(self, slot: str, j: int, count: int, k: int = 0) -> tuple[float, float]:
        """Two antithetic points of the j-th of `count` equal strata of [0, 1)."""
        u = self.u(slot, k)
        return (j + u) / count, (j + 1.0 - u) / count

    def integer(self, slot: str, lo: int, hi: int, k: int = 0) -> int:
        """Integer in lo..hi inclusive."""
        return lo + min(hi - lo, int((hi - lo + 1) * self.u(slot, k)))

    def harness_seed(self, slot: str) -> int:
        return random.Random(f"{self.seed}/{self.workload}/{slot}/{self.r}/seed").getrandbits(32)


def _lit(x: float) -> str:
    """A numeric literal the parser reads back as exactly x."""
    return f"({x!r})" if x < 0 else repr(x)


def _grid(d: Draw, slot: str, lo: float, hi: float, q: int) -> tuple[float, ...]:
    """q CDF points, one in each of q equal strata of [lo, hi]."""
    return tuple(lo + (hi - lo) * d.stratum(slot, i, q, 9) for i in range(q))


def _interleave(ops: list[Op], group) -> list[Op]:
    """Spread each group of ops (by `group(op)`) evenly over the round, in order."""
    groups = defaultdict(list)
    for op in ops:
        groups[group(op)].append(op)
    placed = [((i + 0.5) / len(g), k, op) for k, g in enumerate(groups.values())
              for i, op in enumerate(g)]
    return [op for _, _, op in sorted(placed, key=lambda x: x[:2])]


def _family(op: Op) -> str:
    """The slot without its index: `sum2-4-3` -> `sum2-4`."""
    return op.slot.rsplit("-", 1)[0]


def _pair(op: Op) -> str:
    """The slot without its antithetic half: `width-3a` -> `width-3`."""
    return op.slot.rstrip("ab")


# -- adequacy-continuous ---------------------------------------------------

SUM2 = "let x = sample in let y = sample in x + y"
PROD2 = "let x = sample in let y = sample in x * y"


def _adequacy(slot, family, params, text, ts, d: Draw, runs=ADEQUACY_RUNS) -> Op:
    return Op(slot, family, "adequacy", params, text=text, ts=tuple(ts), runs=runs,
              seed=d.harness_seed(slot))


def adequacy_continuous_round(seed: int, r: int) -> list[Op]:
    """Tiers of near-equal cost, so the median and tail ranks fall inside one.

    Per run of two rounds (62 checks): one `#normal` and one `#gaussian`
    check on top; eighteen checks with 3 `x+y` or 2 `x*y` queries, whose
    9th-slowest is the tail rank (the 11th-slowest of the run); twenty-two
    single-query `x+y` checks, whose 11th and 12th are the median ranks;
    and twenty exact-path checks.
    """
    d = Draw("adequacy-continuous", seed, r)
    # quadrature over let-integrals: several seconds per query, so one query,
    # and #normal and #gaussian take turns from round to round
    if r % 2 == 0:
        ops = [_adequacy("normal", "normal", {}, "#normal", _grid(d, "normal", -2.0, 2.0, 1), d)]
    else:
        m, s = d.between("gaussian", -1.0, 1.0, 1), d.between("gaussian", 0.5, 2.0, 2)
        ops = [_adequacy("gaussian", "gaussian", {"m": m, "s": s},
                         f"#gaussian {_lit(m)} {_lit(s)}",
                         _grid(d, "gaussian", m - 2.0 * s, m + 2.0 * s, 1), d)]
    for j in range(7):
        slot = f"sum2-3-{j}"
        ops.append(_adequacy(slot, "sum2", {}, SUM2, _grid(d, slot, 0.1, 1.9, 3), d))
    # a product query costs about twice as much at t = 0.2 as at t = 0.95, and
    # more again below 0.2: one query in each half keeps the pair's cost flat
    for j in range(2):
        slot = f"prod2-2-{j}"
        ops.append(_adequacy(slot, "prod2", {}, PROD2, _grid(d, slot, 0.2, 0.95, 2), d))
    for j in range(11):
        slot = f"sum2-1-{j}"
        ops.append(_adequacy(slot, "sum2", {}, SUM2, _grid(d, slot, 0.1, 1.9, 1), d))
    # exact paths: atoms, preimages, uniform densities
    for q in (1, 2, 4, 8):
        slot = f"exponential-{q}"
        ops.append(_adequacy(slot, "exponential", {}, "#exponential",
                             _grid(d, slot, 0.05, 3.0, q), d))
    for j in range(3):
        slot = f"bernoulli-{j}"
        p = round(0.1 + 0.8 * d.stratum(slot, j, 3), 4)
        ops.append(_adequacy(slot, "bernoulli", {"p": p}, f"#bernoulli {_lit(p)}",
                             (0.5, 1.0), d))
    for q in (3, 6, 9):
        slot = f"affine-{q}"
        a, b = d.between(slot, 0.5, 3.0, 1), d.between(slot, -1.0, 1.0, 2)
        ops.append(_adequacy(slot, "affine", {"a": a, "b": b}, f"{_lit(a)} * sample + {_lit(b)}",
                             _grid(d, slot, b, b + a, q), d))
    return _interleave(ops, _family)


# -- monte-carlo -------------------------------------------------------------

EXPECTATION_STRATA = 6  # of log2 n over [0, 6], two antithetic draws each
EXPECTATION_SAMPLES = 2_400  # runs * n, so about 3 * 2400 steps per check
MIN_RUNS = 64


def monte_carlo_round(seed: int, r: int) -> list[Op]:
    d = Draw("monte-carlo", seed, r)
    ops = []
    for j in range(EXPECTATION_STRATA):
        for half, v in zip("ab", d.pair(f"expectation-{j}", j, EXPECTATION_STRATA, 1)):
            slot = f"expectation-{j}{half}"
            n = max(1, min(64, round(2.0 ** (6.0 * v))))
            x = 0.5 + (-1.5 + 3.0 * d.u(slot)) / math.sqrt(12.0 * n)
            ops.append(Op(slot, "expectation", "estimate", {"n": n},
                          text=f"#expectation({n}) (fun x : real -> x) sample", ts=(x,),
                          runs=max(MIN_RUNS, EXPECTATION_SAMPLES // n),
                          seed=d.harness_seed(slot)))
    for j in range(2):
        slot = f"gaussian-{j}"
        m, s = d.between(slot, -1.0, 1.0, 1), d.between(slot, 0.5, 2.0, 2)
        ops.append(Op(slot, "gaussian", "estimate", {"m": m, "s": s},
                      text=f"#gaussian {_lit(m)} {_lit(s)}",
                      ts=(m + s * (-2.0 + 4.0 * d.stratum(slot, j, 2)),), runs=1_000,
                      seed=d.harness_seed(slot)))
        slot = f"bernoulli-{j}"
        p = round(0.1 + 0.8 * d.stratum(slot, j, 2), 4)
        ops.append(Op(slot, "bernoulli", "estimate", {"p": p},
                      text=f"#bernoulli {_lit(p)}", ts=(0.5,), runs=2_000,
                      seed=d.harness_seed(slot)))
    return _interleave(ops, lambda op: _pair(op) if op.family == "expectation" else op.family)


# -- conditioning --------------------------------------------------------------

# queries per check for the width strata of (0.05, 0.9], narrow first
CONDITIONING_QUERIES = (1, 1, 1, 1, 1, 1, 1, 2, 3, 2, 3, 2, 3, 2)
NARROWEST = 0.05


def _exponential_quantile(p: float) -> float:
    return -math.log1p(-p)


def _observe(d: Draw, slot: str, w: float, exponential_prior: bool, q: int) -> Op:
    """#observe on a window of prior mass w (literal width w for the uniform prior)."""
    if exponential_prior:
        # keep the upper quantile finite: the window ends below -log(0.03)
        c = d.between(slot, 0.0, 0.97 - w, 1)
        lo = round(_exponential_quantile(c), 4)
        hi = round(_exponential_quantile(c + w), 4)
        family, prior = "observe_exponential", "#exponential"
    else:
        c = d.between(slot, 0.0, 1.0 - w, 1)
        lo, hi = c, round(c + w, 4)
        family, prior = "observe_uniform", "sample"
    return _adequacy(slot, family, {"lo": lo, "hi": hi}, f"#observe([{lo!r},{hi!r}]) {prior}",
                     _grid(d, slot, lo, hi, q), d, runs=CONDITIONING_RUNS)


def conditioning_round(seed: int, r: int) -> list[Op]:
    """A window of mass 0.05, then an antithetic pair per stratum of (0.05, 0.9].

    For the exponential prior the window is placed by quantiles, so its
    prior mass (which sets the rejection rate and the Kleene chain
    length) is the drawn width, as for the uniform prior.  Priors
    alternate from stratum to stratum.
    """
    d = Draw("conditioning", seed, r)
    ops = [_observe(d, "narrowest", NARROWEST, r % 2 == 1, 1)]
    strata = len(CONDITIONING_QUERIES)
    for j, q in enumerate(CONDITIONING_QUERIES):
        for half, v in enumerate(d.pair(f"width-{j}", j, strata)):
            w = round(NARROWEST + (0.9 - NARROWEST) * v, 4)
            ops.append(_observe(d, f"width-{j}{'ab'[half]}", w, (j + r) % 2 == 1, q))
    return _interleave(ops, _pair)


# -- stability-grid ------------------------------------------------------------


def _poly_text(coeffs) -> str:
    return " + ".join(" * ".join([repr(c)] + ["x1"] * power) for power, c in enumerate(coeffs))


def _stability(slot, params, argv) -> Op:
    return Op(slot, params["target"], "stability", params, argv=("stability",) + tuple(argv))


def stability_grid_round(seed: int, r: int) -> list[Op]:
    """Tiers of near-equal cost, so the median and tail ranks fall inside one.

    Per run of three rounds: fifteen `wpor` checks on grid 8 or on
    bilinear `--fn` targets on top (the tail rank, the 11th-slowest, is
    among them), eighteen `wpor` checks at n=1, grid 7 or n=2, grid 5
    (the median ranks are their 9th and 10th) and fifteen `poly` and
    one-variable `--fn` checks of a few milliseconds.
    """
    d = Draw("stability-grid", seed, r)
    ops = []
    for j in range(2):
        slot = f"poly-{j}"
        g = 5 + int(4 * d.stratum(slot, j, 2))
        ops.append(_stability(slot, {"target": "poly"},
                              ["poly", "--n", str(1 + j), "--grid", str(g)]))
    for j in range(3):
        slot = f"fn1-{j}"
        degree, g = 1 + d.integer(slot, 0, 2, 1), 5 + int(4 * d.stratum(slot, j, 3))
        coeffs = [d.between(slot, 0.0, 1.0, 2 + i, digits=3) for i in range(degree + 1)]
        ops.append(_stability(slot, {"target": "fn", "coeffs": coeffs},
                              ["--fn", _poly_text(coeffs), "--n", str(1 + j % 2),
                               "--grid", str(g)]))
    for j in range(3):
        ops.append(_stability(f"wpor-1-7-{j}", {"target": "wpor"},
                              ["wpor", "--n", "1", "--grid", "7"]))
        ops.append(_stability(f"wpor-2-5-{j}", {"target": "wpor"},
                              ["wpor", "--n", "2", "--grid", "5"]))
    ops.append(_stability("wpor-1-8", {"target": "wpor"}, ["wpor", "--n", "1", "--grid", "8"]))
    # bilinear a x1 + b x2 +- c x1 x2 on the 5-grid: thousands of tiny runs each
    for j in range(4):
        slot = f"fn2-{j}"
        a, b = d.between(slot, 0.1, 1.0, 1, 3), d.between(slot, 0.1, 1.0, 2, 3)
        c = d.between(slot, 0.05, 1.0, 3, 3)
        sign = "+" if j % 2 == 0 else "-"
        ops.append(_stability(slot, {"target": "fn", "coeffs": [a, b, c if sign == "+" else -c]},
                              ["--fn", f"{a!r} * x1 + {b!r} * x2 {sign} {c!r} * x1 * x2",
                               "--fn-arity", "2", "--n", "1", "--grid", "5"]))
    return _interleave(ops, _family)


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object  # (seed, round) -> list[Op]
    # about the length of one round on the recording host (2-core x86,
    # Python 3.11): a run executes ceil(seconds / round_s) rounds
    round_s: float
    needs_cli: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("adequacy-continuous", adequacy_continuous_round, 13.5),
        Workload("monte-carlo", monte_carlo_round, 8.7),
        Workload("conditioning", conditioning_round, 25.0),
        Workload("stability-grid", stability_grid_round, 8.7, needs_cli=True),
    )
}


# -- building and running ops against a loaded ppcf ---------------------------


def prepare(mods, op: Op) -> None:
    """Build the ppcf inputs of an op (parse, intervals, configs)."""
    if op.kind == "stability":
        return
    queries = tuple(mods.IntervalSet.interval(-math.inf, t, False, True) for t in op.ts)
    program = mods.parse(op.text)
    if op.kind == "adequacy":
        op.prepared = {"program": program,
                       "config": mods.AdequacyConfig(intervals=queries, runs=op.runs,
                                                     budget=BUDGET, seed=op.seed)}
    else:
        op.prepared = {"term": program.inlined_main(), "query": queries[0]}


def execute(mods, op: Op, hooks):
    """Run one operation; this call is all that an op latency covers."""
    if op.kind == "adequacy":
        p = op.prepared
        return mods.harness.adequacy_check(p["program"], p["config"],
                                           op_table=hooks.op_table, den_table=hooks.den_table)
    if op.kind == "estimate":
        p = op.prepared
        return mods.reduction.estimate_mass(p["term"], p["query"], op.runs, BUDGET, op.seed,
                                            table=hooks.op_table)
    return hooks.runner.invoke(mods.cli.main, list(op.argv))


def record(op: Op, raw) -> tuple[dict, str]:
    """What the oracle checks in an op's output, and the output text itself."""
    if op.kind == "adequacy":
        rec = {"queries": [(q.denotational, q.empirical, q.dkw, q.quad_tol, q.error)
                           for q in raw.queries]}
        return rec, raw.to_json()
    if op.kind == "estimate":
        rec = {"queries": [(None, raw.p_hat, raw.dkw, 0.0, None)]}
        return rec, f"{raw.p_hat!r} {raw.dkw!r} {raw.runs} {raw.exhausted}\n"
    exc = raw.exception
    crashed = exc is not None and not isinstance(exc, SystemExit)
    rec = {"exit_code": raw.exit_code, "crashed": crashed,
           "error": repr(exc) if crashed else None}
    return rec, raw.output


def judge(op: Op, rec: dict) -> tuple[bool, bool, bool]:
    """(failed, wrong, gross) for one recorded op."""
    if op.kind == "stability":
        expected = 0 if oracle.stability_accepts(op.params) else 1
        failed = rec["crashed"] or rec["exit_code"] not in (0, 1)
        wrong = rec["exit_code"] != expected
        return failed, wrong, wrong
    failed = wrong = gross = False
    for t, (den, emp, dkw, quad_tol, error) in zip(op.ts, rec["queries"]):
        if error is not None:
            failed = True
            continue
        w, g = oracle.judge_mass(oracle.cdf(op.family, op.params, t), den, emp, dkw, quad_tol)
        wrong, gross = wrong or w, gross or g
    return failed, wrong, gross
