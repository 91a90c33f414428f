#!/usr/bin/env python3
"""ppcf benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload conditioning --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A single client runs the workload's rounds of operations back to back,
each operation starting when the previous one returns.  Both runs
execute ``ceil(seconds / round_s)`` whole rounds, sized to last a little
longer than ``--seconds`` on the recording host, so every run of a seed
does the same work.  The untraced run (``--trace 0``) reports the
end-to-end metrics; the traced run (``--trace 1``) installs spans and
counters and reports the per-layer metrics.  Every output is checked
against the closed forms in ``oracle.py``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in a fresh process
of its own and prints each one's metrics.

ppcf is imported from the ``src/`` beside this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 9
# no round after the first starts past this many seconds (a much slower program)
MAX_LOOP_S = 120.0
PPCF_MODULES = ("harness", "reduction", "denotation", "measure", "quadrature",
                "parser", "primitives", "rng", "stability", "typecheck")
END_TO_END = {
    "setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
    "peak_rss_mb": "MB", "failed_frac": "fraction", "wrong_frac": "fraction",
}
# end-to-end metrics that can be 0 are printed but not in the result line
RESULT_METRICS = ("setup_s", "op_p50_s", "op_tail_s", "ops_per_s", "peak_rss_mb")


def load_ppcf(needs_cli: bool) -> SimpleNamespace:
    """Import ppcf afresh from src/, dropping any earlier import first."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in list(sys.modules):
        if name.split(".")[0] in ("ppcf", "click"):
            del sys.modules[name]
    ppcf = importlib.import_module("ppcf")
    if Path(ppcf.__file__).resolve().parent != SRC / "ppcf":
        raise ImportError(f"ppcf was imported from {ppcf.__file__}, not from {SRC}")
    modules = {f"ppcf.{m}": importlib.import_module(f"ppcf.{m}") for m in PPCF_MODULES}
    mods = SimpleNamespace(modules=modules, parse=ppcf.parse, IntervalSet=ppcf.IntervalSet,
                           AdequacyConfig=ppcf.AdequacyConfig, runner=None,
                           default_table=modules["ppcf.primitives"].DEFAULT_TABLE,
                           harness=modules["ppcf.harness"], reduction=modules["ppcf.reduction"])
    if needs_cli:
        modules["ppcf.cli"] = mods.cli = importlib.import_module("ppcf.cli")
        mods.runner = importlib.import_module("click.testing").CliRunner()
    return mods


def set_up(workload, seed: int, rounds: int, needs_cli: bool):
    """Import ppcf and build the run's inputs, SETUP_REPS times.

    Returns the last set-up's modules and inputs and the median time.
    """
    times = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        mods = load_ppcf(needs_cli)
        pool = [workload.make_round(seed, r) for r in range(rounds)]
        for batch in pool:
            for op in batch:
                workloads.prepare(mods, op)
        times.append(perf_counter() - start)
    return mods, pool, statistics.median(times)


def run_loop(mods, pool: list, hooks):
    """Run the rounds of `pool` in order; none after the first starts past MAX_LOOP_S.

    Returns the ops, their latencies and records, the rounds run, a digest
    of the outputs and the wall time of the whole loop.
    """
    ops, latencies, records = [], [], []
    digest = hashlib.sha256()
    start = perf_counter()
    rounds = 0
    for batch in pool:
        if rounds and perf_counter() - start >= MAX_LOOP_S:
            break
        for op in batch:
            hooks.begin_op(len(ops))
            t0 = perf_counter()
            try:
                raw = workloads.execute(mods, op, hooks)
            except Exception:
                latency = perf_counter() - t0
                hooks.end_op()
                print(f"operation {op.slot} ({op.text or ' '.join(op.argv)}) raised:",
                      file=sys.stderr)
                traceback.print_exc()
                rec, text = None, "error\n"
            else:
                latency = perf_counter() - t0
                hooks.end_op()
                rec, text = workloads.record(op, raw)
            digest.update(text.encode())
            ops.append(op)
            latencies.append(latency)
            records.append(rec)
        rounds += 1
    return ops, latencies, records, rounds, digest.hexdigest(), perf_counter() - start


def judge_all(ops, records):
    """(failed, wrong, gross) counts; a failed operation is also gross."""
    failed = wrong = gross = 0
    for op, rec in zip(ops, records):
        if rec is None:
            failed += 1
            gross += 1
            continue
        f, w, g = workloads.judge(op, rec)
        failed += f
        wrong += w
        gross += g or f
        if w:
            verdict = "gross" if g else "beyond the stated tolerance"
            print(f"wrong ({verdict}): {op.slot} {op.text or ' '.join(op.argv)} "
                  f"at {op.ts}: {rec}", file=sys.stderr)
    return failed, wrong, gross


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (latency, percentile, samples beyond); with ten or fewer
    samples the maximum is returned, with 0 beyond.
    """
    xs = sorted(latencies)
    i = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


class PlainHooks:
    """Untraced run: default primitive tables, no spans."""

    def __init__(self, mods):
        self.runner = mods.runner
        self.op_table = self.den_table = mods.default_table

    def begin_op(self, index: int) -> None:
        pass

    def end_op(self) -> None:
        pass


class TracedHooks:
    """Traced run: counting tables, and a CLI span around each CLI invocation."""

    def __init__(self, tracer: tracing.Tracer, runner, cli: bool):
        self.tracer = tracer
        self.runner = runner
        self.op_table = tracer.op_table
        self.den_table = tracer.den_table
        self._cli = cli
        self._span = None

    def begin_op(self, index: int) -> None:
        self.tracer.op = index
        if self._cli:
            self._span = self.tracer.begin(tracing.CLI_SPAN, "cli")

    def end_op(self) -> None:
        if self._span is not None:
            self.tracer.end(self._span, "cli")
            self._span = None
        self.tracer.op = -1


def report(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<28} {value!r:>24} {unit}{'  ' + note if note else ''}")


def run_workload(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    if not (SRC / "ppcf" / "__init__.py").is_file():
        print(f"no ppcf sources under {SRC}", file=sys.stderr)
        return 2
    planned = max(1, math.ceil(args.seconds / workload.round_s))
    try:
        # the traced run loads the CLI everywhere, so its metrics read 0, not absent
        mods, pool, setup_s = set_up(workload, args.seed, planned,
                                     needs_cli=workload.needs_cli or bool(args.trace))
    except ImportError as exc:
        print(f"cannot import ppcf: {exc}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(mods)
        hooks = TracedHooks(tracer, mods.runner, workload.needs_cli)
    else:
        hooks = PlainHooks(mods)
    ops, latencies, records, rounds, digest, wall = run_loop(mods, pool, hooks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, wrong, gross = judge_all(ops, records)
    n = len(ops)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"rounds {rounds}  ops {n}  closed loop, 1 client")
    if tracer is not None:
        path = OUT / f"{workload.name}-seed{args.seed}.spans.csv"
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        print(f"reports_sha256 {digest}")
        layer = tracer.metrics(n, wall)
        for name, value in layer.items():
            report(name, value, tracing.PER_LAYER[name][0])
        metrics = {name: {"value": value, "unit": tracing.PER_LAYER[name][0]}
                   for name, value in layer.items()}
    else:
        tail_s, level, beyond = tail(latencies)
        values = {
            "setup_s": setup_s,
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_s,
            "ops_per_s": n / wall,
            "peak_rss_mb": peak_rss_mb,
            "failed_frac": failed / n,
            "wrong_frac": wrong / n,
        }
        notes = {
            "setup_s": f"median of {SETUP_REPS} set-ups",
            "op_tail_s": f"p{level:.1f} of {n} ops, {beyond} beyond",
            "ops_per_s": f"{n} ops in {wall:.3f} s",
            "failed_frac": f"{failed}/{n}",
            "wrong_frac": f"{wrong}/{n}",
        }
        for name, value in values.items():
            report(name, value, END_TO_END[name], notes.get(name, ""))
        metrics = {name: {"value": values[name], "unit": END_TO_END[name]}
                   for name in RESULT_METRICS}
    print(json.dumps({"correct": gross == 0, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process of its own, one after another."""
    status = 0
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(child.stdout, end="", flush=True)
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
