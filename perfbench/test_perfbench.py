"""Tests of the benchmark itself (not collected by the repository's tier-1 run).

    python3 -m pytest -q perfbench/test_perfbench.py

The determinism test runs every workload's traced round twice in fresh
processes, about two minutes in all.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
COUNT_UNITS = ("count", "steps/run", "evals/query")


def _traced(workload: str, seed: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=300).stdout.splitlines()
    digest = next(line.split()[1] for line in out if line.startswith("reports_sha256 "))
    return json.loads(out[-1]), digest


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_and_reports_repeat_exactly(workload):
    (first, digest1), (second, digest2) = _traced(workload, 11), _traced(workload, 11)
    assert first["correct"] and second["correct"]
    assert digest1 == digest2
    counts = {name for name, (unit, _, _) in tracing.PER_LAYER.items() if unit in COUNT_UNITS}
    assert set(first["metrics"]) == set(tracing.PER_LAYER)
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["reduction.steps"]["value"] > 0


def test_tracing_does_not_change_outputs():
    workload = workloads.WORKLOADS["conditioning"]
    texts = []
    for traced in (False, True):
        mods, pool, _ = run.set_up(workload, 5, 1, needs_cli=False)
        if traced:
            tracer = tracing.Tracer()
            tracer.install(mods)
            hooks = run.TracedHooks(tracer, None, cli=False)
        else:
            hooks = run.PlainHooks(mods)
        texts.append(run.run_loop(mods, pool, hooks)[4])
    assert texts[0] == texts[1]


def test_missing_wrapper_target_makes_its_metrics_absent():
    mods = run.load_ppcf(needs_cli=True)
    del mods.modules["ppcf.denotation"].fixpoint
    tracer = tracing.Tracer()
    tracer.install(mods)
    metrics = tracer.metrics(ops=0, wall_s=0.0)
    absent = {"denotation.fix_calls", "denotation.kleene_iters", "denotation.fix_s"}
    assert set(metrics) == set(tracing.PER_LAYER) - absent


def test_workload_inputs_depend_only_on_seed():
    for workload in workloads.WORKLOADS.values():
        a = [(op.text, op.ts, op.argv, op.seed) for op in workload.make_round(3, 2)]
        b = [(op.text, op.ts, op.argv, op.seed) for op in workload.make_round(3, 2)]
        c = [(op.text, op.ts, op.argv, op.seed) for op in workload.make_round(4, 2)]
        assert a == b != c


def test_failed_operations_make_the_run_incorrect():
    op = workloads.Op("s", "wpor", "stability", {"target": "wpor"})
    crashed = {"exit_code": 1, "crashed": True, "error": "RuntimeError()"}
    assert run.judge_all([op, op], [None, None]) == (2, 0, 2)
    assert run.judge_all([op], [crashed]) == (1, 0, 1)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(30)]) == (19.0, 100.0 * 20 / 30, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_oracle_closed_forms_agree_with_each_other():
    for x in (0.1, 0.37, 0.5, 0.93):
        assert oracle.irwin_hall_mean_cdf(1, x) == pytest.approx(x, abs=1e-15)
        assert oracle.irwin_hall_mean_cdf(2, x) == pytest.approx(oracle.cdf("sum2", {}, 2 * x),
                                                                  abs=1e-15)
    assert oracle.irwin_hall_mean_cdf(64, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert oracle.normal_cdf(0.0) == 0.5
    assert oracle.cdf("gaussian", {"m": 1.0, "s": 2.0}, 3.0) == oracle.normal_cdf(1.0)
    assert oracle.cdf("prod2", {}, 1.0) == 1.0
    assert oracle.cdf("observe_exponential", {"lo": 0.2, "hi": 0.5}, 0.5) == 1.0
    mid = oracle.cdf("observe_exponential", {"lo": 0.0, "hi": 50.0}, 1.0)
    assert mid == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)


def test_oracle_tolerances():
    assert oracle.judge_mass(0.5, 0.5 + 2e-6, 0.5, 0.01, 1e-6) == (True, False)
    assert oracle.judge_mass(0.5, 0.5 + 1e-3, 0.5, 0.01, 1e-6) == (True, True)
    assert oracle.judge_mass(0.006, 0.0, 0.004, 0.07, 1e-6) == (True, False)
    assert oracle.judge_mass(0.3, 0.0, 0.3, 0.07, 1e-6) == (True, True)
    assert oracle.judge_mass(0.5, 0.5, 0.515, 0.01, 1e-6) == (True, False)
    assert oracle.judge_mass(0.5, 0.5, 0.525, 0.01, 1e-6) == (True, True)
    assert oracle.judge_mass(0.5, None, 0.505, 0.01, 0.0) == (False, False)
    assert not oracle.stability_accepts({"target": "fn", "coeffs": [0.3, 0.4, -0.2]})


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, str(Path(HERE.name) / "run.py"), "--workload", "monte-carlo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
