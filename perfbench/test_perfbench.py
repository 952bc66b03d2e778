"""Self-test of the benchmark.

    python3 -m pytest perfbench -q

Runs the benchmark itself in short subprocess runs (about 90 s in all)
and checks its inputs against the reference evaluator.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import workloads  # noqa: E402
from tracing import plain_api  # noqa: E402
from protolite import (DiffResult, differential_run, eval_program,  # noqa: E402
                       generate_program, parse)
from protolite.outcomes import Completed, FuelExhausted  # noqa: E402
from protolite.values import IntVal  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = list(harness.all_workloads())
SEED = 7
# Counts that depend on how many ops fit in the run, not on the inputs.
TIMING_DEPENDENT = {"bench.traced_ops"}
DOMINANT = {"dispatch_mono": "runtime", "dispatch_mega": "runtime",
            "compile_large": "parser", "fuzz_diff": "reference"}
LAYERS = ("parser", "validate", "compiler", "runtime", "reference",
          "generator", "metrics", "bench")


def bench(workload: str, trace: int, hashseed: str = "0",
          cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONHASHSEED=hashseed))


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced() -> dict[str, list[dict]]:
    """Two traced runs per workload, under different hash seeds."""
    return {w: [result_of(bench(w, 1, hashseed=h)) for h in ("1", "2")]
            for w in WORKLOADS}


@pytest.fixture(scope="module")
def untraced() -> dict[str, dict]:
    return {w: result_of(bench(w, 0)) for w in WORKLOADS}


def _value(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


# --- the runs -------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(traced, workload):
    first, second = traced[workload]
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] == "count" and m["name"] not in TIMING_DEPENDENT]
    counts += ["runtime.ic_hit_ratio", "runtime.gc_hit_ratio"]
    assert {n: _value(first, n) for n in counts} == \
        {n: _value(second, n) for n in counts}


def test_benchmark_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS


def test_every_metric_present_with_unit(traced, untraced):
    for kind, results in (("end_to_end", untraced.values()),
                          ("per_layer", [r[0] for r in traced.values()])):
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        for result in results:
            assert {n: v["unit"] for n, v in result["metrics"].items()} \
                == expected
            assert all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values())


def test_every_op_correct(traced, untraced):
    for result in list(untraced.values()) + [r[0] for r in traced.values()]:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1


def test_dispatch_mega_reaches_megamorphic_sites_and_deep_probes(traced):
    result = traced["dispatch_mega"][0]
    assert _value(result, "runtime.sites_mega") > 0
    assert _value(result, "runtime.gc_probe2") > 0
    assert _value(result, "runtime.gc_probe3") > 0
    assert _value(result, "runtime.distinct_keys") > 1024
    assert _value(result, "runtime.chain_walks") == \
        _value(result, "runtime.gc_misses")


def test_dispatch_mono_is_answered_by_the_inline_cache(traced):
    result = traced["dispatch_mono"][0]
    assert _value(result, "runtime.ic_hit_ratio") > 0.95
    assert _value(result, "runtime.sites_poly") == 0
    assert _value(result, "runtime.sites_mega") == 0
    assert _value(result, "runtime.steps_per_s.baseline") > 0
    assert _value(result, "runtime.steps_per_s.worst_case") > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_shares_cover_the_op_and_the_dominant_layer_leads(traced,
                                                                workload):
    result = traced[workload][0]
    shares = {layer: _value(result, f"{layer}.share") for layer in LAYERS}
    assert sum(shares.values()) == pytest.approx(1.0)
    assert max(shares, key=shares.get) == DOMINANT[workload]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("dispatch_mono", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# --- inputs and checks ------------------------------------------------------------


@pytest.mark.parametrize("workload", ["dispatch_mono", "dispatch_mega",
                                      "compile_large"])
def test_expected_values_agree_with_the_reference_evaluator(workload):
    for inp in workloads.BUILDERS[workload](SEED)[:3]:
        program = parse(inp.source)
        for class_name, mdef in inp.installs:
            program = dataclasses.replace(program, classes=tuple(
                dataclasses.replace(c, methods=c.methods + (mdef,))
                if c.name == class_name else c for c in program.classes))
        outcome = eval_program(program).outcome
        assert outcome == Completed(IntVal(inp.expected)), inp.name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_come_from_the_seed(workload):
    build = workloads.BUILDERS[workload]
    assert build(SEED) == build(SEED)
    assert build(SEED) != build(SEED + 1)


def test_fuzz_op_fails_when_step_counts_differ():
    outcome = FuelExhausted()
    agreeing = DiffResult("1", outcome, outcome, True, "", 3000, 3000)
    assert harness.FuzzDiff.check(1, (None, agreeing))[0]
    steps_differ = dataclasses.replace(agreeing, runtime_steps=2999)
    assert not harness.FuzzDiff.check(1, (None, steps_differ))[0]


@pytest.mark.xfail(strict=True, reason=(
    "with the default generator config these programs reach the documented "
    "structural limit: a plain self-send site in an ancestor outside the "
    "rewrite scope, answered by a descendant's protected method; the "
    "reference runs it, the runtime answers DoesNotUnderstand. When this "
    "passes, fuzz_diff can go back to the default config"))
@pytest.mark.parametrize("gen_seed", [2_001_743, 62_674_745_023_799])
def test_default_config_known_disagreement(gen_seed):
    program = generate_program(gen_seed)
    diff = differential_run(program, program_id=str(gen_seed))
    assert harness.FuzzDiff.check(gen_seed, (program, diff))[0]


def test_an_op_that_raises_counts_as_failed():
    deep = "(" * 400 + "1" + ")" * 400
    inp = workloads.PipelineInput("deep", f"main {{ {deep} }}", 1, 0)
    outcomes = harness.Outcomes()
    pipeline = harness.Pipeline("deep", None)
    _, result = harness.run_op(pipeline, plain_api(), inp, outcomes)
    assert result is None
    assert (outcomes.attempted, outcomes.failed) == (1, 1)
    assert "RecursionError" in outcomes.failures[0]
