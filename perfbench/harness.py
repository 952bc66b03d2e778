"""Ops, measurement and metrics of the benchmark; ``run.py`` is the entry.

Importing this module imports protolite, so the caller puts the checkout's
``src/`` on ``sys.path`` first.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from protolite import CompileMode, compile_program, parse, run_image
from protolite.outcomes import Completed, Errored
from protolite.values import IntVal
import calibration
from tracing import OP_SPAN, ChainWalks, Tracer, plain_api
from workloads import BUILDERS, FUZZ_CONFIG

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_REPEATS = 31
FUZZ_BLOCK = 100       # seeds per interleaved block of a traced fuzz_diff run
FUZZ_COUNT_OPS = 400   # seeds in the counting pass of a traced fuzz_diff run
MODE_PROGRAMS = 8      # dispatch_mono programs timed per compile mode
MODE_ROUNDS = 3


def metric_specs(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


class Outcomes:
    """Failed-op bookkeeping shared by every phase of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(detail)


def outcome_kind(outcome) -> str:
    if isinstance(outcome, Errored):
        return outcome.reason.kind
    return type(outcome).__name__


# --- ops -------------------------------------------------------------------------


class Workload:
    def __init__(self, name: str, inputs) -> None:
        self.name = name
        self.inputs = inputs  # seed -> list of inputs


class Pipeline(Workload):
    """parse -> validate -> compile -> install -> run on one source text."""

    @staticmethod
    def op(api, inp):
        program = api.parse(inp.source)
        violations = api.validate(program)
        if violations:
            raise ValueError(f"invalid program: {violations[0]}")
        image = api.compile_program(program)
        for class_name, mdef in inp.installs:
            image = api.install_method(image, class_name, mdef)
        return api.run_image(image)

    @staticmethod
    def check(inp, result) -> tuple[bool, str]:
        if result.outcome == Completed(IntVal(inp.expected)):
            return True, ""
        return False, f"{inp.name}: {result.outcome!r}, expected {inp.expected}"

    @staticmethod
    def facts(inp, result) -> dict:
        return {"runtime_steps": result.steps, "reference_steps": 0,
                "classes": inp.classes, "source_bytes": len(inp.source),
                "outcome": result.outcome}


class FuzzDiff(Workload):
    """generate_program(seed, FUZZ_CONFIG) -> differential_run."""

    @staticmethod
    def op(api, gen_seed):
        program = api.generate_program(gen_seed, FUZZ_CONFIG)
        return program, api.differential_run(program, program_id=str(gen_seed))

    @staticmethod
    def check(gen_seed, result) -> tuple[bool, str]:
        _, diff = result
        if diff.agree and diff.reference_steps == diff.runtime_steps:
            return True, ""
        return False, (f"seed {gen_seed}: reference {diff.reference_outcome!r} "
                       f"in {diff.reference_steps} steps, runtime "
                       f"{diff.runtime_outcome!r} in {diff.runtime_steps}")

    @staticmethod
    def facts(gen_seed, result) -> dict:
        program, diff = result
        return {"runtime_steps": diff.runtime_steps,
                "reference_steps": diff.reference_steps,
                "classes": len(program.classes), "source_bytes": 0,
                "outcome": diff.reference_outcome}


def all_workloads() -> dict:
    return {name: (FuzzDiff if name == "fuzz_diff" else Pipeline)(name, build)
            for name, build in BUILDERS.items()}


def run_op(workload, api, inp, outcomes: Outcomes, op=None):
    """Time one op (``workload.op`` unless ``op`` is given), then check it.
    Returns (seconds, result or None)."""
    start = time.perf_counter()
    try:
        result = (op or workload.op)(api, inp)
    except Exception as err:  # an op that raises is a failed op, not a crash
        seconds = time.perf_counter() - start
        outcomes.record(False, f"{inp if isinstance(inp, int) else inp.name}: "
                               f"{type(err).__name__}: {err}"[:300])
        return seconds, None
    seconds = time.perf_counter() - start
    ok, detail = workload.check(inp, result)
    outcomes.record(ok, detail)
    return seconds, result


def setup(workload, seed: int) -> tuple[list, float]:
    """Build the input pool; return it and the seconds it took."""
    start = time.perf_counter()
    pool = workload.inputs(seed)
    return pool, time.perf_counter() - start


def _package_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "protolite" or name.startswith("protolite.")}


def import_seconds() -> float:
    """Seconds to import protolite's modules afresh in this process.

    The modules already loaded are put back afterwards, so every other part
    of the run keeps using one copy of the package."""
    loaded = _package_modules()
    for name in loaded:
        del sys.modules[name]
    start = time.perf_counter()
    try:
        importlib.import_module("protolite")
        return time.perf_counter() - start
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(loaded)


# --- untraced run: end-to-end metrics -----------------------------------------------


def measure(workload, pool: list, seconds: float, api,
            outcomes: Outcomes) -> list[tuple[float, float]]:
    """Cycle through the pool for ``seconds``; per op, (op seconds, seconds
    of the calibration kernel run just before it)."""
    samples: list[tuple[float, float]] = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        timed_block(workload, api, [pool[len(samples) % len(pool)]], samples,
                    outcomes)
    return samples


def end_to_end(args, workload, outcomes: Outcomes, report: dict) -> dict:
    """Every op time is scaled by the calibration kernel (calibration.py), so
    a burst of load elsewhere on the machine does not stretch the ops it
    overlaps. Set-up is importing protolite's modules and building the input
    pool; it is timed ``SETUP_REPEATS`` times after the measured ops (peak
    RSS is read before, so the extra imports do not count in it), each
    repetition after a kernel and scaled like an op."""
    api = plain_api()
    pool, _ = setup(workload, args.seed)
    samples = measure(workload, pool, args.seconds, api, outcomes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        kernel = calibration.kernel_seconds()
        imported = import_seconds()
        _, built = setup(workload, args.seed)
        setup_samples.append((imported, built, kernel))
    setup_scaled = calibration.scaled([i + b for i, b, _ in setup_samples],
                                      [k for _, _, k in setup_samples])
    raw = [t for t, _ in samples]
    scaled = calibration.scaled(raw, [k for _, k in samples])
    deciles = statistics.quantiles(scaled, n=10, method="inclusive")
    raw_deciles = statistics.quantiles(raw, n=10, method="inclusive")
    report.update({
        "ops": len(samples),
        "samples_beyond_p90": sum(1 for t in scaled if t > deciles[8]),
        "fail_ratio": outcomes.failed / outcomes.attempted,
        "kernel_ms_median": statistics.median(k for _, k in samples) * 1e3,
        "unscaled": {"ops_per_s": len(raw) / sum(raw),
                     "latency_p50_ms": statistics.median(raw) * 1e3,
                     "latency_p90_ms": raw_deciles[8] * 1e3,
                     "setup_s": statistics.median(i + b for i, b, _ in
                                                  setup_samples)},
        "setup_samples": setup_samples,
    })
    return {
        "ops_per_s": len(scaled) / sum(scaled),
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
        "ok_ratio": 1.0 - outcomes.failed / outcomes.attempted,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_scaled),
    }


# --- traced run: per-layer metrics --------------------------------------------------


def count_pass(workload, inputs: list, outcomes: Outcomes) -> tuple[dict, dict]:
    """One op per input with results captured; returns counters, extras."""
    tracer = Tracer()
    sums: dict[str, float] = {}
    kinds: dict[str, int] = {}

    def add(key: str, value: float) -> None:
        sums[key] = sums.get(key, 0) + value

    with ChainWalks().hooked() as walks, tracer.instrumented() as api:
        for inp in inputs:
            _, result = run_op(workload, api, inp, outcomes)
            if result is None:
                kinds["raised"] = kinds.get("raised", 0) + 1
                continue
            kind = outcome_kind(workload.facts(inp, result)["outcome"])
            kinds[kind] = kinds.get(kind, 0) + 1
            image = tracer.last["compiler.compile_program"]
            run = tracer.last["runtime.run_image"]
            add("compiler.dict_entries",
                sum(len(c.dictionary) for c in image.classes.values()))
            add("compiler.mangled_symbols",
                sum(1 for s in image.symbols.symbols() if s.mangled))
            add("compiler.scope_classes", len(image.rewrite_scope))
            add("compiler.deferred_sites", len(image.deferred_sites))
            stats = run.stats
            consultations = sum(stats.probe_hits) + stats.misses
            add("runtime.steps", run.steps)
            add("runtime.lookups", stats.ic_hits + consultations)
            add("runtime.ic_hits", stats.ic_hits)
            add("runtime.ic_fills", stats.ic_fills)
            add("runtime.gc_consultations", consultations)
            add("runtime.gc_probe1", stats.probe_hits[0])
            add("runtime.gc_probe2", stats.probe_hits[1])
            add("runtime.gc_probe3", stats.probe_hits[2])
            add("runtime.gc_misses", stats.misses)
            add("runtime.gc_installs", stats.installs)
            add("runtime.distinct_keys", stats.distinct_keys)
            add("runtime.sites_mono", stats.ic_monomorphic)
            add("runtime.sites_poly", stats.ic_polymorphic)
            add("runtime.sites_mega", stats.ic_megamorphic)
            tracer.spans.clear()
    n = len(inputs)
    counters = {k: v / n for k, v in sums.items()}
    counters["runtime.ic_hit_ratio"] = _ratio(sums.get("runtime.ic_hits", 0),
                                              sums.get("runtime.lookups", 0))
    counters["runtime.gc_hit_ratio"] = _ratio(
        sums.get("runtime.gc_consultations", 0) - sums.get("runtime.gc_misses", 0),
        sums.get("runtime.gc_consultations", 0))
    counters["runtime.chain_walks"] = len(walks.depths) / n
    counters["runtime.chain_walk_depth_p50"] = walks.median_depth()
    counters["runtime.chain_walk_depth_max"] = max(walks.depths, default=0)
    counters["runtime.chain_walk_us"] = _ratio(walks.seconds * 1e6,
                                               len(walks.depths))
    counters["bench.count_ops"] = n
    for kind in OUTCOME_KINDS:
        counters[f"outcomes.{kind}"] = kinds.get(kind, 0)
    extras = {"outcome_mix": kinds, "chain_walk_depths": walks.histogram()}
    return counters, extras


OUTCOME_KINDS = ("Completed", "FuelExhausted", "DoesNotUnderstand",
                 "NilReceiver", "PrimitiveFailure", "ArityMismatch",
                 "UnknownVariable", "UnknownClass", "UnknownField")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def mode_steps_per_s(pool: list, outcomes: Outcomes) -> dict:
    """Runtime steps/s of dispatch_mono programs per compile mode.

    Modes alternate within each round, in rotating order, so drift in the
    machine's speed falls on all of them alike.
    """
    modes = (CompileMode.BASELINE, CompileMode.NORMAL, CompileMode.WORST_CASE)
    programs = pool[:MODE_PROGRAMS]
    images = {(i, m): compile_program(parse(inp.source), m)
              for i, inp in enumerate(programs) for m in modes}
    steps = {m: 0 for m in modes}
    seconds = {m: 0.0 for m in modes}
    for r in range(MODE_ROUNDS):
        order = modes[r % 3:] + modes[:r % 3]
        for i, inp in enumerate(programs):
            for m in order:
                start = time.perf_counter()
                result = run_image(images[i, m])
                seconds[m] += time.perf_counter() - start
                steps[m] += result.steps
                ok, detail = Pipeline.check(inp, result)
                outcomes.record(ok, f"[{m.value}] {detail}")
    return {m.value: steps[m] / seconds[m] for m in modes}


def timed_block(workload, api, inputs: list, samples: list,
                outcomes: Outcomes, tracer: Tracer | None = None,
                totals: dict | None = None) -> None:
    """Run ``inputs`` once, each op after a calibration kernel, appending
    (op seconds, kernel seconds) to ``samples``. A tracer puts each op in a
    span; ``totals`` sums the ops' facts."""
    op = tracer.wrap(OP_SPAN, workload.op) if tracer else None
    for inp in inputs:
        kernel = calibration.kernel_seconds()
        if tracer:
            tracer.op_id += 1
        seconds, result = run_op(workload, api, inp, outcomes, op)
        samples.append((seconds, kernel))
        if totals is not None and result is not None:
            facts = workload.facts(inp, result)
            for key in ("runtime_steps", "reference_steps", "classes",
                        "source_bytes"):
                totals[key] += facts[key]


def traced_blocks(workload, pool: list, deadline: float,
                  outcomes: Outcomes) -> tuple[dict, Tracer]:
    """Alternate untraced and traced blocks over the same inputs."""
    block = FUZZ_BLOCK if workload.name == "fuzz_diff" else len(pool)
    tracer = Tracer()
    plain = plain_api()
    totals: dict = {"untraced": [], "traced": [], "runtime_steps": 0,
                    "reference_steps": 0, "classes": 0, "source_bytes": 0}
    k = 0
    while True:
        inputs = [pool[(k * block + j) % len(pool)] for j in range(block)]
        # ABBA: the untraced block goes first on even rounds, last on odd.
        if k % 2 == 0:
            timed_block(workload, plain, inputs, totals["untraced"], outcomes)
        with tracer.instrumented() as api:
            timed_block(workload, api, inputs, totals["traced"], outcomes,
                        tracer, totals)
        if k % 2 == 1:
            timed_block(workload, plain, inputs, totals["untraced"], outcomes)
        k += 1
        if time.perf_counter() >= deadline:
            return totals, tracer


def per_layer(args, workload, outcomes: Outcomes, report: dict) -> dict:
    start = time.perf_counter()
    deadline = start + args.seconds
    pool, _ = setup(workload, args.seed)
    count_inputs = pool[:FUZZ_COUNT_OPS] if workload.name == "fuzz_diff" else pool
    metrics, extras = count_pass(workload, count_inputs, outcomes)
    report.update(extras)
    modes = (mode_steps_per_s(pool, outcomes)
             if workload.name == "dispatch_mono" else {})
    report["mode_steps_per_s"] = modes
    metrics["runtime.steps_per_s.baseline"] = modes.get("baseline", 0.0)
    metrics["runtime.steps_per_s.worst_case"] = modes.get("worst-case", 0.0)

    totals, tracer = traced_blocks(workload, pool, deadline, outcomes)
    own = tracer.self_times()
    op_total = tracer.total(OP_SPAN)
    n = len(totals["traced"])

    def self_s(*names: str) -> float:
        return sum(own.get(name, 0.0) for name in names)

    def module_s(module: str) -> float:
        return sum(s for name, s in own.items()
                   if name.split(".")[0] == module)

    for module in ("parser", "validate", "runtime", "reference", "generator"):
        metrics[f"{module}.ms_per_op"] = module_s(module) / n * 1e3
    for module in ("parser", "validate", "compiler", "runtime", "reference",
                   "generator", "metrics"):
        metrics[f"{module}.share"] = module_s(module) / op_total
    compile_s = self_s("compiler.compile_program")
    metrics["compiler.compile_ms_per_op"] = compile_s / n * 1e3
    metrics["compiler.install_ms_per_op"] = \
        self_s("compiler.install_method") / n * 1e3
    metrics["compiler.classes_per_s"] = _ratio(totals["classes"], compile_s)
    metrics["parser.kb_per_s"] = _ratio(totals["source_bytes"] / 1024,
                                        module_s("parser"))
    metrics["runtime.steps_per_s"] = _ratio(totals["runtime_steps"],
                                            tracer.total("runtime.run_image"))
    metrics["reference.steps_per_s"] = _ratio(
        totals["reference_steps"], tracer.total("reference.eval_program"))
    metrics["metrics.diff_self_ms_per_op"] = \
        self_s("metrics.differential_run") / n * 1e3
    metrics["bench.share"] = self_s(OP_SPAN) / op_total
    metrics["bench.traced_ops"] = n
    # Both sides ran the same inputs, each op scaled by its kernel.
    untraced, traced = (sum(calibration.scaled(*zip(*totals[side])))
                        for side in ("untraced", "traced"))
    metrics["bench.trace_overhead"] = untraced / traced
    report["share_sum"] = sum(v for k, v in metrics.items()
                              if k.endswith(".share"))
    report["traced_ops"] = n
    report["spans"] = len(tracer.spans)
    _write_spans(args, tracer, report)
    return metrics


def _write_spans(args, tracer, report: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans, "report": report}, fh)
    report["spans_file"] = str(path.relative_to(ROOT))
