"""Wall-clock micro-benchmarking of compiled images.

A compile mode is measured against its own mangling-free baseline, one
compiled image each. Within an invocation a fixed number of iterations run
the image's main expression, and the first few are discarded as warm-up (in
the first invocation they also lower each body that runs). Reports carry the
raw samples plus median and mean, and the measured report states its median
relative to the baseline's.

Workload builders produce send-heavy programs whose main expression is the
same block of sends replicated a configurable number of times, so per-
iteration work is meaningful without relying on in-language loops.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from .compiler import CompileMode, compile_program
from .errors import BenchConfigError
from .outcomes import Completed
from .runtime import CacheStats, run_image
from .syntax import (
    ClassDef,
    Expr,
    IntLit,
    Let,
    MethodDef,
    New,
    Program,
    SelfRef,
    Send,
    Var,
)

BENCH_FUEL = 5_000_000


@dataclass(frozen=True)
class BenchConfig:
    mode: CompileMode = CompileMode.NORMAL
    global_cache_on: bool = True
    inline_cache_on: bool = True
    invocations: int = 10
    iterations: int = 15
    warmup: int = 5
    fuel: int = BENCH_FUEL


@dataclass
class BenchReport:
    label: str  # the compile mode's value
    invocations: int
    iterations: int
    warmup: int
    samples: list[float]  # post-warm-up iteration times, seconds
    median: float
    mean: float
    cache_stats: CacheStats
    relative_overhead: float | None = None

    def to_json(self) -> dict:
        out = {
            "label": self.label,
            "invocations": self.invocations,
            "iterations": self.iterations,
            "warmup": self.warmup,
            "medianSeconds": self.median,
            "meanSeconds": self.mean,
            "samples": self.samples,
            "cache": self.cache_stats.to_json(),
        }
        if self.relative_overhead is not None:
            out["relativeOverhead"] = self.relative_overhead
        return out


def bench_pair(program: Program,
               config: BenchConfig) -> tuple[BenchReport, BenchReport]:
    """Measure ``config`` against its mangling-free baseline.

    The baseline is ``config`` with ``mode=CompileMode.BASELINE``, compiled
    first. Invocations run baseline, config, baseline, config, ..., so a
    burst of contention on the machine falls on both sides alike instead of
    on one side's block; each invocation drops its first ``warmup``
    iterations. The second report carries its median's overhead relative
    to the baseline's. Raises BenchConfigError for an empty iteration budget
    or a workload that cannot finish (fuel exhaustion is a failed benchmark,
    not a sample).
    """
    if config.iterations <= 0 or config.invocations <= 0:
        raise BenchConfigError("benchmark needs at least one invocation "
                               "and one iteration")
    if config.warmup < 0:
        raise BenchConfigError(f"warm-up cannot be negative ({config.warmup})")
    if config.iterations <= config.warmup:
        raise BenchConfigError(
            f"{config.iterations} iteration(s) leave nothing after "
            f"{config.warmup} warm-up discard(s)")
    modes = (CompileMode.BASELINE, config.mode)
    images = [compile_program(program, mode) for mode in modes]
    samples: tuple[list[float], list[float]] = ([], [])
    last_stats = [CacheStats(), CacheStats()]
    for _ in range(config.invocations):
        for side, image in enumerate(images):
            times: list[float] = []
            for _ in range(config.iterations):
                start = time.perf_counter()
                result = run_image(image,
                                   global_cache_on=config.global_cache_on,
                                   inline_cache_on=config.inline_cache_on,
                                   fuel=config.fuel)
                times.append(time.perf_counter() - start)
                if not isinstance(result.outcome, Completed):
                    raise BenchConfigError(
                        f"benchmark run did not complete: {result.outcome!r}")
            samples[side].extend(times[config.warmup:])
            last_stats[side] = result.stats
    base_report, report = (
        BenchReport(label=mode.value, invocations=config.invocations,
                    iterations=config.iterations, warmup=config.warmup,
                    samples=kept, median=statistics.median(kept),
                    mean=statistics.fmean(kept), cache_stats=stats)
        for mode, kept, stats in zip(modes, samples, last_stats))
    report.relative_overhead = report.median / base_report.median - 1.0
    return base_report, report


# --- workloads ------------------------------------------------------------------


def repeat_main(program: Program, times: int) -> Program:
    """Replicate the main expression ``times`` times via let-sequencing.

    Each replica nests one binding, in the body of a let. The compile and
    the lowering loop down let bodies, so ``times`` costs time and memory,
    not depth.
    """
    if times < 1:
        raise BenchConfigError("replication factor must be positive")
    body: Expr = program.main
    for i in range(times - 1):
        body = Let(f"_r{i}", program.main, body)
    repeated = Program(program.classes, body)
    # The index reads only the classes, which the two programs share.
    repeated.index = program.index
    return repeated


def deep_send_workload(depth: int = 8, repeats: int = 100,
                       protected_levels: bool = True) -> Program:
    """A chain of ``depth`` classes where leaf sends resolve near the root.

    Every level defines ``bump`` calling up the chain through self-sends, the
    root defines the shared ``base``, and main repeatedly sends ``bump`` to a
    leaf instance. With ``protected_levels`` the inner levels mark their
    helper protected, putting the whole chain in the rewrite scope.
    """
    if depth < 2:
        raise BenchConfigError("workload needs a chain of at least two classes")
    classes = []
    root = "L0"
    classes.append(ClassDef(root, "Object", (), (
        MethodDef("base", (), IntLit(1)),
        MethodDef("bump", (), Send(SelfRef(), "base", ())),
    )))
    for i in range(1, depth):
        name = f"L{i}"
        helper_visibility = "protected" if protected_levels else "public"
        methods = (
            MethodDef("helper", (), Send(SelfRef(), "base", ()),
                      visibility=helper_visibility),
            MethodDef("bump", (), Send(Send(SelfRef(), "helper", ()), "+",
                                       (Send(SelfRef(), "base", ()),))),
        )
        classes.append(ClassDef(name, f"L{i - 1}", (), methods))
    leaf = f"L{depth - 1}"
    main: Expr = Let("obj", New(leaf),
                     _repeat_send(Var("obj"), "bump", repeats))
    return Program(tuple(classes), main)


def _repeat_send(receiver: Expr, selector: str, times: int) -> Expr:
    body: Expr = Send(receiver, selector, ())
    for i in range(times - 1):
        body = Let(f"_s{i}", Send(receiver, selector, ()), body)
    return body
