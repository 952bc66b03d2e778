"""Wall-clock micro-benchmarking of compiled images.

A benchmark repeats whole evaluations: each invocation compiles nothing and
shares nothing with the others; within an invocation a fixed number of
iterations run the image's main expression, and the first few iterations are
discarded as warm-up. Reports carry the raw samples plus median and mean, and
can state their median relative to a named baseline report.

Workload builders produce send-heavy programs whose main expression is the
same block of sends replicated a configurable number of times, so per-
iteration work is meaningful without relying on in-language loops.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

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
    label: str = "normal"
    mode: CompileMode = CompileMode.NORMAL
    global_cache_on: bool = True
    inline_cache_on: bool = True
    invocations: int = 10
    iterations: int = 15
    warmup: int = 5
    fuel: int = BENCH_FUEL


@dataclass
class BenchReport:
    label: str
    invocations: int
    iterations: int
    warmup: int
    samples: list[float]  # post-warm-up iteration times, seconds
    median: float
    mean: float
    cache_stats: CacheStats
    relative_overhead: float | None = None
    per_invocation: list[list[float]] = field(default_factory=list)

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


class _Measurement:
    """The invocations of one configuration, run one at a time."""

    def __init__(self, program: Program, config: BenchConfig):
        if config.iterations <= 0 or config.invocations <= 0:
            raise BenchConfigError("benchmark needs at least one invocation "
                                   "and one iteration")
        if config.warmup < 0:
            raise BenchConfigError(
                f"warm-up cannot be negative ({config.warmup})")
        if config.iterations <= config.warmup:
            raise BenchConfigError(
                f"{config.iterations} iteration(s) leave nothing after "
                f"{config.warmup} warm-up discard(s)")
        self.config = config
        self.image = compile_program(program, config.mode)
        self.samples: list[float] = []
        self.per_invocation: list[list[float]] = []
        self.last_stats: CacheStats | None = None

    def invoke(self) -> None:
        config = self.config
        times: list[float] = []
        for _ in range(config.iterations):
            start = time.perf_counter()
            result = run_image(self.image,
                               global_cache_on=config.global_cache_on,
                               inline_cache_on=config.inline_cache_on,
                               fuel=config.fuel)
            times.append(time.perf_counter() - start)
            if not isinstance(result.outcome, Completed):
                raise BenchConfigError(
                    f"benchmark run did not complete: {result.outcome!r}")
            self.last_stats = result.stats
        self.per_invocation.append(times)
        self.samples.extend(times[config.warmup:])

    def report(self) -> BenchReport:
        config = self.config
        return BenchReport(
            label=config.label,
            invocations=config.invocations,
            iterations=config.iterations,
            warmup=config.warmup,
            samples=self.samples,
            median=statistics.median(self.samples),
            mean=statistics.fmean(self.samples),
            cache_stats=self.last_stats or CacheStats(),
            per_invocation=self.per_invocation,
        )


def bench(program: Program,
          config: BenchConfig = BenchConfig()) -> BenchReport:
    """Measure one cache/compile configuration over a program.

    Raises BenchConfigError for an empty iteration budget or a workload that
    cannot finish (fuel exhaustion is a failed benchmark, not a sample).
    """
    measurement = _Measurement(program, config)
    for _ in range(config.invocations):
        measurement.invoke()
    return measurement.report()


def bench_pair(program: Program, baseline: BenchConfig,
               config: BenchConfig) -> tuple[BenchReport, BenchReport]:
    """Measure ``config`` against ``baseline``, invocations alternated.

    Invocations run baseline, config, baseline, config, ..., so a burst of
    contention on the machine falls on both sides alike instead of on one
    side's block. The second report carries its median's overhead relative
    to the baseline's. Raises BenchConfigError as ``bench`` does.
    """
    measurements = (_Measurement(program, baseline),
                    _Measurement(program, config))
    for i in range(max(baseline.invocations, config.invocations)):
        for measurement in measurements:
            if i < measurement.config.invocations:
                measurement.invoke()
    base_report, report = (m.report() for m in measurements)
    report.relative_overhead = report.median / base_report.median - 1.0
    return base_report, report


# --- workloads ------------------------------------------------------------------


def repeat_main(program: Program, times: int) -> Program:
    """Replicate the main expression ``times`` times via let-sequencing.

    Keep ``times`` modest (a few hundred); each replica nests one binding.
    """
    if times < 1:
        raise BenchConfigError("replication factor must be positive")
    body: Expr = program.main
    for i in range(times - 1):
        body = Let(f"_r{i}", program.main, body)
    return Program(program.classes, body)


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
