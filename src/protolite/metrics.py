"""Memory accounting for images and differential testing of the evaluators.

Dictionary-entry and symbol counts are exact; the byte figures use a fixed
linear model (16 bytes per dictionary entry, 24 bytes plus text length per
symbol) and exist purely to make reports readable. Every check that matters
is expressed over counts.

An image that uses protection pays, per in-scope class, exactly
``2 * |public| + |protected|`` dictionary entries, and one extra mangled
symbol per distinct selector installed in scope; double registration never
adds compiled methods.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compiler import (
    CompileMode,
    RuntimeImage,
    compile_program,
)
from .outcomes import Outcome
from .reference import eval_program
from .runtime import RunResult, run_image
from .syntax import Program

ENTRY_BYTES = 16
SYMBOL_HEADER_BYTES = 24

DIFF_FUEL = 3_000


@dataclass(frozen=True)
class MemoryReport:
    per_class_entries: dict[str, int]
    total_entries: int
    plain_symbols: int
    mangled_symbols: int
    compiled_methods: int
    estimated_bytes: int

    @property
    def total_symbols(self) -> int:
        return self.plain_symbols + self.mangled_symbols

    def to_json(self) -> dict:
        return {
            "perClassEntries": dict(sorted(self.per_class_entries.items())),
            "totalEntries": self.total_entries,
            "plainSymbols": self.plain_symbols,
            "mangledSymbols": self.mangled_symbols,
            "compiledMethods": self.compiled_methods,
            "estimatedBytes": self.estimated_bytes,
        }


def measure_image(image: RuntimeImage) -> MemoryReport:
    """Exact entry/symbol/method counts plus the modelled byte estimate."""
    per_class = {name: len(icls.dictionary)
                 for name, icls in image.classes.items()}
    total = sum(per_class.values())
    plain = mangled = 0
    symbol_bytes = 0
    for sym in image.symbols.symbols():
        if sym.mangled:
            mangled += 1
        else:
            plain += 1
        symbol_bytes += SYMBOL_HEADER_BYTES + len(sym.text)
    methods = {id(cm) for icls in image.classes.values()
               for cm in icls.dictionary.values()}
    return MemoryReport(
        per_class_entries=per_class,
        total_entries=total,
        plain_symbols=plain,
        mangled_symbols=mangled,
        compiled_methods=len(methods),
        estimated_bytes=total * ENTRY_BYTES + symbol_bytes,
    )


@dataclass(frozen=True)
class OverheadRatios:
    """Worst-case versus mangling-free count ratios for one program."""

    entries: float
    symbols: float
    estimated_bytes: float

    def to_json(self) -> dict:
        return {
            "entries": round(self.entries, 4),
            "symbols": round(self.symbols, 4),
            "estimatedBytes": round(self.estimated_bytes, 4),
        }


def worst_case_ratios(program: Program) -> OverheadRatios:
    base = measure_image(compile_program(program, CompileMode.BASELINE))
    worst = measure_image(compile_program(program, CompileMode.WORST_CASE))

    def ratio(a: int, b: int) -> float:
        return a / b if b else 1.0

    return OverheadRatios(
        entries=ratio(worst.total_entries, base.total_entries),
        symbols=ratio(worst.total_symbols, base.total_symbols),
        estimated_bytes=ratio(worst.estimated_bytes, base.estimated_bytes),
    )


# --- differential testing ------------------------------------------------------


@dataclass(frozen=True)
class DiffResult:
    program_id: str
    reference_outcome: Outcome
    runtime_outcome: Outcome
    agree: bool
    detail: str = ""
    reference_steps: int = 0
    runtime_steps: int = 0


def differential_run(program: Program, fuel: int = DIFF_FUEL,
                     program_id: str = "") -> DiffResult:
    """Run the reference evaluator and the compiled runtime; compare them.

    The runtime runs with both caches enabled and a shadow uncached lookup
    asserting that every cached resolution matches the plain chain walk.
    Mangled selectors never leak into runtime error reasons, and both sides
    account steps event for event, so the two agree when their outcomes are
    equal and so are their step counts. The compile comes first, so an
    invalid program raises ProgramInvalidError before either side runs.
    """
    image = compile_program(program)
    ref = eval_program(program, fuel, image.idx)
    run = run_image(image, fuel=fuel, shadow_lookup_check=True)
    detail = ""
    if ref.outcome != run.outcome:
        detail = (f"reference={ref.outcome!r} runtime={run.outcome!r}; "
                  f"steps {ref.steps}/{run.steps}")
    elif ref.steps != run.steps:
        detail = (f"step mismatch: reference {ref.steps}, runtime "
                  f"{run.steps}; both {ref.outcome!r}")
    agree = not detail
    return DiffResult(
        program_id=program_id,
        reference_outcome=ref.outcome,
        runtime_outcome=run.outcome,
        agree=agree,
        detail=detail,
        reference_steps=ref.steps,
        runtime_steps=run.steps,
    )


def image_fingerprint(image: RuntimeImage) -> dict:
    """Canonical structure of an image's dictionaries, for equality checks.

    Lowered bodies compare as they are: their equality ignores site ids and
    the sites' Symbols (each image interns its own), and compares the
    dispatch text on each send node.
    """
    out: dict = {}
    for name in sorted(image.classes):
        icls = image.classes[name]
        entries = {}
        for sym in sorted(icls.dictionary, key=lambda s: s.text):
            cm = icls.dictionary[sym]
            entries[sym.text] = (
                cm.origin_class, cm.selector.text, cm.visibility,
                cm.params, cm.body,
            )
        out[name] = entries
    return out


def images_equal(a: RuntimeImage, b: RuntimeImage) -> bool:
    return image_fingerprint(a) == image_fingerprint(b)


@dataclass(frozen=True)
class ThreeWayResult:
    diff: DiffResult
    baseline_outcome: Outcome
    baseline_agrees: bool
    dictionaries_equal: bool


def protected_free_three_way(program: Program,
                             fuel: int = DIFF_FUEL,
                             program_id: str = "") -> ThreeWayResult:
    """For a program without protected methods, the mangling-free compile and
    the regular compile must produce identical images and identical runs."""
    diff = differential_run(program, fuel, program_id)
    normal = compile_program(program)
    baseline = compile_program(program, CompileMode.BASELINE)
    base_run = run_image(baseline, fuel=fuel)
    return ThreeWayResult(
        diff=diff,
        baseline_outcome=base_run.outcome,
        baseline_agrees=base_run.outcome == diff.reference_outcome,
        dictionaries_equal=images_equal(normal, baseline),
    )


def run_all_configs(image: RuntimeImage, fuel: int = DIFF_FUEL) -> list[RunResult]:
    """One run per cache configuration, in a fixed order."""
    return [
        run_image(image, global_cache_on=g, inline_cache_on=i, fuel=fuel)
        for g in (False, True) for i in (False, True)
    ]


__all__ = [
    "DIFF_FUEL",
    "DiffResult",
    "MemoryReport",
    "OverheadRatios",
    "ThreeWayResult",
    "differential_run",
    "image_fingerprint",
    "images_equal",
    "measure_image",
    "protected_free_three_way",
    "run_all_configs",
    "worst_case_ratios",
]
