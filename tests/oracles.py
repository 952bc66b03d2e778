"""Oracles the tests compare images and runs with.

``image_fingerprint`` is the canonical structure of an image's dictionaries;
``run_all_configs`` runs an image once per cache configuration;
``protected_free_three_way`` checks a program without protected methods three
ways: reference, runtime, and the mangling-free baseline; and ``probe_index``
is the global cache's probe order, which ``cached_lookup`` computes inline.
"""

from __future__ import annotations

from dataclasses import dataclass

from protolite.compiler import CompileMode, RuntimeImage, compile_program, \
    render
from protolite.metrics import DIFF_FUEL, DiffResult, differential_run
from protolite.outcomes import Outcome
from protolite.runtime import GLOBAL_CACHE_SIZE, RunResult, run_image
from protolite.syntax import Program


def image_fingerprint(image: RuntimeImage) -> dict:
    """Canonical structure of an image's dictionaries, for equality checks.

    A compiled method counts as its source body and its text as it
    dispatches (``render``), which interns no symbol and makes no site:
    site ids and Symbols do not count.
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
                render(cm),
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


def _probe_base(class_id: int, symbol_id: int) -> int:
    """The 32-bit hash of a lookup key; its home slot is the hash modulo the
    table size."""
    return ((class_id * 0x9E3779B1) ^ (symbol_id * 0x85EBCA77)) & 0xFFFFFFFF


def probe_index(class_id: int, symbol_id: int, probe: int) -> int:
    """Slot inspected at the given probe (0-based) for a lookup key."""
    return (_probe_base(class_id, symbol_id) + probe) % GLOBAL_CACHE_SIZE
