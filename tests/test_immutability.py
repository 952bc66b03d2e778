"""No phase changes the program it is given or the image it reads.

Syntax and lowered-code nodes are slotted, non-frozen dataclasses (see the
``syntax`` module docstring), so nothing stops a phase from assigning to a
node's field. These tests stand in for that guard: they snapshot a program
and its images, run every phase over them, and compare.
"""

import copy

import pytest

from perfbench.workloads import compile_large, dispatch_mega, dispatch_mono
from protolite.compiler import (
    CompileMode,
    compile_program,
    desugar_dump,
    install_method,
)
from protolite.generator import generate_program
from protolite.metrics import differential_run, image_fingerprint, run_all_configs
from protolite.parser import parse
from protolite.reference import eval_program
from protolite.syntax import IntLit, MethodDef, Send, SelfRef

from tests.conftest import PROGRAMS

# Enough steps to run every phase's node-reading paths; fuel exhaustion is as
# good an outcome as any here.
FUEL = 500


def _generated_installs(program):
    """A protected method on the last class, then a public one there that
    self-sends it."""
    if not program.classes:
        return ()
    target = program.classes[-1].name
    return (
        (target, MethodDef("freshHook", (), IntLit(1), "protected")),
        (target, MethodDef("freshCall", (), Send(SelfRef(), "freshHook", ()))),
    )


POOLS = {build.__name__: build
         for build in (dispatch_mono, dispatch_mega, compile_large)}
GOLDEN = sorted(path.name for path in PROGRAMS.glob("golden_*.stl"))


def _image_snapshot(image):
    return image_fingerprint(image), desugar_dump(image)


def _check(program, installs=None):
    if installs is None:
        installs = _generated_installs(program)
    snapshot = copy.deepcopy(program)
    # Compiled from the copy, these images share no node with the ones the
    # phases below read, so their fingerprints are the "before" values.
    before = [_image_snapshot(compile_program(snapshot, mode))
              for mode in CompileMode]
    images = [compile_program(program, mode) for mode in CompileMode]
    assert [_image_snapshot(image) for image in images] == before
    for image in images:
        grown = image
        for class_name, mdef in installs:
            grown = install_method(grown, class_name, mdef)
        for target in (image, grown):
            run_all_configs(target, fuel=FUEL)
            desugar_dump(target)
    eval_program(program, fuel=FUEL, idx=images[0].idx)
    differential_run(program, fuel=FUEL)
    assert program == snapshot
    assert [_image_snapshot(image) for image in images] == before


@pytest.mark.parametrize("seed", range(200))
def test_no_phase_mutates_a_generated_program(seed):
    _check(generate_program(seed))


@pytest.mark.parametrize("name", GOLDEN)
def test_no_phase_mutates_a_golden_program(name):
    _check(parse((PROGRAMS / name).read_text()))


@pytest.mark.parametrize("pool", sorted(POOLS))
def test_no_phase_mutates_a_pipeline_program(pool):
    head = POOLS[pool](1)[0]
    _check(parse(head.source), head.installs or None)
