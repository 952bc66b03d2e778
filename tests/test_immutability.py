"""No phase changes the program it is given or the image it reads, and no
phase leaves work for the cyclic garbage collector.

Syntax and lowered-code nodes are slotted, non-frozen dataclasses (see the
``syntax`` module docstring), so nothing stops a phase from assigning to a
node's field. These tests stand in for that guard: they snapshot a program
and its images, run every phase over them, and compare. A program keeps its
hierarchy index, so a reference back from the index, or any other cycle a
phase builds, would keep every parsed program alive until a collection; the
garbage tests run the pipeline with the collector off and count what it
finds.
"""

import copy
import gc

import pytest

from perfbench.workloads import compile_large, dispatch_mega, dispatch_mono
from protolite.compiler import (
    CompileMode,
    compile_program,
    desugar_dump,
    install_method,
)
from protolite.generator import generate_program
from protolite.metrics import differential_run
from protolite.parser import parse
from protolite.reference import eval_program
from protolite.syntax import IntLit, MethodDef, Send, SelfRef, pretty_program
from protolite.validate import validate

from tests.conftest import PROGRAMS
from tests.oracles import image_fingerprint, run_all_configs

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
    eval_program(program, fuel=FUEL)
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


def _pipeline(source, installs=None):
    """Every phase, from the source text: parse, validate, compile in every
    mode, installs, runs in every cache configuration, the reference
    evaluator and a differential run."""
    program = parse(source)
    if installs is None:
        installs = _generated_installs(program)
    assert validate(program) == []
    for mode in CompileMode:
        image = compile_program(program, mode)
        for class_name, mdef in installs:
            image = install_method(image, class_name, mdef)
        run_all_configs(image, fuel=FUEL)
    eval_program(program, fuel=FUEL)
    differential_run(program, fuel=FUEL)


def _assert_no_cyclic_garbage(source, installs=None):
    # Frozen objects are never scanned, so the count covers only what the
    # pipeline built, without first collecting the whole test session's heap.
    gc.freeze()
    gc.disable()
    try:
        _pipeline(source, installs)
        assert gc.collect() == 0
    finally:
        gc.enable()
        gc.unfreeze()


@pytest.mark.parametrize("seed", range(200))
def test_no_cyclic_garbage_from_a_generated_program(seed):
    _assert_no_cyclic_garbage(pretty_program(generate_program(seed)))


@pytest.mark.parametrize("name", GOLDEN)
def test_no_cyclic_garbage_from_a_golden_program(name):
    _assert_no_cyclic_garbage((PROGRAMS / name).read_text())


@pytest.mark.parametrize("pool", sorted(POOLS))
def test_no_cyclic_garbage_from_a_pipeline_program(pool):
    head = POOLS[pool](1)[0]
    _assert_no_cyclic_garbage(head.source, head.installs or None)
