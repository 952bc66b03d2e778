"""No phase changes the program it is given or the image it reads, and no
phase leaves work for the cyclic garbage collector.

Syntax nodes and send sites are slotted, non-frozen dataclasses (see the
``syntax`` module docstring), so nothing stops a phase from assigning to a
node's field. These tests stand in for that guard: they snapshot a program
and its images, run every phase over them, and compare. A program keeps its
hierarchy index, so a reference back from the index, or any other cycle a
phase builds, would keep every parsed program alive until a collection; the
same pass runs with the collector off, and the garbage tests count what it
finds afterwards.
"""

import copy
import gc
from types import SimpleNamespace

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


def _pipeline_pass(source, installs=None):
    """Every phase, once, from the source text: parse, validate, compile in
    every mode, installs, runs in every cache configuration, the reference
    evaluator and a differential run.

    Returns the checks that failed: ``changed`` names each comparison of a
    program or image with its snapshot that no longer holds, and
    ``garbage`` is what the cyclic collector finds after the pass. The
    whole pass, comparisons included, runs with the collector off; frozen
    objects are never scanned, so the count covers only what the pass
    built, without first collecting the whole test session's heap.
    """
    gc.freeze()
    gc.disable()
    try:
        program = parse(source)
        if installs is None:
            installs = _generated_installs(program)
        assert validate(program) == []
        snapshot = copy.deepcopy(program)
        # Compiled from the copy, these images share no node with the ones
        # the phases below read, so their fingerprints are the "before"
        # values.
        before = [_image_snapshot(compile_program(snapshot, mode))
                  for mode in CompileMode]
        images = [compile_program(program, mode) for mode in CompileMode]
        changed = []
        if [_image_snapshot(image) for image in images] != before:
            changed.append("images after compile")
        for image in images:
            grown = image
            for class_name, mdef in installs:
                grown = install_method(grown, class_name, mdef)
            for target in (image, grown):
                run_all_configs(target, fuel=FUEL)
                desugar_dump(target)
        eval_program(program, fuel=FUEL)
        differential_run(program, fuel=FUEL)
        if program != snapshot:
            changed.append("program")
        if [_image_snapshot(image) for image in images] != before:
            changed.append("images after every phase")
        garbage = gc.collect()
    finally:
        gc.enable()
        gc.unfreeze()
    return SimpleNamespace(changed=changed, garbage=garbage)


# Each fixture runs one pass per program; both families read it. Module
# scope makes pytest run the two tests of a program next to each other and
# drop the pass before the next program's.


@pytest.fixture(scope="module", params=range(200))
def generated(request):
    return _pipeline_pass(pretty_program(generate_program(request.param)))


@pytest.fixture(scope="module", params=GOLDEN)
def golden(request):
    return _pipeline_pass((PROGRAMS / request.param).read_text())


@pytest.fixture(scope="module", params=sorted(POOLS))
def pooled(request):
    head = POOLS[request.param](1)[0]
    return _pipeline_pass(head.source, head.installs or None)


def test_no_phase_mutates_a_generated_program(generated):
    assert generated.changed == []


def test_no_phase_mutates_a_golden_program(golden):
    assert golden.changed == []


def test_no_phase_mutates_a_pipeline_program(pooled):
    assert pooled.changed == []


def test_no_cyclic_garbage_from_a_generated_program(generated):
    assert generated.garbage == 0


def test_no_cyclic_garbage_from_a_golden_program(golden):
    assert golden.garbage == 0


def test_no_cyclic_garbage_from_a_pipeline_program(pooled):
    assert pooled.garbage == 0
