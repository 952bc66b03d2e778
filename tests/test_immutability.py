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

The garbage tests are what makes it safe for the entry points to run with
the collector paused (``protolite._collector``): a cycle built inside one,
say once per step, would live until the outermost paused call returns. So
they cover both generator configurations, every stuck reason in both
evaluators (the four the generator never reaches from hand-written
programs), and the entry points that raise.
"""

import contextlib
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
from protolite.generator import GeneratorConfig, generate_program
from protolite.metrics import differential_run
from protolite.parser import parse
from protolite.reference import eval_program
from protolite.outcomes import (
    ArityMismatch,
    Errored,
    UnknownClass,
    UnknownField,
    UnknownVariable,
)
from protolite.syntax import (
    ClassDef,
    FieldGet,
    IntLit,
    MethodDef,
    New,
    Program,
    Send,
    SelfRef,
    pretty_program,
)
from protolite.validate import validate

from tests.conftest import PROGRAMS, RAISING_CALLS
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


@contextlib.contextmanager
def _collector_off_heap_frozen():
    """The collector off and everything allocated so far frozen. Frozen
    objects are never scanned, so a ``gc.collect()`` inside counts only
    what was built since, without first collecting the whole test session's
    heap; and a cycle through an object built before would never be found,
    so what is checked is built inside."""
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def _pipeline_pass(source, installs=None):
    """Every phase, once, from the source text: parse, validate, compile in
    every mode, installs, runs in every cache configuration, the reference
    evaluator and a differential run. ``source`` may instead be a function
    that builds the program, for a program the parser cannot give.

    Returns the checks that failed: ``changed`` names each comparison of a
    program or image with its snapshot that no longer holds, and
    ``garbage`` is what the cyclic collector finds after the pass; with
    them comes the differential run's result, ``diff``. The whole pass,
    comparisons included and the program built, runs inside
    ``_collector_off_heap_frozen``.
    """
    with _collector_off_heap_frozen():
        program = parse(source) if isinstance(source, str) else source()
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
        diff = differential_run(program, fuel=FUEL)
        if program != snapshot:
            changed.append("program")
        if [_image_snapshot(image) for image in images] != before:
            changed.append("images after every phase")
        garbage = gc.collect()
    return SimpleNamespace(changed=changed, garbage=garbage, diff=diff)


def _unknown_field_program():
    # The parser builds only field nodes that resolve, so this one is built
    # by hand: go activates a body that reads a field C lacks.
    cdef = ClassDef("C", "Object", (), (
        MethodDef("m", (), FieldGet("zz")),
        MethodDef("go", (), Send(SelfRef(), "m", ())),
    ))
    return Program((cdef,), Send(New("C"), "go", ()))


# The stuck reasons the generator never reaches, each reached inside a
# method activated by a send, so both evaluators are mid-run when they stop.
STUCK = {
    "ArityMismatch": (
        "class C extends Object { method m(x) { x } method go() { self.m() } }"
        " main { (new C).go() }", ArityMismatch("C", "m", 1, 0)),
    "UnknownVariable": (
        "class C extends Object { method go(x) { let y = x in z } }"
        " main { (new C).go(1) }", UnknownVariable("z")),
    "UnknownClass": (
        "class C extends Object { method go() { new Ghost } }"
        " main { (new C).go() }", UnknownClass("Ghost")),
    "UnknownField": (_unknown_field_program, UnknownField("C", "zz")),
}

def _garbage_after_raise(entry, make_args, error):
    """Whether the entry point raised ``error``, and what the cyclic
    collector finds once the exception is dropped."""
    with _collector_off_heap_frozen():
        try:
            entry(*make_args())
        except error:
            raised = True
        else:
            raised = False
        # The handler has dropped the exception and its traceback.
        return raised, gc.collect()


# Each fixture runs one pass per program; both families read it. Module
# scope makes pytest run the two tests of a program next to each other and
# drop the pass before the next program's.


@pytest.fixture(scope="module", params=range(200))
def generated(request):
    return _pipeline_pass(pretty_program(generate_program(request.param)))


@pytest.fixture(scope="module", params=range(100))
def protected_free(request):
    # perfbench's fuzz_diff mix; half the default config's seeds, to keep
    # the module's time down.
    program = generate_program(request.param,
                               GeneratorConfig(allow_protected=False))
    return _pipeline_pass(pretty_program(program))


@pytest.fixture(scope="module", params=sorted(STUCK))
def stuck(request):
    source, reason = STUCK[request.param]
    result = _pipeline_pass(source)
    result.reason = reason
    return result


@pytest.fixture(scope="module", params=GOLDEN)
def golden(request):
    return _pipeline_pass((PROGRAMS / request.param).read_text())


@pytest.fixture(scope="module", params=sorted(POOLS))
def pooled(request):
    head = POOLS[request.param](1)[0]
    return _pipeline_pass(head.source, head.installs or None)


def test_no_phase_mutates_a_generated_program(generated):
    assert generated.changed == []


def test_no_phase_mutates_a_protected_free_program(protected_free):
    assert protected_free.changed == []


def test_no_phase_mutates_a_stuck_program(stuck):
    assert stuck.changed == []


def test_no_phase_mutates_a_golden_program(golden):
    assert golden.changed == []


def test_no_phase_mutates_a_pipeline_program(pooled):
    assert pooled.changed == []


def test_no_cyclic_garbage_from_a_generated_program(generated):
    assert generated.garbage == 0


def test_no_cyclic_garbage_from_a_protected_free_program(protected_free):
    assert protected_free.garbage == 0


def test_no_cyclic_garbage_from_a_stuck_program(stuck):
    assert stuck.diff.agree, stuck.diff.detail
    assert stuck.diff.reference_outcome == Errored(stuck.reason)
    assert stuck.garbage == 0


@pytest.mark.parametrize("name", RAISING_CALLS)
def test_no_cyclic_garbage_from_an_entry_point_that_raises(name):
    assert _garbage_after_raise(*RAISING_CALLS[name]) == (True, 0)


def test_no_cyclic_garbage_from_a_golden_program(golden):
    assert golden.garbage == 0


def test_no_cyclic_garbage_from_a_pipeline_program(pooled):
    assert pooled.garbage == 0
