"""The entry points run with the cyclic collector paused, and leave its
state as they found it.

``protolite._collector.collector_paused`` turns automatic collection off for
the length of a call to ``parse``, ``validate``, ``compile_program``,
``install_method``, ``Interpreter.run``, ``eval_program``,
``generate_program`` and ``differential_run``, and back on after, also when
the call raises. A caller that has the collector off keeps it off. That the
pause is safe (no phase builds a cycle) is what ``test_immutability``'s
garbage tests show.
"""

import gc
import sys

import pytest

from protolite.compiler import compile_program, install_method
from protolite.generator import GeneratorConfig, generate_program
from protolite.metrics import DIFF_FUEL, differential_run
from protolite.outcomes import FuelExhausted
from protolite.parser import parse
from protolite.reference import eval_program
from protolite.runtime import Interpreter
from protolite.syntax import IntLit, MethodDef
from protolite.validate import validate

from tests.conftest import NARROWED_SOURCE, RAISING_CALLS, SIZED_SOURCE

# id -> (entry point, a function that builds its arguments, the error it
# raises or None).
CALLS = {
    "parse": (parse, lambda: (SIZED_SOURCE,), None),
    "validate": (validate, lambda: (parse(NARROWED_SOURCE),), None),
    "compile_program": (compile_program, lambda: (parse(SIZED_SOURCE),), None),
    "install_method": (
        install_method,
        lambda: (compile_program(parse(SIZED_SOURCE)), "B",
                 MethodDef("twice", (), IntLit(2))),
        None),
    "Interpreter.run": (
        Interpreter.run,
        lambda: (Interpreter(compile_program(parse(SIZED_SOURCE))),), None),
    "eval_program": (eval_program, lambda: (parse(SIZED_SOURCE),), None),
    "generate_program": (generate_program, lambda: (7,), None),
    "differential_run": (
        differential_run, lambda: (parse(SIZED_SOURCE),), None),
    **RAISING_CALLS,
}


@pytest.fixture(autouse=True)
def _collector_back_on():
    # A failing check must not leave the rest of the session without one.
    yield
    gc.enable()


def _call(name):
    """Call the entry point; return ``gc.isenabled()`` at each entry into
    its own body, read by a profile hook."""
    entry, make_args, error = CALLS[name]
    args = make_args()
    body = entry.__wrapped__.__code__
    inside = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code is body:
            inside.append(gc.isenabled())

    sys.setprofile(profile)
    try:
        if error is None:
            entry(*args)
        else:
            with pytest.raises(error):
                entry(*args)
    finally:
        sys.setprofile(None)
    return inside


@pytest.mark.parametrize("name", CALLS)
def test_enabled_collector_is_paused_inside_and_restored(name):
    assert gc.isenabled()
    assert _call(name) == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("name", CALLS)
def test_disabled_collector_stays_disabled(name):
    gc.disable()
    assert _call(name) == [False]
    assert not gc.isenabled()


def test_no_automatic_collection_inside_a_fuel_exhausting_differential_run():
    # fuzz_diff's mix. With the collector running, this run sets off 30
    # automatic collections; every one walks acyclic trees and frees nothing.
    program = generate_program(3000145, GeneratorConfig(allow_protected=False))
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(hook)
    try:
        diff = differential_run(program, DIFF_FUEL)
    finally:
        gc.callbacks.remove(hook)
    assert diff.agree
    assert diff.reference_outcome == FuelExhausted()
    assert started == []
