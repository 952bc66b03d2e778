"""What the compiler and the runtime make of a fixed corpus, pinned by digest.

Four SHA-256 digests cover everything a change to lowering could alter:

* the ``desugar_dump`` of every ``programs/*.stl`` in every compile mode,
  straight after the compile and after ``late_install.stl`` gains the
  protected ``unknown`` on ``Box`` (criterion 9's install);
* the ``desugar_dump`` of generator seeds 0..299, with and without
  protected methods, in every compile mode: their sends nest receivers and
  arguments that both hold sends, so every site a dump prints is checked
  against its own send;
* every run's outcome, step count, cache statistics and polymorphic sites,
  over the same files and generator seeds 0..299, in every compile mode and
  cache configuration;
* the code array of every compiled body and of main, over the same files
  (with criterion 9's install) and both generator configs in every compile
  mode: each instruction, with a site given as its id and the selector it
  dispatches through, the parameter count and the let padding, so a change
  to let slots or padding shows even when no outcome moves.

Symbol ids feed the global cache's hash and site ids order ``sites()``, so
a change that renumbers either shows here even when every outcome agrees.
Sites are numbered, and send selectors interned, as bodies are first
lowered: in a run, in the order it reaches them; in the code digest, in the
order it lists the bodies.
"""

import hashlib
import json

from protolite.compiler import CompileMode, SendSite, compile_program, \
    desugar_dump, install_method
from protolite.errors import ProgramInvalidError
from protolite.generator import GeneratorConfig, generate_program
from protolite.metrics import DIFF_FUEL
from protolite.parser import parse
from protolite.runtime import Interpreter, _code_of
from protolite.syntax import MethodDef, Send, SelfRef

from tests.conftest import PROGRAMS

DUMP_DIGEST = \
    "a0f32b9126e8e6f0f1d4441444a9d5fe88ee648f988acf777b18aba43cfa9cf4"
RUN_DIGEST = \
    "b1ed18f7b03380b993b98b3a3f7493e0431113e36138c792c0c198502cdb5d97"
GENERATED_DUMP_DIGEST = \
    "20de0cc57970e6bd4eed18c71568a199c109a0ef8c86dd46ce6611e02cdb5d78"

CODE_DIGEST = \
    "b25a3801ab873a419580f0dd8bbd46d65ac6987e3f28c56728f36cf0303749b0"

SEEDS = range(300)
CACHE_CONFIGS = ((False, False), (False, True), (True, False), (True, True))
LATE_UNKNOWN = MethodDef("unknown", (), Send(SelfRef(), "seed", ()),
                         visibility="protected")


def _sources():
    return sorted(PROGRAMS.glob("*.stl"))


def _compile(program, mode):
    try:
        return compile_program(program, mode), ""
    except ProgramInvalidError as err:
        return None, "invalid: " + "; ".join(map(str, err.violations))


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def dump_lines():
    for path in _sources():
        for mode in CompileMode:
            image, error = _compile(parse(path.read_text()), mode)
            yield f"== {path.name} {mode.value}\n{error or desugar_dump(image)}"
            if path.name == "late_install.stl":
                grown = install_method(image, "Box", LATE_UNKNOWN)
                yield f"== {path.name} {mode.value} +unknown\n" \
                      f"{desugar_dump(grown)}"


def generated_dump_lines():
    for config in (GeneratorConfig(), GeneratorConfig(allow_protected=False)):
        for seed in SEEDS:
            program = generate_program(seed, config)
            for mode in CompileMode:
                yield f"== seed {seed} {config.allow_protected} {mode.value}\n" \
                      f"{desugar_dump(compile_program(program, mode))}"


def run_lines():
    programs = [(path.name, parse(path.read_text())) for path in _sources()]
    programs += [(f"seed {s}", generate_program(s)) for s in SEEDS]
    for name, program in programs:
        for mode in CompileMode:
            image, error = _compile(program, mode)
            if image is None:
                yield f"{name} {mode.value} {error}"
                continue
            for global_cache_on, inline_cache_on in CACHE_CONFIGS:
                interp = Interpreter(image, global_cache_on=global_cache_on,
                                     inline_cache_on=inline_cache_on,
                                     fuel=DIFF_FUEL)
                result = interp.run()
                yield json.dumps([
                    name, mode.value, global_cache_on, inline_cache_on,
                    repr(result.outcome), result.steps,
                    result.stats.to_json(), interp.sites()])


def _code_text(code) -> str:
    instructions, nparams, padding = code
    return repr(([(op, (a.site_id, a.selector.text) if isinstance(a, SendSite)
                   else a, b) for op, a, b in instructions],
                 nparams, len(padding)))


def _image_code_lines(image):
    for name in sorted(image.classes):
        entries = sorted(image.classes[name].dictionary.items(),
                         key=lambda e: e[0].text)
        for cm in dict.fromkeys(cm for _, cm in entries):
            yield f"{name}#{cm.selector.text} " + _code_text(_code_of(cm))
    yield "main " + _code_text(_code_of(image.main))


def code_lines():
    for path in _sources():
        for mode in CompileMode:
            image, error = _compile(parse(path.read_text()), mode)
            yield f"== {path.name} {mode.value} {error}"
            if image is None:
                continue
            yield from _image_code_lines(image)
            if path.name == "late_install.stl":
                yield f"== {path.name} {mode.value} +unknown"
                yield from _image_code_lines(
                    install_method(image, "Box", LATE_UNKNOWN))
    for config in (GeneratorConfig(), GeneratorConfig(allow_protected=False)):
        for seed in SEEDS:
            program = generate_program(seed, config)
            for mode in CompileMode:
                yield f"== seed {seed} {config.allow_protected} {mode.value}"
                yield from _image_code_lines(compile_program(program, mode))


def test_desugar_dumps_are_pinned():
    assert _digest(dump_lines()) == DUMP_DIGEST


def test_generated_dumps_are_pinned():
    assert _digest(generated_dump_lines()) == GENERATED_DUMP_DIGEST


def test_runs_are_pinned():
    assert _digest(run_lines()) == RUN_DIGEST


def test_code_arrays_are_pinned():
    assert _digest(code_lines()) == CODE_DIGEST
