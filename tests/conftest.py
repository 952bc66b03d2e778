import pathlib

import pytest

from protolite.compiler import compile_program, install_method
from protolite.errors import ParseError, ProgramInvalidError, UnknownClassError
from protolite.parser import parse
from protolite.syntax import MethodDef, SelfRef

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"

TWO_LEVEL_SOURCE = (PROGRAMS / "golden_sum.stl").read_text()

SIZED_SOURCE = """
    class A extends Object { method size() { 100 } }
    class B extends A { }
    main { (new B).size() }
"""
NARROWED_SOURCE = (PROGRAMS / "narrowing_rejected.stl").read_text()
NARROWING = MethodDef("size", (), SelfRef(), visibility="protected")

# The entry-point calls that raise: id -> (entry point, a function that
# builds its arguments, the error).
RAISING_CALLS = {
    "parse-truncated": (
        parse, lambda: ("class A extends Object { method m() { 1 ",),
        ParseError),
    "compile_program-invalid": (
        compile_program, lambda: (parse(NARROWED_SOURCE),),
        ProgramInvalidError),
    "install_method-narrowing": (
        install_method,
        lambda: (compile_program(parse(SIZED_SOURCE)), "B", NARROWING),
        ProgramInvalidError),
    "install_method-unknown-class": (
        install_method,
        lambda: (compile_program(parse(SIZED_SOURCE)), "Ghost", NARROWING),
        UnknownClassError),
}


@pytest.fixture(scope="session")
def programs_dir() -> pathlib.Path:
    return PROGRAMS


@pytest.fixture()
def two_level_program():
    """Hierarchy A < B covering every visibility scenario; main runs sum."""
    return parse(TWO_LEVEL_SOURCE)


def program_path(name: str) -> str:
    return str(PROGRAMS / name)


def visibility(rel, class_name, selector):
    """Visibility of a class's own definition of ``selector``, or None."""
    cdef = rel.by_name.get(class_name)
    m = cdef.method_named(selector) if cdef is not None else None
    return m.visibility if m is not None else None


def methods_with(cdef, visibility_):
    """A class definition's own methods of one visibility, in order."""
    return tuple(m for m in cdef.methods if m.visibility == visibility_)
