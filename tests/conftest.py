import pathlib

import pytest

from protolite.parser import parse

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"

TWO_LEVEL_SOURCE = (PROGRAMS / "golden_sum.stl").read_text()


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
