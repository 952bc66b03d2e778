"""Run-time values: nil, object references, and machine integers.

Both evaluators produce these, so outcome comparison is plain equality.
"""

from __future__ import annotations

from dataclasses import dataclass


class Value:
    __slots__ = ()


@dataclass(frozen=True)
class Nil(Value):
    def __repr__(self) -> str:
        return "nil"


@dataclass(frozen=True)
class Oid(Value):
    """Reference to an allocated object; oids are never reused within a run."""

    oid: int

    def __repr__(self) -> str:
        return f"oid({self.oid})"


@dataclass(frozen=True, slots=True)
class IntVal(Value):
    n: int

    def __repr__(self) -> str:
        return f"int({self.n})"


NIL = Nil()

# Pseudo class name used in diagnostics for integer receivers.
INT_CLASS = "Integer"


def render_value(v: Value, class_of=None) -> str:
    """Human-readable form used by the CLI."""
    if isinstance(v, Nil):
        return "nil"
    if isinstance(v, IntVal):
        return str(v.n)
    if isinstance(v, Oid):
        cls = class_of(v.oid) if class_of is not None else None
        return f"<{cls}#{v.oid}>" if cls else f"<object#{v.oid}>"
    raise TypeError(f"not a value: {v!r}")
