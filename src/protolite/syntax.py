"""Abstract syntax for the protected-method language.

A program is an ordered list of class definitions plus a main expression.
Classes single-inherit from ``Object``, the built-in empty root. Methods are
public unless marked protected. Values are nil, object references, and
integers; ``+`` on integers is the only primitive message.

Identifiers beginning with ``__`` are reserved for the compiler's selector
mangling and are rejected in source.

Nodes are never changed after they are built: lowered code, installs and the
evaluators share subtrees freely. This holds by convention, and
``tests/test_immutability.py`` checks it. The nodes are slotted dataclasses,
not frozen ones, because a frozen dataclass stores each field through
``object.__setattr__`` and costs about three times as much to build. Equality
is by value; the nodes are not hashable.
"""

from __future__ import annotations

from dataclasses import dataclass

MANGLE_PREFIX = "__"
ROOT_CLASS = "Object"

PUBLIC = "public"
PROTECTED = "protected"


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(slots=True)
class New(Expr):
    class_name: str


@dataclass(slots=True)
class Var(Expr):
    name: str


@dataclass(slots=True)
class SelfRef(Expr):
    pass


@dataclass(slots=True)
class NilLit(Expr):
    pass


@dataclass(slots=True)
class IntLit(Expr):
    value: int


@dataclass(slots=True)
class FieldGet(Expr):
    field: str


@dataclass(slots=True)
class FieldSet(Expr):
    field: str
    value: Expr


@dataclass(slots=True)
class Send(Expr):
    receiver: Expr
    selector: str
    args: tuple[Expr, ...] = ()


@dataclass(slots=True)
class SuperSend(Expr):
    selector: str
    args: tuple[Expr, ...] = ()


@dataclass(slots=True)
class Let(Expr):
    var: str
    bound: Expr
    body: Expr


@dataclass(slots=True)
class MethodDef:
    selector: str
    params: tuple[str, ...]
    body: Expr
    visibility: str = PUBLIC

    @property
    def is_protected(self) -> bool:
        return self.visibility == PROTECTED


@dataclass(slots=True)
class ClassDef:
    name: str
    superclass: str
    fields: tuple[str, ...] = ()
    methods: tuple[MethodDef, ...] = ()

    def method_named(self, selector: str) -> MethodDef | None:
        for m in self.methods:
            if m.selector == selector:
                return m
        return None


@dataclass(slots=True)
class Program:
    classes: tuple[ClassDef, ...]
    main: Expr


# --- pretty printing ------------------------------------------------------
#
# Precedence levels: assignment/let < sum < postfix send < atoms. The printer
# emits source that re-parses to the same Program, provided identifier
# resolution is unambiguous (no let/param name shadows a visible field).

_PREC_EXPR = 0
_PREC_SUM = 1
_PREC_POSTFIX = 2


def pretty_expr(e: Expr, prec: int = _PREC_EXPR) -> str:
    if isinstance(e, New):
        s = f"new {e.class_name}"
        return f"({s})" if prec >= _PREC_SUM else s
    if isinstance(e, (Var, FieldGet)):
        return e.name if isinstance(e, Var) else e.field
    if isinstance(e, SelfRef):
        return "self"
    if isinstance(e, NilLit):
        return "nil"
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, FieldSet):
        s = f"{e.field} := {pretty_expr(e.value, _PREC_EXPR)}"
        return f"({s})" if prec > _PREC_EXPR else s
    if isinstance(e, Send):
        if e.selector == "+" and len(e.args) == 1:
            s = f"{pretty_expr(e.receiver, _PREC_SUM)} + {pretty_expr(e.args[0], _PREC_POSTFIX)}"
            return f"({s})" if prec > _PREC_SUM else s
        args = ", ".join(pretty_expr(a, _PREC_EXPR) for a in e.args)
        return f"{pretty_expr(e.receiver, _PREC_POSTFIX)}.{e.selector}({args})"
    if isinstance(e, SuperSend):
        args = ", ".join(pretty_expr(a, _PREC_EXPR) for a in e.args)
        return f"super.{e.selector}({args})"
    if isinstance(e, Let):
        s = (
            f"let {e.var} = {pretty_expr(e.bound, _PREC_EXPR)} "
            f"in {pretty_expr(e.body, _PREC_EXPR)}"
        )
        return f"({s})" if prec > _PREC_EXPR else s
    raise TypeError(f"not an expression: {e!r}")


def pretty_method(m: MethodDef, indent: str = "  ") -> str:
    kw = "protected method" if m.is_protected else "method"
    params = ", ".join(m.params)
    return f"{indent}{kw} {m.selector}({params}) {{ {pretty_expr(m.body)} }}"


def pretty_program(p: Program) -> str:
    out: list[str] = []
    for c in p.classes:
        out.append(f"class {c.name} extends {c.superclass} {{")
        if c.fields:
            out.append(f"  fields: {' '.join(c.fields)};")
        for m in c.methods:
            out.append(pretty_method(m))
        out.append("}")
        out.append("")
    out.append(f"main {{ {pretty_expr(p.main)} }}")
    return "\n".join(out) + "\n"


def self_and_super_selectors(e: Expr) -> tuple[set[str], set[str]]:
    """Selectors sent through self, and those sent through super, anywhere in
    an expression."""
    through_self: set[str] = set()
    through_super: set[str] = set()

    def walk(node: Expr) -> None:
        if isinstance(node, Send):
            if isinstance(node.receiver, SelfRef):
                through_self.add(node.selector)
            walk(node.receiver)
            for a in node.args:
                walk(a)
        elif isinstance(node, SuperSend):
            through_super.add(node.selector)
            for a in node.args:
                walk(a)
        elif isinstance(node, FieldSet):
            walk(node.value)
        elif isinstance(node, Let):
            walk(node.bound)
            walk(node.body)

    walk(e)
    return through_self, through_super
