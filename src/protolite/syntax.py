"""Abstract syntax for the protected-method language.

A program is an ordered list of class definitions plus a main expression.
Classes single-inherit from ``Object``, the built-in empty root. Methods are
public unless marked protected. Values are nil, object references, and
integers; ``+`` on integers is the only primitive message.

Identifiers beginning with ``__`` are reserved for the compiler's selector
mangling and are rejected in source.

Nodes are never changed after they are built: compiled methods, installs and
the evaluators share subtrees freely. This holds by convention, and
``tests/test_immutability.py`` checks it, with three exceptions: the parser
resolves identifiers in the nodes it built, in place, before ``parse``
returns; ``Program.index`` is set once, by ``validate.index_of``, by the
install that built the program, or by ``bench.repeat_main``, which shares its
source program's; and ``Program.valid`` is set by ``validate`` or by the
install whose checks passed. The nodes are slotted dataclasses, not frozen
ones, because a frozen dataclass stores each field through
``object.__setattr__`` and costs about three times as much to build.
Equality is by value; the nodes are not hashable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from .validate import HierarchyIndex

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
    # Never passed in, so a rebuilt program starts without a stale index
    # and unverified.
    index: HierarchyIndex | None = field(default=None, init=False,
                                         compare=False, repr=False)
    # True once the rules of ``validate`` have passed on these classes.
    valid: bool = field(default=False, init=False, compare=False, repr=False)


# --- pretty printing ------------------------------------------------------
#
# Precedence levels: assignment/let < sum < postfix send < atoms. Each node
# prints at the highest level it takes without parentheses, and its parent
# parenthesizes it when the context needs a higher one. The printer emits
# source that re-parses to the same Program, provided identifier resolution
# is unambiguous (no let/param name shadows a visible field).

_PREC_EXPR = 0
_PREC_SUM = 1
_PREC_POSTFIX = 2


def pretty_expr(e: Expr,
                dispatch: Callable[[Send | SuperSend], str] | None = None
                ) -> str:
    """Source text of an expression.

    ``dispatch``, when given, maps each send node to the selector it prints
    in place of its source selector.
    """
    return _pretty(e, dispatch)[0]


def _wrap(printed: tuple[str, int], prec: int) -> str:
    text, level = printed
    return text if level >= prec else f"({text})"


def _pretty(e: Expr, dispatch: Callable[[Send | SuperSend], str] | None
            ) -> tuple[str, int]:
    if isinstance(e, (Var, FieldGet)):
        return (e.name if isinstance(e, Var) else e.field), _PREC_POSTFIX
    if isinstance(e, (SelfRef, NilLit, IntLit)):
        return ("self" if isinstance(e, SelfRef) else "nil"
                if isinstance(e, NilLit) else str(e.value)), _PREC_POSTFIX
    if isinstance(e, New):
        return f"new {e.class_name}", _PREC_EXPR
    if isinstance(e, FieldSet):
        return f"{e.field} := {_pretty(e.value, dispatch)[0]}", _PREC_EXPR
    if isinstance(e, Let):
        return (f"let {e.var} = {_pretty(e.bound, dispatch)[0]} "
                f"in {_pretty(e.body, dispatch)[0]}"), _PREC_EXPR
    if not isinstance(e, (Send, SuperSend)):
        raise TypeError(f"not an expression: {e!r}")
    receiver = (_pretty(e.receiver, dispatch) if isinstance(e, Send)
                else ("super", _PREC_POSTFIX))
    args = [_pretty(a, dispatch) for a in e.args]
    selector = e.selector if dispatch is None else dispatch(e)
    if selector == "+" and len(args) == 1 and isinstance(e, Send):
        return (f"{_wrap(receiver, _PREC_SUM)} + "
                f"{_wrap(args[0], _PREC_POSTFIX)}"), _PREC_SUM
    args_text = ", ".join(text for text, _ in args)
    return f"{_wrap(receiver, _PREC_POSTFIX)}.{selector}({args_text})", \
        _PREC_POSTFIX


def pretty_method(m: MethodDef, indent: str = "  ") -> str:
    kw = "protected method" if m.visibility == PROTECTED else "method"
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


def self_and_super_sends(e: Expr) -> list[Send | SuperSend]:
    """Every send through self or super anywhere in an expression, one per
    send node."""
    sends: list[Send | SuperSend] = []
    stack = [e]
    while stack:
        node = stack.pop()
        kind = node.__class__
        if kind is Send:
            if node.receiver.__class__ is SelfRef:
                sends.append(node)
            stack += (node.receiver, *node.args)
        elif kind is SuperSend:
            sends.append(node)
            stack += node.args
        elif kind is FieldSet:
            stack.append(node.value)
        elif kind is Let:
            stack += (node.bound, node.body)
    return sends


def self_and_super_selectors(e: Expr) -> tuple[set[str], set[str]]:
    """Selectors sent through self, and those sent through super, anywhere in
    an expression."""
    through_self: set[str] = set()
    through_super: set[str] = set()
    for send in self_and_super_sends(e):
        (through_super if send.__class__ is SuperSend
         else through_self).add(send.selector)
    return through_self, through_super
