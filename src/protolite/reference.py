"""Small-step reference evaluator.

Programs run by rewriting *redexes*: expressions whose field accesses are
annotated with the object that owns them and whose self/super sends carry the
receiver and the class of the enclosing method. One ``step`` performs exactly
one reduction at the leftmost reducible position:

* allocation gives a fresh oid whose fields are all nil
* field read/write go through the annotated owner; a write reduces to the
  assigned value
* an object-send activates the closest *public* definition on the receiver's
  chain; protected definitions are invisible to it
* a self-send activates the closest definition on the receiver's dynamic
  chain regardless of visibility
* a super-send starts that walk at the superclass of the annotated class
* ``let`` substitutes the bound value into its body

Method activation substitutes arguments for parameters in the source body and
re-annotates it with the receiver and the class where the method was found.
A redex with no applicable rule is *stuck* and reports a structured reason.

Evaluation positions follow a fixed order: field-write right-hand side, then
send receiver, then arguments left to right, then let bindings. The step
function decomposes the redex along that order, reduces the focus, and plugs
the result back; no context value is ever materialised in the API.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownFieldError
from .outcomes import (
    DEFAULT_FUEL,
    ArityMismatch,
    Completed,
    DoesNotUnderstand,
    Errored,
    EvalResult,
    FuelExhausted,
    NilReceiver,
    PrimitiveFailure,
    StuckReason,
    UnknownClass,
    UnknownField,
    UnknownVariable,
)
from .syntax import (
    ROOT_CLASS,
    Expr,
    FieldGet,
    FieldSet,
    IntLit,
    Let,
    MethodDef,
    New,
    NilLit,
    Program,
    SelfRef,
    Send,
    SuperSend,
    ValueLit,
    Var,
)
from .validate import HierarchyIndex
from .values import INT_CLASS, NIL, IntVal, Nil, Oid, Value


# --- redexes ---------------------------------------------------------------


class Redex:
    __slots__ = ()


@dataclass(frozen=True)
class RVal(Redex):
    value: Value


@dataclass(frozen=True)
class RNew(Redex):
    class_name: str


@dataclass(frozen=True)
class RVar(Redex):
    name: str


@dataclass(frozen=True)
class RFieldGet(Redex):
    owner: Value
    field: str


@dataclass(frozen=True)
class RFieldSet(Redex):
    owner: Value
    field: str
    rhs: Redex


@dataclass(frozen=True)
class RObjectSend(Redex):
    receiver: Redex
    selector: str
    args: tuple[Redex, ...]


@dataclass(frozen=True)
class RSelfSend(Redex):
    owner: Value
    defining_class: str
    selector: str
    args: tuple[Redex, ...]


@dataclass(frozen=True)
class RSuperSend(Redex):
    owner: Value
    defining_class: str
    selector: str
    args: tuple[Redex, ...]


@dataclass(frozen=True)
class RLet(Redex):
    var: str
    bound: Redex
    body: Redex


@dataclass(frozen=True)
class Stuck:
    reason: StuckReason


@dataclass
class ObjectRecord:
    class_name: str
    fields: dict[str, Value]


class Store:
    """oid -> object record heap; oids count up from 1 and are never reused."""

    def __init__(self) -> None:
        self.records: dict[int, ObjectRecord] = {}
        self.next_oid = 1

    def allocate(self, class_name: str, field_names: tuple[str, ...]) -> int:
        oid = self.next_oid
        self.next_oid += 1
        self.records[oid] = ObjectRecord(class_name, {f: NIL for f in field_names})
        return oid

    def __contains__(self, oid: int) -> bool:
        return oid in self.records

    def __getitem__(self, oid: int) -> ObjectRecord:
        return self.records[oid]


# --- translation and substitution -------------------------------------------


def translate(e: Expr, owner: Value, defining_class: str,
              idx: HierarchyIndex) -> Redex:
    """Annotate an expression with its object and class context.

    ``self`` becomes the owner value, field accesses attach the owner, super
    sends attach (owner, defining class), and sends whose receiver is
    syntactically ``self`` become self-send redexes. Raises UnknownFieldError
    for a field not visible from the defining class.
    """
    if isinstance(e, ValueLit):
        return RVal(e.value)
    if isinstance(e, NilLit):
        return RVal(NIL)
    if isinstance(e, IntLit):
        return RVal(IntVal(e.value))
    if isinstance(e, SelfRef):
        return RVal(owner)
    if isinstance(e, New):
        return RNew(e.class_name)
    if isinstance(e, Var):
        return RVar(e.name)
    if isinstance(e, FieldGet):
        if e.field not in idx.fields_of(defining_class):
            raise UnknownFieldError(defining_class, e.field)
        return RFieldGet(owner, e.field)
    if isinstance(e, FieldSet):
        if e.field not in idx.fields_of(defining_class):
            raise UnknownFieldError(defining_class, e.field)
        return RFieldSet(owner, e.field,
                         translate(e.value, owner, defining_class, idx))
    if isinstance(e, Send):
        args = tuple(translate(a, owner, defining_class, idx) for a in e.args)
        if isinstance(e.receiver, SelfRef):
            return RSelfSend(owner, defining_class, e.selector, args)
        return RObjectSend(translate(e.receiver, owner, defining_class, idx),
                           e.selector, args)
    if isinstance(e, SuperSend):
        args = tuple(translate(a, owner, defining_class, idx) for a in e.args)
        return RSuperSend(owner, defining_class, e.selector, args)
    if isinstance(e, Let):
        return RLet(e.var, translate(e.bound, owner, defining_class, idx),
                    translate(e.body, owner, defining_class, idx))
    raise TypeError(f"not an expression: {e!r}")


def substitute(e: Expr, v: Value, x: str) -> Expr:
    """Replace free occurrences of variable ``x`` with the value ``v``.

    A ``let`` that rebinds ``x`` shadows it: the binding expression is
    substituted, the body is left untouched. Field names are unaffected.
    """
    if isinstance(e, Var):
        return ValueLit(v) if e.name == x else e
    if isinstance(e, (New, SelfRef, NilLit, IntLit, FieldGet, ValueLit)):
        return e
    if isinstance(e, FieldSet):
        return FieldSet(e.field, substitute(e.value, v, x))
    if isinstance(e, Send):
        return Send(substitute(e.receiver, v, x), e.selector,
                    tuple(substitute(a, v, x) for a in e.args))
    if isinstance(e, SuperSend):
        return SuperSend(e.selector, tuple(substitute(a, v, x) for a in e.args))
    if isinstance(e, Let):
        bound = substitute(e.bound, v, x)
        if e.var == x:
            return Let(e.var, bound, e.body)
        return Let(e.var, bound, substitute(e.body, v, x))
    raise TypeError(f"not an expression: {e!r}")


def _subst_redex(r: Redex, v: Value, x: str) -> Redex:
    """Substitution lifted to redexes, for reducing ``let``."""
    if isinstance(r, RVar):
        return RVal(v) if r.name == x else r
    if isinstance(r, (RVal, RNew, RFieldGet)):
        return r
    if isinstance(r, RFieldSet):
        return RFieldSet(r.owner, r.field, _subst_redex(r.rhs, v, x))
    if isinstance(r, RObjectSend):
        return RObjectSend(_subst_redex(r.receiver, v, x), r.selector,
                           tuple(_subst_redex(a, v, x) for a in r.args))
    if isinstance(r, RSelfSend):
        return RSelfSend(r.owner, r.defining_class, r.selector,
                         tuple(_subst_redex(a, v, x) for a in r.args))
    if isinstance(r, RSuperSend):
        return RSuperSend(r.owner, r.defining_class, r.selector,
                          tuple(_subst_redex(a, v, x) for a in r.args))
    if isinstance(r, RLet):
        bound = _subst_redex(r.bound, v, x)
        if r.var == x:
            return RLet(r.var, bound, r.body)
        return RLet(r.var, bound, _subst_redex(r.body, v, x))
    raise TypeError(f"not a redex: {r!r}")


# --- one reduction step ------------------------------------------------------


def _next_hole(node: Redex):
    """Evaluation-order slot of the first unevaluated child, or None."""
    if isinstance(node, RFieldSet):
        if not isinstance(node.rhs, RVal):
            return ("rhs", None)
    elif isinstance(node, RObjectSend):
        if not isinstance(node.receiver, RVal):
            return ("receiver", None)
        for i, a in enumerate(node.args):
            if not isinstance(a, RVal):
                return ("args", i)
    elif isinstance(node, (RSelfSend, RSuperSend)):
        for i, a in enumerate(node.args):
            if not isinstance(a, RVal):
                return ("args", i)
    elif isinstance(node, RLet):
        if not isinstance(node.bound, RVal):
            return ("bound", None)
    return None


def _get_slot(node: Redex, slot) -> Redex:
    name, i = slot
    child = getattr(node, name)
    return child[i] if i is not None else child


def _set_slot(node: Redex, slot, child: Redex) -> Redex:
    name, i = slot
    if isinstance(node, RFieldSet):
        return RFieldSet(node.owner, node.field, child)
    if isinstance(node, RObjectSend):
        if name == "receiver":
            return RObjectSend(child, node.selector, node.args)
        args = node.args
        return RObjectSend(node.receiver, node.selector,
                           args[:i] + (child,) + args[i + 1:])
    if isinstance(node, RSelfSend):
        args = node.args
        return RSelfSend(node.owner, node.defining_class, node.selector,
                         args[:i] + (child,) + args[i + 1:])
    if isinstance(node, RSuperSend):
        args = node.args
        return RSuperSend(node.owner, node.defining_class, node.selector,
                          args[:i] + (child,) + args[i + 1:])
    if isinstance(node, RLet):
        return RLet(node.var, child, node.body)
    raise TypeError(f"no slot {slot} on {node!r}")


def _activate(mdef: MethodDef, found_class: str, receiver: Value,
              args: tuple[Value, ...], idx: HierarchyIndex,
              lookup_class: str, selector: str) -> Redex | Stuck:
    if len(mdef.params) != len(args):
        return Stuck(ArityMismatch(lookup_class, selector,
                                   len(mdef.params), len(args)))
    body = mdef.body
    for param, value in zip(mdef.params, args):
        body = substitute(body, value, param)
    try:
        return translate(body, receiver, found_class, idx)
    except UnknownFieldError as err:
        return Stuck(UnknownField(err.class_name, err.field))


def _int_builtin(selector: str, args: tuple[Value, ...],
                 receiver: IntVal) -> Redex | Stuck:
    if selector != "+":
        return Stuck(DoesNotUnderstand(INT_CLASS, selector))
    if len(args) != 1:
        return Stuck(ArityMismatch(INT_CLASS, "+", 1, len(args)))
    arg = args[0]
    if not isinstance(arg, IntVal):
        return Stuck(PrimitiveFailure("+", "argument must be an integer"))
    return RVal(IntVal(receiver.n + arg.n))


def _reduce(node: Redex, store: Store, idx: HierarchyIndex) -> Redex | Stuck:
    if isinstance(node, RNew):
        try:
            fields = idx.fields_of(node.class_name)
        except Exception:
            return Stuck(UnknownClass(node.class_name))
        return RVal(Oid(store.allocate(node.class_name, fields)))
    if isinstance(node, RVar):
        return Stuck(UnknownVariable(node.name))
    if isinstance(node, RFieldGet):
        if not isinstance(node.owner, Oid):
            return Stuck(UnknownField("<nil>", node.field))
        record = store[node.owner.oid]
        if node.field not in record.fields:
            return Stuck(UnknownField(record.class_name, node.field))
        return RVal(record.fields[node.field])
    if isinstance(node, RFieldSet):
        assert isinstance(node.rhs, RVal)
        if not isinstance(node.owner, Oid):
            return Stuck(UnknownField("<nil>", node.field))
        record = store[node.owner.oid]
        if node.field not in record.fields:
            return Stuck(UnknownField(record.class_name, node.field))
        record.fields[node.field] = node.rhs.value
        return node.rhs
    if isinstance(node, RObjectSend):
        assert isinstance(node.receiver, RVal)
        receiver = node.receiver.value
        args = tuple(a.value for a in node.args)  # type: ignore[union-attr]
        if isinstance(receiver, Nil):
            return Stuck(NilReceiver(node.selector))
        if isinstance(receiver, IntVal):
            return _int_builtin(node.selector, args, receiver)
        cls = store[receiver.oid].class_name
        found = idx.public_lookup(cls, node.selector)
        if found is None:
            return Stuck(DoesNotUnderstand(cls, node.selector))
        found_class, mdef = found
        return _activate(mdef, found_class, receiver, args, idx, cls,
                         node.selector)
    if isinstance(node, RSelfSend):
        receiver = node.owner
        args = tuple(a.value for a in node.args)  # type: ignore[union-attr]
        if isinstance(receiver, Nil):
            return Stuck(NilReceiver(node.selector))
        if isinstance(receiver, IntVal):
            return _int_builtin(node.selector, args, receiver)
        cls = store[receiver.oid].class_name
        found = idx.closest_def(cls, node.selector)
        if found is None:
            return Stuck(DoesNotUnderstand(cls, node.selector))
        found_class, mdef = found
        return _activate(mdef, found_class, receiver, args, idx, cls,
                         node.selector)
    if isinstance(node, RSuperSend):
        args = tuple(a.value for a in node.args)  # type: ignore[union-attr]
        start = idx.superclass(node.defining_class)
        if start is None:
            return Stuck(DoesNotUnderstand(ROOT_CLASS, node.selector))
        found = idx.closest_def(start, node.selector)
        if found is None:
            return Stuck(DoesNotUnderstand(start, node.selector))
        found_class, mdef = found
        return _activate(mdef, found_class, node.owner, args, idx, start,
                         node.selector)
    if isinstance(node, RLet):
        assert isinstance(node.bound, RVal)
        return _subst_redex(node.body, node.bound.value, node.var)
    raise TypeError(f"not a reducible redex: {node!r}")


def step(redex: Redex, store: Store,
         idx: HierarchyIndex) -> tuple[Redex, Store] | Stuck | None:
    """Perform one leftmost reduction.

    Returns the new redex and store, a ``Stuck`` describing why no rule
    applies, or ``None`` when the redex is already a value (normal form).
    The store is updated in place and returned for convenience.
    """
    if isinstance(redex, RVal):
        return None
    path: list[tuple[Redex, tuple]] = []
    node = redex
    while True:
        slot = _next_hole(node)
        if slot is None:
            break
        path.append((node, slot))
        node = _get_slot(node, slot)
    result = _reduce(node, store, idx)
    if isinstance(result, Stuck):
        return result
    for parent, slot in reversed(path):
        result = _set_slot(parent, slot, result)
    return result, store


def eval_program(program: Program, fuel: int = DEFAULT_FUEL,
                 idx: HierarchyIndex | None = None,
                 on_step=None) -> EvalResult:
    """Run a validated program's main expression to an outcome.

    Never raises: translation failures, stuck states, and fuel exhaustion all
    come back as outcome variants. ``on_step`` is an optional callback
    ``(redex, store)`` invoked after every reduction, for instrumentation;
    with a callback installed every intermediate redex is materialised by
    composing ``step``. Without one, the loop keeps the decomposition path
    between reductions instead of re-walking the whole redex, which performs
    the exact same reductions in the exact same order.
    """
    if idx is None:
        idx = HierarchyIndex(program)
    store = Store()
    steps = 0
    if fuel <= 0:
        return EvalResult(FuelExhausted(), steps)
    try:
        redex = translate(program.main, NIL, ROOT_CLASS, idx)
    except UnknownFieldError as err:
        return EvalResult(Errored(UnknownField(err.class_name, err.field)), steps)
    if on_step is None:
        return _eval_loop(redex, store, idx, fuel)
    while True:
        if isinstance(redex, RVal):
            return EvalResult(Completed(redex.value), steps)
        if steps >= fuel:
            return EvalResult(FuelExhausted(), steps)
        result = step(redex, store, idx)
        if isinstance(result, Stuck):
            return EvalResult(Errored(result.reason), steps)
        assert result is not None
        redex, store = result
        steps += 1
        on_step(redex, store)


def _eval_loop(focus: Redex, store: Store, idx: HierarchyIndex,
               fuel: int) -> EvalResult:
    """Reduction loop with the decomposition path kept on an explicit stack.

    Instead of rebuilding the whole redex after each reduction and descending
    again from the root, the enclosing nodes wait on ``frames``; when the
    focused subterm becomes a value it is plugged one level up. The sequence
    of ``_reduce`` calls -- and therefore the step count, the store, and the
    outcome -- is identical to iterating ``step`` from the root.
    """
    frames: list[tuple[Redex, tuple]] = []
    steps = 0
    while True:
        slot = _next_hole(focus)
        if slot is not None:
            frames.append((focus, slot))
            focus = _get_slot(focus, slot)
            continue
        if isinstance(focus, RVal):
            if not frames:
                return EvalResult(Completed(focus.value), steps)
            parent, slot = frames.pop()
            focus = _set_slot(parent, slot, focus)
            continue
        if steps >= fuel:
            return EvalResult(FuelExhausted(), steps)
        result = _reduce(focus, store, idx)
        if isinstance(result, Stuck):
            return EvalResult(Errored(result.reason), steps)
        steps += 1
        focus = result

