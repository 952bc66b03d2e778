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
* ``let`` puts the bound value in place of its variable in the body

Method activation fills a template. A method body is translated once per run
for the class where it was found, with the receiver left as an owner hole and
the parameters left as variables; each activation fills the hole with the
receiver and the parameters with the argument values in one pass (``_fill``,
which also reduces ``let``). A redex with no applicable rule is *stuck* and
reports a structured reason.

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
    Var,
)
from .validate import HierarchyIndex
from .values import INT_CLASS, NIL, IntVal, Nil, Oid, Value


# --- redexes ---------------------------------------------------------------


class Redex:
    """A program being reduced.

    Redexes follow the node rule in the ``syntax`` module docstring: never
    changed after they are built, and slotted rather than frozen. A method
    template is shared by every activation of its method, and a step builds
    new nodes along the path it rewrites, several per reduction.
    """

    __slots__ = ()


@dataclass(slots=True)
class RVal(Redex):
    value: Value


@dataclass(slots=True)
class RNew(Redex):
    class_name: str


@dataclass(slots=True)
class RVar(Redex):
    name: str


@dataclass(slots=True)
class RFieldGet(Redex):
    owner: Value
    field: str


@dataclass(slots=True)
class RFieldSet(Redex):
    owner: Value
    field: str
    rhs: Redex


@dataclass(slots=True)
class RObjectSend(Redex):
    receiver: Redex
    selector: str
    args: tuple[Redex, ...]


@dataclass(slots=True)
class RSelfSend(Redex):
    owner: Value
    defining_class: str
    selector: str
    args: tuple[Redex, ...]


@dataclass(slots=True)
class RSuperSend(Redex):
    owner: Value
    defining_class: str
    selector: str
    args: tuple[Redex, ...]


@dataclass(slots=True)
class RLet(Redex):
    var: str
    bound: Redex
    body: Redex


@dataclass(frozen=True)
class Stuck:
    reason: StuckReason


# The receiver's place in a method template, until ``_fill`` puts it there.
_OWNER_HOLE = object()


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


# --- translation and filling --------------------------------------------------


def translate(e: Expr, owner: Value, defining_class: str,
              idx: HierarchyIndex) -> Redex:
    """Annotate an expression with its object and class context.

    ``self`` becomes the owner value, field accesses attach the owner, super
    sends attach (owner, defining class), and sends whose receiver is
    syntactically ``self`` become self-send redexes. ``owner`` may be
    ``_OWNER_HOLE``, which makes the result a template for ``_fill``. Raises
    UnknownFieldError for a field not visible from the defining class.
    """
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


def _fill(r: Redex, owner: Value | None, env: dict[str, Value]) -> Redex:
    """Fill a redex in one pass: ``_OWNER_HOLE`` becomes ``owner`` and each
    variable bound in ``env`` becomes its value.

    A ``let`` that rebinds a name shadows it: its bound expression is filled
    with the name, its body without. Activation passes the receiver and the
    parameters; reducing ``let`` passes no owner (None) and one binding.
    """
    t = type(r)
    if t is RVal:
        return RVal(owner) if r.value is _OWNER_HOLE else r
    if t is RVar:
        return RVal(env[r.name]) if r.name in env else r
    if t is RObjectSend:
        return RObjectSend(_fill(r.receiver, owner, env), r.selector,
                           tuple([_fill(a, owner, env) for a in r.args]))
    if t is RSelfSend or t is RSuperSend:
        return t(owner if r.owner is _OWNER_HOLE else r.owner,
                 r.defining_class, r.selector,
                 tuple([_fill(a, owner, env) for a in r.args]))
    if t is RLet:
        bound = _fill(r.bound, owner, env)
        if r.var in env:
            env = {k: v for k, v in env.items() if k != r.var}
        return RLet(r.var, bound, _fill(r.body, owner, env))
    if t is RFieldGet:
        return RFieldGet(owner, r.field) if r.owner is _OWNER_HOLE else r
    if t is RFieldSet:
        return RFieldSet(owner if r.owner is _OWNER_HOLE else r.owner, r.field,
                         _fill(r.rhs, owner, env))
    if t is RNew:
        return r
    raise TypeError(f"not a redex: {r!r}")


# --- one reduction step ------------------------------------------------------


def _next_hole(node: Redex) -> tuple[int, Redex] | None:
    """The first unevaluated child in evaluation order, or None.

    Returns ``(slot, child)``: slot -1 is the field-write right-hand side,
    the send receiver or the let binding; slot i >= 0 is argument i.
    """
    t = type(node)
    if t is RObjectSend:
        if type(node.receiver) is not RVal:
            return -1, node.receiver
    elif t is RFieldSet:
        return None if type(node.rhs) is RVal else (-1, node.rhs)
    elif t is RLet:
        return None if type(node.bound) is RVal else (-1, node.bound)
    elif t is not RSelfSend and t is not RSuperSend:
        return None
    for i, a in enumerate(node.args):
        if type(a) is not RVal:
            return i, a
    return None


def _set_slot(node: Redex, slot: int, child: Redex) -> Redex:
    t = type(node)
    if slot >= 0:
        args = node.args
        args = args[:slot] + (child,) + args[slot + 1:]
        if t is RObjectSend:
            return RObjectSend(node.receiver, node.selector, args)
        return t(node.owner, node.defining_class, node.selector, args)
    if t is RObjectSend:
        return RObjectSend(child, node.selector, node.args)
    if t is RLet:
        return RLet(node.var, child, node.body)
    if t is RFieldSet:
        return RFieldSet(node.owner, node.field, child)
    raise TypeError(f"no slot {slot} on {node!r}")


def _activate(mdef: MethodDef, found_class: str, receiver: Value,
              args: tuple[Value, ...], idx: HierarchyIndex,
              lookup_class: str, selector: str,
              templates: dict) -> Redex | Stuck:
    """Fill the template of ``mdef`` as found in ``found_class``.

    ``templates`` maps (found class, selector) to the translated body, or to
    the Stuck of a field the body may not name; the key is unique because the
    index's lookups return a class's first definition of a selector.
    """
    params = mdef.params
    if len(params) != len(args):
        return Stuck(ArityMismatch(lookup_class, selector,
                                   len(params), len(args)))
    key = (found_class, selector)
    template = templates.get(key)
    if template is None:
        try:
            template = translate(mdef.body, _OWNER_HOLE, found_class, idx)
        except UnknownFieldError as err:
            template = Stuck(UnknownField(err.class_name, err.field))
        templates[key] = template
    if type(template) is Stuck:
        return template
    return _fill(template, receiver, dict(zip(params, args)))


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


def _reduce(node: Redex, store: Store, idx: HierarchyIndex,
            templates: dict) -> Redex | Stuck:
    t = type(node)
    if t is RObjectSend or t is RSelfSend:
        object_send = t is RObjectSend
        receiver = (node.receiver.value  # type: ignore[union-attr]
                    if object_send else node.owner)
        args = tuple([a.value for a in node.args])  # type: ignore[union-attr]
        rt = type(receiver)
        if rt is Nil:
            return Stuck(NilReceiver(node.selector))
        if rt is IntVal:
            return _int_builtin(node.selector, args, receiver)
        cls = store[receiver.oid].class_name
        lookup = idx.public_lookup if object_send else idx.closest_def
        found = lookup(cls, node.selector)
        if found is None:
            return Stuck(DoesNotUnderstand(cls, node.selector))
        found_class, mdef = found
        return _activate(mdef, found_class, receiver, args, idx, cls,
                         node.selector, templates)
    if t is RLet:
        return _fill(node.body, None,
                     {node.var: node.bound.value})  # type: ignore[union-attr]
    if t is RFieldGet:
        if type(node.owner) is not Oid:
            return Stuck(UnknownField("<nil>", node.field))
        record = store[node.owner.oid]
        if node.field not in record.fields:
            return Stuck(UnknownField(record.class_name, node.field))
        return RVal(record.fields[node.field])
    if t is RFieldSet:
        if type(node.owner) is not Oid:
            return Stuck(UnknownField("<nil>", node.field))
        record = store[node.owner.oid]
        if node.field not in record.fields:
            return Stuck(UnknownField(record.class_name, node.field))
        record.fields[node.field] = node.rhs.value  # type: ignore[union-attr]
        return node.rhs
    if t is RNew:
        try:
            fields = idx.fields_of(node.class_name)
        except Exception:
            return Stuck(UnknownClass(node.class_name))
        return RVal(Oid(store.allocate(node.class_name, fields)))
    if t is RSuperSend:
        args = tuple([a.value for a in node.args])  # type: ignore[union-attr]
        start = idx.superclass(node.defining_class)
        if start is None:
            return Stuck(DoesNotUnderstand(ROOT_CLASS, node.selector))
        found = idx.closest_def(start, node.selector)
        if found is None:
            return Stuck(DoesNotUnderstand(start, node.selector))
        found_class, mdef = found
        return _activate(mdef, found_class, node.owner, args, idx, start,
                         node.selector, templates)
    if t is RVar:
        return Stuck(UnknownVariable(node.name))
    raise TypeError(f"not a reducible redex: {node!r}")


def step(redex: Redex, store: Store,
         idx: HierarchyIndex) -> tuple[Redex, Store] | Stuck | None:
    """Perform one leftmost reduction.

    Returns the new redex and store, a ``Stuck`` describing why no rule
    applies, or ``None`` when the redex is already a value (normal form).
    The store is updated in place and returned for convenience. An
    activation translates the method body afresh; only ``eval_program``'s
    loop keeps templates across steps.
    """
    if type(redex) is RVal:
        return None
    path: list[tuple[Redex, int]] = []
    node = redex
    while True:
        hole = _next_hole(node)
        if hole is None:
            break
        path.append((node, hole[0]))
        node = hole[1]
    result = _reduce(node, store, idx, {})
    if type(result) is Stuck:
        return result
    for parent, slot in reversed(path):
        result = _set_slot(parent, slot, result)
    return result, store


def eval_program(program: Program, fuel: int = DEFAULT_FUEL,
                 idx: HierarchyIndex | None = None) -> EvalResult:
    """Run a validated program's main expression to an outcome.

    Never raises: translation failures, stuck states, and fuel exhaustion all
    come back as outcome variants. ``idx`` is the caller's index over
    ``program``; one is built when omitted. The loop keeps the decomposition
    path between reductions instead of re-walking the whole redex, and each
    method's template between activations, which performs the exact same
    reductions in the exact same order as iterating ``step`` from the root.
    """
    if idx is None:
        idx = HierarchyIndex(program)
    if fuel <= 0:
        return EvalResult(FuelExhausted(), 0)
    try:
        redex = translate(program.main, NIL, ROOT_CLASS, idx)
    except UnknownFieldError as err:
        return EvalResult(Errored(UnknownField(err.class_name, err.field)), 0)
    return _eval_loop(redex, Store(), idx, fuel)


def _eval_loop(focus: Redex, store: Store, idx: HierarchyIndex,
               fuel: int) -> EvalResult:
    """Reduction loop with the decomposition path kept on an explicit stack.

    Instead of rebuilding the whole redex after each reduction and descending
    again from the root, the enclosing nodes wait on ``frames``; when the
    focused subterm becomes a value it is plugged one level up. Method
    templates live in ``templates`` for this run only. The sequence of
    ``_reduce`` calls -- and therefore the step count, the store, and the
    outcome -- is identical to iterating ``step`` from the root.
    """
    templates: dict = {}
    frames: list[tuple[Redex, int]] = []
    steps = 0
    while True:
        hole = _next_hole(focus)
        if hole is not None:
            frames.append((focus, hole[0]))
            focus = hole[1]
            continue
        if type(focus) is RVal:
            if not frames:
                return EvalResult(Completed(focus.value), steps)
            parent, slot = frames.pop()
            focus = _set_slot(parent, slot, focus)
            continue
        if steps >= fuel:
            return EvalResult(FuelExhausted(), steps)
        result = _reduce(focus, store, idx, templates)
        if type(result) is Stuck:
            return EvalResult(Errored(result.reason), steps)
        steps += 1
        focus = result
