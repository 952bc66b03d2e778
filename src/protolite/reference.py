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

Method activation fills a template: the method's body translated for the
class where it was found, with the receiver left as an owner hole and the
parameters left as variables. An activation fills the hole with the
receiver and the parameters with the argument values. ``_fill`` does it by
name in one pass, as ``step`` does and as reducing ``let`` does;
``eval_program``'s loop compiles each template once into a *filler*
(``_filler``), closures that take the arguments by index and put each
subtree holding no hole and no parameter into every fill as the template's
own object. One per-run table, the send table, maps each (send kind,
receiver class, selector) -- for a super-send, its defining class in place
of the receiver's -- to what it activates (``_activation``): the class the
walk starts at, the parameters and the filler, or the stuck state of a
miss. A send key is resolved, and its method translated and compiled, once
per run; a method reached through several keys is translated once for each.
The table lives for one ``eval_program`` call and never on the hierarchy
index, which an install copies. A redex with no applicable rule is *stuck*
and reports a structured reason.

Evaluation positions follow a fixed order: field-write right-hand side, send
receiver or let binding first, then arguments left to right. The order is
written once, in ``_descend``, following refocusing (Danvy & Nielsen,
"Refocusing in reduction semantics", 2004): the definitional ``step``
descends from the root, reduces the focus, and plugs the result back; no
context value is ever materialised in the API. ``eval_program``'s loop keeps
the path between reductions and resumes the same descent where it plugged.
The corpus test in ``tests/test_reference.py`` pins the loop to iterated
``step`` on outcome, step count and final store.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ._collector import collector_paused
from .errors import UnknownClassError, UnknownFieldError
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
    New,
    NilLit,
    Program,
    SelfRef,
    Send,
    SuperSend,
    Var,
)
from .validate import HierarchyIndex, index_of
from .values import INT_CLASS, NIL, IntVal, Nil, Oid, Value


# --- redexes ---------------------------------------------------------------


class Redex:
    """A program being reduced.

    Redexes follow the node rule in the ``syntax`` module docstring: never
    changed after they are built, and slotted rather than frozen. So one
    node may sit in many redexes: a method template's subtrees that hold no
    owner hole and no parameter are shared by every activation its filler
    fills, and a step builds new nodes only along the path it rewrites,
    several per reduction.
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


@dataclass(slots=True)
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
        self.records[oid] = ObjectRecord(class_name,
                                         dict.fromkeys(field_names, NIL))
        return oid


# --- translation and filling --------------------------------------------------


def translate(e: Expr, owner: Value, defining_class: str,
              idx: HierarchyIndex) -> Redex:
    """Annotate an expression with its object and class context.

    ``self`` becomes the owner value, field accesses attach the owner, super
    sends attach (owner, defining class), and sends whose receiver is
    syntactically ``self`` become self-send redexes. ``owner`` may be
    ``_OWNER_HOLE``, which makes the result a template to fill. Raises
    UnknownFieldError for a field not visible from the defining class: the
    first one met walking each node before its children and a send's
    receiver before its arguments.
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
        receiver = (None if isinstance(e.receiver, SelfRef)
                    else translate(e.receiver, owner, defining_class, idx))
        args = tuple(translate(a, owner, defining_class, idx) for a in e.args)
        if receiver is None:
            return RSelfSend(owner, defining_class, e.selector, args)
        return RObjectSend(receiver, e.selector, args)
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
    with the name, its body without. ``step``'s activations pass the
    receiver and the parameters; reducing ``let`` passes no owner (None) and
    one binding.
    """
    t = type(r)
    if t is RSelfSend or t is RSuperSend:
        args = r.args
        if args:
            args = tuple([_fill(a, owner, env) for a in args])
        return t(owner if r.owner is _OWNER_HOLE else r.owner,
                 r.defining_class, r.selector, args)
    if t is RObjectSend:
        args = r.args
        if args:
            args = tuple([_fill(a, owner, env) for a in args])
        return RObjectSend(_fill(r.receiver, owner, env), r.selector, args)
    if t is RVal:
        return RVal(owner) if r.value is _OWNER_HOLE else r
    if t is RNew:
        return r
    if t is RLet:
        bound = _fill(r.bound, owner, env)
        if r.var in env:
            env = {k: v for k, v in env.items() if k != r.var}
        return RLet(r.var, bound, _fill(r.body, owner, env))
    if t is RFieldSet:
        return RFieldSet(owner if r.owner is _OWNER_HOLE else r.owner, r.field,
                         _fill(r.rhs, owner, env))
    if t is RFieldGet:
        return RFieldGet(owner, r.field) if r.owner is _OWNER_HOLE else r
    if t is RVar:
        return RVal(env[r.name]) if r.name in env else r
    raise TypeError(f"not a redex: {r!r}")


def _substituting(params: tuple[str, ...], template: Redex) -> Callable:
    """The definitional filler: ``_fill`` with the parameters bound by name
    to the argument values."""
    return lambda receiver, args: _fill(
        template, receiver, dict(zip(params, [a.value for a in args])))


def _filler(params: tuple[str, ...], template: Redex) -> Callable:
    """``template`` compiled by one walk into ``fill(receiver, args)``.

    ``args`` are the send's arguments, each an ``RVal``; a fill equals
    ``_fill(template, receiver, env)`` with ``env`` binding each parameter
    to its argument's value. Each parameter is resolved to its argument
    index here, and each node that needs filling becomes a closure over its
    children's (Feeley & Lapalme, "Using closures for code generation",
    1987). A parameter is filled with the argument's own node, and a subtree
    with no owner hole and no parameter in scope with the template's own
    object, never a copy: the node rule makes the sharing safe.
    """
    part = _part(template, {name: i for i, name in enumerate(params)})
    return part if callable(part) else lambda receiver, args: part


def _part(r: Redex, env: dict[str, int]):
    """``r`` itself if it holds no owner hole and no variable ``env`` binds;
    otherwise a function ``(receiver, args) -> Redex`` that fills it. ``env``
    maps each parameter in scope to its argument index. ``r`` is part of a
    template, whose every owner is the hole: ``translate`` puts one in each.
    """
    t = type(r)
    if t is RVal:
        return (lambda o, a: RVal(o)) if r.value is _OWNER_HOLE else r
    if t is RVar:
        if r.name not in env:
            return r
        i = env[r.name]
        return lambda o, a: a[i]
    if t is RNew:
        return r
    if t is RFieldGet:
        field = r.field
        return lambda o, a: RFieldGet(o, field)
    if t is RObjectSend:
        receiver = _part(r.receiver, env)
        args = _args_part(r.args, env)
        selector = r.selector
        if callable(receiver):
            if callable(args):
                return lambda o, a: RObjectSend(receiver(o, a), selector,
                                                args(o, a))
            return lambda o, a: RObjectSend(receiver(o, a), selector, args)
        if callable(args):
            return lambda o, a: RObjectSend(receiver, selector, args(o, a))
        return r
    if t is RSelfSend or t is RSuperSend:
        cls, selector = r.defining_class, r.selector
        args = _args_part(r.args, env)
        if callable(args):
            return lambda o, a: t(o, cls, selector, args(o, a))
        return lambda o, a: t(o, cls, selector, args)
    if t is RFieldSet:
        field = r.field
        rhs = _part(r.rhs, env)
        if callable(rhs):
            return lambda o, a: RFieldSet(o, field, rhs(o, a))
        return lambda o, a: RFieldSet(o, field, rhs)
    if t is RLet:
        var = r.var
        bound = _part(r.bound, env)
        if var in env:
            env = {k: v for k, v in env.items() if k != var}
        body = _part(r.body, env)
        if callable(bound):
            if callable(body):
                return lambda o, a: RLet(var, bound(o, a), body(o, a))
            return lambda o, a: RLet(var, bound(o, a), body)
        if callable(body):
            return lambda o, a: RLet(var, bound, body(o, a))
        return r
    raise TypeError(f"not a redex: {r!r}")


def _args_part(args: tuple[Redex, ...], env: dict[str, int]):
    """``args`` itself if no argument needs filling, else a function
    ``(receiver, args) -> tuple`` that fills them."""
    parts = [_part(x, env) for x in args]
    if not any(callable(p) for p in parts):
        return args
    if len(parts) == 1:
        only = parts[0]
        return lambda o, a: (only(o, a),)
    fills = [p if callable(p) else (lambda o, a, p=p: p) for p in parts]
    return lambda o, a: tuple([f(o, a) for f in fills])


# --- one reduction step ------------------------------------------------------


def _descend(focus: Redex, frames: list, i: int) -> Redex:
    """The redex to reduce next under ``focus``, searching its slots from
    ``i`` in evaluation order.

    Slot -1 is the send receiver, the field-write right-hand side or the let
    binding; slot i >= 0 is argument i, left to right. Each parent the search
    passes through is pushed on ``frames``, followed by the slot it entered,
    so that the caller can plug the reduced result back. Searching from -1
    finds the leftmost reducible position; after a value is plugged into
    slot k, searching the parent from k + 1 resumes where the search left.
    A redex whose slots all hold values is returned itself.
    """
    while True:
        t = type(focus)
        if t is RObjectSend:
            if i < 0:
                child = focus.receiver
                if type(child) is not RVal:
                    frames.append(focus)
                    frames.append(-1)
                    focus = child
                    continue
                i = 0
        elif t is RSelfSend or t is RSuperSend:
            if i < 0:
                i = 0
        elif t is RFieldSet or t is RLet:
            if i < 0:
                child = focus.rhs if t is RFieldSet else focus.bound
                if type(child) is not RVal:
                    frames.append(focus)
                    frames.append(-1)
                    focus = child
                    continue
            return focus
        else:
            return focus
        # A send's arguments, left to right.
        args = focus.args
        n = len(args)
        while i < n and type(args[i]) is RVal:
            i += 1
        if i == n:
            return focus
        frames.append(focus)
        frames.append(i)
        focus = args[i]
        i = -1


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


def _activation(key: tuple, idx: HierarchyIndex,
                make_filler: Callable) -> tuple | Stuck:
    """What a send key ``(kind, class, selector)`` activates; its kind is
    the send's redex type.

    An object-send sees public definitions only and a self-send any, both
    from the receiver's class. A super-send is keyed by its defining class
    and walks from that class's superclass; above ``Object`` nothing
    answers. A miss is the ``Stuck`` of ``DoesNotUnderstand`` at the class
    the walk started at. A hit is ``(that class, parameters, filler)``: the
    filler is ``make_filler(parameters, template)``, the template being the
    body translated for the class where the method was found with the
    receiver as ``_OWNER_HOLE``; or it is the ``Stuck`` of a field the body
    may not name.
    """
    kind, name, selector = key
    if kind is RSuperSend:
        name = idx.superclass(name)
    if name is None:
        name, found = ROOT_CLASS, None
    elif kind is RObjectSend:
        found = idx.public_lookup(name, selector)
    else:
        found = idx.closest_def(name, selector)
    if found is None:
        return Stuck(DoesNotUnderstand(name, selector))
    found_class, mdef = found
    try:
        template = translate(mdef.body, _OWNER_HOLE, found_class, idx)
    except UnknownFieldError as err:
        fault = UnknownField(err.class_name, err.field)
        return name, mdef.params, Stuck(fault)
    return name, mdef.params, make_filler(mdef.params, template)


def _int_builtin(selector: str, args: tuple[RVal, ...],
                 receiver: IntVal) -> Redex | Stuck:
    if selector != "+":
        return Stuck(DoesNotUnderstand(INT_CLASS, selector))
    if len(args) != 1:
        return Stuck(ArityMismatch(INT_CLASS, "+", 1, len(args)))
    arg = args[0].value
    if not isinstance(arg, IntVal):
        return Stuck(PrimitiveFailure("+", "argument must be an integer"))
    return RVal(IntVal(receiver.n + arg.n))


def _reduce(node: Redex, store: Store, idx: HierarchyIndex, sends: dict,
            make_filler: Callable = _substituting) -> Redex | Stuck:
    """Reduce a redex whose children are all values.

    ``sends`` maps a send key to its ``_activation``, filled on first use
    with ``make_filler``, so an activation costs one lookup in it. Arity is
    checked before the filler is used, so a wrong-arity send is an
    ``ArityMismatch`` even where the body names an unknown field. The table
    answers for one index and one ``make_filler`` only.
    """
    t = type(node)
    if t is RObjectSend or t is RSelfSend or t is RSuperSend:
        selector = node.selector
        args = node.args
        if t is RSuperSend:
            receiver = node.owner
            key = (t, node.defining_class, selector)
        else:
            receiver = (node.receiver.value  # type: ignore[union-attr]
                        if t is RObjectSend else node.owner)
            rt = type(receiver)
            if rt is Nil:
                return Stuck(NilReceiver(selector))
            if rt is IntVal:
                return _int_builtin(selector, args, receiver)
            key = (t, store.records[receiver.oid].class_name, selector)
        activation = sends.get(key)
        if activation is None:
            activation = sends[key] = _activation(key, idx, make_filler)
        if type(activation) is Stuck:
            return activation
        lookup_class, params, fill = activation
        if len(params) != len(args):
            return Stuck(ArityMismatch(lookup_class, selector,
                                       len(params), len(args)))
        if type(fill) is Stuck:
            return fill
        return fill(receiver, args)
    if t is RLet:
        return _fill(node.body, None,
                     {node.var: node.bound.value})  # type: ignore[union-attr]
    if t is RFieldGet:
        if type(node.owner) is not Oid:
            return Stuck(UnknownField("<nil>", node.field))
        record = store.records[node.owner.oid]
        if node.field not in record.fields:
            return Stuck(UnknownField(record.class_name, node.field))
        return RVal(record.fields[node.field])
    if t is RFieldSet:
        if type(node.owner) is not Oid:
            return Stuck(UnknownField("<nil>", node.field))
        record = store.records[node.owner.oid]
        if node.field not in record.fields:
            return Stuck(UnknownField(record.class_name, node.field))
        record.fields[node.field] = node.rhs.value  # type: ignore[union-attr]
        return node.rhs
    if t is RNew:
        try:
            fields = idx.fields_of(node.class_name)
        except UnknownClassError:
            return Stuck(UnknownClass(node.class_name))
        return RVal(Oid(store.allocate(node.class_name, fields)))
    if t is RVar:
        return Stuck(UnknownVariable(node.name))
    raise TypeError(f"not a reducible redex: {node!r}")


def step(redex: Redex, store: Store,
         idx: HierarchyIndex) -> tuple[Redex, Store] | Stuck | None:
    """Perform one leftmost reduction.

    Returns the new redex and store, a ``Stuck`` describing why no rule
    applies, or ``None`` when the redex is already a value (normal form).
    The store is updated in place and returned for convenience. Each call
    decomposes from the root with ``_descend``, reduces with a fresh send
    table, and plugs the result back along the path.
    """
    if type(redex) is RVal:
        return None
    frames: list = []
    result = _reduce(_descend(redex, frames, -1), store, idx, {})
    if type(result) is Stuck:
        return result
    while frames:
        slot = frames.pop()
        result = _set_slot(frames.pop(), slot, result)
    return result, store


@collector_paused
def eval_program(program: Program, fuel: int = DEFAULT_FUEL) -> EvalResult:
    """Run a validated program's main expression to an outcome.

    Never raises: translation failures, stuck states, and fuel exhaustion all
    come back as outcome variants. The loop (``_eval_loop``) performs the
    exact same reductions in the exact same order as iterating ``step`` from
    the root.
    """
    idx = index_of(program)
    if fuel <= 0:
        return EvalResult(FuelExhausted(), 0)
    try:
        redex = translate(program.main, NIL, ROOT_CLASS, idx)
    except UnknownFieldError as err:
        return EvalResult(Errored(UnknownField(err.class_name, err.field)), 0)
    return _eval_loop(redex, Store(), idx, fuel)


def _eval_loop(focus: Redex, store: Store, idx: HierarchyIndex,
               fuel: int) -> EvalResult:
    """Reduction loop that keeps the decomposition path between reductions.

    The enclosing nodes wait on ``frames``, each followed by the slot its
    focus fills, instead of the whole redex being rebuilt after each
    reduction and decomposed again from the root. A reduced focus is
    descended into from slot -1; a value is plugged one level up and
    ``_descend`` resumes at the parent's next slot. ``sends`` lives for this
    run only, so each send key is resolved, and its method translated and
    compiled into a filler (``_filler``), once per run. The ``_reduce``
    calls -- and so the step count, the store and the outcome -- are those
    of iterating ``step`` from the root;
    ``test_on_step_path_matches_fast_path_on_generated_corpus`` compares
    all three, and so checks the fillers against ``step``'s ``_fill``.
    """
    sends: dict = {}
    make_filler = _filler
    frames: list = []  # parent, slot, parent, slot, ...
    pop = frames.pop
    steps = 0
    while True:
        if type(focus) is RVal:
            if not frames:
                return EvalResult(Completed(focus.value), steps)
            slot = pop()
            focus = _descend(_set_slot(pop(), slot, focus), frames, slot + 1)
        else:
            focus = _descend(focus, frames, -1)
        if steps >= fuel:
            return EvalResult(FuelExhausted(), steps)
        result = _reduce(focus, store, idx, sends, make_filler)
        if type(result) is Stuck:
            return EvalResult(Errored(result.reason), steps)
        steps += 1
        focus = result
