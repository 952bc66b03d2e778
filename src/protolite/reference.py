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
parameters left as variables. ``step`` fills the hole with the receiver and
the parameters with the argument values by ``_fill``, in one pass by name,
and reduces ``let`` the same way. A redex with no applicable rule is *stuck*
and reports a structured reason.

Evaluation positions follow a fixed order: field-write right-hand side, send
receiver or let binding first, then arguments left to right. The order is
written once, in ``_descend``, following refocusing (Danvy & Nielsen,
"Refocusing in reduction semantics", 2004): the definitional ``step``
descends from the root, reduces the focus, and plugs the result back; no
context value is ever materialised in the API.

``eval_program`` runs the next step of that derivation, an environment
machine (Biernacka & Danvy, "A concrete framework for environment
machines", 2007): ``_machine`` walks each template in an environment of
parameters and let-bound values, with the receiver standing for the owner
hole, and keeps what waits on an operand on an explicit stack. It performs
the same reductions in the same order, copies no template, and grows no
stack on a tail send. One per-run table, the send table, maps each (send
kind, receiver class, selector) -- for a super-send, its defining class in
place of the receiver's -- to what it activates (``_activation``): the
class the walk starts at, the parameters and the template, or the stuck
state of a miss. A send key is resolved, and its method translated, once
per run; a method reached through several keys is translated once for
each. The table lives for one ``eval_program`` call and never on the
hierarchy index, which an install copies. The corpus test in
``tests/test_reference.py`` pins the machine to iterated ``step`` on
outcome, step count and final store.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
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
    node may sit in many redexes: ``_fill`` keeps each node that holds
    nothing to fill, and a step builds new nodes only along the path it
    rewrites, several per reduction.
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
    receiver as ``_OWNER_HOLE``: ``step`` fills it by substitution, and
    ``eval_program``'s machine keeps the template itself (``_template``). Or
    the filler is the ``Stuck`` of a field the body may not name.
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


def _int_builtin(selector: str, args: Sequence[RVal],
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


def _template(params: tuple[str, ...], template: Redex) -> Redex:
    """The machine's ``make_filler``: an activation walks the template
    itself, in an environment that binds the parameters."""
    return template


@collector_paused
def eval_program(program: Program, fuel: int = DEFAULT_FUEL) -> EvalResult:
    """Run a validated program's main expression to an outcome.

    Never raises: translation failures, stuck states, and fuel exhaustion all
    come back as outcome variants. The machine (``_machine``) performs the
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
    return _machine(redex, Store(), idx, fuel)


def _machine(focus: Redex, store: Store, idx: HierarchyIndex,
             fuel: int) -> EvalResult:
    """Evaluate ``focus``, main's redex, as an environment machine.

    The state is a focus node, the ``owner`` that stands for the receiver
    in it, an environment ``env`` from names to ``RVal`` nodes, and a stack
    of frames. The owner is read from the state, never from a node: in a
    template every node's owner is ``_OWNER_HOLE``, and in main it is nil,
    the machine's first owner. A frame waits on an operand and holds the
    owner and environment it resumes with: a let on its binding or a field
    write on its value, as a tuple, or a send on its receiver or next
    argument, as the list ``[send, owner, env, receiver, arguments]``. An
    activation pushes no frame, and reducing ``let`` extends the environment.

    Operands are evaluated in ``_descend``'s order; a value or a bound
    variable takes no step, and the fuel is checked before each reduction,
    a stuck one included. A field access or an unbound variable is reduced
    by ``_reduce``, on a node that holds the owner; a send resolves through
    ``_activation`` and ``_int_builtin`` as ``_reduce`` does.
    """
    sends: dict = {}
    stack: list = []
    push, pop = stack.append, stack.pop
    owner: Value = NIL
    env: dict = {}
    steps = 0
    while True:
        # Evaluate ``focus`` to a value ``val``, or start a send's frame.
        t = type(focus)
        if t is RObjectSend or t is RSelfSend or t is RSuperSend:
            frame = [focus, owner, env, None, []]
            val = None
        elif t is RNew:
            # ``_reduce``'s rule, in line: after sends, allocation is the
            # most frequent reduction.
            if steps >= fuel:
                return EvalResult(FuelExhausted(), steps)
            try:
                fields = idx.fields_of(focus.class_name)
            except UnknownClassError:
                return EvalResult(
                    Errored(UnknownClass(focus.class_name)), steps)
            val = RVal(Oid(store.allocate(focus.class_name, fields)))
            steps += 1
            frame = None
        elif t is RVal:
            val = RVal(owner) if focus.value is _OWNER_HOLE else focus
            frame = None
        elif t is RVar and focus.name in env:
            val = env[focus.name]
            frame = None
        elif t is RLet:
            push((focus, owner, env))
            focus = focus.bound
            continue
        elif t is RFieldSet:
            push((focus, owner, env))
            focus = focus.rhs
            continue
        else:
            # A field read or an unbound variable.
            if steps >= fuel:
                return EvalResult(FuelExhausted(), steps)
            val = _reduce(RFieldGet(owner, focus.field) if t is RFieldGet
                          else focus, store, idx, sends)
            if type(val) is Stuck:
                return EvalResult(Errored(val.reason), steps)
            steps += 1
            frame = None
        # Hand ``val`` to ``frame``, or else to the frame on top of the
        # stack, until one has a node to evaluate. A new send's frame takes
        # ``None`` and goes on the stack only to wait on an operand.
        while True:
            if frame is None:
                if not stack:
                    return EvalResult(Completed(val.value), steps)
                frame = pop()
            node = frame[0]
            t = type(node)
            if t is RLet:
                if steps >= fuel:
                    return EvalResult(FuelExhausted(), steps)
                steps += 1
                owner = frame[1]
                env = {**frame[2], node.var: val}
                focus = node.body
                break
            if t is RFieldSet:
                if steps >= fuel:
                    return EvalResult(FuelExhausted(), steps)
                val = _reduce(RFieldSet(frame[1], node.field, val), store,
                              idx, sends)
                if type(val) is Stuck:
                    return EvalResult(Errored(val.reason), steps)
                steps += 1
                frame = None
                continue
            _, owner, env, receiver, args = frame
            if t is RObjectSend and receiver is None:
                if val is None:
                    # The receiver, taken in place if a bound variable or
                    # a constant; translation puts no owner hole here.
                    operand = node.receiver
                    if type(operand) is RVar and operand.name in env:
                        val = env[operand.name]
                    elif type(operand) is RVal:
                        val = operand
                    else:
                        push(frame)
                        focus = operand
                        break
                frame[3] = receiver = val
            elif val is not None:
                args.append(val)
            # The arguments left to right; values and bound variables are
            # taken in place.
            operands = node.args
            i, n = len(args), len(operands)
            while i < n:
                operand = operands[i]
                if type(operand) is RVar and operand.name in env:
                    args.append(env[operand.name])
                elif type(operand) is RVal:
                    args.append(RVal(owner) if operand.value is _OWNER_HOLE
                                else operand)
                else:
                    break
                i += 1
            if i < n:
                push(frame)
                focus = operand
                break
            frame = None
            if steps >= fuel:
                return EvalResult(FuelExhausted(), steps)
            selector = node.selector
            if t is RSuperSend:
                receiver = owner
                key = (t, node.defining_class, selector)
            else:
                receiver = receiver.value if t is RObjectSend else owner
                rt = type(receiver)
                if rt is Nil:
                    return EvalResult(Errored(NilReceiver(selector)), steps)
                if rt is IntVal:
                    val = _int_builtin(selector, args, receiver)
                    if type(val) is Stuck:
                        return EvalResult(Errored(val.reason), steps)
                    steps += 1
                    continue
                key = (t, store.records[receiver.oid].class_name, selector)
            activation = sends.get(key)
            if activation is None:
                activation = sends[key] = _activation(key, idx, _template)
            if type(activation) is Stuck:
                return EvalResult(Errored(activation.reason), steps)
            lookup_class, params, focus = activation
            if len(params) != len(args):
                return EvalResult(Errored(ArityMismatch(
                    lookup_class, selector, len(params), len(args))), steps)
            if type(focus) is Stuck:
                return EvalResult(Errored(focus.reason), steps)
            steps += 1
            owner = receiver
            env = dict(zip(params, args)) if args else {}
            break
