"""Image execution with one visibility-blind method lookup and two caches.

The lookup walks the superclass chain and returns the first dictionary entry
for the requested selector; protection is entirely a matter of which symbols
exist in which dictionaries, so no visibility logic appears here.

Two optional layers sit in front of it:

* a global lookup cache -- a fixed table of 1024 slots keyed by
  (receiver class, selector); one scan of at most three probed slots hits,
  or stops at the first empty slot and installs the chain walk's result
  there (three taken slots evict the home slot)
* per-send-site inline caches that memoise receiver class -> method and grow
  monomorphic -> polymorphic -> megamorphic; an entry also holds the
  callee's code, so a hit goes straight to the activation. A hit skips the
  arity check too: the miss that filled the entry checked the arity after
  the fill, a mismatch ends the run, and a site always passes the same
  number of arguments

Object, self- and super-sends share one miss path in the run loop. Failed
lookups are never cached at either level, because installing a method
later may change them. Caches affect statistics only, never outcomes.

Execution does not walk expression trees. Each method body, and the image's
main expression, is lowered from its source tree into a flat postfix *code
array* of ``(opcode, a, b)`` instructions ending in ``RETURN``; that is the
one translation a body gets. Each send instruction gets a new send site as
it is emitted (``compiler.send_site``): the selector tagged plain or mangled
under the method's build, interned, and numbered in the table the compile
shares with its installs, so site ids follow the order bodies first run.
The same walk checks the field names against the method's class, as the
reference evaluator does when it activates a method: a body naming a field
its class lacks is stuck with ``UnknownField`` at each activation, after the
arity check and before any step. Variables are resolved to numbered slots of
the activation's environment while lowering, so a variable read is a list
index and a ``let`` needs no environment copy. The lowering is lazy -- a
method's code is built at its first activation and kept on its compiled
method -- so large images pay only for the methods they run. It is one
recursive descent, a frame a level, over a tree the parser bounds
(``parser.MAX_NESTING``), and it loops down let bodies, so the long let
chains ``bench`` builds cost no depth.

One loop runs every activation. A frame is ``(code, pc, env, owner,
defining)``; a send saves the caller's frame and switches to the callee's
code, and ``RETURN`` restores it. A send that is the last instruction of its
code reuses the caller's frame instead, so self-recursive loops (also when
wrapped in ``let``) run in constant space, and no depth of activation ever
touches the host's recursion limit.

Integers are plain Python ``int``s inside the runtime, unboxed as
Smalltalk-80's SmallIntegers are: constants, stack slots, environments and
field values hold them raw. Object references are unboxed too, as a private
``_Ref`` of oid and class name, so a send reads the receiver's class off the
reference; the fields stay in ``records``. ``run`` boxes once, at the
boundary, so a final ``int`` comes back as ``Completed(IntVal(n))`` and a
final reference as ``Completed(Oid(n))``. Anything that later reads
``records`` from outside, such as a heap comparison against the reference
evaluator's store, must box both its integers and its ``_Ref``s. A ``+``
send with one argument lowers to its own ``ADD`` instruction, whose inline
fast path adds two integers; any other operands take the generic send on
the same site (Deutsch & Schiffman, POPL 1984).

Step accounting deliberately matches the reference evaluator event for event
(allocations, field reads/writes, sends, let bindings), so a fuel budget
means the same thing to both and fuel-bounded runs stay comparable. The
reference checks the fuel before it tries each reduction, so a stuck state
met with the fuel spent is ``FuelExhausted`` there; ``Interpreter.run``
reports it the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._collector import collector_paused
from .compiler import CompiledMethod, RuntimeImage, Symbol, send_site
from .errors import UnknownFieldError
from .outcomes import (
    DEFAULT_FUEL,
    ArityMismatch,
    Completed,
    DoesNotUnderstand,
    Errored,
    FuelExhausted,
    NilReceiver,
    PrimitiveFailure,
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
    SelfRef,
    Send,
    SuperSend,
    Var,
)
from .values import INT_CLASS, NIL, IntVal, Nil, Oid

GLOBAL_CACHE_SIZE = 1024
INLINE_CACHE_LIMIT = 6  # polymorphic entries before a site goes megamorphic

_HASH_A = 0x9E3779B1
_HASH_B = 0x85EBCA77


@dataclass
class GlobalCache:
    """Fixed-size (class, selector) -> method table with linear re-probing.

    Plain data; ``cached_lookup`` reads and fills it. A slot is None or
    ``(class name, symbol, method, defining class)``. Slot keys compare
    selectors by identity: an image interns one Symbol per selector text.
    """

    slots: list = field(
        default_factory=lambda: [None] * GLOBAL_CACHE_SIZE)
    probe_hits: list[int] = field(default_factory=lambda: [0, 0, 0])
    misses: int = 0
    installs: int = 0


class _Megamorphic(tuple):
    """Inline-cache state of a site that gave up caching.

    An empty tuple, so the hit path iterates it like an unfilled site.
    """

    def __repr__(self) -> str:
        return "<megamorphic>"


MEGAMORPHIC = _Megamorphic()


class _Ref:
    """An object reference inside a run: its oid and its class name.

    The fields stay in the interpreter's ``records``, so a cyclic heap
    builds no cycle of Python objects. ``run`` boxes a final one as Oid.
    """

    __slots__ = ("oid", "cls")

    def __init__(self, oid: int, cls: str):
        self.oid = oid
        self.cls = cls


@dataclass
class CacheStats:
    """Counters gathered by one runtime instance."""

    probe_hits: tuple[int, int, int] = (0, 0, 0)
    misses: int = 0
    installs: int = 0
    ic_hits: int = 0
    ic_fills: int = 0
    distinct_keys: int = 0
    ic_monomorphic: int = 0
    ic_polymorphic: int = 0
    ic_megamorphic: int = 0

    @property
    def consultations(self) -> int:
        return sum(self.probe_hits) + self.misses

    def to_json(self) -> dict:
        return {
            "probe1": self.probe_hits[0],
            "probe2": self.probe_hits[1],
            "probe3": self.probe_hits[2],
            "misses": self.misses,
            "installs": self.installs,
            "distinctKeys": self.distinct_keys,
            "icHits": self.ic_hits,
            "icFills": self.ic_fills,
            "ic": {
                "mono": self.ic_monomorphic,
                "poly": self.ic_polymorphic,
                "mega": self.ic_megamorphic,
            },
        }


def default_lookup(class_name: str, selector: Symbol,
                   image: RuntimeImage) -> tuple[CompiledMethod, str] | None:
    """Walk the superclass chain for the first dictionary hit; None if absent.

    The one and only lookup algorithm: no visibility logic, no special cases.
    """
    classes = image.classes
    cursor: str | None = class_name
    while cursor is not None:
        icls = classes[cursor]
        method = icls.dictionary.get(selector)
        if method is not None:
            return method, cursor
        cursor = icls.superclass
    return None


def cached_lookup(class_name: str, selector: Symbol, cache: GlobalCache,
                  image: RuntimeImage) -> tuple[CompiledMethod, str] | None:
    """Global-cache-fronted lookup in one scan of the probed slots.

    Slots are never emptied during a run and a key is installed at the
    first empty slot of its probes, so the scan stops there: that slot is
    both the miss verdict and the install target; three taken slots evict
    the home slot. Failures are not cached. The scan of the three probed
    slots is unrolled, the hash written inline.
    """
    base = ((image.classes[class_name].class_id * _HASH_A)
            ^ (selector.id * _HASH_B)) & 0xFFFFFFFF
    slots = cache.slots
    home = target = base % GLOBAL_CACHE_SIZE
    slot = slots[home]
    if slot is not None:
        if slot[1] is selector and slot[0] == class_name:
            cache.probe_hits[0] += 1
            return slot[2], slot[3]
        target = (base + 1) % GLOBAL_CACHE_SIZE
        slot = slots[target]
        if slot is not None:
            if slot[1] is selector and slot[0] == class_name:
                cache.probe_hits[1] += 1
                return slot[2], slot[3]
            target = (base + 2) % GLOBAL_CACHE_SIZE
            slot = slots[target]
            if slot is not None:
                if slot[1] is selector and slot[0] == class_name:
                    cache.probe_hits[2] += 1
                    return slot[2], slot[3]
                target = home
    cache.misses += 1
    found = default_lookup(class_name, selector, image)
    if found is not None:
        slots[target] = (class_name, selector, found[0], found[1])
        cache.installs += 1
    return found


# -- code arrays ------------------------------------------------------------------
#
# Instructions are (opcode, a, b) triples:
#
#   LOAD slot          push env[slot]
#   CONST value        push an int or nil fixed at lowering time
#   SELF               push the frame's owner
#   ADD site 1         '+': add two ints in place, else SEND on the site
#   SEND site nargs    send to the receiver below the nargs arguments
#   SELF_SEND site n   send to the owner
#   SUPER_SEND site n  send to the owner, looked up above the defining class
#   LET slot           pop into env[slot] (one step)
#   GET field          push a field of the owner (one step)
#   SET field          write the top of stack to a field, leaving it (one step)
#   NEW class          push a fresh instance (one step)
#   UNBOUND name       stuck: the variable is bound nowhere in scope
#   RETURN             end of code: the top of stack is the result

# The run loop tests ADD first, then the rest in this order, and the three
# sends as one range.
(LOAD, CONST, RETURN, ADD, SEND, SELF_SEND, SUPER_SEND, SELF, LET, GET, SET,
 NEW, UNBOUND) = range(13)

_RETURN = (RETURN, None, None)


def _lower_code(method: CompiledMethod) -> tuple:
    """Lower a method's body to ``(instructions, parameter count, let
    padding)``, making each send's site as its instruction is emitted.

    The padding is a tuple of one None per let slot; an activation's
    environment is a list of its arguments followed by the padding.
    Variables become environment slots: parameters take slots 0..n-1 (a
    repeated name binds its last position, as ``dict(zip(params, args))``
    would); each ``let`` takes the next slot above those live at its
    binding. A body that names a field its class lacks lowers to ``(None,
    None, reason)``: no parameter count matches, and ``reason`` is the
    ``UnknownField`` of the first such field the walk meets, as in the
    reference evaluator.
    """
    code: list[tuple] = []
    params = method.params
    nparams = len(params)
    fields = method.build.index.fields_of(method.origin_class or ROOT_CLASS)
    try:
        nslots = _lower(method.body, dict(zip(params, range(nparams))),
                        nparams, code.append, method, fields)
    except UnknownFieldError as err:
        return None, None, UnknownField(err.class_name, err.field)
    code.append(_RETURN)
    # A plain tuple: this runs once per activated body, often for bodies
    # that run only once, so construction cost matters.
    return code, nparams, (None,) * (nslots - nparams)


def _lower(node: Expr, scope: dict[str, int], depth: int, emit,
           method: CompiledMethod, fields: tuple[str, ...]) -> int:
    """Emit the code of ``node``, whose variables ``scope`` maps to slots,
    with ``depth`` slots live; return the slots its lets reach. Raises
    UnknownFieldError for a field not in ``fields``. One frame a level: it
    recurses into receivers, arguments, let bindings and field-write values,
    and loops down let bodies."""
    reach = depth
    while type(node) is Let:
        reach = max(reach, depth + 1,
                    _lower(node.bound, scope, depth, emit, method, fields))
        emit((LET, depth, None))
        scope = {**scope, node.var: depth}
        depth += 1
        node = node.body
    kind = type(node)
    if kind is Send or kind is SuperSend:
        args = node.args
        receiver = node.receiver if kind is Send else None
        op = (SUPER_SEND if receiver is None
              else SELF_SEND if type(receiver) is SelfRef
              else ADD if node.selector == "+" and len(args) == 1
              else SEND)
        # The receiver is on the stack, not the owner, for ADD and SEND.
        for child in (receiver, *args) if op <= SEND else args:
            top = _lower(child, scope, depth, emit, method, fields)
            if top > reach:
                reach = top
        emit((op, send_site(method, node), len(args)))
    elif kind is IntLit:
        emit((CONST, node.value, None))
    elif kind is SelfRef:
        emit((SELF, None, None))
    elif kind is Var:
        slot = scope.get(node.name)
        emit((UNBOUND, node.name, None) if slot is None
             else (LOAD, slot, None))
    elif kind is New:
        emit((NEW, node.class_name, None))
    elif kind is NilLit:
        emit((CONST, NIL, None))
    elif kind is FieldGet or kind is FieldSet:
        if node.field not in fields:
            raise UnknownFieldError(method.origin_class or ROOT_CLASS,
                                    node.field)
        if kind is FieldGet:
            emit((GET, node.field, None))
        else:
            reach = max(reach, _lower(node.value, scope, depth, emit, method,
                                      fields))
            emit((SET, node.field, None))
    else:
        raise TypeError(f"not an expression: {node!r}")
    return reach


def _code_of(method: CompiledMethod) -> tuple:
    """A method's code, lowered at its first activation and kept on it."""
    code = method.code
    if code is None:
        code = method.code = _lower_code(method)
    return code


class _Stop(Exception):
    """Internal control flow for stuck states and fuel exhaustion."""

    def __init__(self, outcome):
        self.outcome = outcome


def _stuck(reason) -> _Stop:
    return _Stop(Errored(reason))


@dataclass
class RunResult:
    outcome: object
    steps: int
    stats: CacheStats


class Interpreter:
    """One evaluation of an image's main expression.

    Instances own their store, caches, and statistics. The images of one
    compile share their compiled methods' code, the symbols and the site
    numbering: the first run to activate a body lowers it, numbering its
    sites in the order that run reaches them, and every later run of any
    of those images reuses that code. Runs over them therefore take turns;
    a run sizes its site caches when it starts and grows them as it lowers.
    """

    def __init__(self, image: RuntimeImage, *, global_cache_on: bool = True,
                 inline_cache_on: bool = True, fuel: int = DEFAULT_FUEL,
                 shadow_lookup_check: bool = False):
        self.image = image
        self.inline_cache_on = inline_cache_on
        self.fuel = fuel
        self.shadow_lookup_check = shadow_lookup_check
        # None when the global cache is off, so such a run builds no table.
        self.global_cache = GlobalCache() if global_cache_on else None
        # Per send site, indexed by site id: () while unfilled, a list of
        # (class name, (method, defining class), callee code) entries, or
        # MEGAMORPHIC. Sized by the run, as sites are made by lowering.
        self.site_caches: list = []
        # Field values are unboxed: an int, nil or a _Ref.
        self.records: dict[int, tuple[str, dict[str, Nil | int | _Ref]]] = {}
        self.next_oid = 1
        self.steps = 0
        self.distinct_keys: set[tuple[str, str]] = set()
        self.ic_hits = 0
        self.ic_fills = 0

    def class_of_oid(self, oid: int) -> str:
        return self.records[oid][0]

    def _check_shadow(self, class_name: str, sym: Symbol, found) -> None:
        shadow = default_lookup(class_name, sym, self.image)
        if shadow != found:
            raise AssertionError(
                f"cached lookup diverged for ({class_name}, {sym.text}): "
                f"{found} != {shadow}")

    # -- execution ----------------------------------------------------------------

    @collector_paused
    def run(self) -> RunResult:
        if self.fuel <= 0:
            return RunResult(FuelExhausted(), 0, self._stats())
        try:
            value = self._execute()
            # The one place a runtime integer or reference is boxed.
            kind = value.__class__
            outcome = Completed(IntVal(value) if kind is int
                                else Oid(value.oid) if kind is _Ref
                                else value)
        except _Stop as stop:
            outcome = stop.outcome
            # The reference tries no reduction once the fuel is spent, so
            # it never reaches a stuck state there.
            if outcome.__class__ is Errored and self.steps >= self.fuel:
                outcome = FuelExhausted()
        return RunResult(outcome, self.steps, self._stats())

    def _execute(self) -> Nil | int | _Ref:
        """Run main's code to its final RETURN; stuck states raise _Stop.

        The hot state lives in locals and is written back on the way out.
        """
        image = self.image
        classes = image.classes
        records = self.records
        site_caches = self.site_caches
        inline_cache_on = self.inline_cache_on
        shadow_lookup_check = self.shadow_lookup_check
        global_cache = self.global_cache
        add_key = self.distinct_keys.add
        fuel = self.fuel
        steps = self.steps
        ic_hits = self.ic_hits
        ic_fills = self.ic_fills
        next_oid = self.next_oid

        sites = image.symbols.sites
        code, _, pad = _code_of(image.main)
        if code is None:  # main names a field: Object has none
            raise _stuck(pad)
        # Sites made by this lowering or by earlier runs' get a cache.
        site_caches += [()] * (len(sites) - len(site_caches))
        env: list = list(pad)
        owner: Nil | _Ref = NIL
        defining = ROOT_CLASS
        pc = 0
        stack: list[Nil | int | _Ref] = []
        push = stack.append
        pop = stack.pop
        frames: list[tuple] = []
        try:
            while True:
                op, a, b = code[pc]
                pc += 1
                if op == ADD:
                    arg = stack[-1]
                    receiver = stack[-2]
                    if receiver.__class__ is int and arg.__class__ is int:
                        if steps >= fuel:
                            raise _Stop(FuelExhausted())
                        steps += 1
                        pop()
                        stack[-1] = receiver + arg
                        continue
                    op = SEND
                if op == LOAD:
                    push(env[a])
                elif op == CONST:
                    push(a)
                elif op == RETURN:
                    if not frames:
                        assert len(stack) == 1
                        return stack[0]
                    code, pc, env, owner, defining = frames.pop()
                elif op <= SUPER_SEND:  # SEND, SELF_SEND, SUPER_SEND
                    # a is the site, b the argument count.
                    found = None
                    if op == SUPER_SEND:
                        receiver = owner
                        lookup_class = classes[defining].superclass
                        if lookup_class is None:
                            raise _stuck(DoesNotUnderstand(ROOT_CLASS,
                                                           a.plain_text))
                    else:
                        receiver = owner if op == SELF_SEND else stack[-1 - b]
                        if receiver.__class__ is not _Ref:
                            raise _receiver_failure(receiver, a.plain_text, b)
                        lookup_class = receiver.cls
                        if inline_cache_on:
                            for cached_class, found, callee in \
                                    site_caches[a.site_id]:
                                if cached_class == lookup_class:
                                    ic_hits += 1
                                    if shadow_lookup_check:
                                        self._check_shadow(
                                            lookup_class, a.selector, found)
                                    break
                            else:
                                found = None
                    if found is None:
                        # Every send's miss path. Inline-cache hits skip
                        # the key count: the fill counted the key. Tracers
                        # rebind the two lookups' module globals.
                        sym = a.selector
                        add_key((lookup_class, sym.text))
                        if global_cache is not None:
                            found = cached_lookup(lookup_class, sym,
                                                  global_cache, image)
                        else:
                            found = default_lookup(lookup_class, sym, image)
                        if shadow_lookup_check:
                            self._check_shadow(lookup_class, sym, found)
                        if found is None:
                            # Diagnostics show the unmangled selector.
                            raise _stuck(DoesNotUnderstand(lookup_class,
                                                           a.plain_text))
                        callee = found[0].code
                        if callee is None:
                            callee = _code_of(found[0])
                            site_caches += [()] * (len(sites)
                                                   - len(site_caches))
                        # A super-send's start class is static: no fill.
                        if inline_cache_on and op != SUPER_SEND:
                            entry = site_caches[a.site_id]
                            if entry is not MEGAMORPHIC:
                                ic_fills += 1
                                if not entry:
                                    site_caches[a.site_id] = [
                                        (lookup_class, found, callee)]
                                elif len(entry) < INLINE_CACHE_LIMIT:
                                    entry.append((lookup_class, found, callee))
                                else:
                                    site_caches[a.site_id] = MEGAMORPHIC
                        # A hit skips this check. The fill comes first and a
                        # mismatch ends the run; a site always passes the
                        # same argument count, so every entry a later hit
                        # finds has passed it. A body naming an unknown
                        # field has no parameter count: it is stuck here
                        # too, once its arity matches.
                        if callee[1] != b:
                            nparams = len(found[0].params)
                            raise _stuck(callee[2] if nparams == b
                                         else ArityMismatch(lookup_class,
                                                            a.plain_text,
                                                            nparams, b))
                    # The activation, shared by hits and misses.
                    if steps >= fuel:
                        raise _Stop(FuelExhausted())
                    steps += 1
                    callee_code, _, pad = callee
                    if b:
                        callee_env = stack[-b:]
                        del stack[-b:]
                        callee_env += pad
                    else:
                        # Code without parameters or lets reads no slot, so
                        # it shares the empty padding tuple.
                        callee_env = list(pad) if pad else pad
                    if op == SEND:
                        pop()
                    if code[pc] is not _RETURN:
                        frames.append((code, pc, env, owner, defining))
                    code = callee_code
                    pc = 0
                    env = callee_env
                    owner = receiver
                    defining = found[1]
                elif op == SELF:
                    push(owner)
                elif op == LET:
                    if steps >= fuel:
                        raise _Stop(FuelExhausted())
                    steps += 1
                    env[a] = pop()
                elif op == GET or op == SET:
                    # Lowering admits only the enclosing class's fields,
                    # none in main, and every receiver's record holds them.
                    fields = records[owner.oid][1]
                    if steps >= fuel:
                        raise _Stop(FuelExhausted())
                    steps += 1
                    if op == GET:
                        push(fields[a])
                    else:
                        # A field write reduces to its value.
                        fields[a] = stack[-1]
                elif op == NEW:
                    icls = classes.get(a)
                    if icls is None:
                        raise _stuck(UnknownClass(a))
                    if steps >= fuel:
                        raise _Stop(FuelExhausted())
                    steps += 1
                    records[next_oid] = (a, dict.fromkeys(icls.all_fields,
                                                          NIL))
                    push(_Ref(next_oid, a))
                    next_oid += 1
                else:  # UNBOUND
                    raise _stuck(UnknownVariable(a))
        finally:
            self.steps = steps
            self.ic_hits = ic_hits
            self.ic_fills = ic_fills
            self.next_oid = next_oid

    def sites(self) -> list[dict]:
        """Polymorphic and megamorphic send sites in site order, read after
        the run from the site caches, so only from bodies that ran (main's
        sites have no class). A megamorphic site kept no receivers."""
        sites = self.image.symbols.sites
        rows = []
        for site_id, entry in enumerate(self.site_caches):
            mega = entry is MEGAMORPHIC
            if mega or len(entry) > 1:
                site = sites[site_id]
                rows.append({
                    "site": site_id,
                    "class": site.origin_class,
                    "method": "main" if site.method is None
                    else site.method.text,
                    "selector": site.plain_text,
                    "state": "mega" if mega else "poly",
                    "receivers": [e[0] for e in entry]})
        return rows

    def _stats(self) -> CacheStats:
        mono = poly = mega = 0
        for entry in self.site_caches:
            if entry:
                if len(entry) == 1:
                    mono += 1
                else:
                    poly += 1
            elif entry is MEGAMORPHIC:
                mega += 1
        gc = self.global_cache
        # With the global cache off, its counters keep CacheStats' zeros.
        gc_counts = {} if gc is None else {
            "probe_hits": tuple(gc.probe_hits), "misses": gc.misses,
            "installs": gc.installs}
        return CacheStats(
            **gc_counts,
            ic_hits=self.ic_hits,
            ic_fills=self.ic_fills,
            distinct_keys=len(self.distinct_keys),
            ic_monomorphic=mono,
            ic_polymorphic=poly,
            ic_megamorphic=mega,
        )


def _receiver_failure(receiver: Nil | int, selector: str, nargs: int) -> _Stop:
    """The stuck state of a send to nil, or to an integer that ADD did not
    answer ('+' on two ints never gets to a send)."""
    if receiver.__class__ is Nil:
        return _stuck(NilReceiver(selector))
    if selector != "+":
        return _stuck(DoesNotUnderstand(INT_CLASS, selector))
    if nargs != 1:
        return _stuck(ArityMismatch(INT_CLASS, "+", 1, nargs))
    return _stuck(PrimitiveFailure("+", "argument must be an integer"))


def run_image(image: RuntimeImage, *, global_cache_on: bool = True,
              inline_cache_on: bool = True, fuel: int = DEFAULT_FUEL,
              shadow_lookup_check: bool = False) -> RunResult:
    """Evaluate an image's main expression under the given cache config."""
    interp = Interpreter(image, global_cache_on=global_cache_on,
                         inline_cache_on=inline_cache_on, fuel=fuel,
                         shadow_lookup_check=shadow_lookup_check)
    return interp.run()
