import sys
import tracemalloc

import pytest

from protolite.errors import UnknownFieldError
from protolite.generator import GeneratorConfig, generate_program
from protolite.metrics import DIFF_FUEL
from protolite.outcomes import (
    ArityMismatch,
    Completed,
    DoesNotUnderstand,
    Errored,
    EvalResult,
    FuelExhausted,
    NilReceiver,
    PrimitiveFailure,
    UnknownVariable,
)
from protolite.parser import parse
from protolite.reference import (
    RFieldGet,
    RFieldSet,
    RLet,
    RNew,
    RObjectSend,
    RSelfSend,
    RSuperSend,
    RVal,
    RVar,
    Redex,
    Store,
    Stuck,
    _OWNER_HOLE,
    _descend,
    _fill,
    _reduce,
    eval_program,
    step,
    translate,
)
from protolite.syntax import (
    FieldGet,
    FieldSet,
    IntLit,
    NilLit,
    Send,
    SelfRef,
    SuperSend,
)
from protolite.validate import HierarchyIndex
from protolite.values import NIL, IntVal, Oid

from tests.oracles import machine_matches_step, step_from_root


@pytest.fixture()
def idx(two_level_program):
    return HierarchyIndex(two_level_program)


def outcome(src: str, fuel: int = 100_000):
    return eval_program(parse(src), fuel).outcome


# -- translation -------------------------------------------------------------


def test_translate_self_becomes_owner(idx):
    assert translate(SelfRef(), Oid(1), "A", idx) == RVal(Oid(1))


def test_translate_field_set_attaches_owner(idx):
    p = parse("class C extends Object { fields: f; } main { nil }")
    cidx = HierarchyIndex(p)
    redex = translate(FieldSet("f", NilLit()), Oid(1), "C", cidx)
    assert redex == RFieldSet(Oid(1), "f", RVal(NIL))


def test_translate_main_context_rejects_fields(idx):
    # The initial redex is built with a nil owner in the root class, where
    # no field is visible.
    with pytest.raises(UnknownFieldError):
        translate(FieldGet("f"), NIL, "Object", idx)


def test_translate_distinguishes_send_kinds(idx):
    self_send = translate(Send(SelfRef(), "m", ()), Oid(1), "A", idx)
    assert self_send == RSelfSend(Oid(1), "A", "m", ())
    obj_send = translate(Send(NilLit(), "m", ()), Oid(1), "A", idx)
    assert obj_send == RObjectSend(RVal(NIL), "m", ())
    sup = translate(SuperSend("m", (IntLit(1),)), Oid(1), "B", idx)
    assert sup == RSuperSend(Oid(1), "B", "m", (RVal(IntVal(1)),))


# -- filling ------------------------------------------------------------------------


def test_fill_hits_matching_variable():
    assert _fill(RVar("x"), None, {"x": IntVal(7)}) == RVal(IntVal(7))
    assert _fill(RVar("y"), None, {"x": IntVal(7)}) == RVar("y")


def test_fill_shadowed_let_body_untouched():
    r = RLet("x", RVar("x"), RVar("x"))
    assert _fill(r, None, {"x": NIL}) == RLet("x", RVal(NIL), RVar("x"))


def test_fill_unshadowed_let():
    r = RLet("y", RVar("x"), RVar("x"))
    assert _fill(r, None, {"x": NIL}) == RLet("y", RVal(NIL), RVal(NIL))


def test_fill_constants_unchanged():
    assert _fill(RVal(NIL), None, {"x": NIL}) == RVal(NIL)
    assert _fill(RFieldGet(Oid(1), "f"), None, {"f": NIL}) == \
        RFieldGet(Oid(1), "f")


def test_fill_super_args():
    r = RSuperSend(Oid(1), "B", "m", (RVar("x"),))
    assert _fill(r, None, {"x": IntVal(3)}) == \
        RSuperSend(Oid(1), "B", "m", (RVal(IntVal(3)),))


# -- single steps -----------------------------------------------------------------


def test_step_on_value_is_normal_form(idx):
    assert step(RVal(NIL), Store(), idx) is None


def test_new_allocates_all_fields_nil():
    p = parse("""
        class A extends Object { fields: a; }
        class B extends A { fields: b; }
        main { new B }
    """)
    cidx = HierarchyIndex(p)
    store = Store()
    result = step(RNew("B"), store, cidx)
    assert result is not None and not isinstance(result, Stuck)
    redex, store = result
    assert redex == RVal(Oid(1))
    record = store.records[1]
    assert record.class_name == "B"
    assert record.fields == {"a": NIL, "b": NIL}


def test_field_set_reduces_to_assigned_value():
    p = parse("class C extends Object { fields: f; } main { nil }")
    cidx = HierarchyIndex(p)
    store = Store()
    oid = store.allocate("C", ("f",))
    result = step(RFieldSet(Oid(oid), "f", RVal(IntVal(5))), store, cidx)
    redex, store2 = result
    assert redex == RVal(IntVal(5))  # not nil
    assert store2.records[oid].fields["f"] == IntVal(5)


def test_let_substitutes_bound_value(idx):
    result = step(RLet("x", RVal(IntVal(2)), RVar("x")), Store(), idx)
    redex, _ = result
    assert redex == RVal(IntVal(2))


def test_object_send_sees_public_only(two_level_program, idx):
    store = Store()
    oid = store.allocate("A", ())
    result = step(RObjectSend(RVal(Oid(oid)), "protectedMethod", ()), store, idx)
    assert isinstance(result, Stuck)
    assert result.reason == DoesNotUnderstand("A", "protectedMethod")


def test_self_send_finds_subclass_override(two_level_program, idx):
    store = Store()
    oid = store.allocate("B", ())
    # A self-send annotated with defining class A still dispatches on the
    # receiver's dynamic class.
    result = step(RSelfSend(Oid(oid), "A", "protectedMethod", ()), store, idx)
    redex, _ = result
    assert redex == RVal(IntVal(42))


def test_super_send_starts_above_annotated_class(two_level_program, idx):
    store = Store()
    oid = store.allocate("B", ())
    result = step(RSuperSend(Oid(oid), "B", "publicInSubclass", ()), store, idx)
    redex, _ = result
    assert redex == RVal(IntVal(36))


def test_stuck_reasons(idx):
    store = Store()
    assert step(RVar("zz"), store, idx).reason == UnknownVariable("zz")
    assert step(RObjectSend(RVal(NIL), "m", ()), store, idx).reason == \
        NilReceiver("m")


def test_leftmost_evaluation_order():
    # Allocation order is observable through oids: receiver first, then
    # arguments left to right.
    p = parse("""
        class C extends Object {
          method pick(x, y) { self }
        }
        main { (new C).pick(new C, new C).pick(new C, nil) }
    """)
    result = eval_program(p)
    assert result.outcome == Completed(Oid(1))


def test_descend_follows_evaluation_order():
    a, b, c = RNew("A"), RNew("B"), RNew("C")
    # The receiver comes before any argument.
    send = RObjectSend(a, "m", (b, c))
    frames = []
    assert _descend(send, frames, -1) is a
    assert frames == [send, -1]
    # Arguments go left to right, past those already values.
    send = RObjectSend(RVal(NIL), "m", (RVal(NIL), b, c))
    frames = []
    assert _descend(send, frames, -1) is b
    assert frames == [send, 1]
    # Resuming from slot + 1 after a plug finds the next hole, or the parent
    # itself once every slot holds a value.
    frames = []
    assert _descend(send, frames, 2) is c
    assert frames == [send, 2]
    frames = []
    assert _descend(send, frames, 3) is send and frames == []
    # Self- and super-sends have arguments only.
    for node in (RSelfSend(NIL, "C", "m", (b,)),
                 RSuperSend(NIL, "C", "m", (b,))):
        frames = []
        assert _descend(node, frames, -1) is b and frames == [node, 0]
    # The field-write right-hand side and the let binding are slot -1; a let
    # body is not an evaluation position.
    for node in (RFieldSet(Oid(1), "f", a), RLet("x", a, b)):
        frames = []
        assert _descend(node, frames, -1) is a and frames == [node, -1]
    ready = RLet("x", RVal(NIL), b)
    frames = []
    assert _descend(ready, frames, -1) is ready and frames == []
    # Descent goes through nested parents, pushing each with its slot.
    inner = RObjectSend(a, "k", ())
    outer = RSelfSend(NIL, "C", "m", (inner, b))
    frames = []
    assert _descend(outer, frames, -1) is a
    assert frames == [outer, 0, inner, -1]
    plugged = RObjectSend(RVal(Oid(1)), "k", ())
    frames = frames[:2]
    assert _descend(plugged, frames, 0) is plugged
    assert frames == [outer, 0]


# -- whole programs ----------------------------------------------------------------


def test_golden_results(programs_dir):
    expected = {
        "golden_call_on_a.stl": Completed(IntVal(11)),
        "golden_call_on_b.stl": Completed(IntVal(42)),
        "golden_sum.stl": Completed(IntVal(84)),
        "golden_public_in_subclass.stl": Completed(IntVal(36)),
        "golden_protected_object_send.stl":
            Errored(DoesNotUnderstand("A", "protectedMethod")),
        "golden_raise_error.stl":
            Errored(DoesNotUnderstand("A", "protectedMethod")),
    }
    for name, want in expected.items():
        program = parse((programs_dir / name).read_text())
        assert eval_program(program).outcome == want, name


def test_field_state_persists():
    assert outcome("""
        class Counter extends Object {
          fields: n;
          method boot() { let ignored = (n := 3) in self.read() }
          method read() { n + 1 }
        }
        main { (new Counter).boot() }
    """) == Completed(IntVal(4))


def test_nil_receiver_errors():
    assert outcome("main { nil.m() }") == Errored(NilReceiver("m"))


def test_int_builtin_plus():
    assert outcome("main { 1 + 2 + 3 }") == Completed(IntVal(6))
    assert outcome("main { 1.foo() }") == \
        Errored(DoesNotUnderstand("Integer", "foo"))
    assert outcome("main { 1 + nil }") == \
        Errored(PrimitiveFailure("+", "argument must be an integer"))


def test_arity_mismatch_is_structured():
    assert outcome("""
        class C extends Object { method m(x) { x } }
        main { (new C).m() }
    """) == Errored(ArityMismatch("C", "m", 1, 0))


def test_unbound_variable():
    assert outcome("main { zz }") == Errored(UnknownVariable("zz"))


def test_fuel_exhaustion_and_zero_fuel():
    looping = parse("""
        class C extends Object { method spin() { self.spin() } }
        main { (new C).spin() }
    """)
    result = eval_program(looping, fuel=500)
    assert result.outcome == FuelExhausted()
    assert result.steps == 500
    assert eval_program(looping, fuel=0).outcome == FuelExhausted()


def test_determinism(two_level_program):
    a = eval_program(two_level_program)
    b = eval_program(two_level_program)
    assert a == b


def test_store_shape_invariant_along_a_run():
    # After every reduction, each record's field keys match the full field
    # set of its class.
    p = parse("""
        class A extends Object { fields: a; }
        class B extends A {
          fields: b;
          method poke() { let x = (a := 1) in (b := new A) }
        }
        main { (new B).poke() }
    """)
    cidx = HierarchyIndex(p)
    fields_of = {c.name: set(cidx.fields_of(c.name)) for c in p.classes}

    def check(redex, store):
        for record in store.records.values():
            assert set(record.fields) == fields_of[record.class_name]

    result, _ = step_from_root(p, on_step=check)
    assert isinstance(result.outcome, Completed)


# ``step`` decomposes from the root each time, so a run costs steps x redex
# depth; at DIFF_FUEL (3000) the default config's 200 seeds take about 90 s,
# at 500 about 1.3 s, with 36 of the runs still ending out of fuel. The
# protected-free config's 200 add as much again, with 40 out of fuel.
ON_STEP_CORPUS_FUEL = 500


def test_on_step_path_matches_fast_path_on_generated_corpus():
    # Iterated from the root, ``step`` descends from the root, resolves and
    # translates every send afresh and substitutes; ``eval_program``'s
    # machine walks each template in an environment and keeps its send
    # table. Both must perform the same reductions: same outcome, steps and
    # final heap. The protected-free config is ``fuzz_diff``'s mix.
    for config in (GeneratorConfig(), GeneratorConfig(allow_protected=False)):
        for seed in range(200):
            program = generate_program(seed, config)
            assert machine_matches_step(program, ON_STEP_CORPUS_FUEL), seed


def test_on_step_path_matches_fast_path(two_level_program):
    seen = []
    slow, _ = step_from_root(two_level_program,
                              on_step=lambda r, s: seen.append(1))
    fast = eval_program(two_level_program)
    assert slow == fast
    assert len(seen) == fast.steps


# -- method templates -------------------------------------------------------------


def test_each_method_is_translated_once_per_run(monkeypatch):
    # Per run, each send key's method is translated once, and the send table
    # keeps the template itself: the machine calls neither ``_fill`` nor a
    # filler, and reduces ``let`` by extending its environment. ``step``
    # translates at every activation and fills with ``_fill``.
    from protolite import reference

    def counting(real, calls, top):
        """``real``, appending ``top(*args)`` to ``calls`` for each
        outermost call that ``top`` does not map to None."""
        depth = [0]  # translate and _fill recurse through the patched name

        def call(*args):
            if depth[0] == 0 and (tag := top(*args)) is not None:
                calls.append(tag)
            depth[0] += 1
            try:
                return real(*args)
            finally:
                depth[0] -= 1
        return call

    translated, fills, kept = [], [], []
    monkeypatch.setattr(reference, "translate", counting(
        reference.translate, translated,
        lambda e, owner, cls, idx: cls if owner is _OWNER_HOLE else None))
    # The owner of each fill: None for a let, the receiver for an activation.
    monkeypatch.setattr(reference, "_fill", counting(
        reference._fill, fills, lambda r, owner, env: owner or "let"))
    real_activation = reference._activation

    def activation(key, idx, make_filler):
        found = real_activation(key, idx, make_filler)
        kept.append(found[2])
        return found

    monkeypatch.setattr(reference, "_activation", activation)
    p = parse("""
        class C extends Object { method inc(n) { n + 1 } }
        main { let c = new C in c.inc(c.inc(c.inc(0))) }
    """)
    assert eval_program(p).outcome == Completed(IntVal(3))
    assert (translated, fills) == (["C"], [])
    assert eval_program(p).outcome == Completed(IntVal(3))
    # Templates live for one run only.
    assert (translated, fills) == (["C"] * 2, [])
    assert len(kept) == 2 and all(isinstance(t, Redex) for t in kept)
    # ``step``'s fresh table translates each activation's method afresh and
    # fills it, for the receiver at oid 1, with ``_fill``.
    del translated[:], kept[:]
    result, _ = step_from_root(p)
    assert result.outcome == Completed(IntVal(3))
    assert translated == ["C"] * 3
    assert fills == ["let", Oid(1), Oid(1), Oid(1)]
    assert len(kept) == 3 and all(callable(f) for f in kept)


@pytest.mark.parametrize("source, want", [
    # A let that rebinds a parameter: its binding sees the parameter, its
    # body the let, and what follows the let the parameter again.
    ("class C extends Object {"
     "  method m(x, y) { (let x = x + 1 in x + y) + x }"
     "} main { (new C).m(100, 20) }", Completed(IntVal(221))),
    # The owner in a field read and a field write is each activation's
    # receiver.
    ("class C extends Object {"
     "  fields: f g;"
     "  method set(v) { g := v }"
     "  method copy() { f := g }"
     "} main { let a = new C in let b = new C in"
     "  let i = a.set(1) in let j = b.set(2) in a.copy() + b.copy() }",
     Completed(IntVal(3))),
    # A super-send's owner and arguments.
    ("class A extends Object {"
     "  fields: f;"
     "  method m(a, b, c) { let i = (f := a) in b }"
     "} class B extends A {"
     "  method m(a, b, c) { nil }"
     "  method go(x, y) { super.m(y, self, nil).get() }"
     "  method get() { f }"
     "} main { (new B).go(1, 2) }", Completed(IntVal(2))),
    # A free variable is reached after a let, as ``step`` reaches it.
    ("class C extends Object { method m(x) { let y = x in w.m(y) } }"
     " main { (new C).m(1) }", Errored(UnknownVariable("w"))),
    # A let's name is free again after its body.
    ("class C extends Object { method m(x) { (let y = x in y).m(y) } }"
     " main { (new C).m(1) }", Errored(UnknownVariable("y"))),
], ids=["let-rebinds-parameter", "owner-in-fields", "super-send",
        "free-variable-after-let", "let-scope-ends-with-its-body"])
def test_machine_matches_step_on_pinned_programs(source, want):
    for fuel in (1, 2, 3, 5, 100):
        result = machine_matches_step(parse(source), fuel)
    assert result.outcome == want


def _at_depth(depth, run):
    """``run()`` called with at least ``depth`` frames on the stack."""
    frame, here = sys._getframe(), 0
    while frame is not None:
        frame, here = frame.f_back, here + 1
    return run() if here >= depth else _at_depth(depth, run)


def test_machine_uses_no_host_recursion_and_a_tail_send_no_stack():
    # About 3,000 nested activations, each waiting on the next, from a
    # caller 200 frames deep under the default limit of 1,000 frames.
    deep = parse("""
        class C extends Object { method down() { 1 + self.down() } }
        main { (new C).down() }
    """)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        result = _at_depth(200, lambda: eval_program(deep, DIFF_FUEL))
    finally:
        sys.setrecursionlimit(limit)
    assert result == EvalResult(FuelExhausted(), DIFF_FUEL)
    # A tail send keeps no frame for its caller: memory stays flat over
    # 20,000 steps (6,667 activations), while the same recursion waiting on
    # a let holds more after 2,000 (each step under ``tracemalloc`` costs
    # about 20 us).
    spin = """
        class C extends Object { method spin(n) { %s } }
        main { (new C).spin(0) }
    """
    tail = parse(spin % "let m = n + 1 in self.spin(m)")
    nested = parse(spin % "let m = self.spin(n + 1) in m")
    peaks = []
    for program, fuel in ((tail, 20_000), (nested, 2_000)):
        tracemalloc.start()
        try:
            assert eval_program(program, fuel).outcome == FuelExhausted()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 32_768 < peaks[1], peaks


def test_inherited_template_uses_each_receivers_own_fields():
    assert outcome("""
        class A extends Object {
          fields: f;
          method set(v) { f := v }
          method get() { f }
        }
        class B extends A { }
        main {
          let a = new A in let b = new B in
          let ignored = a.set(1) in let ignored2 = b.set(20) in
          a.get() + b.get() + a.get()
        }
    """) == Completed(IntVal(22))


def test_let_rebinding_a_parameter_shadows_it():
    # The shadowed body still gets its owner: it reads the receiver's field.
    assert outcome("""
        class C extends Object {
          fields: f;
          method m(x) { let y = x in let x = (f := x + 10) in f + (x + y) }
        }
        main { (new C).m(5) }
    """) == Completed(IntVal(35))


def test_recursive_activations_keep_their_own_arguments():
    # Node.sum is activated twice from one template while the outer
    # activation's ``n`` is still pending.
    assert outcome("""
        class End extends Object { method sum(n) { n } }
        class Node extends Object {
          fields: next;
          method link(x) { let ignored = (next := x) in self }
          method sum(n) { n + (n + next.sum(n + 10)) }
        }
        main { (new Node).link((new Node).link(new End)).sum(1) }
    """) == Completed(IntVal(1 + 1 + 11 + 11 + 21))


def _bad_field_program(params):
    from protolite.syntax import ClassDef, MethodDef, New, Program

    cdef = ClassDef("C", "Object", (), (MethodDef("m", params, FieldGet("zz")),))
    return Program((cdef,), Send(New("C"), "m", ()))


def test_unknown_field_template_is_stuck_on_every_activation():
    from protolite.outcomes import UnknownField as UF

    program = _bad_field_program(())
    cidx = HierarchyIndex(program)
    store = Store()
    send = RObjectSend(RVal(Oid(store.allocate("C", ()))), "m", ())
    sends = {}
    first = _reduce(send, store, cidx, sends)
    second = _reduce(send, store, cidx, sends)
    assert first == second == Stuck(UF("C", "zz"))
    assert sends == {(RObjectSend, "C", "m"): ("C", (), Stuck(UF("C", "zz")))}


def test_arity_mismatch_wins_over_unknown_field():
    from protolite.outcomes import UnknownField as UF

    program = _bad_field_program(("x",))
    assert eval_program(program).outcome == \
        Errored(ArityMismatch("C", "m", 1, 0))
    cidx = HierarchyIndex(program)
    store = Store()
    receiver = RVal(Oid(store.allocate("C", ())))
    sends = {}
    right = RObjectSend(receiver, "m", (RVal(NIL),))
    assert _reduce(right, store, cidx, sends) == Stuck(UF("C", "zz"))
    wrong = RObjectSend(receiver, "m", ())
    assert _reduce(wrong, store, cidx, sends) == \
        Stuck(ArityMismatch("C", "m", 1, 0))


# -- the send table ----------------------------------------------------------------


def test_each_send_is_resolved_once_per_run(monkeypatch):
    from protolite import reference

    resolved = []
    for name in ("closest_def", "public_lookup"):
        def counting(self, cls, selector, real=getattr(HierarchyIndex, name),
                     name=name):
            resolved.append((name, cls, selector))
            return real(self, cls, selector)

        monkeypatch.setattr(HierarchyIndex, name, counting)
    translated = []
    depth = [0]  # translate recurses through the patched name
    real_translate = reference.translate

    def counting_translate(e, owner, defining_class, idx):
        if depth[0] == 0 and owner is reference._OWNER_HOLE:
            translated.append(defining_class)
        depth[0] += 1
        try:
            return real_translate(e, owner, defining_class, idx)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(reference, "translate", counting_translate)
    p = parse("""
        class C extends Object {
          method id(n) { n }
          method inc(n) { self.id(n) + 1 }
        }
        class D extends C { method inc(n) { super.inc(n) } }
        main { let d = new D in d.inc(d.inc(d.inc(0))) }
    """)
    once = [("public_lookup", "D", "inc"),  # object-send from main
            ("closest_def", "C", "inc"),  # super-send from D, walk from C
            ("closest_def", "D", "id")]  # self-send, receiver's class
    # One translation per send key, for the class where the walk found it.
    found_in = ["D", "C", "C"]
    resolved.clear()
    assert eval_program(p).outcome == Completed(IntVal(3))
    assert resolved == once
    assert translated == found_in
    assert eval_program(p).outcome == Completed(IntVal(3))
    assert resolved == once + once  # the table lives for one run only
    assert translated == found_in + found_in


def test_installed_override_answers_after_a_run():
    # The first run resolves ``who`` on B to A's definition; an install
    # copies the index, so a table kept on it would answer the new program
    # with A's method.
    from protolite.compiler import compile_program, install_method
    from protolite.syntax import MethodDef

    p = parse("""
        class A extends Object {
          method who() { 1 }
          method ask() { self.who() }
        }
        class B extends A { }
        main { let b = new B in b.ask() + b.who() }
    """)
    assert eval_program(p).outcome == Completed(IntVal(2))
    image = install_method(compile_program(p), "B",
                           MethodDef("who", (), IntLit(20)))
    assert eval_program(image.program).outcome == Completed(IntVal(40))


def test_new_of_undefined_class_is_stuck():
    from protolite.outcomes import UnknownClass

    assert outcome("main { new Ghost }") == Errored(UnknownClass("Ghost"))


def test_self_in_main_is_nil():
    assert outcome("main { self }") == Completed(NIL)
    assert outcome("main { self.m() }") == Errored(NilReceiver("m"))


def test_unknown_field_in_hand_built_body_errors_lazily():
    # The parser cannot produce this shape; building the tree directly shows
    # the evaluator reporting the bad field at activation time.
    from protolite.syntax import ClassDef, MethodDef, New, Program, Send
    from protolite.outcomes import UnknownField as UF

    cdef = ClassDef("C", "Object", (), (MethodDef("m", (), FieldGet("zz")),))
    program = Program((cdef,), Send(New("C"), "m", ()))
    result = eval_program(program)
    assert result.outcome == Errored(UF("C", "zz"))


def test_unknown_field_is_stuck_at_activation_in_both_evaluators():
    # Neither the compile nor an install checks field names: the runtime
    # checks them as it lowers a body, and a body naming a field its class
    # lacks is stuck at each activation, after the arity check and before
    # the activation's step, as in the reference evaluator. A body no run
    # activates costs nothing.
    from protolite.compiler import compile_program, install_method
    from protolite.outcomes import UnknownField as UF
    from protolite.runtime import run_image
    from protolite.syntax import ClassDef, MethodDef, New, Program, Send

    from tests.oracles import run_all_configs

    def both(program, image=None):
        image = image or compile_program(program)
        ref = eval_program(program)
        runs = {(run.outcome, run.steps) for run in
                run_all_configs(image) + run_all_configs(image)}
        assert runs == {(ref.outcome, ref.steps)}
        return ref.outcome, ref.steps

    def bad(params, body):
        return ClassDef("C", "Object", ("f",), (MethodDef("m", params, body),))

    zz = FieldGet("zz")
    call = Send(New("C"), "m", ())
    assert both(Program((bad((), zz),), call)) == (Errored(UF("C", "zz")), 1)
    assert both(Program((bad(("x",), zz),), call)) == \
        (Errored(ArityMismatch("C", "m", 1, 0)), 1)
    assert both(Program((bad((), zz),), IntLit(1))) == \
        (Completed(IntVal(1)), 0)
    # Main's class is Object, which has no field.
    assert both(Program((bad((), zz),), FieldGet("f"))) == \
        (Errored(UF("Object", "f")), 0)
    # Of several unknown fields, the first met walking each node before its
    # children and a send's receiver before its arguments.
    two = Send(FieldGet("r"), "g", (FieldSet("a", FieldGet("b")),))
    assert both(Program((bad((), two),), call)) == \
        (Errored(UF("C", "r")), 1)
    three = Send(FieldGet("f"), "g", (FieldSet("a", FieldGet("b")),))
    assert both(Program((bad((), three),), call)) == \
        (Errored(UF("C", "a")), 1)
    # An install adds the bad method without complaint.
    image = compile_program(Program(
        (ClassDef("C", "Object", ("f",), ()),), IntLit(1)))
    grown = install_method(image, "C", MethodDef("m", (), zz))
    program = Program(grown.program.classes, call)
    assert run_image(grown).outcome == Completed(IntVal(1))
    assert both(program) == (Errored(UF("C", "zz")), 1)
