import gc
import json
import random
import tracemalloc

import pytest

from protolite import cli
from protolite.compiler import CompileMode, compile_program
from protolite.metrics import DIFF_FUEL, differential_run
from protolite.outcomes import (
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
from protolite.parser import parse
from protolite.reference import eval_program
from protolite.runtime import (
    GLOBAL_CACHE_SIZE,
    INLINE_CACHE_LIMIT,
    GlobalCache,
    Interpreter,
    cached_lookup,
    default_lookup,
    run_image,
)
from protolite.syntax import (
    ClassDef,
    FieldGet,
    IntLit,
    Let,
    MethodDef,
    New,
    NilLit,
    Program,
    Send,
    Var,
)
from protolite.values import IntVal, Oid

from tests.oracles import probe_index, run_all_configs


@pytest.fixture()
def image(two_level_program):
    return compile_program(two_level_program)


# -- default lookup ------------------------------------------------------------


def test_default_lookup_skips_protected_plain(image):
    sym = image.symbols.intern("protectedMethod")
    assert default_lookup("B", sym, image) is None


def test_default_lookup_finds_mangled_override(image):
    sym = image.symbols.intern("__protectedMethod")
    method, defining = default_lookup("B", sym, image)
    assert defining == "B"
    assert method.visibility == "protected"


def test_default_lookup_walks_chain_for_double_registered(image):
    sym = image.symbols.intern("__callProtected")
    method, defining = default_lookup("B", sym, image)
    assert defining == "A"
    assert method.origin_class == "A"


# -- global cache ------------------------------------------------------------------


def test_cached_lookup_miss_then_probe1_hit(image):
    cache = GlobalCache()
    sym = image.symbols.intern("sum")
    first = cached_lookup("B", sym, cache, image)
    assert first is not None
    assert cache.misses == 1 and cache.installs == 1
    second = cached_lookup("B", sym, cache, image)
    assert second == first
    assert cache.probe_hits[0] == 1


def test_cached_lookup_does_not_cache_failures(image):
    cache = GlobalCache()
    sym = image.symbols.intern("protectedMethod")
    assert cached_lookup("B", sym, cache, image) is None
    assert cached_lookup("B", sym, cache, image) is None
    assert cache.misses == 2
    assert cache.installs == 0


def _home(image, class_name, sym):
    return probe_index(image.classes[class_name].class_id, sym.id, 0)


def _probe_slot(home, probe):
    return (home + probe) % GLOBAL_CACHE_SIZE


def test_probe2_hit_after_slot_collision(image):
    # A foreign key holds the home slot; the miss installs one slot over,
    # and the next lookup finds it at the second probe.
    cache = GlobalCache()
    sym = image.symbols.intern("sum")
    entry = default_lookup("B", sym, image)
    home = _home(image, "B", sym)
    cache.slots[home] = ("Other", sym, entry[0], entry[1])
    assert cached_lookup("B", sym, cache, image) == entry
    assert cache.slots[_probe_slot(home, 1)][0] == "B"
    hit = cached_lookup("B", sym, cache, image)
    assert hit == entry
    assert cache.probe_hits == [0, 1, 0]


def test_miss_installs_at_first_empty_probe(image):
    # Home foreign, home+1 empty, home+2 foreign: the scan stops at the empty
    # slot, installs there and leaves the third probe alone.
    cache = GlobalCache()
    sym = image.symbols.intern("sum")
    entry = default_lookup("B", sym, image)
    home = _home(image, "B", sym)
    third = ("Foreign2", sym, entry[0], entry[1])
    cache.slots[home] = ("Foreign0", sym, entry[0], entry[1])
    cache.slots[_probe_slot(home, 2)] = third
    assert cached_lookup("B", sym, cache, image) == entry
    assert cache.slots[_probe_slot(home, 1)] == ("B", sym, entry[0],
                                                 entry[1])
    assert cache.slots[_probe_slot(home, 2)] is third
    assert (cache.misses, cache.installs) == (1, 1)
    assert cached_lookup("B", sym, cache, image) == entry
    assert cache.probe_hits == [0, 1, 0]


def test_eviction_when_all_probes_foreign(image):
    cache = GlobalCache()
    sym = image.symbols.intern("sum")
    entry = default_lookup("B", sym, image)
    home = _home(image, "B", sym)
    for i in range(len(cache.probe_hits)):
        cache.slots[_probe_slot(home, i)] = \
            (f"Foreign{i}", sym, entry[0], entry[1])
    assert cached_lookup("B", sym, cache, image) == entry
    assert cache.slots[home][0] == "B"
    assert [cache.slots[_probe_slot(home, i)][0] for i in (1, 2)] == \
        ["Foreign1", "Foreign2"]
    assert cached_lookup("B", sym, cache, image) == entry
    assert cache.probe_hits == [1, 0, 0]


def _model_lookup(model, counts, class_name, sym, image):
    """The documented cache rules, written out: consult all three probes
    from probe_index; on a miss install a found method at the first empty
    probe, else at the home slot; never install a failure."""
    class_id = image.classes[class_name].class_id
    probes = [probe_index(class_id, sym.id, k)
              for k in range(len(counts["probe_hits"]))]
    for k, i in enumerate(probes):
        slot = model[i]
        if slot is not None and slot[0] == class_name and slot[1] is sym:
            counts["probe_hits"][k] += 1
            return slot[2], slot[3]
    counts["misses"] += 1
    found = default_lookup(class_name, sym, image)
    if found is not None:
        empty = [i for i in probes if model[i] is None]
        model[empty[0] if empty else probes[0]] = (class_name, sym) + found
        counts["installs"] += 1
    return found


@pytest.mark.parametrize("seed", range(12))
def test_cached_lookup_follows_the_documented_rules(seed):
    # Foreign keys pre-fill a random share of the slots so that collisions,
    # probe-2/3 hits and evictions all occur among the image's few keys.
    rng = random.Random(seed)
    image = compile_program(parse("""
        class A extends Object {
          method m() { 1 } method n() { 2 } protected method h() { 3 }
          method go() { self.h() }
        }
        class B extends A { method m() { 4 } protected method h() { 5 } }
        class C extends B { method k() { 6 } }
        main { (new C).go() }
    """))
    syms = [image.symbols.intern(t)
            for t in ("m", "n", "h", "__h", "go", "__go", "k", "absent")]
    cache = GlobalCache()
    density = rng.random()
    for i in range(GLOBAL_CACHE_SIZE):
        if rng.random() < density:
            cache.slots[i] = (f"Foreign{i}", rng.choice(syms), None, None)
    model = list(cache.slots)
    counts = {"probe_hits": [0, 0, 0], "misses": 0, "installs": 0}
    for _ in range(400):
        class_name = rng.choice(sorted(image.classes))
        sym = rng.choice(syms)
        expected = _model_lookup(model, counts, class_name, sym, image)
        assert cached_lookup(class_name, sym, cache, image) == expected
        assert cache.slots == model
        assert (cache.probe_hits, cache.misses, cache.installs) == \
            (counts["probe_hits"], counts["misses"], counts["installs"])


# -- dispatch and inline caches -----------------------------------------------------


def test_monomorphic_site_one_fill_then_hits():
    # hop's body holds the one send site of interest; driving it through n
    # fresh instances of one class fills its inline cache once and hits
    # every time after.
    from protolite.bench import repeat_main

    n = 1000
    base = parse("""
        class C extends Object {
          method hop() { self.probe() }
          method probe() { 1 }
        }
        main { (new C).hop() }
    """)
    image = compile_program(repeat_main(base, n))
    result = Interpreter(image).run()
    assert result.outcome == Completed(IntVal(1))
    # probe stays monomorphic across all n activations: the whole run fills
    # each site exactly once and every other dispatch is an IC hit.
    assert result.stats.ic_megamorphic == 0
    assert result.stats.ic_polymorphic == 0
    hop_sites = n  # one per replica in main
    probe_sites = 1
    assert result.stats.ic_fills == hop_sites + probe_sites
    assert result.stats.ic_hits == (n - 1) * probe_sites
    assert result.stats.consultations == result.stats.ic_fills


def test_polymorphic_and_megamorphic_transitions():
    n_classes = INLINE_CACHE_LIMIT + 2
    classes = "\n".join(
        f"class P{i} extends Object {{ method probe() {{ {i} }} }}"
        for i in range(n_classes))
    # One shared send site: the receiver is a method parameter.
    p = parse(f"""
        {classes}
        class Driver extends Object {{
          method hit(x) {{ x.probe() }}
          method go() {{
            {' '.join(f'let d{i} = self.hit(new P{i}) in' for i in range(n_classes))}
            0
          }}
        }}
        main {{ (new Driver).go() }}
    """)
    image = compile_program(p)
    result = run_image(image)
    assert result.outcome == Completed(IntVal(0))
    assert result.stats.ic_megamorphic == 1


def test_dnu_diagnostics_strip_mangling(image):
    # A mangled self-send that misses must not leak the prefix.
    p = parse("""
        class A extends Object {
          protected method seed() { 1 }
          method go() { self.ghost() }
        }
        class B extends A { protected method ghost() { 2 } }
        main { (new A).go() }
    """)
    result = run_image(compile_program(p))
    assert result.outcome == Errored(DoesNotUnderstand("A", "ghost"))


def test_golden_outcomes_under_all_cache_configs(programs_dir):
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
        image = compile_program(parse((programs_dir / name).read_text()))
        for result in run_all_configs(image):
            assert result.outcome == want, name


def test_zero_fuel_is_exhausted_immediately(image):
    assert run_image(image, fuel=0).outcome == FuelExhausted()


def test_protected_free_image_runs_like_baseline():
    p = parse("""
        class A extends Object { method m() { self.n() } method n() { 4 } }
        main { (new A).m() }
    """)
    normal = run_image(compile_program(p))
    baseline = run_image(compile_program(p, CompileMode.BASELINE))
    assert normal.outcome == baseline.outcome
    assert normal.steps == baseline.steps


def test_shadow_lookup_check_runs_clean(image):
    result = run_image(image, shadow_lookup_check=True)
    assert result.outcome == Completed(IntVal(84))


def test_super_dispatch_uses_static_start():
    # The inherited method activates with its origin as the defining class,
    # so super starts above that origin, not above the receiver's class --
    # otherwise this program would loop on B's own override.
    p = parse("""
        class A extends Object { method m() { 1 } }
        class B extends A { method m() { super.m() + 10 } }
        class C extends B { }
        main { (new C).m() }
    """)
    result = run_image(compile_program(p))
    assert result.outcome == Completed(IntVal(11))


def test_distinct_keys_tracked_without_global_cache(image):
    with_cache = run_image(image)
    without = run_image(image, global_cache_on=False)
    assert with_cache.stats.distinct_keys == without.stats.distinct_keys > 0


def test_consultations_match_dispatch_count(image):
    # golden sum performs five object-class dispatches; with inline caches
    # off every one consults the global cache exactly once.
    result = run_image(image, inline_cache_on=False)
    assert result.outcome == Completed(IntVal(84))
    assert result.stats.consultations == 5
    assert sum(result.stats.probe_hits) + result.stats.misses == 5


def test_install_into_worst_case_image_keeps_doubling():
    from protolite.compiler import install_method
    from protolite.syntax import MethodDef, SelfRef

    p = parse("class A extends Object { method m() { 1 } } main { nil }")
    image = compile_program(p, CompileMode.WORST_CASE)
    image2 = install_method(image, "A", MethodDef("n", (), SelfRef()))
    texts = {sym.text for sym in image2.classes["A"].dictionary}
    assert texts == {"m", "__m", "n", "__n"}


# -- frames and tail sends -------------------------------------------------------

CONFIGS = [dict(global_cache_on=g, inline_cache_on=i)
           for g in (False, True) for i in (False, True)]
LOOP_FUEL = 300_000
# Tracing allocations slows a run about fifteenfold, so the peak is taken
# over a shorter run. Were every send to keep its caller's frame, the peak
# would pass 3 MB by this point.
TRACED_LOOP_FUEL = 30_000


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("body", [
    "self.loop(n + 1)",
    "let m = n + 1 in self.loop(m)",
])
def test_tail_send_loops_run_in_constant_space(config, body):
    # A send in tail position reuses its caller's frame, so an unbounded
    # self-recursive loop is stopped by fuel alone, in a few KB.
    image = compile_program(parse(f"""
        class C extends Object {{ method loop(n) {{ {body} }} }}
        main {{ (new C).loop(0) }}
    """))
    result = run_image(image, fuel=LOOP_FUEL, **config)
    assert result.outcome == FuelExhausted()
    assert result.steps == LOOP_FUEL
    tracemalloc.start()
    try:
        result = run_image(image, fuel=TRACED_LOOP_FUEL, **config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.steps == TRACED_LOOP_FUEL
    assert peak < 1_000_000


@pytest.mark.parametrize("config", CONFIGS)
def test_deep_non_tail_recursion_needs_no_host_recursion(config):
    image = compile_program(parse("""
        class C extends Object { method f(n) { self.f(n + 1) + 1 } }
        main { (new C).f(0) }
    """))
    result = run_image(image, fuel=LOOP_FUEL, **config)
    assert result.outcome == FuelExhausted()
    assert result.steps == LOOP_FUEL


# -- integers and the ADD instruction ---------------------------------------------

PLAIN_A = ClassDef("A", "Object", (), ())


def _plus_class(name, body):
    """A class with a one-argument '+' method. Built as a tree: the parser
    takes no operator as a method name."""
    return ClassDef(name, "Object", (), (MethodDef("+", ("x",), body),))


def _runs_like_reference(program, fuel=DIFF_FUEL):
    """Runs of ``program`` in every cache configuration, each checked, as
    ``differential_run`` is, for the reference's outcome and step count."""
    diff = differential_run(program, fuel=fuel)
    assert diff.agree, diff.detail
    ref = eval_program(program, fuel)
    runs = run_all_configs(compile_program(program), fuel)
    for run in runs:
        assert (run.outcome, run.steps) == (ref.outcome, ref.steps)
    return runs


NOT_AN_INT = PrimitiveFailure("+", "argument must be an integer")


def _unknown_field_program():
    cdef = ClassDef("C", "Object", (), (MethodDef("m", (), FieldGet("zz")),))
    return Program((cdef,), Send(New("C"), "m", ()))


STUCK_AFTER_ONE_STEP = [
    (parse("class C extends Object { } main { (new C).nope() }"),
     DoesNotUnderstand("C", "nope")),
    (parse("class C extends Object { method m(x) { x } }"
           " main { (new C).m() }"), ArityMismatch("C", "m", 1, 0)),
    (parse("main { let x = nil in x.m() }"), NilReceiver("m")),
    (parse("main { let x = 1 in x + nil }"), NOT_AN_INT),
    (parse("main { let x = 1 in y }"), UnknownVariable("y")),
    (parse("main { let x = 1 in new Ghost }"), UnknownClass("Ghost")),
    (_unknown_field_program(), UnknownField("C", "zz")),
]


@pytest.mark.parametrize("program, reason", STUCK_AFTER_ONE_STEP,
                         ids=[type(r).__name__ for _, r in STUCK_AFTER_ONE_STEP])
def test_fuel_spent_at_a_stuck_state_is_exhausted(program, reason):
    # Each program gets stuck after one step. The reference checks the fuel
    # before each reduction, so with the fuel spent it never sees the stuck
    # state; one unit more and both report it.
    for fuel, outcome in ((1, FuelExhausted()), (2, Errored(reason))):
        runs = _runs_like_reference(program, fuel)
        assert {(run.outcome, run.steps) for run in runs} == {(outcome, 1)}


@pytest.mark.parametrize("main, outcome", [
    (Send(New("A"), "+", (IntLit(1),)), Errored(DoesNotUnderstand("A", "+"))),
    (Send(IntLit(1), "+", (NilLit(),)), Errored(NOT_AN_INT)),
    (Send(IntLit(1), "+", (New("A"),)), Errored(NOT_AN_INT)),
    (Send(NilLit(), "+", (IntLit(1),)), Errored(NilReceiver("+"))),
    (Send(IntLit(1), "+", ()), Errored(ArityMismatch("Integer", "+", 1, 0))),
    (Send(IntLit(1), "+", (IntLit(2), IntLit(3))),
     Errored(ArityMismatch("Integer", "+", 1, 2))),
    (Send(IntLit(1), "foo", ()), Errored(DoesNotUnderstand("Integer", "foo"))),
    (Send(IntLit(1), "+", (IntLit(2),)), Completed(IntVal(3))),
    (New("A"), Completed(Oid(1))),
], ids=["object-plus", "int-plus-nil", "int-plus-object", "nil-plus-int",
        "plus-no-args", "plus-two-args", "int-foo", "int-plus-int", "object"])
def test_sends_to_and_with_integers(main, outcome):
    runs = _runs_like_reference(Program((PLAIN_A,), main))
    assert runs[0].outcome == outcome


def test_plus_to_an_object_counts_its_lookup_key():
    runs = _runs_like_reference(
        Program((PLAIN_A,), Send(New("A"), "+", (IntLit(1),))))
    # run_all_configs runs the global cache off, off, on, on.
    assert [r.stats.distinct_keys for r in runs] == [1, 1, 1, 1]
    assert [r.stats.misses for r in runs] == [0, 0, 1, 1]
    assert [r.stats.installs for r in runs] == [0, 0, 0, 0]


@pytest.mark.parametrize("fuel, outcome", [
    (1, FuelExhausted()), (2, FuelExhausted()), (3, Completed(IntVal(6))),
])
def test_fuel_runs_out_on_an_add_step(fuel, outcome):
    # One let step, then two additions: fuel 1 and 2 run out on an ADD.
    runs = _runs_like_reference(parse("main { let x = 1 in x + 2 + 3 }"),
                                fuel)
    assert runs[0].outcome == outcome
    assert runs[0].steps == fuel


def test_field_integers_come_back_boxed():
    runs = _runs_like_reference(parse("""
        class C extends Object {
          fields: f;
          method put(v) { f := v + 1 }
          method get() { f }
        }
        main { let c = new C in let z = c.put(4) in c.get() + z }
    """))
    assert runs[0].outcome == Completed(IntVal(10))


def test_plus_site_goes_polymorphic_over_plus_methods(capsys, monkeypatch,
                                                      tmp_path):
    # One '+' site in Adder.add sees P, Q and an integer receiver; only
    # the objects reach its inline cache.
    adder = ClassDef("Adder", "Object", (), (
        MethodDef("add", ("x",), Send(Var("x"), "+", (IntLit(1),))),))
    add = lambda arg: Send(Var("d"), "add", (arg,))  # noqa: E731
    program = Program(
        (_plus_class("P", IntLit(10)), _plus_class("Q", Var("x")), adder),
        Let("d", New("Adder"),
            Let("p", add(New("P")),
                Send(Send(add(New("Q")), "+", (Var("p"),)), "+",
                     (add(IntLit(5)),)))))
    runs = _runs_like_reference(program)
    assert runs[0].outcome == Completed(IntVal(17))
    # With the inline cache on, the '+' site is the one polymorphic site.
    assert [r.stats.ic_polymorphic for r in runs] == [0, 1, 0, 1]
    path = tmp_path / "plus.stl"
    path.write_text("main { nil }\n")
    monkeypatch.setattr(cli, "_parse_source", lambda _path, _text: program)
    assert cli.main(["stats", "--json", str(path)]) == 0
    rows = json.loads(capsys.readouterr().out)["sites"]
    assert [{k: v for k, v in row.items() if k != "site"} for row in rows] == [
        {"class": "Adder", "method": "add", "selector": "+", "state": "poly",
         "receivers": ["P", "Q"]}]


# -- references and inline-cache entries ------------------------------------------


def test_arity_mismatch_on_a_site_that_cached_another_arity():
    # One site in D.call sees P (m takes one argument) and then Q (m takes
    # none). The hit path skips the arity check, so Q's send must miss.
    program = parse("""
        class P extends Object { method m(x) { x } }
        class Q extends Object { method m() { 0 } }
        class D extends Object { method call(o) { o.m(1) } }
        main { let d = new D in let y = d.call(new P) in d.call(new Q) }
    """)
    runs = _runs_like_reference(program)
    assert {run.outcome for run in runs} == {
        Errored(ArityMismatch("Q", "m", 0, 1))}
    interp = Interpreter(compile_program(program))
    stats = interp.run().stats
    # Main's two sends fill once each; the shared site fills for P, then
    # for Q before the arity check stops the run.
    assert (stats.ic_fills, stats.ic_hits) == (4, 0)
    assert [(row["method"], row["receivers"]) for row in interp.sites()] == [
        ("call", ["P", "Q"])]


def test_a_cyclic_heap_leaves_no_cyclic_garbage():
    # References carry their oid and class, not their fields, so two
    # objects that point at each other build no cycle of Python objects.
    program = parse("""
        class N extends Object {
          fields: peer;
          method link(o) { peer := o }
        }
        main {
          let a = new N in let b = new N in
          let x = a.link(b) in let y = b.link(a) in a
        }
    """)
    runs = _runs_like_reference(program)
    assert runs[0].outcome == Completed(Oid(1))
    image = compile_program(program)
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        run_image(image)
        garbage = gc.collect()
    finally:
        gc.enable()
        gc.unfreeze()
    assert garbage == 0


def test_parameterless_let_free_callees_then_a_let():
    # z and zz take no arguments and bind no let, so they run in the shared
    # empty environment; lets then binds two slots of its own.
    runs = _runs_like_reference(parse("""
        class C extends Object {
          method z() { 7 }
          method zz() { self.z() + self.z() }
          method lets() { let a = self.zz() in let b = self.z() in a + b }
        }
        main { let c = new C in let r = c.zz() + c.zz() in c.lets() + r }
    """))
    assert runs[0].outcome == Completed(IntVal(49))


@pytest.mark.parametrize("body, code_order", [
    ("a.f().g(a.h())", "f h g"),
    ("(a.f() + a.h()).g(a.h().g(a.f()))", "f h + h f g g"),
    ("a.g(a.f().g(a.h()))", "f h g g"),
    # Under a let and a field write, self- and super-sends dispatching
    # through mangled selectors.
    ("(let y = self.g(self.me()) in v := self.g(y).g(self.it()))"
     ".g(super.g(self.me().g(self.it())))",
     "__me __g __g __it g __me __it g __g g"),
])
def test_code_gives_each_send_its_own_site(body, code_order):
    # Lowering makes each send's site as it emits the send: numbered in the
    # order the code runs them, receiver first, and tagged for its own
    # source send. C is in the rewrite scope.
    from protolite.runtime import ADD, SUPER_SEND, _code_of

    image = compile_program(parse(
        "class A extends Object { method f() { 1 } method g(x) { x }"
        " method h() { 2 } }"
        " class B extends Object { fields: v; protected method me() { self }"
        " protected method it() { self } method g(x) { x } }"
        f" class C extends B {{ method k() {{ let a = new A in {body} }} }}"
        " main { (new C).k() }"))
    method = image.classes["C"].dictionary[image.symbols.intern("k")]
    code, _, _ = _code_of(method)
    sends = [site for op, site, _ in code if ADD <= op <= SUPER_SEND]
    assert sends == image.symbols.sites
    assert [s.selector.text for s in sends] == code_order.split()
    assert [s.site_id for s in sends] == list(range(len(sends)))
    assert {(s.origin_class, s.method.text) for s in sends} == {("C", "k")}
    assert run_image(image).outcome == eval_program(image.program).outcome


# -- code shared across images -------------------------------------------------------


def test_a_child_reuses_code_its_parent_lowered_before_the_install():
    # The parent's run lowers Y.go, interning the object-send's 't'. The
    # child then installs 't' on X: its dictionary key must be the symbol
    # that code already sends, or the shared code would miss it.
    from protolite.compiler import install_method

    program = parse("""
        class X extends Object { }
        class Y extends Object { method go(o) { o.t() } }
        main { (new Y).go(new X) }
    """)
    parent = compile_program(program)
    for run in run_all_configs(parent):
        assert run.outcome == Errored(DoesNotUnderstand("X", "t"))
    go = parent.classes["Y"].dictionary[parent.symbols.intern("go")]
    code = go.code
    assert code is not None
    child = install_method(parent, "X", MethodDef("t", (), IntLit(7)))
    assert child.classes["Y"] is parent.classes["Y"]
    for run in run_all_configs(child):
        assert run.outcome == Completed(IntVal(7))
    assert go.code is code
    assert run_image(parent).outcome == Errored(DoesNotUnderstand("X", "t"))


def test_sites_reads_only_the_site_caches_and_the_sites_made():
    # Interpreter.sites() reads no compiled method: the rows come from the
    # run's site caches and the table's sites, so bodies that never ran
    # cost nothing.
    from types import SimpleNamespace

    program = parse("""
        class P extends Object { method m() { 1 } }
        class Q extends Object { method m() { 2 } }
        class D extends Object {
          method call(o) { o.m() }
          method unused(o) { o.m() + o.m() }
        }
        main { let d = new D in d.call(new P) + d.call(new Q) }
    """)
    image = compile_program(program)
    interp = Interpreter(image)
    assert interp.run().outcome == Completed(IntVal(3))
    rows = interp.sites()
    assert [(row["class"], row["method"], row["receivers"]) for row in rows] \
        == [("D", "call", ["P", "Q"])]
    interp.image = SimpleNamespace(symbols=image.symbols)
    assert interp.sites() == rows
