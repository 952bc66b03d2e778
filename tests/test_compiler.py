from dataclasses import replace

import pytest

from protolite.compiler import (
    CompileMode,
    SymbolTable,
    compile_program,
    desugar_dump,
    install_method,
    protection_roots,
    render,
    rewrite_scope,
)
from protolite.errors import (
    AlreadyMangledError,
    ProgramInvalidError,
    ReservedSelectorError,
    UnknownClassError,
)
from protolite.generator import generate_program
from protolite.outcomes import Completed, DoesNotUnderstand, Errored
from protolite.parser import parse
from protolite.reference import eval_program
from protolite.runtime import run_image
from protolite.syntax import (
    PROTECTED,
    PUBLIC,
    ClassDef,
    FieldSet,
    IntLit,
    MethodDef,
    Program,
    Send,
    SelfRef,
    Var,
    pretty_expr,
)
from protolite.validate import HierarchyIndex, Violation, validate
from protolite.values import IntVal

from tests.conftest import methods_with
from tests.oracles import image_fingerprint, images_equal


def entry_texts(image, class_name):
    return {sym.text for sym in image.classes[class_name].dictionary}


def lowered(image, class_name, selector):
    """Compiled body of a class's own method printed as it dispatches, plus
    its deferred sites."""
    cm = next(cm for cm in image.classes[class_name].dictionary.values()
              if cm.selector.text == selector)
    deferred = tuple(d for d in image.deferred_sites
                     if (d.class_name, d.method_selector)
                     == (class_name, selector))
    return render(cm), deferred


# -- mangle -------------------------------------------------------------------


def test_mangle_prefixes():
    table = SymbolTable()
    assert table.mangle(table.intern("foo")).text == "__foo"
    assert table.mangle(table.intern("protectedMethod")).text == "__protectedMethod"


def test_mangle_is_interned():
    table = SymbolTable()
    a = table.mangle(table.intern("foo"))
    b = table.mangle(table.intern("foo"))
    assert a is b


def test_mangle_twice_is_an_error():
    table = SymbolTable()
    mangled = table.mangle(table.intern("foo"))
    with pytest.raises(AlreadyMangledError):
        table.mangle(mangled)


def test_symbols_are_per_table_and_images_compare_by_text(two_level_program):
    # Symbols hash by identity: each compile interns its own, and a
    # dictionary answers only its own table's symbols. Fingerprints compare
    # the bodies' dispatch texts, so the two images are still equal. An
    # install shares its parent's table rather than copying it.
    first = compile_program(two_level_program)
    second = compile_program(two_level_program)
    assert images_equal(first, second)
    ours, theirs = (image.symbols.intern("callProtected")
                    for image in (first, second))
    assert ours.text == theirs.text
    assert ours is not theirs and ours != theirs
    assert ours in first.classes["A"].dictionary
    assert theirs not in first.classes["A"].dictionary
    grown = install_method(first, "B", MethodDef("extra", (), IntLit(1)))
    assert grown.symbols is first.symbols
    assert grown.symbols.intern("callProtected") is ours


def test_retagged_self_send_differs_from_its_plain_form():
    # A compiled send prints the selector it dispatches through: the site
    # ids a run gives it do not count, the mangling does.
    p = parse("""
        class A extends Object { method m() { nil } method n() { self.m() } }
        main { (new A).n() }
    """)
    worst = compile_program(p, CompileMode.WORST_CASE)
    plain = compile_program(p, CompileMode.BASELINE)
    assert not images_equal(worst, plain)
    before = image_fingerprint(worst)
    run_image(plain)
    run_image(worst)
    assert image_fingerprint(worst) == before
    assert [render(image.classes["A"].dictionary[image.symbols.intern("n")])
            for image in (worst, plain)] == ["self.__m()", "self.m()"]


# -- rewrite scope ---------------------------------------------------------------


def test_scope_is_definers_plus_descendants(two_level_program):
    assert rewrite_scope(HierarchyIndex(two_level_program)) == {"A", "B"}


def test_scope_empty_without_protected():
    p = parse("""
        class A extends Object { method m() { nil } }
        class B extends A { method n() { nil } }
        main { nil }
    """)
    assert rewrite_scope(HierarchyIndex(p)) == frozenset()


@pytest.mark.parametrize("classes, scope", [
    # A template method's class joins when a strict descendant defines its
    # hook protected; its descendants follow, its public ancestors do not.
    ("class P extends Object { method m() { nil } }"
     " class A extends P { method go() { self.hook() } }"
     " class B extends A { }"
     " class C extends B { protected method hook() { 7 } }"
     " class D extends A { }",
     {"A", "B", "C", "D"}),
    # A super-send to the hook never reaches a descendant.
    ("class A extends Object { method go() { super.hook() } }"
     " class B extends A { protected method hook() { 7 } }",
     {"B"}),
    # A self-send to a protected selector of an unrelated class.
    ("class A extends Object { method go() { self.hook() } }"
     " class B extends Object { protected method hook() { 7 } }",
     {"B"}),
], ids=["template-method", "super-send", "non-descendant"])
def test_scope_closes_over_template_methods(classes, scope):
    p = parse(f"{classes} main {{ nil }}")
    assert rewrite_scope(HierarchyIndex(p)) == scope


def test_scope_excludes_public_only_ancestors(programs_dir):
    p = parse((programs_dir / "hierarchy_split.stl").read_text())
    idx = HierarchyIndex(p)
    scope = rewrite_scope(idx)
    assert scope == {"Mid", "Leaf"}
    assert protection_roots(idx, scope) == {"Mid"}


# -- body rewriting -----------------------------------------------------------------


def test_rewrite_mangles_resolvable_self_and_super(two_level_program):
    image = compile_program(two_level_program)
    assert lowered(image, "B", "sum") == \
        ("self.__callProtected() + (new B).callProtected()", ())
    assert lowered(image, "B", "publicInSubclass") == \
        ("super.__publicInSubclass()", ())


def test_rewrite_keeps_ancestor_only_resolution_plain(programs_dir):
    p = parse((programs_dir / "hierarchy_split.stl").read_text())
    assert lowered(compile_program(p), "Mid", "protectedHelper") == \
        ("self.rootOnly()", ())


def test_rewrite_defers_unknown_selector(programs_dir):
    p = parse((programs_dir / "late_install.stl").read_text())
    body, deferred = lowered(compile_program(p), "Box", "anyMethod")
    assert body == "self.unknown()"
    assert len(deferred) == 1
    assert deferred[0].selector == "unknown"


@pytest.mark.parametrize("classes, receiver, site, outcome", [
    # The selector resolves nowhere upward but a subclass answers it with a
    # protected method; a plain site could never reach that.
    ("class B extends A { protected method later() { 2 } }",
     "B", "self.__later()", Completed(IntVal(2))),
    # The answering subclass may sit further down than a direct child.
    ("class B extends A { }"
     " class C extends B { protected method later() { 2 } }",
     "C", "self.__later()", Completed(IntVal(2))),
    # A definer outside A's subtree can never answer the site, so it stays
    # plain; a class does define the selector, so it is not deferred either.
    ("class D extends Object { protected method later() { 2 } }",
     "A", "self.later()", Errored(DoesNotUnderstand("A", "later"))),
], ids=["child", "grandchild", "non-descendant"])
def test_rewrite_mangles_subclass_only_protected_selector(classes, receiver,
                                                          site, outcome):
    p = parse(f"""
        class A extends Object {{
          protected method seed() {{ 1 }}
          method go() {{ self.later() }}
        }}
        {classes}
        main {{ (new {receiver}).go() }}
    """)
    image = compile_program(p)
    assert lowered(image, "A", "go") == (site, ())
    assert run_image(image).outcome == outcome
    assert eval_program(p).outcome == outcome


# -- whole-program compilation ---------------------------------------------------------


def test_two_level_dictionaries(two_level_program):
    image = compile_program(two_level_program)
    assert entry_texts(image, "A") == {
        "callProtected", "__callProtected",
        "__protectedMethod", "__publicInSubclass",
    }
    assert entry_texts(image, "B") == {
        "__protectedMethod",
        "sum", "__sum",
        "raiseError", "__raiseError",
        "publicInSubclass", "__publicInSubclass",
    }


def test_entry_count_law(two_level_program):
    image = compile_program(two_level_program)
    for cdef in two_level_program.classes:
        icls = image.classes[cdef.name]
        expected = (2 * len(methods_with(cdef, PUBLIC))
                    + len(methods_with(cdef, PROTECTED)))
        assert len(icls.dictionary) == expected


def test_double_registration_shares_one_method(two_level_program):
    image = compile_program(two_level_program)
    for icls in image.classes.values():
        for sym, method in icls.dictionary.items():
            if not sym.mangled and method.visibility == "public":
                mangled = image.symbols.intern("__" + sym.text)
                assert icls.dictionary[mangled] is method


def test_protected_has_no_plain_entry(two_level_program):
    image = compile_program(two_level_program)
    for icls in image.classes.values():
        for sym, method in icls.dictionary.items():
            if method.visibility == "protected":
                assert sym.mangled


def test_protected_free_image_matches_baseline():
    p = parse("""
        class A extends Object { method m() { self.n() } method n() { 4 } }
        main { (new A).m() }
    """)
    normal = compile_program(p)
    baseline = compile_program(p, CompileMode.BASELINE)
    assert images_equal(normal, baseline)
    assert not any(s.mangled for s in normal.symbols.symbols())


def test_out_of_scope_classes_untouched(programs_dir):
    image = compile_program(parse((programs_dir / "hierarchy_split.stl").read_text()))
    assert entry_texts(image, "Root") == {"rootOnly"}
    assert not any(s.mangled for s in image.classes["Root"].dictionary)


def test_compile_rejects_invalid_program():
    p = parse("""
        class A extends Object { method size() { 1 } }
        class B extends A { protected method size() { 2 } }
        main { nil }
    """)
    with pytest.raises(ProgramInvalidError) as err:
        compile_program(p)
    assert any(v.rule == "OVERRIDINGPUBLICMETHOD" for v in err.value.violations)


def test_worst_case_doubles_everything():
    p = parse("""
        class A extends Object { method m() { nil } method n() { self.m() } }
        main { nil }
    """)
    image = compile_program(p, CompileMode.WORST_CASE)
    assert entry_texts(image, "A") == {"m", "__m", "n", "__n"}
    cm = image.classes["A"].dictionary[image.symbols.intern("n")]
    assert render(cm) == "self.__m()"


# -- incremental installation ------------------------------------------------------------


def test_install_public_into_scoped_class(two_level_program):
    image = compile_program(two_level_program)
    extra = MethodDef("extra", (), Send(SelfRef(), "callProtected", ()))
    image2 = install_method(image, "B", extra)
    assert {"extra", "__extra"} <= entry_texts(image2, "B")
    plain = image2.classes["B"].dictionary[image2.symbols.intern("extra")]
    mangled = image2.classes["B"].dictionary[image2.symbols.intern("__extra")]
    assert plain is mangled
    # the old image is untouched
    assert "extra" not in entry_texts(image, "B")


def test_install_first_protected_recompiles_descendants():
    p = parse("""
        class Top extends Object { method go() { self.helper() } }
        class Low extends Top { method helper() { 5 } }
        main { (new Low).go() }
    """)
    image = compile_program(p)
    assert image.rewrite_scope == frozenset()
    probe = MethodDef("probe", (), Send(SelfRef(), "go", ()),
                      visibility="protected")
    image2 = install_method(image, "Top", probe)
    assert image2.rewrite_scope == {"Top", "Low"}
    # Both classes were recompiled with double registration.
    assert {"go", "__go"} <= entry_texts(image2, "Top")
    assert {"helper", "__helper"} <= entry_texts(image2, "Low")
    # go's self-send now resolves in scope and is mangled.
    cm = image2.classes["Top"].dictionary[image2.symbols.intern("go")]
    assert render(cm) == "self.__helper()"
    assert run_image(image2).outcome == Completed(IntVal(5))


def test_install_first_protected_into_leaf_touches_only_leaf(two_level_program):
    p = parse("""
        class X extends Object { method m() { 1 } }
        class Y extends Object { method n() { 2 } }
        main { nil }
    """)
    image = compile_program(p)
    probe = MethodDef("p", (), Send(SelfRef(), "m", ()), visibility="protected")
    image2 = install_method(image, "X", probe)
    assert image2.classes["Y"] is image.classes["Y"]
    assert image2.rewrite_scope == {"X"}


@pytest.mark.parametrize("source, class_name, mdef, value", [
    # The hook lands after the template method: A joins with it.
    ("class A extends Object { method go() { self.hook() } }"
     " class B extends A { }"
     " main { let b = new B in b.go() }",
     "B", MethodDef("hook", (), IntLit(7), "protected"), 7),
    # The template method lands in A, outside the scope, after the hook.
    ("class A extends Object { }"
     " class B extends A { protected method hook() { 7 } }"
     " main { let b = new B in b.go() }",
     "A", MethodDef("go", (), Send(SelfRef(), "hook", ())), 7),
    # A joins through a hook on B; S, already in scope below A, must retag
    # its send to A's base, which now has a mangled entry.
    ("class A extends Object { method go() { self.hook() }"
     "  method base() { 1 } }"
     " class S extends A { protected method p() { self.base() }"
     "  method q() { self.p() } }"
     " class B extends A { }"
     " main { (new B).go() + (new S).q() }",
     "B", MethodDef("hook", (), IntLit(7), "protected"), 8),
    # As template-later, with the subclass declared before its superclass.
    ("class B extends A { protected method hook() { 7 } }"
     " class A extends Object { }"
     " main { let b = new B in b.go() }",
     "A", MethodDef("go", (), Send(SelfRef(), "hook", ())), 7),
    # A is in scope and its template sends s, which only the unrelated X
    # defines; a protected s on B, below A, must retag A's send.
    ("class A extends Object { protected method p() { 1 }"
     "  method go() { self.s() } }"
     " class B extends A { }"
     " class X extends Object { method s() { 5 } }"
     " main { (new B).go() }",
     "B", MethodDef("s", (), IntLit(7), "protected"), 7),
], ids=["hook-later", "template-later", "sibling-retag", "subclass-first",
        "ancestor-retag"])
def test_install_closes_scope_over_template_method(source, class_name, mdef,
                                                   value):
    image = install_method(compile_program(parse(source)), class_name, mdef)
    scratch = compile_program(image.program)
    assert images_equal(image, scratch)
    assert run_image(image).outcome == Completed(IntVal(value))


def test_install_rejects_narrowing(two_level_program):
    image = compile_program(two_level_program)
    narrowing = MethodDef("callProtected", (), SelfRef(),
                          visibility="protected")
    with pytest.raises(ProgramInvalidError) as err:
        install_method(image, "B", narrowing)
    assert any(v.rule == "OVERRIDINGPUBLICMETHOD" for v in err.value.violations)


def test_install_rejects_duplicates_and_reserved(two_level_program):
    image = compile_program(two_level_program)
    with pytest.raises(ProgramInvalidError):
        install_method(image, "B", MethodDef("sum", (), SelfRef()))
    with pytest.raises(ReservedSelectorError):
        install_method(image, "B", MethodDef("__x", (), SelfRef()))
    with pytest.raises(UnknownClassError):
        install_method(image, "Ghost", MethodDef("m", (), SelfRef()))


def test_compile_rejects_a_reserved_selector():
    # The parser never builds one; a hand-built class can.
    cdef = ClassDef("C", "Object", (), (MethodDef("__m", (), IntLit(1)),))
    with pytest.raises(ReservedSelectorError):
        compile_program(Program((cdef,), IntLit(1)))


def test_install_rejects_duplicate_parameters(two_level_program):
    image = compile_program(two_level_program)
    with pytest.raises(ProgramInvalidError) as err:
        install_method(image, "A", MethodDef("f", ("x", "x"), Var("x")))
    assert [v.rule for v in err.value.violations] == ["PARAMSONCEPERMETHOD"]


def test_deferred_site_retagged_on_install(programs_dir):
    p = parse((programs_dir / "late_install.stl").read_text())
    image = compile_program(p)
    assert [d.selector for d in image.deferred_sites] == ["unknown"]
    cm = image.classes["Box"].dictionary[image.symbols.intern("anyMethod")]
    assert render(cm) == "self.unknown()"

    unknown = MethodDef("unknown", (), Send(SelfRef(), "seed", ()),
                        visibility="protected")
    image2 = install_method(image, "Box", unknown)
    assert image2.deferred_sites == ()
    cm2 = image2.classes["Box"].dictionary[image2.symbols.intern("anyMethod")]
    assert render(cm2) == "self.__unknown()"
    assert run_image(image2).outcome == Completed(IntVal(5))


def test_installed_plus_self_send_prints_as_mangled_send():
    # Infix '+' is chosen from the selector a site dispatches through, not
    # the source selector: inside the scope a self-send of an installed '+'
    # dispatches through '__+' and prints as an ordinary send.
    image = compile_program(parse("""
        class A extends Object {
          fields: x;
          protected method hook() { 1 }
        }
        main { nil }
    """))
    assert image.rewrite_scope == {"A"}
    image = install_method(image, "A", MethodDef("+", ("y",), Var("y")))
    image = install_method(image, "A", MethodDef(
        "m", (), Send(SelfRef(), "+", (FieldSet("x", IntLit(3)),))))
    assert lowered(image, "A", "m") == ("self.__+(x := 3)", ())


def _binary_tree(n):
    """Class i extends class (i - 1) // 2; every class overrides f()."""
    return Program(tuple(
        ClassDef(f"C{i}", "Object" if i == 0 else f"C{(i - 1) // 2}", (),
                 (MethodDef("f", (), IntLit(i)),))
        for i in range(n)), IntLit(0))


def test_install_stays_local(monkeypatch):
    # An install derives its index from the parent image's, validates only
    # the classes the new method can make invalid -- the target and the
    # descendants defining the selector -- and, outside the rewrite scope,
    # rebuilds only the target, however large the program.
    import importlib

    # The package re-exports the function under the module's name.
    validate_mod = importlib.import_module("protolite.validate")
    compiler_mod = importlib.import_module("protolite.compiler")
    real_init, real_check = HierarchyIndex.__init__, validate_mod._check_class
    real_compile_class = compiler_mod._compile_class
    builds, checked, rebuilt = [], {}, {}

    def counting_init(self, program):
        builds.append(program)
        real_init(self, program)

    for n in (250, 2000):
        image = compile_program(_binary_tree(n))
        checked[n], rebuilt[n] = [], []
        monkeypatch.setattr(HierarchyIndex, "__init__", counting_init)
        monkeypatch.setattr(
            validate_mod, "_check_class",
            lambda c, idx, violations, seen=checked[n]:
                seen.append(c.name) or real_check(c, idx, violations))
        monkeypatch.setattr(
            compiler_mod, "_compile_class",
            lambda lowerer, cdef, class_id, seen=rebuilt[n]:
                seen.append(cdef.name)
                or real_compile_class(lowerer, cdef, class_id))
        leaf = install_method(image, f"C{n - 1}", MethodDef("g", (), IntLit(1)))
        # On the root, the leaf's g becomes an override and is checked too.
        root = install_method(leaf, "C0", MethodDef("g", (), IntLit(2)))
        monkeypatch.undo()
        assert builds == []
        assert leaf.program.index.chain(f"C{n - 1}") \
            is image.program.index.chain(f"C{n - 1}")
        assert root.program.index.definers("g") == ("C0", f"C{n - 1}")
    assert checked[250] == ["C249", "C0", "C249"]
    assert checked[2000] == ["C1999", "C0", "C1999"]
    assert rebuilt[250] == ["C249", "C0"]
    assert rebuilt[2000] == ["C1999", "C0"]


def test_pipeline_builds_one_index_at_parse(monkeypatch):
    # perfbench's pipeline op, with every compile mode and the reference
    # evaluator added: the parse builds the program's index, and no later
    # phase builds another.
    from perfbench.workloads import compile_large
    from protolite.validate import validate

    head = compile_large(1)[0]
    real_init = HierarchyIndex.__init__
    builds = []
    counts = {}

    def counting_init(self, program):
        builds.append(program)
        real_init(self, program)

    def phase(name, fn, *args):
        before = len(builds)
        result = fn(*args)
        counts[name] = len(builds) - before
        return result

    monkeypatch.setattr(HierarchyIndex, "__init__", counting_init)
    program = phase("parse", parse, head.source)
    assert phase("validate", validate, program) == []
    for mode in CompileMode:
        phase(f"compile {mode.value}", compile_program, program, mode)
    image = compile_program(program)
    assert len(head.installs) == 2
    for i, (class_name, mdef) in enumerate(head.installs):
        image = phase(f"install {i}", install_method, image, class_name, mdef)
    phase("eval_program", eval_program, program, 2_000)
    phase("run_image", run_image, image)
    assert counts == {
        "parse": 1, "validate": 0, "compile normal": 0, "compile baseline": 0,
        "compile worst-case": 0, "install 0": 0, "install 1": 0,
        "eval_program": 0, "run_image": 0}


def test_incremental_equals_batch(two_level_program):
    # Building the two-level hierarchy method by method converges to the
    # same image as compiling the finished program, in several orders.
    full = two_level_program
    batch = image_fingerprint(compile_program(full))

    method_items = [
        (c.name, m) for c in full.classes for m in c.methods
    ]
    orders = [
        method_items,
        list(reversed(method_items)),
        sorted(method_items, key=lambda it: (it[1].visibility, it[1].selector)),
    ]
    for order in orders:
        stripped = parse("""
            class A extends Object { }
            class B extends A { }
            main { (new B).sum() }
        """)
        image = compile_program(stripped)
        for class_name, mdef in order:
            image = install_method(image, class_name, mdef)
        assert image_fingerprint(image) == batch


def test_lowered_bodies_print_as_their_source():
    # Without mangling, no site dispatches through another selector, so a
    # compiled body prints exactly as its source body -- `self + e`
    # included.
    for seed in range(200):
        program = generate_program(seed)
        image = compile_program(program, CompileMode.BASELINE)
        for cdef in program.classes:
            for mdef in cdef.methods:
                cm = image.classes[cdef.name].dictionary[
                    image.symbols.intern(mdef.selector)]
                assert render(cm) == \
                    pretty_expr(mdef.body), (seed, cdef.name, mdef.selector)
        assert render(image.main) == \
            pretty_expr(program.main), seed


def test_desugar_dump_shape(two_level_program):
    dump = desugar_dump(compile_program(two_level_program))
    assert "__protectedMethod -> A#protectedMethod protected" in dump
    assert "callProtected -> A#callProtected public shared" in dump
    assert "__callProtected -> A#callProtected public shared" in dump
    assert "self.__protectedMethod()" in dump
    assert "rewrite scope: A, B" in dump
    assert "protection roots: A" in dump


# -- one validation per program ---------------------------------------------------


def _counting_checks(monkeypatch):
    """Names of the classes ``validate._check_class`` checks from now on."""
    import importlib

    # The package re-exports the function under the module's name.
    validate_mod = importlib.import_module("protolite.validate")
    real_check, checked = validate_mod._check_class, []
    monkeypatch.setattr(
        validate_mod, "_check_class",
        lambda c, idx, violations:
            checked.append(c.name) or real_check(c, idx, violations))
    return checked


def test_compile_after_validate_checks_no_rule(monkeypatch, two_level_program):
    checked = _counting_checks(monkeypatch)
    assert validate(two_level_program) == []
    assert checked == ["A", "B"]
    for mode in CompileMode:
        compile_program(two_level_program, mode)
    assert checked == ["A", "B"]


def test_unvalidated_invalid_program_is_refused_with_its_violations():
    source = """
        class A extends Object { method size() { 1 } }
        class B extends A { protected method size() { 2 } method f(x, x) { x } }
        main { nil }
    """
    expected = validate(parse(source))
    assert [v.rule for v in expected] == ["PARAMSONCEPERMETHOD",
                                          "OVERRIDINGPUBLICMETHOD"]
    program = parse(source)
    for _ in range(2):  # a refusal leaves no verdict behind
        with pytest.raises(ProgramInvalidError) as err:
            compile_program(program)
        assert err.value.violations == expected
        assert not program.valid


def test_a_rebuilt_program_starts_unverified(monkeypatch, two_level_program):
    assert validate(two_level_program) == []
    assert two_level_program.valid
    rebuilt = replace(two_level_program,
                      classes=two_level_program.classes[:1])
    assert not rebuilt.valid
    checked = _counting_checks(monkeypatch)
    compile_program(rebuilt)
    assert checked == ["A"]
    assert rebuilt.valid


def test_an_install_verifies_its_program_only_once_its_checks_pass(
        monkeypatch, two_level_program):
    import importlib

    image = compile_program(two_level_program)
    grown = install_method(image, "B", MethodDef("extra", (), IntLit(1)))
    assert grown.program.valid
    checked = _counting_checks(monkeypatch)
    compile_program(grown.program)
    assert checked == []
    # The verdict is the install's checks': when they report a violation,
    # the install raises it and builds no image.
    compiler_mod = importlib.import_module("protolite.compiler")
    refusal = [Violation("METHODONCEPERCLASS", "B", "other")]
    monkeypatch.setattr(compiler_mod, "validate_install",
                        lambda idx, class_name, selector: list(refusal))
    with pytest.raises(ProgramInvalidError) as err:
        install_method(image, "B", MethodDef("other", (), IntLit(1)))
    assert err.value.violations == refusal


# -- sites made at first activation ---------------------------------------------


class _Tripwire(Send):
    """A send whose every attribute read but its class is recorded."""

    __slots__ = ()
    reads: list = []

    def __getattribute__(self, name):
        if name != "__class__":
            _Tripwire.reads.append(name)
        return object.__getattribute__(self, name)


def test_a_compile_makes_no_site_and_walks_no_body():
    # Every body and main are tripwires. No class has a protected hook
    # below it, so not even the rewrite scope reads a body.
    def body():
        return _Tripwire(SelfRef(), "g", ())

    program = Program((
        ClassDef("A", "Object", ("f",), (
            MethodDef("g", (), body()),
            MethodDef("h", (), body(), PROTECTED))),
        ClassDef("B", "A", (), (MethodDef("g", (), body()),))), body())
    images = []
    _Tripwire.reads.clear()
    for mode in CompileMode:
        images.append(compile_program(program, mode))
    assert _Tripwire.reads == []
    for image in images:
        # An install reads the bodies whose tags it may change, but it
        # makes no site either, and neither does a dump.
        desugar_dump(install_method(image, "B", MethodDef("k", (), body())))
        assert image.symbols.sites == []


def test_sites_are_made_at_first_activation(programs_dir):
    # Lowering makes a body's sites, one per send in the order its code
    # runs them, numbered on from the last site of the compile's table; a
    # later run lowers nothing it has lowered before.
    from protolite.runtime import ADD, SUPER_SEND

    programs = [parse(path.read_text())
                for path in sorted(programs_dir.glob("golden_*.stl"))]
    programs += [generate_program(seed) for seed in range(50)]
    for program in programs:
        for mode in CompileMode:
            image = compile_program(program, mode)
            symbols = len(image.symbols.symbols())
            dumped = desugar_dump(image)
            fingerprint = image_fingerprint(image)
            methods = [image.main, *dict.fromkeys(
                cm for icls in image.classes.values()
                for cm in icls.dictionary.values())]
            assert len(image.symbols.symbols()) == symbols
            assert image.symbols.sites == []
            assert all(cm.code is None for cm in methods)
            first = run_image(image, fuel=3_000)
            made = list(image.symbols.sites)
            assert [site.site_id for site in made] == list(range(len(made)))
            lowered = [cm for cm in methods if cm.code is not None]
            assert image.main in lowered
            sends = [a for cm in lowered for op, a, _ in cm.code[0]
                     if ADD <= op <= SUPER_SEND]
            assert sorted(sends, key=lambda site: site.site_id) == made
            for cm in lowered:
                ids = [a.site_id for op, a, _ in cm.code[0]
                       if ADD <= op <= SUPER_SEND]
                assert ids == list(range(ids[0], ids[0] + len(ids))) \
                    if ids else True
            assert run_image(image, fuel=3_000) == first
            assert image.symbols.sites == made
            assert desugar_dump(image) == dumped
            assert image_fingerprint(image) == fingerprint
