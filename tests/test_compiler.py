import pytest

from protolite.compiler import (
    CompileMode,
    SelfSiteSend,
    SendSite,
    SymbolTable,
    compile_program,
    desugar_dump,
    install_method,
    protection_roots,
    rewrite_scope,
)
from protolite.errors import (
    AlreadyMangledError,
    ProgramInvalidError,
    ReservedSelectorError,
    UnknownClassError,
)
from protolite.generator import generate_program
from protolite.metrics import image_fingerprint, images_equal
from protolite.outcomes import Completed, DoesNotUnderstand, Errored
from protolite.parser import parse
from protolite.reference import eval_program
from protolite.runtime import run_image
from protolite.syntax import (
    PROTECTED,
    PUBLIC,
    ClassDef,
    IntLit,
    MethodDef,
    Program,
    Send,
    SelfRef,
    Var,
    pretty_expr,
)
from protolite.validate import HierarchyIndex
from protolite.values import IntVal

from tests.conftest import methods_with


def entry_texts(image, class_name):
    return {sym.text for sym in image.classes[class_name].dictionary}


def lowered(image, class_name, selector):
    """Printed compiled body of a class's own method, plus its deferred
    sites."""
    cm = next(cm for cm in image.classes[class_name].dictionary.values()
              if cm.selector.text == selector)
    deferred = tuple(d for d in image.deferred_sites
                     if (d.class_name, d.method_selector)
                     == (class_name, selector))
    return pretty_expr(cm.body), deferred


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
    # dictionary answers only its own table's symbols. Lowered bodies
    # compare the dispatch text, so the two images are still equal.
    first = compile_program(two_level_program)
    second = compile_program(two_level_program)
    assert images_equal(first, second)
    ours, theirs = (image.symbols.intern("callProtected")
                    for image in (first, second))
    assert ours.text == theirs.text
    assert ours is not theirs and ours != theirs
    assert ours in first.classes["A"].dictionary
    assert theirs not in first.classes["A"].dictionary


def test_retagged_self_send_differs_from_its_plain_form():
    table, other = SymbolTable(), SymbolTable()
    plain = table.intern("foo")

    def self_send(symbol, site_id):
        return SelfSiteSend(SelfRef(), symbol.text, (),
                            site=SendSite(site_id, symbol, "foo"))

    assert self_send(plain, 0) == self_send(other.intern("foo"), 7)
    assert self_send(table.mangle(plain), 0) != self_send(plain, 0)


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
    body = image.classes["A"].dictionary[image.symbols.intern("n")].body
    assert pretty_expr(body) == "self.__m()"


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
    body = image2.classes["Top"].dictionary[image2.symbols.intern("go")].body
    assert pretty_expr(body) == "self.__helper()"
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
], ids=["hook-later", "template-later", "sibling-retag", "subclass-first"])
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


def test_install_rejects_duplicate_parameters(two_level_program):
    image = compile_program(two_level_program)
    with pytest.raises(ProgramInvalidError) as err:
        install_method(image, "A", MethodDef("f", ("x", "x"), Var("x")))
    assert [v.rule for v in err.value.violations] == ["PARAMSONCEPERMETHOD"]


def test_deferred_site_retagged_on_install(programs_dir):
    p = parse((programs_dir / "late_install.stl").read_text())
    image = compile_program(p)
    assert [d.selector for d in image.deferred_sites] == ["unknown"]
    body = image.classes["Box"].dictionary[image.symbols.intern("anyMethod")].body
    assert pretty_expr(body) == "self.unknown()"

    unknown = MethodDef("unknown", (), Send(SelfRef(), "seed", ()),
                        visibility="protected")
    image2 = install_method(image, "Box", unknown)
    assert image2.deferred_sites == ()
    body2 = image2.classes["Box"].dictionary[image2.symbols.intern("anyMethod")].body
    assert pretty_expr(body2) == "self.__unknown()"
    assert run_image(image2).outcome == Completed(IntVal(5))


def _binary_tree(n):
    """Class i extends class (i - 1) // 2; every class overrides f()."""
    return Program(tuple(
        ClassDef(f"C{i}", "Object" if i == 0 else f"C{(i - 1) // 2}", (),
                 (MethodDef("f", (), IntLit(i)),))
        for i in range(n)), IntLit(0))


def test_install_stays_local(monkeypatch):
    # An install derives its index from the parent image's and validates
    # only the classes the new method can make invalid: the target and the
    # descendants defining the selector, however large the program.
    import importlib

    # The package re-exports the function under the module's name.
    validate_mod = importlib.import_module("protolite.validate")
    real_init, real_check = HierarchyIndex.__init__, validate_mod._check_class
    builds, checked = [], {}

    def counting_init(self, program):
        builds.append(program)
        real_init(self, program)

    for n in (250, 2000):
        image = compile_program(_binary_tree(n))
        checked[n] = []
        monkeypatch.setattr(HierarchyIndex, "__init__", counting_init)
        monkeypatch.setattr(
            validate_mod, "_check_class",
            lambda c, idx, violations, seen=checked[n]:
                seen.append(c.name) or real_check(c, idx, violations))
        leaf = install_method(image, f"C{n - 1}", MethodDef("g", (), IntLit(1)))
        # On the root, the leaf's g becomes an override and is checked too.
        root = install_method(leaf, "C0", MethodDef("g", (), IntLit(2)))
        monkeypatch.undo()
        assert builds == []
        assert leaf.idx.chain(f"C{n - 1}") is image.idx.chain(f"C{n - 1}")
        assert root.idx.definers("g") == ("C0", f"C{n - 1}")
    assert checked[250] == ["C249", "C0", "C249"]
    assert checked[2000] == ["C1999", "C0", "C1999"]


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
    # Without mangling, lowering changes no selector, so a compiled body
    # prints exactly as the source body it came from -- `self + e` included.
    for seed in range(200):
        program = generate_program(seed)
        image = compile_program(program, CompileMode.BASELINE)
        for cdef in program.classes:
            for mdef in cdef.methods:
                cm = image.classes[cdef.name].dictionary[
                    image.symbols.intern(mdef.selector)]
                assert pretty_expr(cm.body) == pretty_expr(mdef.body), \
                    (seed, cdef.name, mdef.selector)
        assert pretty_expr(image.main) == pretty_expr(program.main), seed


def test_desugar_dump_shape(two_level_program):
    dump = desugar_dump(compile_program(two_level_program))
    assert "__protectedMethod -> A#protectedMethod protected" in dump
    assert "callProtected -> A#callProtected public shared" in dump
    assert "__callProtected -> A#callProtected public shared" in dump
    assert "self.__protectedMethod()" in dump
    assert "rewrite scope: A, B" in dump
    assert "protection roots: A" in dump
