import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from protolite.errors import UnknownClassError
from protolite.parser import parse
from protolite.syntax import (
    PROTECTED,
    PUBLIC,
    ROOT_CLASS,
    ClassDef,
    NilLit,
    Program,
)
from protolite.validate import HierarchyIndex, validate

from tests.conftest import visibility


def rules(program):
    return [v.rule for v in validate(program)]


def test_two_level_program_is_valid(two_level_program):
    assert validate(two_level_program) == []


def test_duplicate_class_names():
    p = parse("class A extends Object { } class A extends Object { } main { nil }")
    assert rules(p) == ["CLASSESONCE"]


def test_duplicate_classes_reported_per_pair():
    p = Program(
        classes=tuple(ClassDef("A", "Object") for _ in range(3)),
        main=NilLit(),
    )
    report = validate(p)
    assert [v.rule for v in report] == ["CLASSESONCE"] * 3
    assert [v.detail for v in report] == [
        "declared at positions 1 and 2",
        "declared at positions 1 and 3",
        "declared at positions 2 and 3",
    ]


def test_object_cannot_be_redefined():
    p = parse("class Object extends Object { } main { nil }")
    assert "CLASSESONCE" in rules(p)


def test_duplicate_field_in_class():
    p = parse("class A extends Object { fields: f f; } main { nil }")
    assert rules(p) == ["FIELDONCEPERCLASS"]


def test_field_override_rejected():
    p = parse("""
        class A extends Object { fields: f; }
        class B extends A { fields: f; }
        main { nil }
    """)
    report = validate(p)
    assert [v.rule for v in report] == ["FIELDSUNIQUELYDEFINED"]
    assert report[0].class_name == "B"
    assert report[0].member == "f"


def test_duplicate_method_in_class():
    p = parse("""
        class A extends Object {
          method m() { nil }
          protected method m() { 1 }
        }
        main { nil }
    """)
    assert rules(p) == ["METHODONCEPERCLASS"]


def test_duplicate_parameter_in_method():
    p = parse("""
        class A extends Object { method f(x, y, x) { x } }
        main { (new A).f(1, 2, 3) }
    """)
    report = validate(p)
    assert [v.rule for v in report] == ["PARAMSONCEPERMETHOD"]
    assert (report[0].class_name, report[0].member, report[0].detail) == \
        ("A", "f", "parameter 'x' declared twice")


def test_undefined_superclass():
    p = parse("class A extends Ghost { } main { nil }")
    assert rules(p) == ["COMPLETECLASSES"]


def test_inheritance_cycle():
    p = parse("class A extends B { } class B extends A { } main { nil }")
    assert rules(p) == ["WELLFOUNDEDCLASSES", "WELLFOUNDEDCLASSES"]


def test_override_arity_mismatch():
    p = parse("""
        class A extends Object { method m(x) { x } }
        class B extends A { method m() { nil } }
        main { nil }
    """)
    report = validate(p)
    assert [v.rule for v in report] == ["CLASSMETHODSOK"]
    assert (report[0].class_name, report[0].member) == ("B", "m")


def test_narrowing_rejected():
    p = parse("""
        class A extends Object { method size() { 100 } }
        class B extends A { protected method size() { 2 } }
        main { nil }
    """)
    report = validate(p)
    assert [v.rule for v in report] == ["OVERRIDINGPUBLICMETHOD"]
    assert (report[0].class_name, report[0].member) == ("B", "size")


def test_narrowing_checked_across_gaps():
    p = parse("""
        class A extends Object { method size() { 100 } }
        class Mid extends A { }
        class B extends Mid { protected method size() { 2 } }
        main { nil }
    """)
    assert rules(p) == ["OVERRIDINGPUBLICMETHOD"]


def test_widening_is_allowed():
    p = parse("""
        class A extends Object { protected method m() { 1 } }
        class B extends A { method m() { 2 } }
        main { nil }
    """)
    assert validate(p) == []


def test_report_is_declaration_order_independent():
    src_a = """
        class A extends Object { method size() { 100 } }
        class B extends A { fields: f f; protected method size() { 2 } }
        main { nil }
    """
    # same program with class declarations swapped
    src_b = """
        class B extends A { fields: f f; protected method size() { 2 } }
        class A extends Object { method size() { 100 } }
        main { nil }
    """
    assert sorted(rules(parse(src_a))) == sorted(rules(parse(src_b)))


# -- hierarchy relations ------------------------------------------------------


def test_subclass_of_is_reflexive(two_level_program):
    rel = HierarchyIndex(two_level_program)
    assert rel.chain("B")[0] == "B"


def test_subclass_of_is_transitive():
    p = parse("""
        class A extends Object { }
        class B extends A { }
        main { nil }
    """)
    rel = HierarchyIndex(p)
    assert rel.chain("B") == ("B", "A", "Object")
    assert rel.by_name["B"].superclass == "A"


def test_defines_protected(two_level_program):
    rel = HierarchyIndex(two_level_program)
    assert visibility(rel, "B", "protectedMethod") == PROTECTED
    assert visibility(rel, "A", "callProtected") == PUBLIC
    assert visibility(rel, "A", "sum") is None


def test_fields_of_is_transitive():
    p = parse("""
        class A extends Object { fields: a1 a2; }
        class B extends A { fields: b1; }
        main { nil }
    """)
    rel = HierarchyIndex(p)
    assert rel.fields_of("B") == ("a1", "a2", "b1")
    assert rel.fields_of("A") == ("a1", "a2")


def _oracle_chain(by_name, start):
    """Ancestor chain from ``start`` upward, walked for this class alone: it
    stops after Object, an undefined class, or a class already on it."""
    chain = []
    cur = start
    while cur not in chain:
        chain.append(cur)
        if cur == ROOT_CLASS or cur not in by_name:
            break
        cur = by_name[cur].superclass
    return tuple(chain)


# Names include Object (a redefinition) and, as superclasses only, Z (never
# defined); repeated names, self-loops and longer cycles all occur.
HIERARCHIES = st.lists(
    st.builds(ClassDef,
              st.sampled_from(["A", "B", "C", "D", "E", ROOT_CLASS]),
              st.sampled_from(["A", "B", "C", "D", "E", ROOT_CLASS, "Z"]),
              st.lists(st.sampled_from(["f", "g", "h"]), max_size=2)
              .map(tuple)),
    max_size=8)


@given(HIERARCHIES)
@settings(max_examples=300, deadline=None)
def test_index_chains_and_fields_equal_a_walk_per_class(classes):
    idx = HierarchyIndex(Program(tuple(classes), NilLit()))
    by_name = {}
    for c in classes:
        by_name.setdefault(c.name, c)
    for name in (ROOT_CLASS, *by_name):
        chain = _oracle_chain(by_name, name)
        assert idx.chain(name) == chain
        assert idx.fields_of(name) == tuple(
            f for anc in reversed(chain) if anc in by_name
            for f in by_name[anc].fields)
        assert idx.subtree(name) == tuple(
            n for n in dict.fromkeys((ROOT_CLASS, *by_name))
            if name in _oracle_chain(by_name, n))


def test_unknown_class_raises(two_level_program):
    rel = HierarchyIndex(two_level_program)
    with pytest.raises(UnknownClassError):
        rel.chain("Nope")
    with pytest.raises(UnknownClassError):
        rel.fields_of("Nope")


def test_protected_never_below_public_on_any_chain(two_level_program):
    # Direct exhaustive restatement of the narrowing guarantee.
    rel = HierarchyIndex(two_level_program)
    selectors = {m.selector for c in two_level_program.classes for m in c.methods}
    for c in two_level_program.classes:
        for sel in selectors:
            chain = rel.chain(c.name)
            for i, lower in enumerate(chain):
                if visibility(rel, lower, sel) == PROTECTED:
                    for upper in chain[i + 1:]:
                        assert visibility(rel, upper, sel) != PUBLIC


def test_method_named_and_closest_def(two_level_program):
    rel = HierarchyIndex(two_level_program)
    found = rel.closest_def("B", "callProtected")
    assert found is not None and found[0] == "A"
    assert rel.closest_def("B", "protectedMethod")[0] == "B"
    assert rel.closest_def("A", "nothing") is None
    assert rel.public_lookup("B", "protectedMethod") is None
    assert rel.public_lookup("B", "sum")[0] == "B"
