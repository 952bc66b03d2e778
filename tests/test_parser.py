import pytest

from protolite.errors import ParseError, ReservedSelectorError
from protolite.parser import parse
from protolite.syntax import (
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
    pretty_program,
)


def test_two_level_program_shape(two_level_program):
    p = two_level_program
    assert [c.name for c in p.classes] == ["A", "B"]
    b = p.class_named("B")
    assert len(b.protected_methods) == 1
    assert len(b.public_methods) == 3
    assert b.protected_methods[0].selector == "protectedMethod"
    a = p.class_named("A")
    assert {m.selector for m in a.protected_methods} == {
        "protectedMethod", "publicInSubclass"}


def test_empty_class_body():
    p = parse("class A extends Object { } main { nil }")
    (a,) = p.classes
    assert a.fields == ()
    assert a.methods == ()


def test_reserved_prefix_selector_rejected():
    with pytest.raises(ReservedSelectorError):
        parse("class A extends Object { method m() { self.__x() } } main { nil }")


def test_reserved_prefix_rejected_everywhere():
    for src in [
        "class A extends Object { method __m() { nil } } main { nil }",
        "class A extends Object { fields: __f; } main { nil }",
        "class A extends Object { method m(__x) { nil } } main { nil }",
        "main { let __y = nil in nil }",
    ]:
        with pytest.raises(ReservedSelectorError):
            parse(src)


def test_super_rejected_in_main():
    with pytest.raises(ParseError) as err:
        parse("main { super.m() }")
    assert "main" in str(err.value)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("class A extends Object {\n  method m( { nil }\n} main { nil }")
    assert err.value.line == 2


def test_field_reads_resolve_against_hierarchy():
    p = parse("""
        class A extends Object { fields: f; }
        class B extends A {
          method m() { f }
          method n(f2) { f2 }
        }
        main { f }
    """)
    b = p.class_named("B")
    assert b.methods[0].body == FieldGet("f")
    assert b.methods[1].body == Var("f2")
    # main has no enclosing class, so bare names are variables there
    assert p.main == Var("f")


def test_params_and_lets_shadow_fields():
    p = parse("""
        class A extends Object {
          fields: f;
          method m(f) { f }
          method n() { let f = nil in f }
        }
        main { nil }
    """)
    a = p.class_named("A")
    assert a.methods[0].body == Var("f")
    assert a.methods[1].body == Let("f", NilLit(), Var("f"))


def test_assignment_requires_visible_field():
    with pytest.raises(ParseError):
        parse("class A extends Object { method m() { g := nil } } main { nil }")
    with pytest.raises(ParseError):
        parse("main { g := nil }")


def test_expression_grammar():
    p = parse("""
        class C extends Object {
          fields: f;
          method m(x, y) { f := x.k() + 2 + y }
        }
        main { let z = new C in (new C).m(z.m(nil, 1), 3) }
    """)
    body = p.class_named("C").methods[0].body
    assert body == FieldSet(
        "f",
        Send(Send(Send(Var("x"), "k", ()), "+", (IntLit(2),)), "+", (Var("y"),)),
    )
    assert p.main == Let(
        "z", New("C"),
        Send(New("C"), "m",
             (Send(Var("z"), "m", (NilLit(), IntLit(1))), IntLit(3))),
    )


def test_super_and_self_parse():
    p = parse("""
        class A extends Object { method m() { nil } }
        class B extends A {
          method m() { super.m() }
          method n() { self.m() }
        }
        main { nil }
    """)
    b = p.class_named("B")
    assert b.methods[0].body == SuperSend("m", ())
    assert b.methods[1].body == Send(SelfRef(), "m", ())


def test_comments_and_whitespace():
    p = parse("// leading comment\nmain { 1 + 1 } // trailing\n")
    assert p.main == Send(IntLit(1), "+", (IntLit(1),))


def test_pretty_print_round_trip(two_level_program):
    assert parse(pretty_program(two_level_program)) == two_level_program


def test_duplicate_definitions_parse_but_do_not_crash():
    # Static problems are the validator's job, not the parser's.
    p = parse("""
        class A extends Object { method m() { nil } method m() { 1 } }
        class A extends Object { }
        main { nil }
    """)
    assert len(p.classes) == 2


def test_too_deep_parentheses_point_into_the_nesting():
    # The descent itself overflows, so the position is where it gave up,
    # inside the parentheses on line 3.
    deep = "(" * 400 + "1" + ")" * 400
    with pytest.raises(ParseError) as err:
        parse(f"class A extends Object {{ }}\n\nmain {{ {deep} }}\n")
    assert "RecursionError" in str(err.value)
    assert "nesting limit" in str(err.value)
    assert err.value.line == 3 and err.value.col > len("main { ")


def test_too_deep_plus_chain_points_at_its_method():
    # A '+' chain is read in a loop and overflows only in name resolution,
    # after the whole input is read; the error names the method holding it,
    # not the end of input.
    chain = " + ".join(["1"] * 1200)
    source = ("class A extends Object {\n"
              "  method ok() { 1 }\n"
              f"  protected method deep() {{ {chain} }}\n"
              "}\n"
              "main { nil }\n")
    with pytest.raises(ParseError) as err:
        parse(source)
    assert "RecursionError" in str(err.value)
    assert (err.value.line, err.value.col) == (3, 3)


def test_too_deep_main_points_at_main():
    chain = " + ".join(["1"] * 1200)
    with pytest.raises(ParseError) as err:
        parse(f"class A extends Object {{ method ok() {{ 1 }} }}\n main {{ {chain} }}")
    assert (err.value.line, err.value.col) == (2, 2)
