import string

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from protolite.errors import ParseError, ReservedSelectorError
from protolite.parser import MAX_NESTING, _position, _tokenize, parse
from protolite.syntax import (
    PROTECTED,
    PUBLIC,
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

from tests.conftest import methods_with


_TOO_DEEP_MESSAGE = (
    f"expression nested too deeply: more than {MAX_NESTING} levels, the "
    "nesting limit that keeps every walk over the tree clear of Python's "
    "RecursionError")


def class_named(program, name):
    return next(c for c in program.classes if c.name == name)


def test_two_level_program_shape(two_level_program):
    p = two_level_program
    assert [c.name for c in p.classes] == ["A", "B"]
    b = class_named(p, "B")
    assert len(methods_with(b, PROTECTED)) == 1
    assert len(methods_with(b, PUBLIC)) == 3
    assert methods_with(b, PROTECTED)[0].selector == "protectedMethod"
    a = class_named(p, "A")
    assert {m.selector for m in methods_with(a, PROTECTED)} == {
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
        "main { __x }",
        "main { let x = __q in x }",
        "class A extends Object { method m() { __v.m() } } main { nil }",
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


# Every ParseError position below was recorded before the tokenizer and parser
# were rewritten to scan in one pass and compute positions only on error.
_PINNED_ERRORS = [
    # Only ASCII letters start an identifier; '²' is str.isdigit but not \d.
    ("e-acute", "main { é }",
     ParseError, "unexpected character 'é'", 1, 8),
    ("superscript-two", "main { 1 + ² }",
     ParseError, "unexpected character '²'", 1, 12),
    # '٣' is \d, so it lexes as an integer, but not as part of an identifier.
    ("arabic-digit-after-identifier", "main { x٣ }",
     ParseError, "expected '}', found '٣'", 1, 9),
    ("nul-after-crlf", "main {\r\n\x00 }",
     ParseError, "unexpected character '\\x00'", 2, 1),
    ("at-after-crlf",
     "class A extends Object {\r\n  method m() { 1 }\r\n@ }\r\nmain { nil }",
     ParseError, "unexpected character '@'", 3, 1),
    ("nul-after-tab", "main {\t\x00 }",
     ParseError, "unexpected character '\\x00'", 1, 8),
    ("at-after-tab", "main {\n\t\t@ }",
     ParseError, "unexpected character '@'", 2, 3),
    ("cr-alone-is-a-column", "main {\r@ }",
     ParseError, "unexpected character '@'", 1, 8),
    ("vertical-tab", "main {\x0b1 }",
     ParseError, "unexpected character '\\x0b'", 1, 7),
    ("no-break-space", "main { 1\xa0}",
     ParseError, "unexpected character '\\xa0'", 1, 9),
    ("slash-alone", "main { 1 / 2 }",
     ParseError, "unexpected character '/'", 1, 10),
    # The whole input is scanned before the grammar is checked.
    ("bad-char-after-a-parse-error", "main { ) @",
     ParseError, "unexpected character '@'", 1, 10),
    ("comment-at-eof-no-newline", "class A extends Object { } // no main",
     ParseError,
     "expected 'main' block or class definition, found 'end of input'", 1, 38),
    ("comment-inside-main-at-eof", "main { 1 // unterminated",
     ParseError, "expected '}', found 'end of input'", 1, 25),
    ("empty-input", "",
     ParseError,
     "expected 'main' block or class definition, found 'end of input'", 1, 1),
    ("whitespace-only", "  \n\t\r\n  ",
     ParseError,
     "expected 'main' block or class definition, found 'end of input'", 3, 3),
    ("eof-in-class-header", "class A",
     ParseError, "expected 'extends', found 'end of input'", 1, 8),
    ("eof-in-class-body", "class A extends Object {\n  fields: x;\n",
     ParseError, "expected '}', found 'end of input'", 3, 1),
    ("eof-in-params", "class A extends Object { method m(x,",
     ParseError, "expected parameter name, found 'end of input'", 1, 37),
    ("eof-after-main-brace", "main {",
     ParseError, "expected an expression, found 'end of input'", 1, 7),
    ("eof-in-let", "main { let x = 1 in",
     ParseError, "expected an expression, found 'end of input'", 1, 20),
    ("eof-in-args", "main { (new A).m(1, ",
     ParseError, "expected an expression, found 'end of input'", 1, 21),
    ("eof-after-super", "class A extends Object { method m() { super",
     ParseError, "expected '.', found 'end of input'", 1, 44),
    ("junk-after-main", "main { 1 }\nmain { 2 }",
     ParseError, "expected end of input after main block, found 'main'", 2, 1),
    ("colon-for-assign",
     "class A extends Object { fields: f; method m() { f : 1 } } main { nil }",
     ParseError, "expected '}', found ':'", 1, 52),
    ("spaced-colon-equals",
     "class A extends Object { fields: f; method m() { f : = 1 } } main { nil }",
     ParseError, "expected '}', found ':'", 1, 52),
    ("assign-for-fields-colon",
     "class A extends Object { fields := f; } main { nil }",
     ParseError, "expected ':', found ':='", 1, 33),
    ("assign-for-let-equals", "main { let x := 1 in x }",
     ParseError, "expected '=', found ':='", 1, 14),
    ("expression-expected", "main { + 1 }",
     ParseError, "expected an expression, found '+'", 1, 8),
    ("reserved-method-selector",
     "class A extends Object { method __m() { nil } } main { nil }",
     ReservedSelectorError, "identifier '__m' uses the reserved '__' prefix",
     1, 33),
    ("reserved-field", "class A extends Object { fields: f __g; } main { nil }",
     ReservedSelectorError, "identifier '__g' uses the reserved '__' prefix",
     1, 36),
    ("reserved-parameter",
     "class A extends Object { method m(a, __x) { nil } } main { nil }",
     ReservedSelectorError, "identifier '__x' uses the reserved '__' prefix",
     1, 38),
    ("reserved-let-variable", "main {\n  let __y = nil in nil }",
     ReservedSelectorError, "identifier '__y' uses the reserved '__' prefix",
     2, 7),
    ("reserved-send-selector",
     "class A extends Object { method m() { self.__m() } } main { nil }",
     ReservedSelectorError, "identifier '__m' uses the reserved '__' prefix",
     1, 44),
    ("reserved-assign-target",
     "class A extends Object { method m() { __f := 1 } } main { nil }",
     ReservedSelectorError, "identifier '__f' uses the reserved '__' prefix",
     1, 39),
    ("reserved-class-name", "class __A extends Object { } main { nil }",
     ReservedSelectorError, "identifier '__A' uses the reserved '__' prefix",
     1, 7),
    ("reserved-variable", "main { 1 +\n  __x }",
     ReservedSelectorError, "identifier '__x' uses the reserved '__' prefix",
     2, 3),
    ("reserved-let-bound", "main { let x = __q in x }",
     ReservedSelectorError, "identifier '__q' uses the reserved '__' prefix",
     1, 16),
    # Raised while resolving names, after the whole input is read.
    ("assign-to-non-field",
     "class A extends Object {\n  fields: f;\n  method m(g) { f := g := 1 }\n}\n"
     "main { nil }",
     ParseError, "assignment target 'g' is not a visible field", 3, 22),
    ("assign-in-main", "main { 1 + (\n   g := nil) }",
     ParseError, "assignment target 'g' is not a visible field", 2, 4),
    ("super-in-main",
     "class A extends Object { }\nmain { let a = new A in\n  super.m() }",
     ParseError, "super send is not allowed in the main expression", 3, 3),
]


@pytest.mark.parametrize("source, error, message, line, col",
                         [case[1:] for case in _PINNED_ERRORS],
                         ids=[case[0] for case in _PINNED_ERRORS])
def test_parse_error_positions_are_pinned(source, error, message, line, col):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert type(err.value) is error
    assert (err.value.message, err.value.line, err.value.col) == (
        message, line, col)


_NAME_CHARS = frozenset(string.ascii_letters + string.digits + "_")
_PUNCTUATION = frozenset("{}().,;:+=")


def _reference_tokens(source):
    """Start and text of every token, by a character loop written apart from
    the parser's pattern: whitespace is space, tab, CR and LF; a comment runs
    to the end of its line."""
    tokens, i = [], 0
    while i < len(source):
        ch, j = source[i], i + 1
        if ch in " \t\r\n":
            i = j
            continue
        if source.startswith("//", i):
            end = source.find("\n", i)
            i = len(source) if end < 0 else end
            continue
        if ch.isdecimal():
            while j < len(source) and source[j].isdecimal():
                j += 1
        elif ch in string.ascii_letters or ch == "_":
            while j < len(source) and source[j] in _NAME_CHARS:
                j += 1
        elif source.startswith(":=", i):
            j = i + 2
        tokens.append((i, source[i:j]))
        i = j
    return tokens


def _offset(source, line, col):
    return sum(map(len, source.split("\n")[:line - 1])) + line - 1 + col - 1


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from("ab_1٣²é@/:=+(){}.;\n\r\t \x0b\xa0") |
               st.characters(), max_size=30))
def test_positions_follow_the_token_stream(source):
    tokens = _reference_tokens(source)
    for i, (start, _) in enumerate(tokens):
        assert _offset(source, *_position(source, i)) == start
    assert _offset(source, *_position(source, len(tokens))) == len(source)
    outside = [(start, text) for start, text in tokens
               if not (text[0].isdecimal() or text[0] in _NAME_CHARS
                       or text[0] in _PUNCTUATION)]
    try:
        _, texts = _tokenize(source)
    except ParseError as err:
        start, text = outside[0]
        assert err.message == f"unexpected character {text!r}"
        assert _offset(source, err.line, err.col) == start
    else:
        assert not outside
        assert texts == [text for _, text in tokens] + ["", ""]


def test_unicode_decimal_digits_lex_as_integers():
    assert parse("main { ٣ }").main == IntLit(3)
    assert parse("main { ٣4 + 1 }").main == Send(IntLit(34), "+", (IntLit(1),))


def test_field_reads_resolve_against_hierarchy():
    p = parse("""
        class A extends Object { fields: f; }
        class B extends A {
          method m() { f }
          method n(f2) { f2 }
        }
        main { f }
    """)
    b = class_named(p, "B")
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
    a = class_named(p, "A")
    assert a.methods[0].body == Var("f")
    assert a.methods[1].body == Let("f", NilLit(), Var("f"))


def _plus(a, b):
    return Send(a, "+", (b,))


# Each source holds one ordering rule, so that no other rule's walk hides it.
@pytest.mark.parametrize("source, bodies", [
    # The first 'class Object' gives the root its fields, even after a use.
    ("class Early extends Object { method m() { r + s } }\n"
     "class Object extends Object { fields: r; method m() { r } }\n"
     "class Object extends Object { fields: s; }",
     [[_plus(FieldGet("r"), Var("s"))], [FieldGet("r")], []]),
    # A superclass read later.
    ("class Fwd extends Later { method m() { x + y } }\n"
     "class Later extends Object { fields: x; }",
     [[_plus(FieldGet("x"), Var("y"))], []]),
    # A superclass whose own superclass is read later.
    ("class A extends B { fields: a; }\n"
     "class C extends A { method m() { a + b } }\n"
     "class B extends Object { fields: b; }",
     [[], [_plus(FieldGet("a"), FieldGet("b"))], []]),
    # A duplicated class name resolves to its first definition.
    ("class Dup extends Object { fields: d; }\n"
     "class UseDup extends Dup { method m() { d + e } }\n"
     "class Dup extends Object { fields: e; method m() { d + e } }\n"
     "class After extends Dup { method m() { d + e } }",
     [[], [_plus(FieldGet("d"), Var("e"))], [_plus(Var("d"), FieldGet("e"))],
      [_plus(FieldGet("d"), Var("e"))]]),
    # An undefined superclass gives no fields.
    ("class Lost extends Nowhere { fields: z; method m() { z + x } }",
     [[_plus(FieldGet("z"), Var("x"))]]),
    # A cycle gives each class the fields of all its members.
    ("class P extends Q { fields: p; method m() { p + q } }\n"
     "class Q extends P { fields: q; method m() { p + q } }",
     [[_plus(FieldGet("p"), FieldGet("q"))]] * 2),
], ids=["later-object", "later-superclass", "later-grandparent", "duplicate",
        "undefined-superclass", "cycle"])
def test_fields_resolve_against_the_whole_program(source, bodies):
    # A method sees its class's fields as the finished program's hierarchy
    # gives them, whatever order the classes come in.
    p = parse(source + "\nmain { r }")
    assert [[m.body for m in c.methods] for c in p.classes] == bodies
    assert p.main == Var("r")


@pytest.mark.parametrize("source, message, line, col", [
    # Resolution errors wait for the whole input, so a later syntax error wins.
    ("class A extends Object { method m() { g := 1 } }\nmain { ) }",
     "expected an expression, found ')'", 2, 8),
    ("class A extends Object { method m() { %s } }\nmain { ) }"
     % " + ".join(["1"] * 200), "expected an expression, found ')'", 2, 8),
    # A target that a later class makes visible is no error.
    ("class A extends B { method m() { g := 1 } }\n"
     "class B extends Object { fields: g; }\nmain { g := 1 }",
     "assignment target 'g' is not a visible field", 3, 8),
    # Between bodies, program order; main comes last.
    ("main { h := 1 }", "assignment target 'h' is not a visible field", 1, 8),
    ("class A extends Object {\n method d() { %s }\n method m() { g := 1 } }\n"
     "main { nil }" % " + ".join(["1"] * 200), _TOO_DEEP_MESSAGE, 2, 2),
    ("class A extends Object {\n method m() { g := 1 }\n method d() { %s } }\n"
     "main { nil }" % " + ".join(["1"] * 200),
     "assignment target 'g' is not a visible field", 2, 15),
    # Within a body, whichever the tree meets first, from the root down and
    # left to right.
    ("class A extends Object {\n method m() { g := %s } }\nmain { nil }"
     % " + ".join(["1"] * 200),
     "assignment target 'g' is not a visible field", 2, 15),
    ("class A extends Object {\n method m() { (%s) + (g := 1) } }\nmain { nil }"
     % " + ".join(["1"] * 200), _TOO_DEEP_MESSAGE, 2, 2),
    ("class A extends Object { fields: f;\n"
     " method m() { f := (g := %s) } }\nmain { nil }"
     % " + ".join(["1"] * 200),
     "assignment target 'g' is not a visible field", 2, 21),
], ids=["assign-then-syntax", "too-deep-then-syntax", "forward-field",
        "main", "too-deep-body-first", "assign-body-first",
        "assign-above-deep-chain", "deep-chain-before-assign",
        "assign-under-field-write"])
def test_resolution_errors_come_in_program_order(source, message, line, col):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert (err.value.message, err.value.line, err.value.col) == (
        message, line, col)


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
    body = class_named(p, "C").methods[0].body
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
    b = class_named(p, "B")
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
    # The descent counts the levels it has open, so the position is where it
    # stopped: the first expression past the limit, on line 3.
    deep = "(" * 400 + "1" + ")" * 400
    with pytest.raises(ParseError) as err:
        parse(f"class A extends Object {{ }}\n\nmain {{ {deep} }}\n")
    assert "RecursionError" in str(err.value)
    assert "nesting limit" in str(err.value)
    assert err.value.line == 3
    assert err.value.col == len("main { ") + MAX_NESTING + 2


@pytest.mark.parametrize("body, spine, length", [
    ("(" * MAX_NESTING + "1" + ")" * MAX_NESTING, "receiver", 0),
    ("let x = 1 in " * MAX_NESTING + "x", "body", MAX_NESTING),
    (" + ".join(["1"] * (MAX_NESTING + 1)), "receiver", MAX_NESTING),
], ids=["parentheses", "nested-lets", "plus-chain"])
def test_documented_nesting_depths_parse(body, spine, length):
    # The README promises MAX_NESTING levels of every kind of nesting.
    # The trees are walked in a loop: comparing them would recurse as deep.
    program = parse(f"class A extends Object {{ method m() {{ {body} }} }}\n"
                    f"main {{ {body} }}")
    for node in (program.classes[0].methods[0].body, program.main):
        depth = 0
        while hasattr(node, spine):
            node = getattr(node, spine)
            depth += 1
        assert depth == length


def test_too_deep_plus_chain_points_at_its_method():
    # A '+' chain is read in a loop and its levels are counted only in name
    # resolution, after the whole input is read; the error names the method
    # holding it, not the end of input.
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
