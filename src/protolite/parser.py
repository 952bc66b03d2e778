"""Parser for the ``.stl`` source format.

Grammar (whitespace-insensitive, ``//`` line comments)::

    program   := classdef* 'main' '{' expr '}'
    classdef  := 'class' NAME 'extends' NAME '{' fields? methoddef* '}'
    fields    := 'fields' ':' NAME* ';'
    methoddef := 'protected'? 'method' NAME '(' params? ')' '{' expr '}'
    expr      := NAME ':=' expr                -- field assignment
               | sum
    sum       := postfix ('+' postfix)*
    postfix   := primary ('.' NAME '(' args? ')')*
    primary   := INT | 'nil' | 'self' | 'new' NAME | NAME | '(' expr ')'
               | 'let' NAME '=' expr 'in' expr
               | 'super' '.' NAME '(' args? ')'

The whole source is scanned in one ``findall`` pass, whose pattern matches no
whitespace, into two parallel lists, token kinds and token texts, each ending
in two ``eof`` sentinels; the recursive descent indexes them and builds no
per-token object. It reads the fixed shapes of a class header, a method header
without parameters and a send without arguments with one comparison of their
kinds, and steps through them one token at a time only when that fails, which
is where the errors are raised. Tokens carry no position: a ``ParseError``'s
line and column are computed when it is raised, by scanning the source again
with the same pattern up to the offending token's index.

Bare identifiers resolve lexically: let-bound variables and method parameters
shadow fields; otherwise a name declared by the enclosing class definition or
an ancestor reads that field, and anything else is a free variable.
``name := e`` always targets a field and is rejected when no such field is
visible. The descent resolves names as it builds each body, against the fields
it knows: all of them once the superclass's whole chain has been read. After
the whole input is read, ``_resolve`` walks again only the bodies it could not
finish (a class read before its superclass's chain, every class when a
``class Object`` gives the root fields, an assignment to a field not yet
known) and those long enough to be too deep, taking the fields from the parsed
program's hierarchy index. ``super`` sends are rejected inside the main
expression, and identifiers with the reserved ``__`` prefix are rejected
everywhere.

Nesting is bounded by ``MAX_NESTING`` levels, counted twice. The descent
counts the expressions it has open in ``_Parser.expr``, which every recursive
path of the descent goes through (parentheses, ``let``, ``:=``, arguments);
past the limit it raises a ``ParseError`` at the token where it stopped. Name
resolution counts tree levels, one per level for every node kind, because a
``+`` or send chain is read in a loop yet builds a left-nested tree; past the
limit it raises a ``ParseError`` at the method or main block that holds the
body. The descent spends at most 5 frames a level and every later walk over
the tree at most 3 (the runtime's lowering, which also makes the send sites,
spends one, and none down a let body), so under Python's default recursion
limit of 1,000 frames any caller up to 200 frames deep gets the same verdict.
"""

from __future__ import annotations

import re
import string
import sys
from dataclasses import dataclass
from itertools import islice

from ._collector import collector_paused
from .errors import ParseError, ReservedSelectorError
from .syntax import (
    MANGLE_PREFIX,
    PROTECTED,
    PUBLIC,
    ROOT_CLASS,
    ClassDef,
    Expr,
    FieldGet,
    FieldSet,
    IntLit,
    Let,
    MethodDef,
    New,
    NilLit,
    Program,
    SelfRef,
    Send,
    SuperSend,
    Var,
)
from .validate import index_of

_KEYWORDS = (
    "class", "extends", "fields", "method", "protected", "main",
    "new", "nil", "self", "let", "in", "super",
)
_PUNCTUATION = ("{", "}", "(", ")", ".", ",", ";", ":", "+", "=", ":=")

# A keyword or punctuation token's kind is its text. Any other token is an
# identifier, a name with the reserved prefix, an integer, or a character the
# language does not have.
_KINDS = {text: text for text in _KEYWORDS + _PUNCTUATION}
_IDENT_START = frozenset(string.ascii_letters + "_")

# Every match is one token, a comment included. Whitespace (space, tab, CR,
# LF) matches nothing, so the scan steps over it; the last alternative takes
# any other single character, so the scan never skips one: ':' and '/', and
# characters outside the language. Names and one-character punctuation, the
# commonest tokens, are tried first.
_TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*|[{}().,;+=]|\d+|:=|//[^\n]*|[^ \t\r\n]")


class _Kinds(dict):
    """Token kind by text, made once per parse from ``_KINDS``; a text that
    is no keyword or punctuation is classified once, on first sight."""

    def __missing__(self, text: str) -> str | None:
        kind = self[text] = ("reserved" if text.startswith(MANGLE_PREFIX)
                             else "ident" if text[0] in _IDENT_START
                             else "int" if text[0].isdecimal() else None)
        return kind


def _position(source: str, index: int) -> tuple[int, int]:
    """Line and column of token ``index``, or of the end of input when the
    index is past the last token."""
    starts = (m.start() for m in _TOKEN_RE.finditer(source)
              if not m.group().startswith("//"))
    offset = next(islice(starts, index, None), len(source))
    line = source.count("\n", 0, offset) + 1
    return line, offset - source.rfind("\n", 0, offset)


def _tokenize(source: str) -> tuple[list[str], list[str]]:
    """Token kinds and texts, each followed by two ``eof`` sentinels."""
    texts = _TOKEN_RE.findall(source)
    if "//" in source:
        texts = [text for text in texts if not text.startswith("//")]
    kind = _Kinds(_KINDS)
    kinds = list(map(kind.__getitem__, texts))
    if None in kind.values():
        index = kinds.index(None)
        raise ParseError(f"unexpected character {texts[index]!r}",
                         *_position(source, index))
    kinds += ("eof", "eof")
    texts += ("", "")
    return kinds, texts


# Levels of nesting a body may have; see the module docstring.
MAX_NESTING = 150

_TOO_DEEP = (f"expression nested too deeply: more than {MAX_NESTING} levels, "
             "the nesting limit that keeps every walk over the tree clear of "
             "Python's RecursionError")

# Token kinds of the fixed shapes the descent reads in one step.
_CLASS_HEAD = ["class", "ident", "extends", "ident", "{"]
_METHOD_HEAD = ["method", "ident", "(", ")", "{"]
_NULLARY_SEND = [".", "ident", "(", ")"]
# Kinds of a token in a name position; a reserved one raises there.
_NAMES = ("ident", "reserved")


def _found(text: str) -> str:
    return repr(text or "end of input")


@dataclass(slots=True)
class _RawAssign:
    """An assignment whose target is no field the body's class is yet known
    to have; ``_resolve`` resolves it or raises."""
    name: str
    value: object
    index: int  # of the target's token, for the resolve-time error


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.kinds, self.texts = _tokenize(source)
        self.pos = 0
        self.level = 0  # expressions open in ``expr``
        # The body being read: whether it may send to super, the fields an
        # assignment may target, and the fields a bare name reads (those no
        # parameter or enclosing let shadows).
        self.allow_super = False
        self.fields = self.visible = frozenset()
        # Field set of each class name's first definition read so far, or
        # None when its chain meets a class not yet read. The root has none
        # unless the program defines 'class Object', which ``_resolve``
        # checks.
        self.known: dict[str, frozenset[str] | None] = {
            ROOT_CLASS: frozenset()}
        # Whether the class or main block being read needs ``_resolve``.
        self.walk = False
        # Per class read: the token index of each method's start, so that a
        # body too deep for the resolve walk is reported where it is
        # defined, and whether ``_resolve`` walks its bodies.
        self.method_starts: list[list[int]] = []
        self.walks: list[bool] = []

    def error(self, message: str, index: int | None = None,
              error: type[ParseError] = ParseError) -> ParseError:
        return error(message, *_position(
            self.source, self.pos if index is None else index))

    def expect(self, kind: str, what: str | None = None) -> str:
        pos = self.pos
        if self.kinds[pos] != kind:
            wanted = what or f"'{kind}'"
            raise self.error(f"expected {wanted}, found {_found(self.texts[pos])}")
        self.pos = pos + 1
        return self.texts[pos]

    def name(self, what: str) -> str:
        pos = self.pos
        if self.kinds[pos] == "reserved":
            raise self.error(f"identifier {self.texts[pos]!r} uses the "
                             f"reserved '{MANGLE_PREFIX}' prefix",
                             pos, ReservedSelectorError)
        return self.expect("ident", what)

    def body(self) -> Expr:
        """The expression of a block whose '{' is read, and its '}'. Marks
        the block for ``_resolve`` when it may be too deep for the tree's
        nesting limit: every node takes a token of its own, so a body of at
        most ``MAX_NESTING`` tokens has fewer levels than that."""
        start = self.pos
        body = self.expr()
        if self.pos - start > MAX_NESTING:
            self.walk = True
        self.expect("}")
        return body

    # -- declarations ------------------------------------------------------

    def program(self) -> Program:
        classes: list[ClassDef] = []
        while self.kinds[self.pos] == "class":
            classes.append(self.classdef())
        main_start = self.pos
        self.expect("main", "'main' block or class definition")
        self.expect("{")
        self.allow_super = False
        self.fields = self.visible = frozenset()
        self.walk = False
        main = self.body()
        self.expect("eof", "end of input after main block")
        raw = Program(tuple(classes), main)
        return _resolve(raw, self.method_starts, self.walks,
                        main_start if self.walk else None, self.source)

    def classdef(self) -> ClassDef:
        pos = self.pos
        kinds, texts = self.kinds, self.texts
        if kinds[pos:pos + 5] == _CLASS_HEAD:
            cname, sname = texts[pos + 1], texts[pos + 3]
            self.pos = pos + 5
        else:
            self.expect("class")
            cname = self.name("class name")
            self.expect("extends")
            sname = self.name("superclass name")
            self.expect("{")
        fields: list[str] = []
        if kinds[self.pos] == "fields":
            self.pos += 1
            self.expect(":")
            while kinds[self.pos] in _NAMES:
                fields.append(self.name("field name"))
            self.expect(";")
        # Resolve against the fields known now; where the superclass's are
        # not known yet, ``_resolve`` walks the bodies again.
        own = frozenset(fields)
        inherited = self.known.get(sname)
        self.walk = inherited is None
        class_fields = own if self.walk else own | inherited
        self.known.setdefault(cname, None if self.walk else class_fields)
        methods: list[MethodDef] = []
        starts: list[int] = []
        while kinds[self.pos] in ("method", "protected"):
            starts.append(self.pos)
            methods.append(self.methoddef(class_fields))
        self.expect("}")
        self.method_starts.append(starts)
        self.walks.append(self.walk)
        return ClassDef(cname, sname, tuple(fields), tuple(methods))

    def methoddef(self, fields: frozenset[str]) -> MethodDef:
        pos = self.pos
        kinds, texts = self.kinds, self.texts
        visibility = PUBLIC
        if kinds[pos] == "protected":
            pos += 1
            visibility = PROTECTED
        if kinds[pos:pos + 5] == _METHOD_HEAD:
            sel = texts[pos + 1]
            params = ()
            self.pos = pos + 5
        else:
            self.pos = pos
            self.expect("method")
            sel = self.name("method selector")
            self.expect("(")
            names: list[str] = []
            if kinds[self.pos] in _NAMES:
                names.append(self.name("parameter name"))
                while kinds[self.pos] == ",":
                    self.pos += 1
                    names.append(self.name("parameter name"))
            self.expect(")")
            self.expect("{")
            params = tuple(names)
        self.allow_super = True
        self.fields = fields
        self.visible = fields.difference(params) if params else fields
        return MethodDef(sel, params, self.body(), visibility)

    # -- expressions ---------------------------------------------------------

    def expr(self):
        level = self.level
        if level > MAX_NESTING:
            raise self.error(_TOO_DEEP)
        self.level = level + 1
        pos = self.pos
        if self.kinds[pos + 1] == ":=" and self.kinds[pos] == "ident":
            target = self.name("field name")
            self.pos += 1  # ':='
            value = self.expr()
            if target in self.fields:
                node = FieldSet(target, value)
            else:
                node = _RawAssign(target, value, pos)
                self.walk = True
        else:
            node = self.sum()
        self.level = level
        return node

    def sum(self):
        node = self.postfix()
        kinds = self.kinds
        while kinds[self.pos] == "+":
            self.pos += 1
            node = Send(node, "+", (self.postfix(),))
        return node

    def postfix(self):
        pos = self.pos
        kinds, texts = self.kinds, self.texts
        kind = kinds[pos]
        if kind == "ident":
            text = texts[pos]
            node = FieldGet(text) if text in self.visible else Var(text)
            self.pos = pos + 1
        elif kind == "self":
            node = SelfRef()
            self.pos = pos + 1
        elif kind == "int":
            try:
                node = IntLit(int(texts[pos]))
            except ValueError:
                raise self.error(
                    f"integer literal of {len(texts[pos])} digits is "
                    f"longer than the {sys.get_int_max_str_digits()} digits "
                    "Python converts from text (sys.get_int_max_str_digits())",
                    pos) from None
            self.pos = pos + 1
        else:
            node = self.primary()
        while kinds[self.pos] == ".":
            pos = self.pos
            if kinds[pos:pos + 4] == _NULLARY_SEND:
                node = Send(node, texts[pos + 1], ())
                self.pos = pos + 4
                continue
            self.pos = pos + 1
            sel = self.name("selector")
            self.expect("(")
            args = self.args()
            self.expect(")")
            node = Send(node, sel, args)
        return node

    def args(self) -> tuple:
        if self.kinds[self.pos] == ")":
            return ()
        args = [self.expr()]
        while self.kinds[self.pos] == ",":
            self.pos += 1
            args.append(self.expr())
        return tuple(args)

    def primary(self):
        """Every primary but a name, ``self`` and an integer, which
        ``postfix`` reads itself."""
        pos = self.pos
        kind = self.kinds[pos]
        self.pos = pos + 1
        if kind == "nil":
            return NilLit()
        if kind == "reserved":  # a variable read or an assignment target
            self.pos = pos
            self.name("")  # raises
        if kind == "new":
            return New(self.name("class name"))
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "let":
            var = self.name("variable name")
            self.expect("=")
            bound = self.expr()
            self.expect("in")
            visible = self.visible
            self.visible = visible.difference((var,))
            body = self.expr()
            self.visible = visible
            return Let(var, bound, body)
        if kind == "super":
            if not self.allow_super:
                raise self.error("super send is not allowed in the main expression",
                                 pos)
            self.expect(".")
            sel = self.name("selector")
            self.expect("(")
            args = self.args()
            self.expect(")")
            return SuperSend(sel, args)
        raise self.error(f"expected an expression, found {_found(self.texts[pos])}",
                         pos)


# -- identifier resolution ---------------------------------------------------


class _TooDeep(Exception):
    """A body deeper than ``MAX_NESTING`` tree levels, reported by
    ``_resolve_body`` at the method or main block that holds it."""


def _resolve_all(nodes: tuple, fields: frozenset[str], bound: frozenset[str],
                 source: str, level: int) -> tuple:
    return tuple(_resolve_expr(n, fields, bound, source, level) for n in nodes)


def _resolve_expr(node, fields: frozenset[str], bound: frozenset[str],
                  source: str, level: int) -> Expr:
    """Resolve ``node`` against the body's final ``fields``, filling in the
    parser's sends, lets and field writes in place. A name the descent read
    as a variable may turn out to be a field; one it read as a field stays
    one, since the descent knew only some of the fields."""
    if level > MAX_NESTING:
        raise _TooDeep
    kind = type(node)
    if kind is Var:
        if node.name in fields and node.name not in bound:
            return FieldGet(node.name)
        return node
    level += 1
    if kind is _RawAssign:
        if node.name not in fields:
            raise ParseError(
                f"assignment target {node.name!r} is not a visible field",
                *_position(source, node.index))
        return FieldSet(node.name, _resolve_expr(node.value, fields, bound,
                                                 source, level))
    if kind is Send:
        node.receiver = _resolve_expr(node.receiver, fields, bound, source,
                                      level)
        node.args = _resolve_all(node.args, fields, bound, source, level)
    elif kind is FieldSet:
        node.value = _resolve_expr(node.value, fields, bound, source, level)
    elif kind is Let:
        node.bound = _resolve_expr(node.bound, fields, bound, source, level)
        node.body = _resolve_expr(node.body, fields, bound | {node.var},
                                  source, level)
    elif kind is SuperSend:
        node.args = _resolve_all(node.args, fields, bound, source, level)
    return node


def _resolve_body(body, fields: frozenset[str], bound: frozenset[str],
                  start: int, source: str) -> Expr:
    # The descent reads a '+' chain in a loop, but the chain is a left-nested
    # tree, so a body the descent accepted can still be too deep; report the
    # method or main block that holds it, not the end of input.
    try:
        return _resolve_expr(body, fields, bound, source, 0)
    except _TooDeep:
        raise ParseError(_TOO_DEEP, *_position(source, start)) from None


def _resolve(raw: Program, method_starts: list[list[int]], walks: list[bool],
             main_start: int | None, source: str) -> Program:
    """Finish name resolution in place in the parser's own program, which is
    returned: walk the bodies of the classes in ``walks``, of every class if
    a ``class Object`` gives the root fields the descent took it not to
    have, and main if ``main_start`` is given.

    A method sees the fields of its own class definition and those the
    program's hierarchy index gives its superclass; an undefined superclass
    gives none. Errors come in program order, and are positioned from
    ``source``, not from the token lists, so that the walk holds no
    reference to the parser."""
    idx = index_of(raw)
    walk_all = bool(idx.fields_of(ROOT_CLASS))
    for c, starts, walk in zip(raw.classes, method_starts, walks):
        if not (walk or walk_all):
            continue
        sname = c.superclass
        defined = sname == ROOT_CLASS or sname in idx.by_name
        fields = frozenset(c.fields).union(
            idx.fields_of(sname) if defined else ())
        for m, start in zip(c.methods, starts):
            m.body = _resolve_body(m.body, fields, frozenset(m.params),
                                   start, source)
    if main_start is not None:
        raw.main = _resolve_body(raw.main, frozenset(), frozenset(),
                                 main_start, source)
    return raw


@collector_paused
def parse(source: str) -> Program:
    """Parse source text into a Program. Raises ParseError on malformed input,
    including a body nested more than ``MAX_NESTING`` levels deep."""
    return _Parser(source).program()
