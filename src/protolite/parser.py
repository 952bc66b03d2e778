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

The whole source is scanned in one ``findall`` pass into two parallel lists,
token kinds and token texts, each ending in two ``eof`` sentinels; the
recursive descent indexes them and builds no per-token object. Tokens carry no
position: a ``ParseError``'s line and column are computed when it is raised, by
scanning the source again up to the offending token's index.

Bare identifiers resolve lexically: let-bound variables and method parameters
shadow fields; otherwise a name declared by the enclosing class definition or
an ancestor reads that field, and anything else is a free variable. The
ancestors' fields come from the parsed program's hierarchy index.
``name := e`` always targets a field and is rejected when no such field is
visible. ``super`` sends are rejected inside the main expression, and
identifiers with the reserved ``__`` prefix are rejected everywhere.

Nesting is bounded by ``MAX_NESTING`` levels, counted twice. The descent
counts the expressions it has open in ``_Parser.expr``, which every recursive
path of the descent goes through (parentheses, ``let``, ``:=``, arguments);
past the limit it raises a ``ParseError`` at the token where it stopped. Name
resolution counts tree levels, one per level for every node kind, because a
``+`` or send chain is read in a loop yet builds a left-nested tree; past the
limit it raises a ``ParseError`` at the method or main block that holds the
body. The descent spends at most 5 frames a level and every later walk over
the tree at most 3, so under Python's default recursion limit of 1,000 frames
any caller up to 200 frames deep gets the same verdict.
"""

from __future__ import annotations

import re
import string
import sys
from dataclasses import dataclass
from itertools import islice

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
# identifier, an integer, or a character the language does not have.
_KINDS = {text: text for text in _KEYWORDS + _PUNCTUATION}
_IDENT_START = frozenset(string.ascii_letters + "_")

# Whitespace and comments match with the group left empty; every other match
# is one token. The last alternative takes any single character, so the scan
# never skips one: punctuation, and characters outside the language.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]+|//[^\n]*|(\d+|[A-Za-z_][A-Za-z0-9_]*|:=|.)", re.DOTALL)


def _position(source: str, index: int) -> tuple[int, int]:
    """Line and column of token ``index``, or of the end of input when the
    index is past the last token."""
    starts = (m.start(1) for m in _TOKEN_RE.finditer(source) if m.lastindex)
    offset = next(islice(starts, index, None), len(source))
    line = source.count("\n", 0, offset) + 1
    return line, offset - source.rfind("\n", 0, offset)


def _tokenize(source: str) -> tuple[list[str], list[str]]:
    """Token kinds and texts, each followed by two ``eof`` sentinels."""
    texts = [text for text in _TOKEN_RE.findall(source) if text]
    kind = _KINDS.get
    kinds = [kind(text) or ("ident" if text[0] in _IDENT_START
                            else "int" if text[0].isdecimal() else None)
             for text in texts]
    if None in kinds:
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


def _found(text: str) -> str:
    return repr(text or "end of input")


# Raw nodes produced before identifier resolution.
@dataclass(slots=True)
class _RawIdent:
    name: str


@dataclass(slots=True)
class _RawAssign:
    name: str
    value: object
    index: int  # of the target's token, for the resolve-time error


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.kinds, self.texts = _tokenize(source)
        self.pos = 0
        self.level = 0  # expressions open in ``expr``
        # Token index of each method's start, in source order, so that a body
        # too deep for the resolve walk is reported where it is defined.
        self.method_starts: list[int] = []

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
        text = self.expect("ident", what)
        if text.startswith(MANGLE_PREFIX):
            raise self.error(
                f"identifier {text!r} uses the reserved '{MANGLE_PREFIX}' prefix",
                self.pos - 1, ReservedSelectorError)
        return text

    # -- declarations ------------------------------------------------------

    def program(self) -> Program:
        classes: list[ClassDef] = []
        while self.kinds[self.pos] == "class":
            classes.append(self.classdef())
        main_start = self.pos
        self.expect("main", "'main' block or class definition")
        self.expect("{")
        main = self.expr(allow_super=False)
        self.expect("}")
        self.expect("eof", "end of input after main block")
        raw = Program(tuple(classes), main)
        return _resolve(raw, self.method_starts, main_start, self.source)

    def classdef(self) -> ClassDef:
        self.expect("class")
        cname = self.name("class name")
        self.expect("extends")
        sname = self.name("superclass name")
        self.expect("{")
        fields: list[str] = []
        if self.kinds[self.pos] == "fields":
            self.pos += 1
            self.expect(":")
            while self.kinds[self.pos] == "ident":
                fields.append(self.name("field name"))
            self.expect(";")
        methods: list[MethodDef] = []
        while self.kinds[self.pos] in ("method", "protected"):
            methods.append(self.methoddef())
        self.expect("}")
        return ClassDef(cname, sname, tuple(fields), tuple(methods))

    def methoddef(self) -> MethodDef:
        visibility = PUBLIC
        self.method_starts.append(self.pos)
        if self.kinds[self.pos] == "protected":
            self.pos += 1
            visibility = PROTECTED
        self.expect("method")
        sel = self.name("method selector")
        self.expect("(")
        params: list[str] = []
        if self.kinds[self.pos] == "ident":
            params.append(self.name("parameter name"))
            while self.kinds[self.pos] == ",":
                self.pos += 1
                params.append(self.name("parameter name"))
        self.expect(")")
        self.expect("{")
        body = self.expr(allow_super=True)
        self.expect("}")
        return MethodDef(sel, tuple(params), body, visibility)

    # -- expressions ---------------------------------------------------------

    def expr(self, allow_super: bool):
        level = self.level
        if level > MAX_NESTING:
            raise self.error(_TOO_DEEP)
        self.level = level + 1
        pos = self.pos
        if self.kinds[pos] == "ident" and self.kinds[pos + 1] == ":=":
            target = self.name("field name")
            self.pos += 1  # ':='
            node = _RawAssign(target, self.expr(allow_super), pos)
        else:
            node = self.sum(allow_super)
        self.level = level
        return node

    def sum(self, allow_super: bool):
        node = self.postfix(allow_super)
        kinds = self.kinds
        while kinds[self.pos] == "+":
            self.pos += 1
            rhs = self.postfix(allow_super)
            node = Send(node, "+", (rhs,))
        return node

    def postfix(self, allow_super: bool):
        node = self.primary(allow_super)
        kinds = self.kinds
        while kinds[self.pos] == ".":
            self.pos += 1
            sel = self.name("selector")
            self.expect("(")
            args = self.args(allow_super)
            self.expect(")")
            node = Send(node, sel, args)
        return node

    def args(self, allow_super: bool) -> tuple:
        if self.kinds[self.pos] == ")":
            return ()
        args = [self.expr(allow_super)]
        while self.kinds[self.pos] == ",":
            self.pos += 1
            args.append(self.expr(allow_super))
        return tuple(args)

    def primary(self, allow_super: bool):
        pos = self.pos
        kind = self.kinds[pos]
        self.pos = pos + 1
        if kind == "ident":
            return _RawIdent(self.texts[pos])
        if kind == "int":
            try:
                return IntLit(int(self.texts[pos]))
            except ValueError:
                raise self.error(
                    f"integer literal of {len(self.texts[pos])} digits is "
                    f"longer than the {sys.get_int_max_str_digits()} digits "
                    "Python converts from text (sys.get_int_max_str_digits())",
                    pos) from None
        if kind == "self":
            return SelfRef()
        if kind == "nil":
            return NilLit()
        if kind == "new":
            return New(self.name("class name"))
        if kind == "(":
            inner = self.expr(allow_super)
            self.expect(")")
            return inner
        if kind == "let":
            var = self.name("variable name")
            self.expect("=")
            bound = self.expr(allow_super)
            self.expect("in")
            body = self.expr(allow_super)
            return Let(var, bound, body)
        if kind == "super":
            if not allow_super:
                raise self.error("super send is not allowed in the main expression",
                                 pos)
            self.expect(".")
            sel = self.name("selector")
            self.expect("(")
            args = self.args(allow_super)
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
    """Resolve ``node``, filling in the parser's sends and lets in place."""
    if level > MAX_NESTING:
        raise _TooDeep
    kind = type(node)
    if kind is _RawIdent:
        if node.name in fields and node.name not in bound:
            return FieldGet(node.name)
        return Var(node.name)
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


def _resolve(raw: Program, method_starts: list[int], main_start: int,
             source: str) -> Program:
    """Resolve bare identifiers and assignments in place in the parser's own
    program, which is returned.

    A method sees the fields of its own class definition and those the
    program's hierarchy index gives its superclass; an undefined superclass
    gives none. Errors are positioned from ``source``, not from the token
    lists, so that the walk holds no reference to the parser."""
    idx = index_of(raw)
    starts = iter(method_starts)
    for c in raw.classes:
        sname = c.superclass
        defined = sname == ROOT_CLASS or sname in idx.by_name
        fields = frozenset(c.fields).union(
            idx.fields_of(sname) if defined else ())
        for m in c.methods:
            m.body = _resolve_body(m.body, fields, frozenset(m.params),
                                   next(starts), source)
    raw.main = _resolve_body(raw.main, frozenset(), frozenset(), main_start,
                             source)
    return raw


def parse(source: str) -> Program:
    """Parse source text into a Program. Raises ParseError on malformed input,
    including a body nested more than ``MAX_NESTING`` levels deep."""
    return _Parser(source).program()
