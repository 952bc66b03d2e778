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
        pos = self.pos
        if self.kinds[pos] == "ident" and self.kinds[pos + 1] == ":=":
            target = self.name("field name")
            self.pos += 1  # ':='
            value = self.expr(allow_super)
            return _RawAssign(target, value, pos)
        return self.sum(allow_super)

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


def _too_deep() -> str:
    return ("expression nested too deeply: RecursionError at the nesting limit, "
            f"the Python recursion limit of {sys.getrecursionlimit()} frames")


def _resolve_all(nodes: tuple, fields: frozenset[str], bound: frozenset[str],
                 source: str, room: int) -> tuple:
    return tuple(_resolve_expr(n, fields, bound, source, room) for n in nodes)


def _resolve_expr(node, fields: frozenset[str], bound: frozenset[str],
                  source: str, room: int) -> Expr:
    """Resolve ``node``, filling in the parser's sends and lets in place."""
    if room < 1:  # ``room`` counts the frames left, this one included
        raise RecursionError
    kind = type(node)
    if kind is _RawIdent:
        if node.name in fields and node.name not in bound:
            return FieldGet(node.name)
        return Var(node.name)
    if kind is _RawAssign:
        if node.name not in fields:
            raise ParseError(
                f"assignment target {node.name!r} is not a visible field",
                *_position(source, node.index))
        return FieldSet(node.name, _resolve_expr(node.value, fields, bound,
                                                 source, room - 1))
    if kind is Send:
        node.receiver = _resolve_expr(node.receiver, fields, bound, source,
                                      room - 1)
        node.args = _resolve_all(node.args, fields, bound, source, room - 3)
    elif kind is Let:
        node.bound = _resolve_expr(node.bound, fields, bound, source, room - 1)
        node.body = _resolve_expr(node.body, fields, bound | {node.var},
                                  source, room - 1)
    elif kind is SuperSend:
        node.args = _resolve_all(node.args, fields, bound, source, room - 3)
    return node


# Frames of the recursion limit kept back from the resolve walk, which counts
# its own (an argument costs three), for the caller and for the later walks
# over the tree, which start deeper and spend at most as many frames per
# level. So how deep a body may nest does not depend on the caller's stack.
_HEADROOM = 90


def _resolve_body(body, fields: frozenset[str], bound: frozenset[str],
                  start: int, source: str) -> Expr:
    # The descent reads a '+' chain in a loop, but the chain is a left-nested
    # tree, so a body the parser read can still be too deep for this walk;
    # report the method or main block that holds it, not the end of input.
    try:
        return _resolve_expr(body, fields, bound, source,
                             sys.getrecursionlimit() - _HEADROOM)
    except RecursionError:
        raise ParseError(_too_deep(), *_position(source, start)) from None


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
    including input nested deeper than the recursive descent can follow."""
    parser = _Parser(source)
    try:
        return parser.program()
    except RecursionError:
        raise parser.error(_too_deep()) from None
