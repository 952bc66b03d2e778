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
shadow fields; otherwise a name declared by the enclosing class or an ancestor
reads that field, and anything else is a free variable. ``name := e`` always
targets a field and is rejected when no such field is visible. ``super`` sends
are rejected inside the main expression, and identifiers with the reserved
``__`` prefix are rejected everywhere.
"""

from __future__ import annotations

import operator
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
            return IntLit(int(self.texts[pos]))
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


def _visible_fields(classes: tuple[ClassDef, ...]) -> dict[str, frozenset[str]]:
    """Fields visible per class, including inherited ones.

    Each class's set is its superclass's set plus its own fields, built once
    per class. Tolerates unknown superclasses and cycles (every class on a
    cycle sees the fields of the whole cycle); those surface as validation
    violations later, not parse failures.
    """
    by_name: dict[str, ClassDef] = {}
    for c in classes:
        by_name.setdefault(c.name, c)
    visible: dict[str, frozenset[str]] = {}
    for c in by_name.values():
        # Walk up to a class already done, an unknown superclass, or a
        # class already on this walk, which closes a cycle.
        path: list[ClassDef] = []
        on_path: set[str] = set()
        cur: ClassDef | None = c
        while cur is not None and cur.name not in visible \
                and cur.name not in on_path:
            path.append(cur)
            on_path.add(cur.name)
            cur = by_name.get(cur.superclass)
        inherited: frozenset[str] = frozenset()
        if cur is not None and cur.name in visible:
            inherited = visible[cur.name]
        elif cur is not None:
            cycle = path[path.index(cur):]
            del path[path.index(cur):]
            inherited = frozenset(f for cdef in cycle for f in cdef.fields)
            for cdef in cycle:
                visible[cdef.name] = inherited
        for cdef in reversed(path):
            inherited = inherited.union(cdef.fields)
            visible[cdef.name] = inherited
    # A later class reusing a name (a CLASSESONCE violation) walks its own
    # chain, stopping where the chain reaches its name again; the last one
    # of a name wins, as it does for its methods.
    result = dict(visible)
    for c in classes:
        if by_name[c.name] is not c:
            fields: set[str] = set()
            seen: set[str] = set()
            dup: ClassDef | None = c
            while dup is not None and dup.name not in seen:
                seen.add(dup.name)
                fields.update(dup.fields)
                dup = by_name.get(dup.superclass)
            result[c.name] = frozenset(fields)
    return result


def _too_deep() -> str:
    return ("expression nested too deeply: RecursionError at the nesting limit, "
            f"the Python recursion limit of {sys.getrecursionlimit()} frames")


def _resolve_all(nodes: tuple, fields: frozenset[str], bound: frozenset[str],
                 source: str) -> tuple:
    resolved = tuple(_resolve_expr(n, fields, bound, source) for n in nodes)
    return nodes if all(map(operator.is_, resolved, nodes)) else resolved


def _resolve_expr(node, fields: frozenset[str], bound: frozenset[str],
                  source: str) -> Expr:
    kind = type(node)
    if kind is _RawIdent:
        if node.name in bound:
            return Var(node.name)
        if node.name in fields:
            return FieldGet(node.name)
        return Var(node.name)
    if kind is Send:
        receiver = _resolve_expr(node.receiver, fields, bound, source)
        args = _resolve_all(node.args, fields, bound, source)
        if receiver is node.receiver and args is node.args:
            return node
        return Send(receiver, node.selector, args)
    if kind is _RawAssign:
        if node.name not in fields:
            raise ParseError(
                f"assignment target {node.name!r} is not a visible field",
                *_position(source, node.index))
        return FieldSet(node.name, _resolve_expr(node.value, fields, bound,
                                                 source))
    if kind is Let:
        bound_expr = _resolve_expr(node.bound, fields, bound, source)
        body = _resolve_expr(node.body, fields, bound | {node.var}, source)
        if bound_expr is node.bound and body is node.body:
            return node
        return Let(node.var, bound_expr, body)
    if kind is SuperSend:
        args = _resolve_all(node.args, fields, bound, source)
        return node if args is node.args else SuperSend(node.selector, args)
    return node  # literals, self, new


def _resolve_body(body, fields: frozenset[str], bound: frozenset[str],
                  start: int, source: str) -> Expr:
    # The descent reads a '+' chain in a loop, but the chain is a left-nested
    # tree, so a body the parser read can still be too deep for this walk. By
    # now the parser stands at the end of input; report the method or main
    # block that holds the body instead.
    try:
        return _resolve_expr(body, fields, bound, source)
    except RecursionError:
        raise ParseError(_too_deep(), *_position(source, start)) from None


def _resolve(raw: Program, method_starts: list[int], main_start: int,
             source: str) -> Program:
    """Resolve bare identifiers and assignments. A node, method or class whose
    parts all come back unchanged is returned as it is, not rebuilt.

    Errors are positioned from ``source``, not from the token lists, so that
    the walk holds no reference to the parser."""
    fields_by_class = _visible_fields(raw.classes)
    starts = iter(method_starts)
    classes = []
    for c in raw.classes:
        fields = fields_by_class[c.name]
        methods = []
        for m in c.methods:
            body = _resolve_body(m.body, fields, frozenset(m.params),
                                 next(starts), source)
            methods.append(m if body is m.body else
                           MethodDef(m.selector, m.params, body, m.visibility))
        if all(map(operator.is_, methods, c.methods)):
            classes.append(c)
        else:
            classes.append(ClassDef(c.name, c.superclass, c.fields,
                                    tuple(methods)))
    main = _resolve_body(raw.main, frozenset(), frozenset(), main_start, source)
    return Program(tuple(classes), main)


def parse(source: str) -> Program:
    """Parse source text into a Program. Raises ParseError on malformed input,
    including input nested deeper than the recursive descent can follow."""
    parser = _Parser(source)
    try:
        return parser.program()
    except RecursionError:
        raise parser.error(_too_deep()) from None


def parse_file(path: str) -> Program:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
