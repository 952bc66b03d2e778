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

Bare identifiers resolve lexically: let-bound variables and method parameters
shadow fields; otherwise a name declared by the enclosing class or an ancestor
reads that field, and anything else is a free variable. ``name := e`` always
targets a field and is rejected when no such field is visible. ``super`` sends
are rejected inside the main expression, and identifiers with the reserved
``__`` prefix are rejected everywhere.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

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

_KEYWORDS = {
    "class", "extends", "fields", "method", "protected", "main",
    "new", "nil", "self", "let", "in", "super",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>//[^\n]*)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<assign>:=)
  | (?P<punct>[{}().,;:+=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'int' | 'ident' | keyword text | punctuation text | 'eof'
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        if m.lastgroup not in ("ws", "comment"):
            if m.lastgroup == "int":
                tokens.append(Token("int", text, line, col))
            elif m.lastgroup == "ident":
                kind = text if text in _KEYWORDS else "ident"
                tokens.append(Token(kind, text, line, col))
            else:
                tokens.append(Token(text, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# Raw nodes produced before identifier resolution.
@dataclass(frozen=True)
class _RawIdent:
    name: str
    line: int
    col: int


@dataclass(frozen=True)
class _RawAssign:
    name: str
    value: object
    line: int
    col: int


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        # Start token of each method, in source order, so that a body too
        # deep for the resolve walk is reported where it is defined.
        self.method_starts: list[Token] = []

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            wanted = what or f"'{kind}'"
            raise ParseError(f"expected {wanted}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return self.advance()

    def name(self, what: str) -> Token:
        tok = self.expect("ident", what)
        if tok.text.startswith(MANGLE_PREFIX):
            raise ReservedSelectorError(
                f"identifier {tok.text!r} uses the reserved '{MANGLE_PREFIX}' prefix",
                tok.line, tok.col)
        return tok

    # -- declarations ------------------------------------------------------

    def program(self) -> Program:
        classes: list[ClassDef] = []
        while self.peek().kind == "class":
            classes.append(self.classdef())
        main_start = self.expect("main", "'main' block or class definition")
        self.expect("{")
        main = self.expr(allow_super=False)
        self.expect("}")
        self.expect("eof", "end of input after main block")
        raw = Program(tuple(classes), main)
        return _resolve(raw, self.method_starts, main_start)

    def classdef(self) -> ClassDef:
        start = self.expect("class")
        cname = self.name("class name")
        self.expect("extends")
        sname = self.name("superclass name")
        self.expect("{")
        fields: list[str] = []
        if self.peek().kind == "fields":
            self.advance()
            self.expect(":")
            while self.peek().kind == "ident":
                fields.append(self.name("field name").text)
            self.expect(";")
        methods: list[MethodDef] = []
        while self.peek().kind in ("method", "protected"):
            methods.append(self.methoddef())
        self.expect("}")
        return ClassDef(cname.text, sname.text, tuple(fields), tuple(methods),
                        line=start.line)

    def methoddef(self) -> MethodDef:
        visibility = PUBLIC
        start = self.peek()
        self.method_starts.append(start)
        if self.peek().kind == "protected":
            self.advance()
            visibility = PROTECTED
        self.expect("method")
        sel = self.name("method selector")
        self.expect("(")
        params: list[str] = []
        if self.peek().kind == "ident":
            params.append(self.name("parameter name").text)
            while self.peek().kind == ",":
                self.advance()
                params.append(self.name("parameter name").text)
        self.expect(")")
        self.expect("{")
        body = self.expr(allow_super=True)
        self.expect("}")
        return MethodDef(sel.text, tuple(params), body, visibility, line=start.line)

    # -- expressions ---------------------------------------------------------

    def expr(self, allow_super: bool):
        tok = self.peek()
        if tok.kind == "ident" and self.peek(1).kind == ":=":
            self.name("field name")
            self.advance()  # ':='
            value = self.expr(allow_super)
            return _RawAssign(tok.text, value, tok.line, tok.col)
        return self.sum(allow_super)

    def sum(self, allow_super: bool):
        node = self.postfix(allow_super)
        while self.peek().kind == "+":
            self.advance()
            rhs = self.postfix(allow_super)
            node = Send(node, "+", (rhs,))
        return node

    def postfix(self, allow_super: bool):
        node = self.primary(allow_super)
        while self.peek().kind == ".":
            self.advance()
            sel = self.name("selector")
            self.expect("(")
            args = self.args(allow_super)
            self.expect(")")
            node = Send(node, sel.text, tuple(args))
        return node

    def args(self, allow_super: bool) -> list:
        args: list = []
        if self.peek().kind != ")":
            args.append(self.expr(allow_super))
            while self.peek().kind == ",":
                self.advance()
                args.append(self.expr(allow_super))
        return args

    def primary(self, allow_super: bool):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return IntLit(int(tok.text))
        if tok.kind == "nil":
            self.advance()
            return NilLit()
        if tok.kind == "self":
            self.advance()
            return SelfRef()
        if tok.kind == "new":
            self.advance()
            cname = self.name("class name")
            return New(cname.text)
        if tok.kind == "super":
            if not allow_super:
                raise ParseError("super send is not allowed in the main expression",
                                 tok.line, tok.col)
            self.advance()
            self.expect(".")
            sel = self.name("selector")
            self.expect("(")
            args = self.args(allow_super)
            self.expect(")")
            return SuperSend(sel.text, tuple(args))
        if tok.kind == "let":
            self.advance()
            var = self.name("variable name")
            self.expect("=")
            bound = self.expr(allow_super)
            self.expect("in")
            body = self.expr(allow_super)
            return Let(var.text, bound, body)
        if tok.kind == "(":
            self.advance()
            inner = self.expr(allow_super)
            self.expect(")")
            return inner
        if tok.kind == "ident":
            self.advance()
            return _RawIdent(tok.text, tok.line, tok.col)
        raise ParseError(f"expected an expression, found {tok.text or 'end of input'!r}",
                         tok.line, tok.col)


# -- identifier resolution ---------------------------------------------------


def _visible_fields(classes: tuple[ClassDef, ...]) -> dict[str, frozenset[str]]:
    """Fields visible per class, including inherited ones.

    Tolerates unknown superclasses and cycles; those surface as validation
    violations later, not parse failures.
    """
    by_name: dict[str, ClassDef] = {}
    for c in classes:
        by_name.setdefault(c.name, c)
    result: dict[str, frozenset[str]] = {}
    for c in classes:
        fields: set[str] = set()
        seen: set[str] = set()
        cur: ClassDef | None = c
        while cur is not None and cur.name not in seen:
            seen.add(cur.name)
            fields.update(cur.fields)
            cur = by_name.get(cur.superclass)
        result[c.name] = frozenset(fields)
    return result


def _too_deep(at: Token) -> ParseError:
    return ParseError(
        "expression nested too deeply: RecursionError at the nesting limit, "
        f"the Python recursion limit of {sys.getrecursionlimit()} frames",
        at.line, at.col)


def _resolve(raw: Program, method_starts: list[Token],
             main_start: Token) -> Program:
    fields_by_class = _visible_fields(raw.classes)

    def resolve(node, fields: frozenset[str], bound: frozenset[str]) -> Expr:
        if isinstance(node, _RawIdent):
            if node.name in bound:
                return Var(node.name)
            if node.name in fields:
                return FieldGet(node.name)
            return Var(node.name)
        if isinstance(node, _RawAssign):
            if node.name not in fields:
                raise ParseError(
                    f"assignment target {node.name!r} is not a visible field",
                    node.line, node.col)
            return FieldSet(node.name, resolve(node.value, fields, bound))
        if isinstance(node, Send):
            return Send(resolve(node.receiver, fields, bound), node.selector,
                        tuple(resolve(a, fields, bound) for a in node.args))
        if isinstance(node, SuperSend):
            return SuperSend(node.selector,
                             tuple(resolve(a, fields, bound) for a in node.args))
        if isinstance(node, Let):
            bound_expr = resolve(node.bound, fields, bound)
            return Let(node.var, bound_expr,
                       resolve(node.body, fields, bound | {node.var}))
        return node  # literals, self, new

    def resolve_body(body, fields: frozenset[str], bound: frozenset[str],
                     start: Token) -> Expr:
        # The descent reads a '+' chain in a loop, but the chain is a
        # left-nested tree, so a body the parser read can still be too deep
        # for this walk. By now the parser stands at the end of input; report
        # the method or main block that holds the body instead.
        try:
            return resolve(body, fields, bound)
        except RecursionError:
            raise _too_deep(start) from None

    starts = iter(method_starts)
    classes = []
    for c in raw.classes:
        fields = fields_by_class[c.name]
        methods = tuple(
            MethodDef(m.selector, m.params,
                      resolve_body(m.body, fields, frozenset(m.params),
                                   next(starts)),
                      m.visibility, line=m.line)
            for m in c.methods
        )
        classes.append(ClassDef(c.name, c.superclass, c.fields, methods, line=c.line))
    main = resolve_body(raw.main, frozenset(), frozenset(), main_start)
    return Program(tuple(classes), main)


def parse(source: str) -> Program:
    """Parse source text into a Program. Raises ParseError on malformed input,
    including input nested deeper than the recursive descent can follow."""
    parser = _Parser(tokenize(source))
    try:
        return parser.program()
    except RecursionError:
        raise _too_deep(parser.peek()) from None


def parse_file(path: str) -> Program:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
