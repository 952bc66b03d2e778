"""Random, valid-by-construction program generation for differential testing.

Programs are deterministic per seed. Construction guarantees every static
rule: globally unique field names, one method per selector per class, a fixed
arity per selector across the whole program, an acyclic hierarchy bounded at
depth ``MAX_HIERARCHY_DEPTH``, and no protected override of an inherited
public method. The size and shape bounds are the module constants below;
``GeneratorConfig`` holds only what a caller sets.

Generation runs in two phases: first the hierarchy and all method signatures,
then the bodies. Each class's plan is built once from its superclass's plan
and carries its chain's view: visible fields, and the selectors the chain
answers and answers publicly. Since no protected method overrides a public
one, a selector's protected definitions lie above its public ones on every
chain, so a chain answers a selector publicly exactly when the closest
definition is public. Knowing every signature up front lets bodies aim
most sends at selectors their receiver actually answers -- self-sends at the
defining chain (protected ones included), object-sends at public methods of a
concrete class -- while still mixing in unresolvable selectors, nil
receivers, and failing arithmetic so error paths stay covered.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ._collector import collector_paused
from .syntax import (
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

# (selector, arity) pairs, the arity fixed program-wide so dynamic dispatch
# can never activate a method with the wrong argument count.
SELECTORS: tuple[tuple[str, int], ...] = (
    ("alpha", 0), ("beta", 0), ("gamma", 0), ("delta", 1),
    ("epsilon", 1), ("zeta", 1), ("eta", 2), ("theta", 0),
)
MAX_CLASSES = 8
MAX_METHODS_PER_CLASS = 6
MAX_FIELDS_PER_CLASS = 2
MAX_BODY_DEPTH = 3
MAX_HIERARCHY_DEPTH = 5
PROTECTED_PROBABILITY = 0.4


@dataclass(frozen=True)
class GeneratorConfig:
    """The one switch callers set: ``allow_protected``, on by default.
    perfbench's ``fuzz_diff`` and the tests that need protected-free
    programs turn it off."""
    allow_protected: bool = True


@dataclass
class _ClassPlan:
    """A class's signatures plus its chain's view, built once from its
    superclass's plan. Pair lists run closest definition first."""
    name: str
    parent: _ClassPlan | None
    depth: int
    own_fields: tuple[str, ...]
    fields: tuple[str, ...]  # visible fields, nearest class first
    signatures: list[tuple[str, int, str]]  # (selector, arity, visibility)
    answers: tuple[tuple[str, int], ...]  # every selector the chain answers
    public: tuple[tuple[str, int], ...]  # those whose closest def is public


_ROOT_PLAN = _ClassPlan(ROOT_CLASS, None, 0, (), (), [], (), ())


class _Generator:
    def __init__(self, rng: random.Random, config: GeneratorConfig):
        self.rng = rng
        self.config = config
        self.field_counter = 0
        self.var_counter = 0
        self.plans: list[_ClassPlan] = []
        self.current_selector: str | None = None

    # -- phase 1: hierarchy and signatures ---------------------------------

    def plan(self) -> None:
        rng = self.rng
        for i in range(rng.randint(1, MAX_CLASSES)):
            parent = rng.choice([_ROOT_PLAN] + [
                p for p in self.plans if p.depth < MAX_HIERARCHY_DEPTH])

            n_fields = rng.randint(0, MAX_FIELDS_PER_CLASS)
            own_fields = tuple(f"f{self.field_counter + k}"
                               for k in range(n_fields))
            self.field_counter += n_fields

            pool = list(SELECTORS)
            rng.shuffle(pool)
            # No method is made protected below a public one, so "some public
            # definition above" is "the closest definition above is public".
            public_above = dict(parent.public)
            signatures = []
            n_methods = rng.randint(0, MAX_METHODS_PER_CLASS)
            for selector, arity in pool[:n_methods]:
                if (self.config.allow_protected
                        and selector not in public_above
                        and rng.random() < PROTECTED_PROBABILITY):
                    visibility = PROTECTED
                else:
                    visibility = PUBLIC
                signatures.append((selector, arity, visibility))

            own = {sel for sel, _, _ in signatures}
            self.plans.append(_ClassPlan(
                f"C{i}", parent, parent.depth + 1, own_fields,
                own_fields + parent.fields, signatures,
                tuple((s, a) for s, a, _ in signatures)
                + tuple(p for p in parent.answers if p[0] not in own),
                tuple((s, a) for s, a, v in signatures if v == PUBLIC)
                + tuple(p for p in parent.public if p[0] not in own)))

    # -- phase 2: bodies -----------------------------------------------------

    def build(self) -> Program:
        self.plan()
        classes = []
        for plan in self.plans:
            methods = []
            for selector, arity, visibility in plan.signatures:
                self.current_selector = selector
                params = tuple(self._fresh_var() for _ in range(arity))
                body = self._expr(MAX_BODY_DEPTH, list(params), plan.fields,
                                  plan)
                methods.append(MethodDef(selector, params, body, visibility))
            classes.append(ClassDef(plan.name, plan.parent.name,
                                    plan.own_fields, tuple(methods)))
        self.current_selector = None
        main = self._main_expr()
        return Program(tuple(classes), main)

    def _fresh_var(self) -> str:
        self.var_counter += 1
        return f"x{self.var_counter}"

    def _main_expr(self) -> Expr:
        # Main prefers a send that actually resolves on a fresh instance.
        target = self.rng.choice(self.plans)
        if target.public and self.rng.random() < 0.85:
            selector, arity = self.rng.choice(target.public)
            args = tuple(self._expr(1, [], (), None) for _ in range(arity))
            expr: Expr = Send(New(target.name), selector, args)
            if self.rng.random() < 0.3:
                more = self._expr(MAX_BODY_DEPTH, [], (), None)
                expr = Let(self._fresh_var(), expr, more)
            return expr
        return self._expr(MAX_BODY_DEPTH, [], (), None)

    def _pick_selector(self, resolvable: tuple[tuple[str, int], ...]
                       ) -> tuple[str, int]:
        """Mostly a selector from ``resolvable``; sometimes anything."""
        rng = self.rng
        # Avoid trivial direct recursion most of the time.
        if self.current_selector is not None and rng.random() < 0.8:
            resolvable = tuple(p for p in resolvable
                               if p[0] != self.current_selector)
        if resolvable and rng.random() < 0.8:
            return rng.choice(resolvable)
        return rng.choice(SELECTORS)

    def _object_send(self, depth: int, variables: list[str],
                     fields: tuple[str, ...], plan: _ClassPlan | None) -> Expr:
        rng = self.rng
        sub = lambda: self._expr(depth - 1, variables, fields, plan)
        if rng.random() < 0.70:
            target = rng.choice(self.plans)
            receiver: Expr = New(target.name)
            selector, arity = self._pick_selector(target.public)
        else:
            receiver = (self._leaf(variables, fields, plan) if depth <= 1
                        else sub())
            selector, arity = rng.choice(SELECTORS)
        return Send(receiver, selector, tuple(sub() for _ in range(arity)))

    def _expr(self, depth: int, variables: list[str], fields: tuple[str, ...],
              plan: _ClassPlan | None) -> Expr:
        rng = self.rng
        in_method = plan is not None
        if depth <= 0:
            return self._leaf(variables, fields, plan)
        choices: list[tuple[float, str]] = [
            (1.0, "leaf"),
            (3.0, "send"),
            (1.2, "plus"),
            (1.0, "let"),
        ]
        if in_method:
            choices.append((2.5, "self-send"))
        if in_method and plan.parent is not _ROOT_PLAN:
            choices.append((0.8, "super-send"))
        if fields:
            choices.append((0.9, "field-set"))
        total = sum(w for w, _ in choices)
        pick = rng.random() * total
        kind = choices[-1][1]
        for w, name in choices:
            pick -= w
            if pick <= 0:
                kind = name
                break

        sub = lambda: self._expr(depth - 1, variables, fields, plan)
        if kind == "leaf":
            return self._leaf(variables, fields, plan)
        if kind == "send":
            return self._object_send(depth, variables, fields, plan)
        if kind == "self-send":
            selector, arity = self._pick_selector(plan.answers)
            return Send(SelfRef(), selector, tuple(sub() for _ in range(arity)))
        if kind == "super-send":
            selector, arity = self._pick_selector(plan.parent.answers)
            return SuperSend(selector, tuple(sub() for _ in range(arity)))
        if kind == "plus":
            return Send(self._int_leaning(depth - 1, variables, fields, plan),
                        "+",
                        (self._int_leaning(depth - 1, variables, fields, plan),))
        if kind == "field-set":
            return FieldSet(rng.choice(fields), sub())
        if kind == "let":
            var = self._fresh_var()
            bound = sub()
            body = self._expr(depth - 1, variables + [var], fields, plan)
            return Let(var, bound, body)
        raise AssertionError(kind)

    def _int_leaning(self, depth: int, variables: list[str],
                     fields: tuple[str, ...], plan: _ClassPlan | None) -> Expr:
        # Operands of '+' are usually integers so sums often succeed.
        if self.rng.random() < 0.65:
            return IntLit(self.rng.randint(0, 9))
        return self._expr(depth, variables, fields, plan)

    def _leaf(self, variables: list[str], fields: tuple[str, ...],
              plan: _ClassPlan | None) -> Expr:
        options = ["int", "int", "nil"]
        if variables:
            options.append("var")
            options.append("var")
        if fields:
            options.append("field")
        options.append("new")
        if plan is not None:
            options.append("self")
        kind = self.rng.choice(options)
        if kind == "int":
            return IntLit(self.rng.randint(0, 9))
        if kind == "nil":
            return NilLit()
        if kind == "var":
            return Var(self.rng.choice(variables))
        if kind == "field":
            return FieldGet(self.rng.choice(fields))
        if kind == "new":
            return New(self.rng.choice(self.plans).name)
        return SelfRef()


@collector_paused
def generate_program(seed: int,
                     config: GeneratorConfig = GeneratorConfig()) -> Program:
    """Deterministic random program for the given seed; always validates."""
    rng = random.Random(seed)
    return _Generator(rng, config).build()
