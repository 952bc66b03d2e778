"""Random, valid-by-construction program generation for differential testing.

Programs are deterministic per seed. Construction guarantees every static
rule: globally unique field names, one method per selector per class, a fixed
arity per selector across the whole program, an acyclic hierarchy bounded at
depth five, and no protected override of an inherited public method.

Generation runs in two phases: first the hierarchy and all method signatures,
then the bodies. Knowing every signature up front lets bodies aim most sends
at selectors their receiver actually answers -- self-sends at the defining
chain (protected ones included), object-sends at public methods of a concrete
class -- while still mixing in unresolvable selectors, nil receivers, and
failing arithmetic so error paths stay covered.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

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

# Selector -> arity, fixed program-wide so dynamic dispatch can never
# activate a method with the wrong argument count.
SELECTOR_ARITIES: dict[str, int] = {
    "alpha": 0, "beta": 0, "gamma": 0, "delta": 1,
    "epsilon": 1, "zeta": 1, "eta": 2, "theta": 0,
}


@dataclass(frozen=True)
class GeneratorConfig:
    max_classes: int = 8
    max_methods_per_class: int = 6
    max_fields_per_class: int = 2
    max_body_depth: int = 3
    max_hierarchy_depth: int = 5
    protected_probability: float = 0.4
    allow_protected: bool = True
    selectors: tuple[tuple[str, int], ...] = field(
        default_factory=lambda: tuple(SELECTOR_ARITIES.items()))


@dataclass
class _ClassPlan:
    name: str
    superclass: str
    fields: list[str]
    signatures: list[tuple[str, int, str]]  # (selector, arity, visibility)


class _Generator:
    def __init__(self, rng: random.Random, config: GeneratorConfig):
        self.rng = rng
        self.config = config
        self.field_counter = 0
        self.var_counter = 0
        self.plans: list[_ClassPlan] = []
        self.by_name: dict[str, _ClassPlan] = {}
        self.depths: dict[str, int] = {}
        self.current_selector: str | None = None

    # -- phase 1: hierarchy and signatures ---------------------------------

    def plan(self) -> None:
        n_classes = self.rng.randint(1, self.config.max_classes)
        for i in range(n_classes):
            name = f"C{i}"
            candidates = [ROOT_CLASS] + [
                p.name for p in self.plans
                if self.depths[p.name] < self.config.max_hierarchy_depth
            ]
            superclass = self.rng.choice(candidates)
            self.depths[name] = self.depths.get(superclass, 0) + 1

            fields = []
            for _ in range(self.rng.randint(0, self.config.max_fields_per_class)):
                fields.append(f"f{self.field_counter}")
                self.field_counter += 1

            pool = list(self.config.selectors)
            self.rng.shuffle(pool)
            n_methods = self.rng.randint(
                0, min(self.config.max_methods_per_class, len(pool)))
            signatures = []
            for selector, arity in pool[:n_methods]:
                if (self.config.allow_protected
                        and not self._public_above(superclass, selector)
                        and self.rng.random() < self.config.protected_probability):
                    visibility = PROTECTED
                else:
                    visibility = PUBLIC
                signatures.append((selector, arity, visibility))
            plan = _ClassPlan(name, superclass, fields, signatures)
            self.plans.append(plan)
            self.by_name[name] = plan

    def _chain(self, name: str) -> list[_ClassPlan]:
        out = []
        cur = name
        while cur != ROOT_CLASS:
            plan = self.by_name[cur]
            out.append(plan)
            cur = plan.superclass
        return out

    def _public_above(self, superclass: str, selector: str) -> bool:
        for plan in self._chain(superclass):
            for sel, _, vis in plan.signatures:
                if sel == selector and vis == PUBLIC:
                    return True
        return False

    def _chain_selectors(self, name: str, *, public_only: bool) -> list[tuple[str, int]]:
        seen: dict[str, int] = {}
        for plan in self._chain(name):
            for sel, arity, vis in plan.signatures:
                if sel in seen:
                    continue
                if public_only and vis != PUBLIC:
                    # The closest definition decides visibility for sends
                    # from outside; record it as unavailable.
                    seen[sel] = -1
                    continue
                seen[sel] = arity
        return [(s, a) for s, a in seen.items() if a >= 0]

    def _fields_of(self, name: str) -> list[str]:
        fields: list[str] = []
        for plan in self._chain(name):
            fields.extend(plan.fields)
        return fields

    # -- phase 2: bodies -----------------------------------------------------

    def build(self) -> Program:
        self.plan()
        classes = []
        for plan in self.plans:
            methods = []
            for selector, arity, visibility in plan.signatures:
                self.current_selector = selector
                params = tuple(self._fresh_var() for _ in range(arity))
                body = self._expr(
                    self.config.max_body_depth, list(params),
                    self._fields_of(plan.name), plan)
                methods.append(MethodDef(selector, params, body, visibility))
            classes.append(ClassDef(plan.name, plan.superclass,
                                    tuple(plan.fields), tuple(methods)))
        self.current_selector = None
        main = self._main_expr()
        return Program(tuple(classes), main)

    def _fresh_var(self) -> str:
        self.var_counter += 1
        return f"x{self.var_counter}"

    def _main_expr(self) -> Expr:
        if not self.plans:
            return self._expr(2, [], [], None)
        # Main prefers a send that actually resolves on a fresh instance.
        target = self.rng.choice(self.plans)
        resolvable = self._chain_selectors(target.name, public_only=True)
        if resolvable and self.rng.random() < 0.85:
            selector, arity = self.rng.choice(resolvable)
            args = tuple(self._expr(1, [], [], None) for _ in range(arity))
            expr: Expr = Send(New(target.name), selector, args)
            if self.rng.random() < 0.3:
                more = self._expr(self.config.max_body_depth, [], [], None)
                expr = Let(self._fresh_var(), expr, more)
            return expr
        return self._expr(self.config.max_body_depth, [], [], None)

    def _pick_selector(self, plan: _ClassPlan | None, kind: str) -> tuple[str, int]:
        """Mostly selectors the receiver's chain defines; sometimes anything."""
        rng = self.rng
        resolvable: list[tuple[str, int]] = []
        if plan is not None:
            if kind == "self":
                resolvable = self._chain_selectors(plan.name, public_only=False)
            elif kind == "super":
                if plan.superclass != ROOT_CLASS:
                    resolvable = self._chain_selectors(plan.superclass,
                                                       public_only=False)
        # Avoid trivial direct recursion most of the time.
        if self.current_selector is not None and rng.random() < 0.8:
            resolvable = [(s, a) for s, a in resolvable
                          if s != self.current_selector]
        if resolvable and rng.random() < 0.8:
            return rng.choice(resolvable)
        return rng.choice(list(self.config.selectors))

    def _object_send(self, depth: int, variables: list[str], fields: list[str],
                     plan: _ClassPlan | None) -> Expr:
        rng = self.rng
        sub = lambda: self._expr(depth - 1, variables, fields, plan)
        roll = rng.random()
        if self.plans and roll < 0.70:
            target = rng.choice(self.plans)
            receiver: Expr = New(target.name)
            resolvable = self._chain_selectors(target.name, public_only=True)
            if self.current_selector is not None and rng.random() < 0.8:
                resolvable = [(s, a) for s, a in resolvable
                              if s != self.current_selector]
            if resolvable and rng.random() < 0.8:
                selector, arity = rng.choice(resolvable)
            else:
                selector, arity = rng.choice(list(self.config.selectors))
        else:
            receiver = (self._leaf(variables, fields, plan) if depth <= 1
                        else sub())
            selector, arity = rng.choice(list(self.config.selectors))
        return Send(receiver, selector, tuple(sub() for _ in range(arity)))

    def _expr(self, depth: int, variables: list[str], fields: list[str],
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
        if in_method and plan.superclass != ROOT_CLASS:
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
            selector, arity = self._pick_selector(plan, "self")
            return Send(SelfRef(), selector, tuple(sub() for _ in range(arity)))
        if kind == "super-send":
            selector, arity = self._pick_selector(plan, "super")
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
                     fields: list[str], plan: _ClassPlan | None) -> Expr:
        # Operands of '+' are usually integers so sums often succeed.
        if self.rng.random() < 0.65:
            return IntLit(self.rng.randint(0, 9))
        return self._expr(depth, variables, fields, plan)

    def _leaf(self, variables: list[str], fields: list[str],
              plan: _ClassPlan | None) -> Expr:
        options = ["int", "int", "nil"]
        if variables:
            options.append("var")
            options.append("var")
        if fields:
            options.append("field")
        if self.plans:
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


def generate_program(seed: int,
                     config: GeneratorConfig = GeneratorConfig()) -> Program:
    """Deterministic random program for the given seed; always validates."""
    rng = random.Random(seed)
    return _Generator(rng, config).build()
