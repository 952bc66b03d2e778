"""Static well-formedness checks and the class-hierarchy relation oracle.

``validate`` returns violations as data; callers decide whether to raise.
Violations come in the rule order below and each names the rule, the class,
and the offending member. The rules:

* CLASSESONCE           -- class names unique; ``Object`` may not be redefined
* FIELDONCEPERCLASS     -- no field declared twice in one class
* FIELDSUNIQUELYDEFINED -- a field may not be redeclared in a subclass
* METHODONCEPERCLASS    -- one method per selector per class, any visibility
* PARAMSONCEPERMETHOD   -- no parameter name declared twice in one method
* COMPLETECLASSES       -- every named superclass is defined
* WELLFOUNDEDCLASSES    -- the inheritance relation has no cycles
* CLASSMETHODSOK        -- overriding preserves arity
* OVERRIDINGPUBLICMETHOD    -- a public method may be overridden only publicly
* OVERRIDINGPROTECTEDMETHOD -- protected methods may be overridden by public
  or protected methods; with exactly two visibilities this cannot fail and is
  retained for completeness of the rule set

``HierarchyIndex`` computes every chain and field set in one pass; a program
keeps the one ``index_of`` builds for it, and every phase reads that one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from ._collector import collector_paused
from .errors import UnknownClassError
from .syntax import PROTECTED, PUBLIC, ROOT_CLASS, ClassDef, MethodDef, Program

RULE_ORDER = (
    "CLASSESONCE",
    "FIELDONCEPERCLASS",
    "FIELDSUNIQUELYDEFINED",
    "METHODONCEPERCLASS",
    "PARAMSONCEPERMETHOD",
    "COMPLETECLASSES",
    "WELLFOUNDEDCLASSES",
    "CLASSMETHODSOK",
    "OVERRIDINGPUBLICMETHOD",
    "OVERRIDINGPROTECTEDMETHOD",
)


@dataclass(frozen=True)
class Violation:
    rule: str
    class_name: str
    member: str | None = None
    detail: str = ""

    def __str__(self) -> str:
        member = f", member '{self.member}'" if self.member else ""
        detail = f": {self.detail}" if self.detail else ""
        return f"{self.rule}: class '{self.class_name}'{member}{detail}"


def index_of(program: Program) -> HierarchyIndex:
    """The program's hierarchy index, built and kept on first use."""
    idx = program.index
    if idx is None:
        idx = program.index = HierarchyIndex(program)
    return idx


@collector_paused
def validate(program: Program) -> list[Violation]:
    """Check every rule; an empty report means the program is valid, and
    marks it so (``Program.valid``) for ``compile_program``."""
    idx = index_of(program)
    violations: list[Violation] = []

    # CLASSESONCE: one violation per duplicate pair in position order, plus
    # Object redefinition.
    positions: dict[str, list[int]] = {}
    for pos, c in enumerate(program.classes, start=1):
        positions.setdefault(c.name, []).append(pos)
    for pos, c in enumerate(program.classes, start=1):
        later = positions[c.name]
        del later[0]  # ``pos`` itself
        for other in later:
            violations.append(Violation(
                "CLASSESONCE", c.name,
                detail=f"declared at positions {pos} and {other}"))
    for c in program.classes:
        if c.name == ROOT_CLASS:
            violations.append(Violation(
                "CLASSESONCE", ROOT_CLASS, detail="redefines the built-in root class"))

    # Every other rule looks at one class and its ancestor chain; the sort at
    # the end groups violations by rule, keeping class order within a rule.
    for c in program.classes:
        _check_class(c, idx, violations)
    program.valid = not violations
    return _by_rule(violations)


def validate_install(idx: HierarchyIndex, class_name: str,
                     selector: str) -> list[Violation]:
    """``validate`` of the program ``idx`` indexes, a valid program plus one
    method ``selector`` on ``class_name``.

    Only that class and the descendants that define the selector can break a
    rule, so only they are checked, each once and in program order; every
    other class's checks are those of the valid program, which report
    nothing.
    """
    violations: list[Violation] = []
    for name in dict.fromkeys(idx.definers(selector)):
        if class_name in idx.chain(name):  # the class or a descendant
            _check_class(idx.by_name[name], idx, violations)
    return _by_rule(violations)


_RULE_RANK = {rule: i for i, rule in enumerate(RULE_ORDER)}


def _by_rule(violations: list[Violation]) -> list[Violation]:
    violations.sort(key=lambda v: _RULE_RANK[v.rule])
    return violations


def _check_class(c: ClassDef, idx: HierarchyIndex,
                 violations: list[Violation]) -> None:
    """Append the violations of every rule that looks at one class and its
    ancestor chain, in the order ``validate`` reports them within a rule."""
    by_name = idx.by_name
    seen_fields: set[str] = set()
    for f in c.fields:
        if f in seen_fields:
            violations.append(Violation("FIELDONCEPERCLASS", c.name, f))
        seen_fields.add(f)

    seen_methods: set[str] = set()
    for m in c.methods:
        if m.selector in seen_methods:
            violations.append(Violation("METHODONCEPERCLASS", c.name, m.selector))
        seen_methods.add(m.selector)
        if len(set(m.params)) < len(m.params):
            for param in sorted({p for p in m.params
                                 if m.params.count(p) > 1}):
                violations.append(Violation(
                    "PARAMSONCEPERMETHOD", c.name, m.selector,
                    detail=f"parameter '{param}' declared twice"))

    if c.superclass != ROOT_CLASS and c.superclass not in by_name:
        violations.append(Violation(
            "COMPLETECLASSES", c.name,
            detail=f"extends undefined class '{c.superclass}'"))

    chain = idx.chain(c.name)
    ancestors = [by_name[anc] for anc in chain[1:] if anc in by_name]
    inherited = {f for anc_def in ancestors for f in anc_def.fields}
    for f in c.fields:
        if f in inherited:
            violations.append(Violation(
                "FIELDSUNIQUELYDEFINED", c.name, f,
                detail="field is already defined in a superclass"))

    # A chain ending in a class whose superclass is already on that chain
    # is cyclic; a class sits on the cycle iff its walk wraps back to it.
    last_def = by_name.get(chain[-1])
    if chain[-1] != ROOT_CLASS and last_def is not None \
            and last_def.superclass == c.name:
        violations.append(Violation(
            "WELLFOUNDEDCLASSES", c.name,
            detail="class is part of an inheritance cycle"))

    # Arity and visibility of overrides.
    for m in c.methods:
        for anc_def in ancestors:
            overridden = anc_def.method_named(m.selector)
            if overridden is None:
                continue
            if len(overridden.params) != len(m.params):
                violations.append(Violation(
                    "CLASSMETHODSOK", c.name, m.selector,
                    detail=(f"arity {len(m.params)} does not match arity "
                            f"{len(overridden.params)} in '{anc_def.name}'")))
            if m.visibility == PROTECTED and overridden.visibility == PUBLIC:
                violations.append(Violation(
                    "OVERRIDINGPUBLICMETHOD", c.name, m.selector,
                    detail=("narrows public method inherited from "
                            f"'{anc_def.name}'")))
    # OVERRIDINGPROTECTEDMETHOD: any override of a protected method is public
    # or protected, so no violation is possible with two visibility levels.


class HierarchyIndex:
    """Relation oracle over a program's classes, built once by ``index_of``
    and kept on the program, with no reference back to it; shared by the
    parser, ``validate``, the rewrite scope, protection roots, site tagging
    and the reference evaluator. An install derives its program's index from
    the parent's with ``with_method``.

    Answers superclass and ancestor-chain queries, the classes defining a
    selector, transitive field sets, and closest-definition and public
    lookups. Building it tolerates what ``validate`` reports (duplicate names,
    unknown superclasses, cycles). Unknown class names raise
    UnknownClassError.
    """

    def __init__(self, program: Program):
        # First definition per class name; later duplicates are CLASSESONCE
        # violations.
        self.by_name: dict[str, ClassDef] = {}
        definers: dict[str, list[str]] = {}
        for c in program.classes:
            self.by_name.setdefault(c.name, c)
            for m in c.methods:
                definers.setdefault(m.selector, []).append(c.name)
        self._definers = {sel: tuple(names) for sel, names in definers.items()}
        # One pass: each class extends its superclass's chain and fields.
        by_name = self.by_name
        root = by_name.get(ROOT_CLASS)
        chains: dict[str, tuple[str, ...]] = {ROOT_CLASS: (ROOT_CLASS,)}
        fields = {ROOT_CLASS: root.fields if root is not None else ()}
        for name in by_name:
            # Walk up to a class already done, an undefined superclass, or a
            # class already on this walk, which closes a cycle.
            walk: dict[str, int] = {}
            while name not in chains and name in by_name and name not in walk:
                walk[name] = len(walk)
                name = by_name[name].superclass
            below = list(walk)
            if name in walk:  # each class on the cycle gets its rotation
                below, cycle = below[:walk[name]], below[walk[name]:]
                for i, member in enumerate(cycle):
                    chains[member] = rotation = (*cycle[i:], *cycle[:i])
                    fields[member] = tuple(f for anc in reversed(rotation)
                                           for f in by_name[anc].fields)
            chain, inherited = chains.get(name, (name,)), fields.get(name, ())
            for cname in reversed(below):
                chains[cname] = chain = (cname, *chain)
                fields[cname] = inherited = inherited + by_name[cname].fields
        # Program order, which ``subtree`` answers in.
        self._chains = {name: chains[name] for name in (ROOT_CLASS, *by_name)}
        self._fields = fields

    def with_method(self, cdef: ClassDef, selector: str) -> HierarchyIndex:
        """The index of this index's program with ``cdef``, which adds a
        method ``selector``, in place of the class of its name. The program
        must have no duplicated class name, as every valid one has.

        Only ``by_name`` and the definers of ``selector`` change; chains and
        field sets are shared, since a method adds no class, field or
        superclass edge.
        """
        idx = copy.copy(self)
        idx.by_name = by_name = {**self.by_name, cdef.name: cdef}
        idx._definers = {**self._definers, selector: tuple(
            name for name, c in by_name.items() for m in c.methods
            if m.selector == selector)}
        return idx

    def _require(self, name: str) -> None:
        if name != ROOT_CLASS and name not in self.by_name:
            raise UnknownClassError(f"unknown class '{name}'")

    def superclass(self, name: str) -> str | None:
        self._require(name)
        if name == ROOT_CLASS:
            return None
        return self.by_name[name].superclass

    def chain(self, name: str) -> tuple[str, ...]:
        """Ancestor chain from ``name`` up to and including Object."""
        self._require(name)
        return self._chains[name]

    def subtree(self, name: str) -> tuple[str, ...]:
        """``name`` and its descendants, in program order."""
        self._require(name)
        return tuple(c for c, chain in self._chains.items() if name in chain)

    def subtrees(self, names: set[str]) -> frozenset[str]:
        """The classes whose ancestor chain meets ``names``: the named
        classes and all their descendants."""
        chains = self._chains
        return frozenset(name for name in self.by_name
                         if not names.isdisjoint(chains[name]))

    def definers(self, selector: str) -> tuple[str, ...]:
        """Classes defining ``selector`` at any visibility, in program order."""
        return self._definers.get(selector, ())

    def defined_below(self, name: str, selector: str) -> bool:
        """Whether a strict descendant of ``name`` defines ``selector``."""
        chains = self._chains
        return any(d != name and name in chains[d]
                   for d in self._definers.get(selector, ()))

    def fields_of(self, name: str) -> tuple[str, ...]:
        """All fields of a class including inherited ones, root-first."""
        self._require(name)
        return self._fields[name]

    def closest_def(self, name: str, selector: str) -> tuple[str, MethodDef] | None:
        """First definition of ``selector`` on the chain, any visibility."""
        self._require(name)
        for anc in self._chains[name]:
            anc_def = self.by_name.get(anc)
            if anc_def is not None:
                m = anc_def.method_named(selector)
                if m is not None:
                    return anc, m
        return None

    def public_lookup(self, name: str, selector: str) -> tuple[str, MethodDef] | None:
        """First public definition on the chain; protected ones are skipped."""
        self._require(name)
        for anc in self._chains[name]:
            anc_def = self.by_name.get(anc)
            if anc_def is not None:
                m = anc_def.method_named(selector)
                if m is not None and m.visibility == PUBLIC:
                    return anc, m
        return None

