"""Lowering a validated program into an executable image.

Protected visibility is enforced entirely through class method dictionaries,
so the runtime needs only one visibility-blind lookup:

* Classes that define a protected method, or self-send a selector that a
  strict descendant defines protected (a template method calling a protected
  hook), form the *rewrite scope* with all their descendants. Inside it,
  protected methods are installed under their mangled selector (``__`` +
  name) only, and public methods are installed twice -- once plain, once
  mangled -- both entries sharing one compiled method. Classes outside the
  scope keep plain entries only.
* Self- and super-send sites inside the scope are retargeted to the mangled
  selector, with one exception: a site whose selector resolves only above the
  class's protection root (an ancestor region that uses no protected methods)
  stays plain, so those ancestors never need recompiling. A site whose
  selector resolves nowhere also stays plain and is recorded as *deferred*;
  installing a method with that selector later retags it.
* Object-send sites are never rewritten, so they can only ever find plain
  entries -- which is exactly the public-only lookup.

``install_method`` grows an image incrementally, doing only the work the new
method touches. It derives the new index from the parent image's, checks only
the classes the method can make invalid, and keeps the parent's scope unless
the method pulls classes in under the same rule -- the target, or an ancestor
that self-sends a new protected selector -- with their descendants
(recompiling them). It then re-examines the in-scope sites that mention the
new selector in the target's subtree and ancestors, and the deferred ones.
Images are never mutated; installs return a new image and leave the old one
valid.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from .errors import (
    AlreadyMangledError,
    ProgramInvalidError,
    ReservedSelectorError,
    UnknownClassError,
    UnknownFieldError,
)
from .syntax import (
    MANGLE_PREFIX,
    PROTECTED,
    ROOT_CLASS,
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
    pretty_expr,
    self_and_super_selectors,
)
from .validate import HierarchyIndex, validate, validate_install


class CompileMode(enum.Enum):
    NORMAL = "normal"
    # Mangling disabled entirely: visibility annotations are ignored and every
    # method is installed plain. The behaviour of the language without
    # protected-method support.
    BASELINE = "baseline"
    # Every class is treated as using protection: double registration and
    # site mangling everywhere. Upper bound for memory and lookup costs.
    WORST_CASE = "worst-case"


# --- symbols -----------------------------------------------------------------


@dataclass(frozen=True, eq=False, slots=True)
class Symbol:
    """An interned selector. A table builds one per text, so equality and
    hashing are by identity: two tables' symbols for one text differ."""

    text: str
    id: int

    @property
    def mangled(self) -> bool:
        return self.text.startswith(MANGLE_PREFIX)

    def __repr__(self) -> str:
        return f"#{self.text}"


class SymbolTable:
    """Interns selectors; one Symbol instance per distinct text."""

    def __init__(self) -> None:
        self._by_text: dict[str, Symbol] = {}

    def intern(self, text: str) -> Symbol:
        sym = self._by_text.get(text)
        if sym is None:
            sym = Symbol(text, len(self._by_text))
            self._by_text[text] = sym
        return sym

    def mangle(self, selector: Symbol) -> Symbol:
        """The mangled counterpart of a plain selector.

        Mangling twice is a programming error, not a silent no-op.
        """
        if selector.mangled:
            raise AlreadyMangledError(
                f"selector '{selector.text}' is already mangled")
        return self.intern(MANGLE_PREFIX + selector.text)

    def symbols(self) -> list[Symbol]:
        return list(self._by_text.values())

    def copy(self) -> "SymbolTable":
        table = SymbolTable()
        table._by_text = dict(self._by_text)
        return table


# --- lowered bodies ----------------------------------------------------------
#
# A lowered body is the source expression tree with its sends replaced: every
# other node is shared with the source as it is. Each send node below is the
# syntax send it stands for, carrying its SendSite; its ``selector`` is the
# text the site dispatches through (mangled for a rewritten self/super site),
# so ``pretty_expr`` prints lowered bodies too. Nodes follow the rule in
# ``syntax``'s docstring: built once, never changed, slotted. Equality is by
# value, with the dispatch text compared on the send node: neither the site id
# nor the site's Symbol counts, so bodies compiled against two symbol tables
# compare equal.


@dataclass(slots=True)
class SendSite:
    """One message-send site in compiled code.

    ``selector`` is the symbol the site dispatches through; for a rewritten
    self/super site that is the mangled form. ``plain_text`` keeps the source
    selector for diagnostics, which never show the prefix.
    """

    site_id: int = field(compare=False)
    # The owning send node's ``selector`` holds this symbol's text.
    selector: Symbol = field(compare=False)
    plain_text: str

    @property
    def mangled(self) -> bool:
        return self.selector.mangled


@dataclass(slots=True)
class SiteSend(Send):
    """An object send; its receiver is lowered, its selector never mangled."""

    site: SendSite = field(kw_only=True)


@dataclass(slots=True)
class SelfSiteSend(Send):
    """A send to ``self``; the receiver stays the source's ``SelfRef``."""

    site: SendSite = field(kw_only=True)


@dataclass(slots=True)
class SuperSiteSend(SuperSend):
    site: SendSite = field(kw_only=True)


@dataclass(eq=False, slots=True)
class CompiledMethod:
    """A lowered method body; compared by identity so shared dictionary
    entries are observable."""

    origin_class: str
    selector: Symbol  # plain form
    visibility: str
    params: tuple[str, ...]
    body: Expr


@dataclass(frozen=True)
class DeferredSite:
    """A self/super site whose selector resolved nowhere at compile time."""

    class_name: str
    method_selector: str
    selector: str


@dataclass
class ImageClass:
    name: str
    superclass: str | None  # None only for Object
    own_fields: tuple[str, ...]
    all_fields: tuple[str, ...]
    dictionary: dict[Symbol, CompiledMethod]
    class_id: int


@dataclass
class RuntimeImage:
    """Compiled classes plus everything needed to run and account for them.

    Immutable by convention after construction; ``install_method`` returns a
    new image sharing untouched classes with the old one.
    """

    program: Program
    mode: CompileMode
    classes: dict[str, ImageClass]
    main: Expr
    symbols: SymbolTable
    rewrite_scope: frozenset[str]
    protection_roots: frozenset[str]
    deferred_sites: tuple[DeferredSite, ...]
    site_count: int
    # The index the image was compiled from, for callers that need the same
    # relations over ``program`` (the reference evaluator). Not part of
    # equality.
    idx: HierarchyIndex = field(repr=False, compare=False)
    # The runtime's code arrays, lowered lazily from the bodies above: keyed
    # by CompiledMethod (identity), with None for main. Not part of equality.
    code_arrays: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)


# --- scope --------------------------------------------------------------------


def rewrite_scope(idx: HierarchyIndex) -> frozenset[str]:
    """Classes that define a protected method or self-send a selector that a
    strict descendant defines protected, plus all their descendants. Super-
    sends need no such rule: outside the scope every ancestor is public."""
    classes = idx.program.classes
    joined: set[str] = set()
    # Only a strict ancestor of a protected definer can join by self-send.
    hooks_below: dict[str, set[str]] = {}
    for c in classes:
        hooks = {m.selector for m in c.methods if m.visibility == PROTECTED}
        if hooks:
            joined.add(c.name)
            for anc in idx.chain(c.name)[1:-1]:
                hooks_below.setdefault(anc, set()).update(hooks)
    for name, hooks in hooks_below.items():
        if name not in joined and _self_sends_any(idx.by_name[name].methods,
                                                  hooks):
            joined.add(name)
    return frozenset(c.name for c in classes
                     if not joined.isdisjoint(idx.chain(c.name)))


def _self_sends_any(methods: tuple[MethodDef, ...],
                    selectors: set[str]) -> bool:
    return any(not selectors.isdisjoint(self_and_super_selectors(m.body)[0])
               for m in methods)


def protection_roots(idx: HierarchyIndex,
                     scope: frozenset[str]) -> frozenset[str]:
    """Topmost in-scope class of each protected chain."""
    return frozenset(
        name for name in scope if idx.superclass(name) not in scope
    )


def _scope_for_mode(idx: HierarchyIndex, mode: CompileMode) -> frozenset[str]:
    if mode is CompileMode.BASELINE:
        return frozenset()
    if mode is CompileMode.WORST_CASE:
        return frozenset(c.name for c in idx.program.classes)
    return rewrite_scope(idx)


# --- body lowering -------------------------------------------------------------


class _Lowerer:
    """Lowers expression trees, tagging self/super sites per the scope rules."""

    def __init__(self, idx: HierarchyIndex, scope: frozenset[str],
                 symbols: SymbolTable, next_site_id: int):
        self.idx = idx
        self.scope = scope
        self.symbols = symbols
        self.next_site_id = next_site_id
        self.deferred: list[DeferredSite] = []

    def _site(self, symbol: Symbol, plain: str) -> SendSite:
        site = SendSite(self.next_site_id, symbol, plain)
        self.next_site_id += 1
        return site

    def _tag_selector(self, selector: str, enclosing: str | None,
                      kind: str, method_selector: str) -> Symbol:
        """Mangled symbol when the rewrite applies to this site, else plain.

        ``kind`` is 'self' or 'super'; object sends are never rewritten.
        """
        plain = self.symbols.intern(selector)
        if enclosing is None or enclosing not in self.scope:
            return plain
        start = enclosing if kind == "self" else self.idx.superclass(enclosing)
        found = self.idx.closest_def(start, selector) if start else None
        if found is not None:
            if found[0] not in self.scope:
                # Resolves only above the protection root: those ancestors
                # carry no mangled entries, so the site must stay plain.
                return plain
            return self.symbols.mangle(plain)
        definers = self.idx.definers(selector)
        if kind == "self" and any(
                d != enclosing and enclosing in self.idx.chain(d)
                for d in definers):
            # Unresolved here, but a subclass (necessarily in scope) answers
            # it -- possibly with a protected, mangled-only method that a
            # plain send could never see.
            return self.symbols.mangle(plain)
        if not definers:
            # No class defines the selector: assume a public send and
            # remember the site for when such a method gets installed.
            self.deferred.append(
                DeferredSite(enclosing, method_selector, selector))
        return plain

    def lower(self, e: Expr, enclosing: str | None, method_selector: str) -> Expr:
        """The source tree with its sends replaced; other nodes are shared."""
        # Let chains nest along the body; peel them iteratively so workload
        # mains replicated a few hundred times lower without deep recursion.
        if isinstance(e, Let):
            bindings = []
            while isinstance(e, Let):
                bindings.append(
                    (e.var, self.lower(e.bound, enclosing, method_selector)))
                e = e.body
            lowered = self.lower(e, enclosing, method_selector)
            for var, bound in reversed(bindings):
                lowered = Let(var, bound, lowered)
            return lowered
        if isinstance(e, (NilLit, IntLit, SelfRef, Var, New)):
            return e
        if isinstance(e, FieldGet):
            self._check_field(e.field, enclosing)
            return e
        if isinstance(e, FieldSet):
            self._check_field(e.field, enclosing)
            return FieldSet(e.field, self.lower(e.value, enclosing, method_selector))
        if isinstance(e, Send):
            args = tuple(self.lower(a, enclosing, method_selector) for a in e.args)
            if isinstance(e.receiver, SelfRef):
                sym = self._tag_selector(e.selector, enclosing, "self",
                                         method_selector)
                return SelfSiteSend(e.receiver, sym.text, args,
                                    site=self._site(sym, e.selector))
            recv = self.lower(e.receiver, enclosing, method_selector)
            sym = self.symbols.intern(e.selector)
            return SiteSend(recv, e.selector, args,
                            site=self._site(sym, e.selector))
        if isinstance(e, SuperSend):
            args = tuple(self.lower(a, enclosing, method_selector) for a in e.args)
            sym = self._tag_selector(e.selector, enclosing, "super",
                                     method_selector)
            return SuperSiteSend(sym.text, args, site=self._site(sym, e.selector))
        raise TypeError(f"not an expression: {e!r}")

    def _check_field(self, field_name: str, enclosing: str | None) -> None:
        fields = self.idx.fields_of(enclosing) if enclosing else ()
        if field_name not in fields:
            raise UnknownFieldError(enclosing or ROOT_CLASS, field_name)


# --- whole-program compilation ---------------------------------------------------


def _compile_method(lowerer: _Lowerer, class_name: str,
                    mdef: MethodDef) -> CompiledMethod:
    if mdef.selector.startswith(MANGLE_PREFIX):
        raise ReservedSelectorError(
            f"selector {mdef.selector!r} uses the reserved prefix", 0, 0)
    body = lowerer.lower(mdef.body, class_name, mdef.selector)
    plain = lowerer.symbols.intern(mdef.selector)
    return CompiledMethod(class_name, plain, mdef.visibility, mdef.params, body)


def _install(dictionary: dict[Symbol, CompiledMethod], method: CompiledMethod,
             in_scope: bool, symbols: SymbolTable) -> None:
    plain = method.selector
    if method.visibility == PROTECTED and in_scope:
        dictionary[symbols.mangle(plain)] = method
        return
    dictionary[plain] = method
    if in_scope:
        dictionary[symbols.mangle(plain)] = method


def compile_program(program: Program,
                    mode: CompileMode = CompileMode.NORMAL) -> RuntimeImage:
    """Validate, lower, and register every class of a program."""
    idx = HierarchyIndex(program)
    violations = validate(program, idx)
    if violations:
        raise ProgramInvalidError(violations)
    scope = _scope_for_mode(idx, mode)
    symbols = SymbolTable()
    lowerer = _Lowerer(idx, scope, symbols, 0)

    classes: dict[str, ImageClass] = {
        ROOT_CLASS: ImageClass(ROOT_CLASS, None, (), (), {}, 0)
    }
    for i, cdef in enumerate(program.classes, start=1):
        in_scope = cdef.name in scope
        dictionary: dict[Symbol, CompiledMethod] = {}
        for mdef in cdef.methods:
            method = _compile_method(lowerer, cdef.name, mdef)
            _install(dictionary, method, in_scope and mode is not CompileMode.BASELINE,
                     symbols)
        classes[cdef.name] = ImageClass(
            cdef.name, cdef.superclass, cdef.fields,
            idx.fields_of(cdef.name), dictionary, i)

    main = lowerer.lower(program.main, None, "")
    # Deferral only applies inside the scope; main has no enclosing class.
    return RuntimeImage(
        program=program,
        mode=mode,
        classes=classes,
        main=main,
        symbols=symbols,
        rewrite_scope=scope,
        protection_roots=protection_roots(idx, scope),
        deferred_sites=tuple(lowerer.deferred),
        site_count=lowerer.next_site_id,
        idx=idx,
    )


# --- incremental method installation ----------------------------------------------


def install_method(image: RuntimeImage, class_name: str,
                   mdef: MethodDef) -> RuntimeImage:
    """Install one method into an existing image, returning a new image.

    Rejects anything that would invalidate the program (duplicate selector,
    narrowing an inherited public method, reserved prefix), with the
    violations ``validate`` reports for the grown program. Classes the
    method pulls into the rewrite scope are recompiled with their
    descendants; afterwards, in-scope methods mentioning the new selector in
    self/super position are re-examined so their site tags match a
    from-scratch compile.
    Builds no index and validates no class the method cannot affect.
    """
    if mdef.selector.startswith(MANGLE_PREFIX):
        raise ReservedSelectorError(
            f"selector {mdef.selector!r} uses the reserved prefix", 0, 0)
    old_def = image.idx.by_name.get(class_name)
    if class_name == ROOT_CLASS or old_def is None:
        raise UnknownClassError(f"cannot install into '{class_name}'")

    target = replace(old_def, methods=old_def.methods + (mdef,))
    new_program = replace(image.program, classes=tuple(
        target if c is old_def else c for c in image.program.classes))
    idx = image.idx.with_method(new_program, target, mdef.selector)
    violations = validate_install(idx, class_name, mdef.selector)
    if violations:
        raise ProgramInvalidError(violations)

    # The parent's scope, grown in normal mode under the scope rule: a
    # protected method pulls in each strict ancestor that self-sends its
    # selector, and any method pulls in a target outside the scope when it is
    # protected or self-sends a selector a strict descendant defines
    # protected. All lie on the target's chain: the topmost one's subtree
    # joins.
    subtree = idx.subtree(class_name)
    new_scope, roots = image.rewrite_scope, image.protection_roots
    top = None
    if image.mode is CompileMode.NORMAL:
        protected = mdef.visibility == PROTECTED
        if protected:
            top = next((anc for anc in reversed(idx.chain(class_name)[1:-1])
                        if anc not in new_scope and _self_sends_any(
                            idx.by_name[anc].methods, {mdef.selector})), None)
        if top is None and class_name not in new_scope and (
                protected or _self_sends_any((mdef,), {
                    m.selector for d in subtree if d != class_name
                    for m in idx.by_name[d].methods
                    if m.visibility == PROTECTED})):
            top = class_name
    reach = subtree
    expansion: frozenset[str] = frozenset()
    if top is not None:
        reach = idx.subtree(top)
        expansion = frozenset(reach) - new_scope
        new_scope = new_scope | expansion
        roots = protection_roots(idx, new_scope)

    symbols = image.symbols.copy()
    lowerer = _Lowerer(idx, new_scope, symbols, image.site_count)

    # Classes needing a full recompile: the target itself, plus everything
    # newly pulled into the rewrite scope.
    full: set[str] = {class_name} | expansion
    # Sites whose tag can change: those sending the new selector, and -- when
    # classes just entered the scope -- those sending anything such a class
    # defines, since their resolution class may have flipped into the scope.
    # Only the joining subtree (else the target's) and the target's ancestors
    # resolve through what changed; elsewhere only a deferred site of the new
    # selector can, as the selector now has a definer.
    affected_selectors = {mdef.selector}
    for name in expansion:
        affected_selectors.update(m.selector for m in idx.by_name[name].methods)
    candidates = set(reach).union(
        idx.chain(class_name),
        (d.class_name for d in image.deferred_sites
         if d.selector == mdef.selector))
    retag: dict[str, set[str]] = {}
    for name in candidates:
        if name in full or name not in new_scope:
            continue
        for m in idx.by_name[name].methods:
            if any(affected_selectors & sent
                   for sent in self_and_super_selectors(m.body)):
                retag.setdefault(name, set()).add(m.selector)

    def in_scope_of(name: str) -> bool:
        return name in new_scope and image.mode is not CompileMode.BASELINE

    classes = dict(image.classes)
    dropped_deferred: set[tuple[str, str]] = set()
    for name in sorted(full | set(retag)):
        cdef = idx.by_name[name]
        old = image.classes[name]
        if name in full:
            dictionary = {}
            rebuilt = set(m.selector for m in cdef.methods)
        else:
            dictionary = dict(old.dictionary)
            rebuilt = retag[name]
        for m in cdef.methods:
            if m.selector not in rebuilt:
                continue
            if name not in full:
                for sym in [s for s, cm in dictionary.items()
                            if cm.selector.text == m.selector]:
                    del dictionary[sym]
            method = _compile_method(lowerer, name, m)
            _install(dictionary, method, in_scope_of(name), symbols)
            dropped_deferred.add((name, m.selector))
        classes[name] = ImageClass(name, old.superclass, cdef.fields,
                                   idx.fields_of(name), dictionary, old.class_id)
        if name in full:
            dropped_deferred.update((name, m.selector) for m in cdef.methods)

    deferred = tuple(
        d for d in image.deferred_sites
        if (d.class_name, d.method_selector) not in dropped_deferred
    ) + tuple(lowerer.deferred)

    return RuntimeImage(
        program=new_program,
        mode=image.mode,
        classes=classes,
        main=image.main,
        symbols=symbols,
        rewrite_scope=new_scope,
        protection_roots=roots,
        deferred_sites=deferred,
        site_count=lowerer.next_site_id,
        idx=idx,
    )


# --- textual image dump -------------------------------------------------------------


def desugar_dump(image: RuntimeImage) -> str:
    """Deterministic textual dump of dictionaries and lowered bodies."""
    out: list[str] = []
    shared_ids = _shared_method_ids(image)
    for name in sorted(image.classes):
        icls = image.classes[name]
        sup = icls.superclass or "(root)"
        out.append(f"class {name} extends {sup}")
        out.append("  dictionary:")
        if not icls.dictionary:
            out.append("    (empty)")
        for sym in sorted(icls.dictionary, key=lambda s: s.text):
            cm = icls.dictionary[sym]
            shared = " shared" if id(cm) in shared_ids[name] else ""
            out.append(f"    {sym.text} -> {cm.origin_class}#{cm.selector.text} "
                       f"{cm.visibility}{shared}")
        seen: set[int] = set()
        for sym in sorted(icls.dictionary, key=lambda s: s.text):
            cm = icls.dictionary[sym]
            if id(cm) in seen:
                continue
            seen.add(id(cm))
            params = ", ".join(cm.params)
            out.append(f"  body {cm.selector.text}({params}) [{cm.visibility}]: "
                       f"{pretty_expr(cm.body)}")
    out.append(f"main: {pretty_expr(image.main)}")
    scope = ", ".join(sorted(image.rewrite_scope)) or "(none)"
    roots = ", ".join(sorted(image.protection_roots)) or "(none)"
    out.append(f"rewrite scope: {scope}")
    out.append(f"protection roots: {roots}")
    if image.deferred_sites:
        for d in sorted(image.deferred_sites,
                        key=lambda d: (d.class_name, d.method_selector, d.selector)):
            out.append(f"deferred site: {d.class_name}#{d.method_selector} "
                       f"-> {d.selector}")
    else:
        out.append("deferred sites: (none)")
    return "\n".join(out) + "\n"


def _shared_method_ids(image: RuntimeImage) -> dict[str, set[int]]:
    """Per class: ids of compiled methods registered under two selectors."""
    result: dict[str, set[int]] = {}
    for name, icls in image.classes.items():
        counts: dict[int, int] = {}
        for cm in icls.dictionary.values():
            counts[id(cm)] = counts.get(id(cm), 0) + 1
        result[name] = {mid for mid, n in counts.items() if n > 1}
    return result
