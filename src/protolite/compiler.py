"""Compiling a validated program into an executable image.

The compile builds no code and walks no method body. It decides the rewrite
scope, fills the class dictionaries and interns their keys. Each compiled
method keeps its source body and the build that made it: the hierarchy index
and scope of its compile or install, and the symbol table that compile and
all its installs share. The runtime lowers a body to code only when it first
runs it, and that lowering makes the body's send sites: the tagged selector
each send dispatches through, interned and numbered (``send_site``).

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
  selector resolves nowhere also stays plain and is *deferred*; installing a
  method with that selector later retags it.
* Object-send sites are never rewritten, so they can only ever find plain
  entries -- which is exactly the public-only lookup.

A site's tag is a pure function of its send, its class, and the index and
scope its method was built under, so ``render`` and ``desugar_dump`` print
the tags without interning a symbol or numbering a site.

``install_method`` grows an image incrementally, doing only the work the new
method touches. It derives the new index from the parent image's, checks only
the classes the method can make invalid, and keeps the parent's scope unless
the method pulls classes in under the same rule -- the target, or an ancestor
that self-sends a new protected selector -- with their descendants. It
rebuilds the target, the classes that joined the scope, and the in-scope
classes whose self/super sites can change tag (only those in the joining
subtree, else the target's, and the target's ancestors can), each whole and
by the same builder as a compile. Every other class, and its methods'
lowered code, is shared with the parent image: its sites tag the same under
either build. A deferred site of the new selector elsewhere stays plain, and
stops being deferred because deferral is derived from the index, never
stored. Images are never mutated; installs return a new image and leave the
old one valid.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field, replace

from ._collector import collector_paused
from .errors import (
    AlreadyMangledError,
    ProgramInvalidError,
    ReservedSelectorError,
    UnknownClassError,
)
from .syntax import (
    MANGLE_PREFIX,
    PROTECTED,
    PUBLIC,
    ROOT_CLASS,
    ClassDef,
    MethodDef,
    Program,
    SelfRef,
    Send,
    SuperSend,
    pretty_expr,
    self_and_super_selectors,
    self_and_super_sends,
)
from .validate import HierarchyIndex, index_of, validate, validate_install


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
    """Interns selectors, one Symbol instance per distinct text, and keeps
    every send site made so far, indexed by site id.

    A compile and all its installs share one table. A body that one image
    lowers keeps its symbols and site ids in every image sharing it, and a
    dictionary key that an install interns is the very symbol that code
    already sends.
    """

    def __init__(self) -> None:
        self._by_text: dict[str, Symbol] = {}
        self.sites: list[SendSite] = []

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


# --- compiled methods ----------------------------------------------------------


@dataclass(eq=False, slots=True)
class SendSite:
    """One message-send site in lowered code.

    ``selector`` is the symbol the site dispatches through; for a rewritten
    self/super site that is the mangled form. ``plain_text`` keeps the source
    selector for diagnostics, which never show the prefix. ``origin_class``
    and ``method`` name the body holding the send (None and None for main).
    """

    site_id: int
    selector: Symbol
    plain_text: str
    origin_class: str | None
    method: Symbol | None


@dataclass(frozen=True, eq=False, slots=True)
class Build:
    """What a compile or install decided that lowering its bodies reads:
    the index and rewrite scope its sites are tagged under, and the symbol
    table of the compile and all its installs."""

    index: HierarchyIndex
    scope: frozenset[str]
    symbols: SymbolTable


@dataclass(eq=False, slots=True)
class CompiledMethod:
    """A method's source body and the build that made it. The runtime
    lowers the body to ``code`` at the method's first activation, making its
    send sites as it goes; ``render`` prints it as it dispatches. Main is
    compiled as a method with no class and no selector. Compared by identity
    so shared dictionary entries are observable."""

    origin_class: str | None  # None only for main
    selector: Symbol | None  # plain form; None only for main
    visibility: str
    params: tuple[str, ...]
    body: Expr
    build: Build
    code: tuple | None = None  # set by the runtime at the first activation


def _mangled(send: Send | SuperSend, enclosing: str | None,
             build: Build) -> bool:
    """Whether a send in a body of ``enclosing`` dispatches through the
    mangled selector: only a self/super site of an in-scope class can, and
    object sends are never rewritten."""
    scope = build.scope
    if enclosing not in scope:
        return False
    idx = build.index
    selector = send.selector
    if send.__class__ is SuperSend:
        start = idx.superclass(enclosing)
    elif send.receiver.__class__ is SelfRef:
        start = enclosing
    else:
        return False
    found = idx.closest_def(start, selector) if start else None
    if found is not None:
        # Resolving only above the protection root, where ancestors carry
        # no mangled entries, the site must stay plain.
        return found[0] in scope
    # A self-send unresolved here that a subclass (necessarily in scope)
    # answers -- possibly with a protected, mangled-only method that a plain
    # send could never see. A selector no class defines stays plain: the
    # site is deferred.
    return send.__class__ is Send and idx.defined_below(start, selector)


def send_site(method: CompiledMethod, send: Send | SuperSend) -> SendSite:
    """A new site for a send in ``method``'s body, made as the runtime
    lowers it: tagged, its selector interned, numbered with the next id of
    the shared table."""
    build = method.build
    symbols = build.symbols
    selector = symbols.intern(send.selector)
    if _mangled(send, method.origin_class, build):
        selector = symbols.mangle(selector)
    sites = symbols.sites
    site = SendSite(len(sites), selector, send.selector, method.origin_class,
                    method.selector)
    sites.append(site)
    return site


def render(method: CompiledMethod) -> str:
    """A compiled body's source text, each send printing the selector it
    dispatches through (mangled for a rewritten self/super site). Interns
    no symbol and makes no site."""
    enclosing, build = method.origin_class, method.build
    return pretty_expr(method.body, dispatch=lambda send: (
        MANGLE_PREFIX + send.selector if _mangled(send, enclosing, build)
        else send.selector))


@dataclass(frozen=True)
class DeferredSite:
    """A self/super site whose selector no class defines."""

    class_name: str
    method_selector: str
    selector: str


@dataclass(eq=False)
class ImageClass:
    name: str
    superclass: str | None  # None only for Object
    all_fields: tuple[str, ...]
    dictionary: dict[Symbol, CompiledMethod]
    class_id: int


@dataclass(eq=False)
class RuntimeImage:
    """Compiled classes plus everything needed to run and account for them.

    Immutable by convention after construction; ``install_method`` returns a
    new image sharing untouched classes with the old one. Images and their
    classes compare by identity: their dictionaries are keyed by symbols,
    which hash by identity, so no two compiles could compare equal.
    """

    mode: CompileMode
    classes: dict[str, ImageClass]
    main: CompiledMethod
    rewrite_scope: frozenset[str]
    # The program the image was compiled from; its index is the one the
    # compile used.
    program: Program = field(repr=False)

    @property
    def symbols(self) -> SymbolTable:
        """The symbol table of the compile and all its installs."""
        return self.main.build.symbols

    @property
    def deferred_sites(self) -> tuple[DeferredSite, ...]:
        """The deferred sites of the image's in-scope bodies, one per
        self/super send whose selector no class defines, derived from the
        bodies on each read. Main has no class, so none of its sites."""
        idx = index_of(self.program)
        scope = self.rewrite_scope
        return tuple(
            DeferredSite(cdef.name, mdef.selector, send.selector)
            for cdef in self.program.classes if cdef.name in scope
            for mdef in cdef.methods
            for send in self_and_super_sends(mdef.body)
            if not idx.definers(send.selector))


# --- scope --------------------------------------------------------------------


def rewrite_scope(idx: HierarchyIndex) -> frozenset[str]:
    """Classes that define a protected method or self-send a selector that a
    strict descendant defines protected, plus all their descendants. Super-
    sends need no such rule: outside the scope every ancestor is public.
    The program must be valid: its classes are read from ``idx.by_name``."""
    classes = idx.by_name.values()
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
    return idx.subtrees(joined)


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
        return frozenset(idx.by_name)
    return rewrite_scope(idx)


# --- whole-program compilation ---------------------------------------------------


def _compile_class(build: Build, cdef: ClassDef,
                   class_id: int) -> ImageClass:
    """Register every method of a class under the build's scope: inside it,
    a protected method under its mangled selector only and a public one
    under both, the two entries sharing one compiled method."""
    in_scope = cdef.name in build.scope
    symbols = build.symbols
    dictionary: dict[Symbol, CompiledMethod] = {}
    for mdef in cdef.methods:
        if mdef.selector.startswith(MANGLE_PREFIX):
            raise ReservedSelectorError(
                f"selector {mdef.selector!r} uses the reserved prefix", 0, 0)
        plain = symbols.intern(mdef.selector)
        method = CompiledMethod(cdef.name, plain, mdef.visibility,
                                mdef.params, mdef.body, build)
        if not (in_scope and mdef.visibility == PROTECTED):
            dictionary[plain] = method
        if in_scope:
            dictionary[symbols.mangle(plain)] = method
    return ImageClass(cdef.name, cdef.superclass,
                      build.index.fields_of(cdef.name), dictionary, class_id)


@collector_paused
def compile_program(program: Program,
                    mode: CompileMode = CompileMode.NORMAL) -> RuntimeImage:
    """Register every class of a valid program.

    Validates the program first unless ``validate`` has passed on it
    already. Interns the dictionary keys only: a send's symbol and site id
    are made when the runtime first activates its body.
    """
    if not program.valid:
        violations = validate(program)
        if violations:
            raise ProgramInvalidError(violations)
    idx = index_of(program)
    build = Build(idx, _scope_for_mode(idx, mode), SymbolTable())
    classes = {ROOT_CLASS: ImageClass(ROOT_CLASS, None, (), {}, 0)}
    for i, cdef in enumerate(program.classes, start=1):
        classes[cdef.name] = _compile_class(build, cdef, i)
    return RuntimeImage(
        mode=mode,
        classes=classes,
        main=CompiledMethod(None, None, PUBLIC, (), program.main, build),
        rewrite_scope=build.scope,
        program=program,
    )


# --- incremental method installation ----------------------------------------------


@collector_paused
def install_method(image: RuntimeImage, class_name: str,
                   mdef: MethodDef) -> RuntimeImage:
    """Install one method into an existing image, returning a new image.

    Rejects anything that would invalidate the program (duplicate selector,
    narrowing an inherited public method, reserved prefix), with the
    violations ``validate`` reports for the grown program. Rebuilds the
    target, the classes the method pulls into the rewrite scope, and the
    in-scope classes whose self/super site tags can change, so the image
    matches a from-scratch compile. Builds no index and validates no class
    the method cannot affect.
    """
    if mdef.selector.startswith(MANGLE_PREFIX):
        raise ReservedSelectorError(
            f"selector {mdef.selector!r} uses the reserved prefix", 0, 0)
    parent = image.program
    old_def = index_of(parent).by_name.get(class_name)
    if class_name == ROOT_CLASS or old_def is None:
        raise UnknownClassError(f"cannot install into '{class_name}'")

    target = replace(old_def, methods=old_def.methods + (mdef,))
    new_program = replace(parent, classes=tuple(
        target if c is old_def else c for c in parent.classes))
    new_program.index = idx = parent.index.with_method(target, mdef.selector)
    violations = validate_install(idx, class_name, mdef.selector)
    if violations:
        raise ProgramInvalidError(violations)
    new_program.valid = True

    # The parent's scope, grown in normal mode under the scope rule: a
    # protected method pulls in each strict ancestor that self-sends its
    # selector, and any method pulls in a target outside the scope when it is
    # protected or self-sends a selector a strict descendant defines
    # protected. All lie on the target's chain: the topmost one's subtree
    # joins.
    subtree = idx.subtree(class_name)
    new_scope = image.rewrite_scope
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

    build = Build(idx, new_scope, image.symbols)

    # Classes to rebuild: the target, those that just joined the scope, and
    # the in-scope classes whose self/super sites can change tag -- those
    # sending the new selector and, when classes joined, anything such a class
    # defines, since the resolution class may have flipped into the scope.
    # Only the joining subtree (else the target's) and the target's ancestors
    # resolve through what changed. A deferred site elsewhere keeps its
    # plain tag; it stops being deferred, which is derived, not stored.
    affected_selectors = {mdef.selector}
    for name in expansion:
        affected_selectors.update(m.selector for m in idx.by_name[name].methods)
    rebuilt = {class_name} | expansion | {
        name for name in set(reach).union(idx.chain(class_name))
        if name in new_scope and any(
            affected_selectors & sent for m in idx.by_name[name].methods
            for sent in self_and_super_selectors(m.body))}

    classes = dict(image.classes)
    for name in sorted(rebuilt):
        classes[name] = _compile_class(build, idx.by_name[name],
                                       image.classes[name].class_id)
    return replace(image, classes=classes, rewrite_scope=new_scope,
                   program=new_program)


# --- textual image dump -------------------------------------------------------------


def desugar_dump(image: RuntimeImage) -> str:
    """Deterministic textual dump of dictionaries and compiled bodies, each
    printed as it dispatches."""
    out: list[str] = []
    for name in sorted(image.classes):
        icls = image.classes[name]
        sup = icls.superclass or "(root)"
        out.append(f"class {name} extends {sup}")
        out.append("  dictionary:")
        if not icls.dictionary:
            out.append("    (empty)")
        entries = sorted(icls.dictionary.items(), key=lambda e: e[0].text)
        # Compiled methods hash by identity: a shared one counts twice.
        uses = Counter(icls.dictionary.values())
        for sym, cm in entries:
            shared = " shared" if uses[cm] > 1 else ""
            out.append(f"    {sym.text} -> {cm.origin_class}#{cm.selector.text} "
                       f"{cm.visibility}{shared}")
        for cm in dict.fromkeys(cm for _, cm in entries):
            params = ", ".join(cm.params)
            out.append(f"  body {cm.selector.text}({params}) [{cm.visibility}]: "
                       f"{render(cm)}")
    out.append(f"main: {render(image.main)}")
    scope = ", ".join(sorted(image.rewrite_scope)) or "(none)"
    roots = ", ".join(sorted(protection_roots(index_of(image.program),
                                              image.rewrite_scope)))
    roots = roots or "(none)"
    out.append(f"rewrite scope: {scope}")
    out.append(f"protection roots: {roots}")
    deferred = image.deferred_sites
    if deferred:
        for d in sorted(deferred,
                        key=lambda d: (d.class_name, d.method_selector, d.selector)):
            out.append(f"deferred site: {d.class_name}#{d.method_selector} "
                       f"-> {d.selector}")
    else:
        out.append("deferred sites: (none)")
    return "\n".join(out) + "\n"
