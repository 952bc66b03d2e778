"""Compiling a validated program into an executable image.

The compile builds no code. It decides the rewrite scope, fills the class
dictionaries and interns every selector, and gives each method its send
sites: the tagged selector each send dispatches through, numbered. The
runtime lowers a body to code only when it first runs it.

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
that self-sends a new protected selector -- with their descendants. It
rebuilds the target, the classes that joined the scope, and the in-scope
classes whose self/super sites can change tag (those in the target's subtree
and ancestors, and those with a deferred site of the new selector), each
whole and by the same builder as a compile; every other class is shared with
the parent image. Images are never mutated; installs return a new image and
leave the old one valid.
"""

from __future__ import annotations

import enum
from collections import Counter
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
    pretty_expr,
    self_and_super_selectors,
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


# --- compiled methods ----------------------------------------------------------


@dataclass(eq=False, slots=True)
class SendSite:
    """One message-send site in compiled code.

    ``selector`` is the symbol the site dispatches through; for a rewritten
    self/super site that is the mangled form. ``plain_text`` keeps the source
    selector for diagnostics, which never show the prefix.
    """

    site_id: int
    selector: Symbol
    plain_text: str


@dataclass(eq=False, slots=True)
class CompiledMethod:
    """A method's source body and the site of each of its sends, in the
    order the body runs them. The runtime lowers the two to ``code`` at
    the method's first activation; ``render`` prints them as they dispatch.
    Main is compiled as a method with no class and no selector. Compared
    by identity so shared dictionary entries are observable."""

    origin_class: str | None  # None only for main
    selector: Symbol | None  # plain form; None only for main
    visibility: str
    params: tuple[str, ...]
    body: Expr
    sites: tuple[SendSite, ...]
    code: tuple | None = None  # set by the runtime at the first activation


def render(body: Expr, sites: tuple[SendSite, ...]) -> str:
    """A compiled body's source text, each send printing the selector its
    site dispatches through (mangled for a rewritten self/super site)."""
    return pretty_expr(body, dispatch=(site.selector.text for site in sites))


@dataclass(frozen=True)
class DeferredSite:
    """A self/super site whose selector resolved nowhere at compile time."""

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
    symbols: SymbolTable
    rewrite_scope: frozenset[str]
    deferred_sites: tuple[DeferredSite, ...]
    site_count: int
    # The program the image was compiled from; its index is the one the
    # compile used.
    program: Program = field(repr=False)


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


# --- send sites --------------------------------------------------------------------


class _SiteBuilder:
    """Builds the send sites of bodies, tagging self/super sites per the
    scope rules; numbers sites and interns selectors across one compile."""

    def __init__(self, idx: HierarchyIndex, scope: frozenset[str],
                 symbols: SymbolTable, next_site_id: int):
        self.idx = idx
        self.scope = scope
        self.symbols = symbols
        self.next_site_id = next_site_id
        self.deferred: list[DeferredSite] = []
        # The body being walked: its class (None for main), method, fields.
        self.enclosing: str | None = None
        self.method_selector = ""
        self.fields: tuple[str, ...] = ()

    def _tag_selector(self, send: Send | SuperSend) -> Symbol:
        """The symbol a send dispatches through: mangled when the rewrite
        applies to this self/super site of the in-scope enclosing class,
        else plain. Object sends are never rewritten."""
        selector = send.selector
        plain = self.symbols.intern(selector)
        enclosing = self.enclosing
        if enclosing not in self.scope:
            return plain
        if send.__class__ is SuperSend:
            start = self.idx.superclass(enclosing)
        elif send.receiver.__class__ is SelfRef:
            start = enclosing
        else:
            return plain
        found = self.idx.closest_def(start, selector) if start else None
        if found is not None:
            if found[0] not in self.scope:
                # Resolves only above the protection root: those ancestors
                # carry no mangled entries, so the site must stay plain.
                return plain
            return self.symbols.mangle(plain)
        if send.__class__ is Send and self.idx.defined_below(start, selector):
            # A self-send unresolved here, but a subclass (necessarily in
            # scope) answers it -- possibly with a protected, mangled-only
            # method that a plain send could never see.
            return self.symbols.mangle(plain)
        if not self.idx.definers(selector):
            # No class defines the selector: assume a public send and
            # remember the site for when such a method gets installed.
            self.deferred.append(
                DeferredSite(enclosing, self.method_selector, selector))
        return plain

    def sites(self, body: Expr, enclosing: str | None, method_selector: str,
              fields: tuple[str, ...] = ()) -> tuple[SendSite, ...]:
        """The body's send sites in the order its code runs them: a send's
        receiver's sites, then its arguments' from left to right, then its
        own. Checks that every field the body names is one of ``fields``,
        the enclosing class's."""
        self.enclosing = enclosing
        self.method_selector = method_selector
        self.fields = fields
        sites: list[SendSite] = []
        self._walk(body, sites)
        return tuple(sites)

    def _walk(self, e: Expr, sites: list[SendSite]) -> None:
        """Append the sites of ``e``: a recursive descent that builds no
        tree, one frame a level. It recurses into receivers, arguments, let
        bindings and field-write values, and loops down let bodies.

        A send's argument sites are made first, then its receiver's, then
        its own, each numbered and its selector interned as it is made, so
        symbol and site ids follow that order; where both hold sends, the
        receiver's sites then move in front of the arguments'."""
        while e.__class__ is Let:
            self._walk(e.bound, sites)
            e = e.body
        kind = e.__class__
        if kind is Send or kind is SuperSend:
            # Leaves hold no send and no field: not worth a visit.
            start = len(sites)
            for arg in e.args:
                if arg.__class__ not in _LEAVES:
                    self._walk(arg, sites)
            if kind is Send and e.receiver.__class__ not in _LEAVES:
                mid = len(sites)
                self._walk(e.receiver, sites)
                if start < mid < len(sites):
                    sites[start:] = sites[mid:] + sites[start:mid]
            sites.append(SendSite(self.next_site_id, self._tag_selector(e),
                                  e.selector))
            self.next_site_id += 1
        elif kind is FieldGet or kind is FieldSet:
            if e.field not in self.fields:
                raise UnknownFieldError(self.enclosing or ROOT_CLASS, e.field)
            if kind is FieldSet:
                self._walk(e.value, sites)
        elif kind not in _LEAVES:
            raise TypeError(f"not an expression: {e!r}")


_LEAVES = frozenset((NilLit, IntLit, SelfRef, Var, New))


# --- whole-program compilation ---------------------------------------------------


def _compile_class(builder: _SiteBuilder, cdef: ClassDef,
                   class_id: int) -> ImageClass:
    """Build and register every method of a class under the builder's scope:
    inside it, a protected method under its mangled selector only and a
    public one under both, the two entries sharing one compiled method."""
    in_scope = cdef.name in builder.scope
    fields = builder.idx.fields_of(cdef.name)
    symbols = builder.symbols
    dictionary: dict[Symbol, CompiledMethod] = {}
    for mdef in cdef.methods:
        if mdef.selector.startswith(MANGLE_PREFIX):
            raise ReservedSelectorError(
                f"selector {mdef.selector!r} uses the reserved prefix", 0, 0)
        sites = builder.sites(mdef.body, cdef.name, mdef.selector, fields)
        plain = symbols.intern(mdef.selector)
        method = CompiledMethod(cdef.name, plain, mdef.visibility,
                                mdef.params, mdef.body, sites)
        if not (in_scope and mdef.visibility == PROTECTED):
            dictionary[plain] = method
        if in_scope:
            dictionary[symbols.mangle(plain)] = method
    return ImageClass(cdef.name, cdef.superclass, fields, dictionary,
                      class_id)


def compile_program(program: Program,
                    mode: CompileMode = CompileMode.NORMAL) -> RuntimeImage:
    """Register every class of a valid program, with its send sites.

    Validates the program first unless ``validate`` has passed on it
    already. Every symbol and site id is fixed here, whichever methods run
    later; no body is lowered to code until the runtime first activates it.
    """
    if not program.valid:
        violations = validate(program)
        if violations:
            raise ProgramInvalidError(violations)
    idx = index_of(program)
    scope = _scope_for_mode(idx, mode)
    symbols = SymbolTable()
    builder = _SiteBuilder(idx, scope, symbols, 0)

    classes = {ROOT_CLASS: ImageClass(ROOT_CLASS, None, (), {}, 0)}
    for i, cdef in enumerate(program.classes, start=1):
        classes[cdef.name] = _compile_class(builder, cdef, i)

    # Deferral only applies inside the scope; main has no enclosing class.
    main_sites = builder.sites(program.main, None, "")
    return RuntimeImage(
        mode=mode,
        classes=classes,
        main=CompiledMethod(None, None, PUBLIC, (), program.main, main_sites),
        symbols=symbols,
        rewrite_scope=scope,
        deferred_sites=tuple(builder.deferred),
        site_count=builder.next_site_id,
        program=program,
    )


# --- incremental method installation ----------------------------------------------


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

    symbols = image.symbols.copy()
    builder = _SiteBuilder(idx, new_scope, symbols, image.site_count)

    # Classes to rebuild: the target, those that just joined the scope, and
    # the in-scope classes whose self/super sites can change tag -- those
    # sending the new selector and, when classes joined, anything such a class
    # defines, since the resolution class may have flipped into the scope.
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
    rebuilt = {class_name} | expansion | {
        name for name in candidates
        if name in new_scope and any(
            affected_selectors & sent for m in idx.by_name[name].methods
            for sent in self_and_super_selectors(m.body))}

    classes = dict(image.classes)
    for name in sorted(rebuilt):
        classes[name] = _compile_class(builder, idx.by_name[name],
                                       image.classes[name].class_id)
    # A rebuild makes its class's deferred sites again.
    deferred = tuple(d for d in image.deferred_sites
                     if d.class_name not in rebuilt) + tuple(builder.deferred)

    return replace(image, classes=classes, symbols=symbols,
                   rewrite_scope=new_scope, deferred_sites=deferred,
                   site_count=builder.next_site_id, program=new_program)


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
                       f"{render(cm.body, cm.sites)}")
    out.append(f"main: {render(image.main.body, image.main.sites)}")
    scope = ", ".join(sorted(image.rewrite_scope)) or "(none)"
    roots = ", ".join(sorted(protection_roots(index_of(image.program),
                                              image.rewrite_scope)))
    roots = roots or "(none)"
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
