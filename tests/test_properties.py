"""Property-based checks over generated programs."""

import random
import re

from hypothesis import HealthCheck, example, given, settings
import hypothesis.strategies as st

from protolite.compiler import CompileMode, compile_program, rewrite_scope
from protolite.generator import GeneratorConfig, generate_program
from protolite.metrics import differential_run, measure_image
from protolite.parser import parse
from protolite.reference import eval_program
from protolite.syntax import (
    MANGLE_PREFIX,
    PROTECTED,
    PUBLIC,
    FieldSet,
    Let,
    Send,
    SuperSend,
    pretty_program,
    self_and_super_selectors,
)
from protolite.validate import HierarchyIndex, index_of, validate

from tests.conftest import methods_with, visibility
from tests.oracles import (
    image_fingerprint,
    protected_free_three_way,
    run_all_configs,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

relaxed = settings(max_examples=40, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])

PROTECTED_FREE = GeneratorConfig(allow_protected=False)


@given(seeds)
@relaxed
def test_generated_programs_always_validate(seed):
    assert validate(generate_program(seed)) == []


@given(seeds)
@relaxed
def test_parse_pretty_round_trip(seed):
    program = generate_program(seed)
    assert parse(pretty_program(program)) == program


# Token separators for re-laying out printed source: whitespace runs, CRLF and
# line comments, which may hold characters the language does not have.
_SEPARATORS = (" ", "  ", "\t", "\n", "\r\n", " \t\r\n ", "// note\n",
               "\t// é @ ² ٣ /\r\n", "//\n")
_WORD = re.compile(r"[A-Za-z0-9_]")


@given(seeds, seeds)
@relaxed
def test_layout_does_not_change_the_parse(seed, layout_seed):
    program = generate_program(seed)
    tokens = re.findall(r":=|[A-Za-z0-9_]+|\S", pretty_program(program))
    rng = random.Random(layout_seed)
    out = [rng.choice(_SEPARATORS)]
    for left, right in zip(tokens, tokens[1:] + [""]):
        out.append(left)
        may_glue = not (_WORD.match(left[-1]) and right and _WORD.match(right[0]))
        out.append("" if may_glue and rng.random() < 0.3
                   else rng.choice(_SEPARATORS))
    assert parse("".join(out)) == program


@given(seeds)
@relaxed
def test_reference_and_runtime_agree(seed):
    result = differential_run(generate_program(seed), program_id=str(seed))
    assert result.agree, result.detail
    assert result.reference_steps == result.runtime_steps


@given(seeds)
@relaxed
def test_cache_configs_cannot_change_outcomes(seed):
    program = generate_program(seed)
    image = compile_program(program)
    outcomes = {repr(r.outcome) for r in run_all_configs(image)}
    assert len(outcomes) == 1


@given(seeds)
@relaxed
def test_protected_free_three_way_agreement(seed):
    program = generate_program(seed, PROTECTED_FREE)
    result = protected_free_three_way(program, program_id=str(seed))
    assert result.diff.agree, result.diff.detail
    assert result.baseline_agrees
    assert result.dictionaries_equal


@given(seeds)
@relaxed
def test_object_send_equals_visibility_checked_walk(seed):
    # Public-only resolution must agree with "walk to the closest definition
    # of any visibility, then fail unless it is public" on every (class,
    # selector) pair of a narrowing-free program.
    program = generate_program(seed)
    idx = HierarchyIndex(program)
    selectors = {m.selector for c in program.classes for m in c.methods}
    for c in program.classes:
        for selector in selectors:
            public = idx.public_lookup(c.name, selector)
            closest = idx.closest_def(c.name, selector)
            if closest is None:
                assert public is None
            elif closest[1].visibility == PUBLIC:
                assert public == closest
            else:
                assert public is None


@given(seeds)
@relaxed
def test_self_send_subsumes_object_send_visibility(seed):
    # Anything an object-send can activate, a self-send on the same receiver
    # can activate too.
    program = generate_program(seed)
    idx = HierarchyIndex(program)
    selectors = {m.selector for c in program.classes for m in c.methods}
    for c in program.classes:
        for selector in selectors:
            public = idx.public_lookup(c.name, selector)
            if public is not None:
                assert idx.closest_def(c.name, selector) is not None


@given(seeds)
@relaxed
def test_scope_minimality_no_stray_mangling(seed):
    program = generate_program(seed)
    image = compile_program(program)
    scope = rewrite_scope(HierarchyIndex(program))
    for name, icls in image.classes.items():
        if name in scope:
            continue
        assert not any(sym.mangled for sym in icls.dictionary)


@given(seeds)
@relaxed
def test_entry_count_law_on_generated_programs(seed):
    program = generate_program(seed)
    image = compile_program(program)
    report = measure_image(image)
    scope = image.rewrite_scope
    for cdef in program.classes:
        pub = len(methods_with(cdef, PUBLIC))
        prot = len(methods_with(cdef, PROTECTED))
        expected = 2 * pub + prot if cdef.name in scope else pub + prot
        assert report.per_class_entries[cdef.name] == expected, cdef.name


@given(seeds)
@relaxed
def test_mangled_symbol_count_identity(seed):
    program = generate_program(seed)
    image = compile_program(program)
    installed_in_scope = {
        m.selector for c in program.classes if c.name in image.rewrite_scope
        for m in c.methods
    }
    report = measure_image(image)
    assert report.mangled_symbols == len(installed_in_scope)


@given(seeds)
@relaxed
def test_compiled_method_conservation(seed):
    program = generate_program(seed)
    normal = measure_image(compile_program(program))
    baseline = measure_image(compile_program(program, CompileMode.BASELINE))
    assert normal.compiled_methods == baseline.compiled_methods


@given(seeds)
@relaxed
def test_double_registration_shares_instances(seed):
    program = generate_program(seed)
    image = compile_program(program)
    for name in image.rewrite_scope:
        icls = image.classes[name]
        for sym, method in icls.dictionary.items():
            if not sym.mangled:
                twin = image.symbols.intern("__" + sym.text)
                assert icls.dictionary[twin] is method


@given(seeds)
@relaxed
def test_evaluation_is_deterministic(seed):
    program = generate_program(seed)
    a = eval_program(program, fuel=400)
    b = eval_program(program, fuel=400)
    assert a == b


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_incremental_install_converges(seed):
    # Install one randomly chosen class's methods one by one on top of the
    # same program with that class stripped of them; the result must equal
    # the batch compile.
    import random as random_mod

    from dataclasses import replace

    from protolite.compiler import install_method

    program = generate_program(seed)
    if not program.classes:
        return
    rng = random_mod.Random(seed ^ 0x5EED)
    target = rng.choice(program.classes)
    if not target.methods:
        return
    stripped = replace(
        program,
        classes=tuple(
            replace(c, methods=()) if c.name == target.name else c
            for c in program.classes
        ),
    )
    if validate(stripped):
        return  # stripping can orphan nothing here, but stay safe
    image = compile_program(stripped)
    order = list(target.methods)
    rng.shuffle(order)
    for mdef in order:
        image = install_method(image, target.name, mdef)
    assert image_fingerprint(image) == \
        image_fingerprint(compile_program(program))


_INSTALL_KINDS = ("fresh", "override", "duplicate-selector", "duplicate-params",
                  "ancestor-arity", "descendant-arity", "narrow-inherited",
                  "narrow-below", "template-hook", "sibling-retag")


def _free_hooks(idx, scope, cdef):
    """Selectors that a strict ancestor of ``cdef`` outside ``scope``
    self-sends and that neither ``cdef`` nor an ancestor defines."""
    above = [idx.by_name[a] for a in idx.chain(cdef.name)[1:]
             if a in idx.by_name]
    defined = {m.selector for c in above + [cdef] for m in c.methods}
    return sorted({s for c in above if c.name not in scope for m in c.methods
                   for s in self_and_super_selectors(m.body)[0]} - defined)


def _sibling_branches(idx, scope, program):
    """(T, S, X): T outside ``scope``, S and X strict descendants of T on
    different branches, neither an ancestor of the other."""
    out = []
    for t in program.classes:
        if t.name in scope:
            continue
        below = [c for c in idx.subtree(t.name) if c != t.name]
        out += [(t.name, s, x) for s in below for x in below
                if s not in idx.chain(x) and x not in idx.chain(s)]
    return out


def _random_install(rng, program, image):
    """Random (class, method) installs, valid or aimed at one rule: one
    install, or for ``sibling-retag`` the three that set up its case."""
    from protolite.syntax import IntLit, MethodDef, SelfRef

    idx = index_of(image.program)
    target = rng.choice(program.classes)
    kind = rng.choice(_INSTALL_KINDS)
    above = [idx.by_name[a] for a in idx.chain(target.name)[1:]
             if a in idx.by_name]
    below = [c for c in program.classes
             if c is not target and target.name in idx.chain(c.name)]
    own = {m.selector for m in target.methods}
    inherited = [m for c in above for m in c.methods if m.selector not in own]
    overriding = [m for c in below for m in c.methods if m.selector not in own]
    selector = rng.choice(("alpha", "delta", "eta", "iota", "kappa", "lam"))
    params = tuple(f"p{i}" for i in range(rng.randrange(3)))
    visibility = rng.choice((PUBLIC, PROTECTED))
    if kind == "override" and inherited + overriding:
        m = rng.choice(inherited + overriding)
        selector, params = m.selector, m.params
    elif kind == "duplicate-selector" and target.methods:
        selector = rng.choice(target.methods).selector
    elif kind == "duplicate-params":
        params = ("x", "y", "x")
    elif kind in ("ancestor-arity", "descendant-arity"):
        pool = inherited if kind == "ancestor-arity" else overriding
        if pool:
            m = rng.choice(pool)
            selector = m.selector
            params = tuple(f"p{i}" for i in range(len(m.params) + 1))
    elif kind in ("narrow-inherited", "narrow-below"):
        # Protected below an inherited public method, or public above a
        # protected override.
        wanted = PUBLIC if kind == "narrow-inherited" else PROTECTED
        pool = [m for m in (inherited if wanted == PUBLIC else overriding)
                if m.visibility == wanted]
        if pool:
            m = rng.choice(pool)
            selector, params = m.selector, m.params
            visibility = PROTECTED if wanted == PUBLIC else PUBLIC
    elif kind == "template-hook":
        # A protected hook for a template method: the only install that
        # moves the scope upward. Without a template to hook, install one.
        hooks = [(c, s) for c in program.classes
                 for s in _free_hooks(idx, image.rewrite_scope, c)]
        templates = [c for c in program.classes
                     if c.name not in image.rewrite_scope
                     and len(idx.subtree(c.name)) > 1]
        if hooks:
            target, selector = rng.choice(hooks)
            return [(target.name, MethodDef(selector, params, IntLit(7),
                                            PROTECTED))]
        if templates:
            return [(rng.choice(templates).name, MethodDef(
                "template", (), Send(SelfRef(), "hook", ()), PUBLIC))]
    elif kind == "sibling-retag":
        # A template method on T outside the scope, a protected caller of it
        # on S, then a hook on X that pulls T's subtree into the scope. S
        # was in scope already and lies outside X's subtree and chain, yet
        # its send to the template must be retagged.
        branches = _sibling_branches(idx, image.rewrite_scope, program)
        if branches:
            t, s, x = rng.choice(branches)
            tag = rng.randrange(10**6)
            template, hook = f"template{tag}", f"hook{tag}"
            return [
                (t, MethodDef(template, (), Send(SelfRef(), hook, ()))),
                (s, MethodDef(f"caller{tag}", (),
                              Send(SelfRef(), template, ()), PROTECTED)),
                (x, MethodDef(hook, (), IntLit(7), PROTECTED)),
            ]
    body_selector = rng.choice(("alpha", "beta", "delta", "iota", "kappa",
                                selector))
    body_args = tuple(IntLit(i) for i in range(rng.randrange(3)))
    body = rng.choice((IntLit(7), Send(SelfRef(), body_selector, body_args),
                       SuperSend(body_selector, body_args)))
    return [(target.name, MethodDef(selector, params, body, visibility))]


# Few generated programs have a class outside the scope with two branches
# below it, so the property pins one whose first install is sibling-retag.
SIBLING_RETAG_EXAMPLE = dict(seed=26, install_seed=1, mode=CompileMode.NORMAL)


def test_pinned_install_example_reaches_sibling_retag():
    program = generate_program(SIBLING_RETAG_EXAMPLE["seed"])
    rng = random.Random(SIBLING_RETAG_EXAMPLE["install_seed"])
    assert len(_random_install(rng, program, compile_program(program))) == 3


@given(seeds, seeds, st.sampled_from(list(CompileMode)))
@example(**SIBLING_RETAG_EXAMPLE)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_install_equals_validate_and_compile_from_scratch(seed, install_seed,
                                                          mode):
    # Chained random installs, valid and invalid: each one either raises
    # exactly the violations a full validate of the grown program reports,
    # or yields the image a from-scratch compile of it gives, with an index
    # that answers like one built over it. Each image runs before it grows,
    # so the grown one reuses code its parent lowered; it must still run
    # as the from-scratch image does.
    from dataclasses import replace

    from protolite.compiler import desugar_dump, install_method
    from protolite.errors import ProgramInvalidError
    from protolite.runtime import run_image

    def run(image):
        result = run_image(image, fuel=500)
        return result.outcome, result.steps

    program = generate_program(seed)
    if not program.classes:
        return
    image = compile_program(program, mode)
    run(image)
    rng = random.Random(install_seed)
    for _ in range(8):
        for class_name, mdef in _random_install(rng, program, image):
            grown = replace(program, classes=tuple(
                replace(c, methods=c.methods + (mdef,)) if c.name == class_name
                else c for c in program.classes))
            expected = validate(grown)
            try:
                installed = install_method(image, class_name, mdef)
            except ProgramInvalidError as err:
                assert err.violations == expected
                continue
            assert expected == []
            scratch = compile_program(grown, mode)
            assert desugar_dump(installed) == desugar_dump(scratch)
            assert image_fingerprint(installed) == image_fingerprint(scratch)
            assert run(installed) == run(scratch)
            # Each site belongs to the source send in its place: it keeps
            # that send's selector as its plain text and dispatches through
            # it or its mangled form. Its Symbol must be the image's own,
            # since dictionaries hash symbols by identity.
            sends = list(_image_sends(installed))
            own = set(installed.symbols.symbols())
            for node, site in sends:
                assert site.plain_text == node.selector
                assert site.selector.text in (node.selector,
                                              MANGLE_PREFIX + node.selector)
                assert site.selector in own
            assert installed.program == grown
            idx, fresh = installed.program.index, scratch.program.index
            assert idx.by_name == fresh.by_name
            selectors = {m.selector for c in grown.classes for m in c.methods}
            for name in fresh.by_name:
                assert idx.chain(name) == fresh.chain(name)
                assert idx.fields_of(name) == fresh.fields_of(name)
                for selector in selectors:
                    assert idx.closest_def(name, selector) == \
                        fresh.closest_def(name, selector)
            for selector in selectors:
                assert idx.definers(selector) == fresh.definers(selector)
            image, program = installed, grown


def _sends_in_site_order(node):
    """Send nodes of a source body in the order of its compiled sites, the
    order its code runs them: receiver, arguments, then the send."""
    if isinstance(node, Send):
        yield from _sends_in_site_order(node.receiver)
        for a in node.args:
            yield from _sends_in_site_order(a)
        yield node
    elif isinstance(node, SuperSend):
        for a in node.args:
            yield from _sends_in_site_order(a)
        yield node
    elif isinstance(node, FieldSet):
        yield from _sends_in_site_order(node.value)
    elif isinstance(node, Let):
        yield from _sends_in_site_order(node.bound)
        yield from _sends_in_site_order(node.body)


def _sends_with_sites(cm):
    """A compiled method's source sends with the sites of its code,
    lowering it if no run has."""
    from protolite.runtime import ADD, SUPER_SEND, _code_of

    sites = [a for op, a, _ in _code_of(cm)[0] if ADD <= op <= SUPER_SEND]
    sends = list(_sends_in_site_order(cm.body))
    assert len(sends) == len(sites)
    return zip(sends, sites)


def _image_sends(image):
    """Every send of an image with its site: its methods' bodies, then
    main."""
    for icls in image.classes.values():
        for cm in {id(cm): cm for cm in icls.dictionary.values()}.values():
            yield from _sends_with_sites(cm)
    yield from _sends_with_sites(image.main)


@given(seeds)
@relaxed
def test_no_mangled_sites_outside_scope(seed):
    program = generate_program(seed)
    image = compile_program(program)
    for name, icls in image.classes.items():
        if name in image.rewrite_scope:
            continue
        seen = set()
        for cm in icls.dictionary.values():
            if id(cm) in seen:
                continue
            seen.add(id(cm))
            assert not any(site.selector.mangled
                           for _, site in _sends_with_sites(cm))
    assert not any(site.selector.mangled
                   for _, site in _sends_with_sites(image.main))


@given(seeds)
@relaxed
def test_worst_case_key_population_bounded(seed):
    from protolite.runtime import run_image

    program = generate_program(seed, PROTECTED_FREE)
    base = run_image(compile_program(program, CompileMode.BASELINE), fuel=800)
    worst = run_image(compile_program(program, CompileMode.WORST_CASE), fuel=800)
    assert base.outcome == worst.outcome
    assert worst.stats.distinct_keys <= 2 * max(base.stats.distinct_keys, 1)


@given(seeds)
@relaxed
def test_protected_never_sits_below_public(seed):
    # Narrowing-freedom, restated as a chain walk: wherever a selector is
    # protected, no class above it on the same chain defines it public.
    program = generate_program(seed)
    idx = HierarchyIndex(program)
    for c in program.classes:
        chain = idx.chain(c.name)
        for m in c.methods:
            for i, lower in enumerate(chain):
                if visibility(idx, lower, m.selector) == PROTECTED:
                    for upper in chain[i + 1:]:
                        assert visibility(idx, upper, m.selector) != PUBLIC
