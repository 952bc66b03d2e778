"""Seeded input builders for the four benchmark workloads.

Every builder takes the seed as an argument and returns a list of inputs
("the pool"); the same seed always gives the same pool. Programs are written
as ``.stl`` source text, because parsing is part of every pipeline op. Each
pipeline input carries the integer its program must produce, computed here in
closed form from the builder's own model of the program -- never by running
protolite. ``fuzz_diff`` inputs are generator seeds; their expected value is
the reference evaluator's verdict inside ``differential_run``.

Sizes (chain lengths, class counts) are spread evenly across a pool rather
than drawn independently, so the pool's mix of op costs is nearly the same for
every seed and run-to-run spread measures the machine, not the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from protolite.generator import GeneratorConfig
from protolite.syntax import IntLit, MethodDef


@dataclass(frozen=True)
class PipelineInput:
    """One program for parse -> validate -> compile -> (install) -> run."""

    name: str
    source: str
    expected: int
    classes: int
    installs: tuple[tuple[str, MethodDef], ...] = ()


def _spread(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """``n`` integers evenly spaced over [lo, hi], in shuffled order."""
    values = [lo + round(i * (hi - lo) / (n - 1)) for i in range(n)]
    rng.shuffle(values)
    return values


# --- dispatch_mono ---------------------------------------------------------------

MONO_POOL = 28
MONO_TREE_DEPTH = 10


def dispatch_mono(seed: int) -> list[PipelineInput]:
    """Chains of 4-10 classes whose leaf runs a binary self-send call tree.

    Every class defines a protected helper, so the whole chain is in the
    rewrite scope and every self-send site is mangled. Tree methods ``t<d>``
    live on random levels of the chain; each calls ``t<d-1>`` twice, so one
    op makes ~2^11 sends through ~25 sites, each seeing only the leaf class.
    """
    rng = random.Random(seed)
    return [_mono_program(rng, i, n)
            for i, n in enumerate(_spread(rng, 4, 10, MONO_POOL))]


def _mono_program(rng: random.Random, index: int, n: int) -> PipelineInput:
    names = [f"K{i}" for i in range(n)]
    leaf = n - 1
    base = rng.randint(1, 9)
    helper = [rng.randint(0, 9) for _ in range(n)]
    # methods[level] -> list of source lines
    methods: list[list[str]] = [[] for _ in range(n)]
    methods[0].append(f"protected method base() {{ {base} }}")
    for level in range(1, n):
        methods[level].append(
            f"protected method h{level}() {{ self.base() + {helper[level]} }}")
    methods[0].append(f"protected method h0() {{ {helper[0]} }}")
    value_h = [helper[0]] + [base + helper[i] for i in range(1, n)]

    # t0 writes a field, then reads a helper somewhere up the chain.
    h0 = rng.randrange(n)
    k0 = rng.randint(0, 9)
    level0 = rng.randrange(n)
    methods[level0].append(
        f"method t0() {{ let z = (hits := {k0}) in self.h{h0}() + hits }}")
    values = [value_h[h0] + k0]
    for d in range(1, MONO_TREE_DEPTH + 1):
        # The top of the tree and a random half of the rest sit on the
        # leaf; the others on ancestors, resolved through the chain.
        level = leaf if d == MONO_TREE_DEPTH or rng.random() < 0.5 \
            else rng.randrange(n)
        k = rng.randint(0, 3)
        methods[level].append(
            f"method t{d}() {{ self.t{d - 1}() + self.t{d - 1}() + {k} }}")
        values.append(2 * values[-1] + k)

    lines = []
    for i, name in enumerate(names):
        parent = "Object" if i == 0 else names[i - 1]
        lines.append(f"class {name} extends {parent} {{")
        if i == 0:
            lines.append("  fields: hits;")
        lines.extend(f"  {m}" for m in methods[i])
        lines.append("}")
    extra = rng.randint(0, 9)
    lines.append(f"main {{ let o = new {names[leaf]} in "
                 f"o.t{MONO_TREE_DEPTH}() + {extra} }}")
    return PipelineInput(f"mono{index}", "\n".join(lines) + "\n",
                         values[-1] + extra, n)


# --- dispatch_mega ---------------------------------------------------------------

MEGA_POOL = 16
MEGA_CHAINS = 20
MEGA_CHAIN_LENGTH = 8
MEGA_SELECTORS = 6
MEGA_PASSES = 4


def dispatch_mega(seed: int) -> list[PipelineInput]:
    """160 classes in chains of 8, all answering six selectors.

    ``Driver.visit(o)`` sends all six selectors to every class, so its six
    sites go megamorphic and every lookup there consults the global cache.
    Together with the helper self-sends and super-sends, the distinct
    (class, selector) keys outnumber the cache's 1024 slots; main visits every
    class ``MEGA_PASSES`` times, so evicted keys miss again.
    """
    rng = random.Random(seed)
    return [_mega_program(rng, i) for i in range(MEGA_POOL)]


def _mega_program(rng: random.Random, index: int) -> PipelineInput:
    lines = []
    total_per_pass = 0
    for c in range(MEGA_CHAINS):
        helper = rng.randint(1, 9)
        resolved: list[list[int]] = []  # value of s<j> answered at each level
        for level in range(MEGA_CHAIN_LENGTH):
            name = f"M{c}k{level}"
            parent = "Object" if level == 0 else f"M{c}k{level - 1}"
            lines.append(f"class {name} extends {parent} {{")
            if level == 0:
                lines.append(f"  protected method h() {{ {helper} }}")
            row = []
            for j in range(MEGA_SELECTORS):
                if level > 0 and rng.random() < 0.5:
                    row.append(resolved[-1][j])  # inherited
                    continue
                k = rng.randint(0, 9)
                kind = rng.random()
                if level > 0 and kind < 0.25:
                    lines.append(f"  method s{j}() {{ super.s{j}() + {k} }}")
                    row.append(resolved[-1][j] + k)
                elif kind < 0.6:
                    lines.append(f"  method s{j}() {{ self.h() + {k} }}")
                    row.append(helper + k)
                else:
                    lines.append(f"  method s{j}() {{ {k} }}")
                    row.append(k)
            resolved.append(row)
            total_per_pass += sum(row)
            lines.append("}")
    sends = " + ".join(f"o.s{j}()" for j in range(MEGA_SELECTORS))
    lines.append("class Driver extends Object {")
    lines.append(f"  method visit(o) {{ {sends} }}")
    for c in range(MEGA_CHAINS):
        order = list(range(MEGA_CHAIN_LENGTH))
        rng.shuffle(order)
        visits = " + ".join(f"self.visit(new M{c}k{level})" for level in order)
        lines.append(f"  method g{c}() {{ {visits} }}")
    chains = list(range(MEGA_CHAINS))
    rng.shuffle(chains)
    lines.append(f"  method all() {{ {' + '.join(f'self.g{c}()' for c in chains)} }}")
    lines.append("}")
    passes = " + ".join("d.all()" for _ in range(MEGA_PASSES))
    lines.append(f"main {{ let d = new Driver in {passes} }}")
    return PipelineInput(f"mega{index}", "\n".join(lines) + "\n",
                         MEGA_PASSES * total_per_pass,
                         MEGA_CHAINS * MEGA_CHAIN_LENGTH + 1)


# --- compile_large ---------------------------------------------------------------

LARGE_POOL = 24
LARGE_MIN_CLASSES = 300
LARGE_MAX_CLASSES = 600
LARGE_SELECTORS = tuple("abcdefghijkl")
LARGE_SCOPE_SHARE = 0.15


def compile_large(seed: int) -> list[PipelineInput]:
    """Random class trees of 300-600 classes; each op also installs methods.

    Every class defines a method from a shared selector set (a quarter define
    two), each body a self-send that is often unresolved on the class's own
    chain, which sends the compiler looking at descendants. Random classes
    define a protected method, each pulling its subtree into the rewrite
    scope, until the scope holds about 15% of the classes. The two installs per
    op: a first protected method ``pq`` on an interior class outside the
    scope, which pulls its subtree (3-15 classes) in and so retags a child's
    ``self.pq()``; and a protected ``zz`` on an in-scope class whose ``w``
    holds a deferred ``self.zz()`` site. Main calls both
    paths, so a wrong scope expansion or a missed retag turns the expected
    sum into DoesNotUnderstand.
    """
    rng = random.Random(seed)
    return [_large_program(rng, i, n) for i, n in enumerate(
        _spread(rng, LARGE_MIN_CLASSES, LARGE_MAX_CLASSES, LARGE_POOL))]


def _large_program(rng: random.Random, index: int, n: int) -> PipelineInput:
    # A forest: about one class in fifty starts a new tree under Object.
    parents = [-1] + [-1 if rng.random() < 0.02 else rng.randrange(i)
                      for i in range(1, n)]
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        if parents[i] >= 0:
            children[parents[i]].append(i)
    size = [1] * n  # subtree sizes; parents come before their children
    for i in range(n - 1, 0, -1):
        if parents[i] >= 0:
            size[parents[i]] += size[i]
    target = rng.choice([i for i in range(n) if 3 <= size[i] <= 15])
    child = rng.choice(children[target])
    # The install target and its ancestors stay outside the scope.
    outside = {target}
    cursor = parents[target]
    while cursor >= 0:
        outside.add(cursor)
        cursor = parents[cursor]
    # Protected definers are added at random while the scope stays within
    # LARGE_SCOPE_SHARE of the classes, so scope size is nearly the same for
    # every program of a given class count.
    candidates = [i for i in range(n) if i not in outside]
    rng.shuffle(candidates)
    definers: set[int] = set()
    in_scope = [False] * n
    budget = int(LARGE_SCOPE_SHARE * n)
    for d in candidates:
        room = budget - sum(in_scope)
        if in_scope[d] or size[d] > room:
            continue
        definers.add(d)
        in_scope[d] = True
        for i in range(d + 1, n):  # the scope is closed under descendants
            if parents[i] >= 0 and in_scope[parents[i]]:
                in_scope[i] = True
    # The deferred site lives in an in-scope class: a protected definer.
    deferred_home = rng.choice(sorted(definers))

    k_pq, k_use, k_zz, k_w = (rng.randint(1, 9) for _ in range(4))
    lines = []
    for i in range(n):
        parent = "Object" if parents[i] < 0 else f"T{parents[i]}"
        lines.append(f"class T{i} extends {parent} {{")
        for sel in rng.sample(LARGE_SELECTORS, 1 if rng.random() < 0.75 else 2):
            callee = rng.choice(LARGE_SELECTORS)
            lines.append(f"  method {sel}() {{ self.{callee}() + {rng.randint(0, 9)} }}")
        if i in definers:
            lines.append(f"  protected method q{i}() {{ {rng.randint(0, 9)} }}")
        if i == deferred_home:
            lines.append(f"  method w() {{ self.zz() + {k_w} }}")
        if i == child:
            lines.append(f"  method usepq() {{ self.pq() + {k_use} }}")
        lines.append("}")
    lines.append(f"main {{ (new T{deferred_home}).w() + (new T{child}).usepq() }}")
    installs = (
        (f"T{target}", MethodDef("pq", (), IntLit(k_pq), "protected")),
        (f"T{deferred_home}", MethodDef("zz", (), IntLit(k_zz), "protected")),
    )
    return PipelineInput(f"large{index}", "\n".join(lines) + "\n",
                         (k_zz + k_w) + (k_pq + k_use), n, installs)


# --- fuzz_diff -------------------------------------------------------------------

FUZZ_POOL = 6000
FUZZ_SEED_STRIDE = 1_000_003
# Generated programs have no protected methods. With the default config a few
# programs in tens of thousands reach the structural limit (a plain self-send
# site in an ancestor outside the rewrite scope, answered by a descendant's
# protected method): the reference evaluator runs the method, the runtime
# answers DoesNotUnderstand, and the op fails. The self-test pins two such seeds as
# expected failures; once the limit is closed they pass and this config goes
# back to the default. Protected dispatch is measured by the other workloads.
FUZZ_CONFIG = GeneratorConfig(allow_protected=False)


def fuzz_diff(seed: int) -> list[int]:
    """Consecutive generator seeds starting at a base derived from ``seed``;
    each is generated with ``FUZZ_CONFIG``."""
    base = seed * FUZZ_SEED_STRIDE
    return list(range(base, base + FUZZ_POOL))


BUILDERS = {
    "dispatch_mono": dispatch_mono,
    "dispatch_mega": dispatch_mega,
    "compile_large": compile_large,
    "fuzz_diff": fuzz_diff,
}
