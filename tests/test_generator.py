"""The generated corpus is pinned, and each class plan's view of its chain
agrees with the hierarchy index of the program it produced."""

import hashlib
import random

import pytest

from protolite.generator import (
    SELECTORS,
    GeneratorConfig,
    _Generator,
    generate_program,
)
from protolite.syntax import pretty_program
from protolite.validate import index_of

CONFIGS = {
    "default": GeneratorConfig(),
    "protected-free": GeneratorConfig(allow_protected=False),
}

# SHA-256 of the printed programs of seeds 0..999. These guard the
# differential-fuzz corpus, the benchmark's fuzz_diff pool and every pinned
# seed in the suite: a change to generation must update them on purpose.
CORPUS_DIGESTS = {
    "default":
        "716c3d3f422d627b2ec8349d7f6256fd147f44f05e11ffbd9abdb510f9a130fc",
    "protected-free":
        "f9a66198d113c47e1ee6c1f4413416b2bdfc18d3b2848a99ea5b58e4a7016947",
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_corpus_is_pinned(name):
    text = "".join(pretty_program(generate_program(s, CONFIGS[name]))
                   for s in range(1000))
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_plans_agree_with_the_index(name):
    for seed in range(500):
        gen = _Generator(random.Random(seed), CONFIGS[name])
        idx = index_of(gen.build())
        for plan in gen.plans:
            fields = idx.fields_of(plan.name)
            assert len(plan.fields) == len(fields), (seed, plan.name)
            assert set(plan.fields) == set(fields), (seed, plan.name)
            for view, lookup in ((plan.answers, idx.closest_def),
                                 (plan.public, idx.public_lookup)):
                found = {sel: lookup(plan.name, sel) for sel, _ in SELECTORS}
                assert sorted(sel for sel, _ in view) == sorted(
                    sel for sel, hit in found.items() if hit is not None), \
                    (seed, plan.name)
                for sel, arity in view:
                    assert arity == len(found[sel][1].params), \
                        (seed, plan.name, sel)
