"""Acceptance suite: one test per shipping criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion on stdout. Tolerances and time budgets live in the constants below
and are not tuned anywhere else.
"""

import time

import pytest

from protolite.bench import BenchConfig, bench_pair, deep_send_workload
from protolite.cli import main as cli_main
from protolite.compiler import (
    CompileMode,
    compile_program,
    desugar_dump,
    install_method,
    render,
)
from protolite.errors import ProgramInvalidError
from protolite.generator import GeneratorConfig, generate_program
from protolite.metrics import differential_run, measure_image
from protolite.outcomes import Completed, DoesNotUnderstand, Errored
from protolite.parser import parse
from protolite.runtime import run_image
from protolite.syntax import (
    PROTECTED,
    PUBLIC,
    MethodDef,
    Send,
    SelfRef,
)
from protolite.validate import validate
from protolite.values import IntVal

from tests.conftest import methods_with, program_path
from tests.oracles import (
    probe_index,
    protected_free_three_way,
    run_all_configs,
)
from tests.workloads import dual_route_workload, polymorphic_workload

GOLDEN_TIME_BUDGET_S = 1.0
FUZZ_PROGRAMS_MIXED = 700
FUZZ_PROGRAMS_PROTECTED_FREE = 300
FUZZ_TIME_BUDGET_S = 60.0
STEADY_STATE_KEY_LIMIT = 200
WORST_CASE_KEY_FACTOR = 2.0
OVERHEAD_BOUND = 0.15
OVERHEAD_TIME_BUDGET_S = 120.0

GOLDEN_EXPECTATIONS = {
    "golden_call_on_a.stl": Completed(IntVal(11)),
    "golden_call_on_b.stl": Completed(IntVal(42)),
    "golden_protected_object_send.stl":
        Errored(DoesNotUnderstand("A", "protectedMethod")),
    "golden_raise_error.stl":
        Errored(DoesNotUnderstand("A", "protectedMethod")),
    "golden_sum.stl": Completed(IntVal(84)),
    "golden_public_in_subclass.stl": Completed(IntVal(36)),
    "golden_template_method.stl": Completed(IntVal(7)),
}


@pytest.fixture(scope="module")
def mixed_corpus():
    return [generate_program(seed) for seed in range(FUZZ_PROGRAMS_MIXED)]


@pytest.fixture(scope="module")
def protected_free_corpus():
    config = GeneratorConfig(allow_protected=False)
    return [generate_program(seed, config)
            for seed in range(FUZZ_PROGRAMS_PROTECTED_FREE)]


def report(criterion: int, summary: str) -> None:
    print(f"ACCEPTANCE CRITERION {criterion}: PASS -- {summary}")


def test_criterion_1_golden_suite(programs_dir):
    started = time.monotonic()
    for name, expected in GOLDEN_EXPECTATIONS.items():
        program = parse((programs_dir / name).read_text())
        diff = differential_run(program, fuel=100_000, program_id=name)
        assert diff.reference_outcome == expected, name
        assert diff.agree, diff.detail
        image = compile_program(program)
        for result in run_all_configs(image, fuel=100_000):
            assert result.outcome == expected, name
    elapsed = time.monotonic() - started
    assert elapsed < GOLDEN_TIME_BUDGET_S, f"golden suite took {elapsed:.2f}s"
    report(1, f"{len(GOLDEN_EXPECTATIONS)} golden programs exact under reference + 4 cache configs "
              f"in {elapsed * 1e3:.0f} ms")


def test_criterion_2_narrowing_rejected(programs_dir):
    program = parse((programs_dir / "narrowing_rejected.stl").read_text())
    violations = validate(program)
    assert any(v.rule == "OVERRIDINGPUBLICMETHOD" for v in violations)
    with pytest.raises(ProgramInvalidError):
        compile_program(program)

    # The same narrowing attempt arriving through incremental installation.
    base = parse("""
        class A extends Object { method size() { 100 } }
        class B extends A { }
        main { nil }
    """)
    image = compile_program(base)
    with pytest.raises(ProgramInvalidError) as err:
        install_method(image, "B",
                       MethodDef("size", (), SelfRef(), visibility="protected"))
    assert any(v.rule == "OVERRIDINGPUBLICMETHOD"
               for v in err.value.violations)
    report(2, "narrowing rejected at whole-program compile and at install")


def test_criterion_3_differential_fuzz(mixed_corpus, protected_free_corpus):
    started = time.monotonic()
    disagreements = []
    for seed, program in enumerate(mixed_corpus):
        result = differential_run(program, program_id=f"mixed-{seed}")
        if not result.agree:
            disagreements.append(result)
    for seed, program in enumerate(protected_free_corpus):
        result = protected_free_three_way(program, program_id=f"free-{seed}")
        if not (result.diff.agree and result.baseline_agrees
                and result.dictionaries_equal):
            disagreements.append(result)
    elapsed = time.monotonic() - started
    total = len(mixed_corpus) + len(protected_free_corpus)
    assert total >= 1000
    assert not disagreements, disagreements[:3]
    assert elapsed < FUZZ_TIME_BUDGET_S, f"fuzz took {elapsed:.1f}s"
    report(3, f"{total}/{total} programs agree (three-way on "
              f"{len(protected_free_corpus)} protected-free) in {elapsed:.1f}s")


def test_criterion_4_accounting_oracle(mixed_corpus, two_level_program):
    """Per class, dictionary entries are ``2*|public| + |protected|`` inside
    the rewrite scope and ``|methods|`` outside it. The law holds over the
    closed scope: definers of protected methods, classes that self-send a
    selector a strict descendant defines protected, and their descendants."""
    checked = 0
    for program in list(mixed_corpus) + [two_level_program]:
        image = compile_program(program)
        report_ = measure_image(image)
        scope = image.rewrite_scope
        for cdef in program.classes:
            pub = len(methods_with(cdef, PUBLIC))
            prot = len(methods_with(cdef, PROTECTED))
            expected = 2 * pub + prot if cdef.name in scope else pub + prot
            assert report_.per_class_entries[cdef.name] == expected
        installed_in_scope = {m.selector for c in program.classes
                              if c.name in scope for m in c.methods}
        assert report_.mangled_symbols == len(installed_in_scope)
        baseline = measure_image(compile_program(program, CompileMode.BASELINE))
        assert report_.compiled_methods == baseline.compiled_methods
        checked += 1
    report(4, f"entry/symbol/method counts exact on {checked} programs")


def test_criterion_4_stats_prints_count_ratios(capsys):
    code = cli_main(["stats", program_path("golden_sum.stl")])
    out = capsys.readouterr().out
    assert code == 0
    assert "worst-case ratios vs mangling-free:" in out
    assert "entries" in out and "symbols" in out
    report(4, "stats report prints worst-case count ratios")


def test_criterion_5a_cache_transparency(mixed_corpus):
    for seed, program in enumerate(mixed_corpus):
        image = compile_program(program)
        outcomes = {repr(r.outcome) for r in run_all_configs(image)}
        assert len(outcomes) == 1, f"seed {seed}: {outcomes}"
    report(5, f"(a) outcomes identical across 4 cache configs on "
              f"{len(mixed_corpus)} programs")


def test_criterion_5b_steady_state_misses():
    deep_short = run_image(compile_program(
        deep_send_workload(depth=8, repeats=40, protected_levels=True)))
    deep_long = run_image(compile_program(
        deep_send_workload(depth=8, repeats=80, protected_levels=True)))
    poly_short = run_image(compile_program(
        polymorphic_workload(n_classes=40, repeats=10)))
    poly_long = run_image(compile_program(
        polymorphic_workload(n_classes=40, repeats=25)))
    for result in (deep_long, poly_long):
        assert result.stats.distinct_keys <= STEADY_STATE_KEY_LIMIT
    # growing the workload adds no further misses: steady state is 0
    assert deep_long.stats.misses == deep_short.stats.misses
    assert poly_long.stats.misses == poly_short.stats.misses
    assert poly_long.stats.misses <= poly_long.stats.distinct_keys
    report(5, f"(b) {poly_long.stats.distinct_keys} polymorphic + "
              f"{deep_long.stats.distinct_keys} deep-chain keys, "
              f"steady-state global-cache misses 0")


def test_criterion_5c_worst_case_key_growth():
    workload = dual_route_workload(depth=5, repeats=40)
    base = run_image(compile_program(workload, CompileMode.BASELINE))
    worst = run_image(compile_program(workload, CompileMode.WORST_CASE))
    assert base.outcome == worst.outcome
    # mangling splits dual-route selectors into two keys, so growth is real
    # but can never more than double the population
    assert worst.stats.distinct_keys > base.stats.distinct_keys
    assert worst.stats.distinct_keys <= \
        WORST_CASE_KEY_FACTOR * base.stats.distinct_keys
    report(5, f"(c) worst-case keys {worst.stats.distinct_keys} vs baseline "
              f"{base.stats.distinct_keys} (bound 2x)")


def _collision_workload():
    """Source and key pair for two (class, selector) keys sharing a home
    slot, found by searching growing programs against the probe hash."""
    for n_classes in range(4, 200):
        classes = "\n".join(
            f"class K{i} extends Object {{"
            f" method probe() {{ {i} }} method mark() {{ {i} }} }}"
            for i in range(n_classes))
        image = compile_program(parse(f"{classes}\nmain {{ nil }}"))
        by_slot = {}
        for i in range(n_classes):
            icls = image.classes[f"K{i}"]
            for sel in ("probe", "mark"):
                sym = image.symbols.intern(sel)
                slot = probe_index(icls.class_id, sym.id, 0)
                if slot in by_slot:
                    return classes, by_slot[slot], (f"K{i}", sel)
                by_slot[slot] = (f"K{i}", sel)
    raise AssertionError("no home-slot collision found in 200 classes")


def test_criterion_6_probe_histogram(capsys):
    classes, (class_a, sel_a), (class_b, sel_b) = _collision_workload()
    program = parse(f"""
        {classes}
        main {{
          let a = new {class_a} in let b = new {class_b} in
          let w1 = a.{sel_a}() in let w2 = b.{sel_b}() in
          let r1 = a.{sel_a}() in b.{sel_b}()
        }}
    """)
    image = compile_program(program)
    result = run_image(image, inline_cache_on=False)
    assert isinstance(result.outcome, Completed)
    assert result.stats.probe_hits[1] >= 1, result.stats

    # and the stats command reports the histogram in percentages
    code = cli_main(["stats", program_path("golden_sum.stl")])
    out = capsys.readouterr().out
    assert code == 0
    for line in ("probe 1 hits:", "probe 2 hits:", "probe 3 hits:", "misses:"):
        assert line in out
    assert "%" in out
    report(6, f"probe-2 hit registered on colliding keys "
              f"({class_a}.{sel_a} vs {class_b}.{sel_b}); histogram emitted")


def test_criterion_7_overhead_bound():
    started = time.monotonic()
    workload = deep_send_workload(depth=8, repeats=150, protected_levels=False)
    # Invocations alternate between worst-case and its baseline, so
    # contention on the machine cannot land on one side's block alone.
    baseline, worst = bench_pair(workload, BenchConfig(
        mode=CompileMode.WORST_CASE, invocations=10, iterations=15, warmup=5))
    elapsed = time.monotonic() - started
    assert elapsed < OVERHEAD_TIME_BUDGET_S
    assert worst.relative_overhead is not None
    assert worst.relative_overhead <= OVERHEAD_BOUND, (
        f"worst-case median {worst.median * 1e3:.3f} ms vs baseline "
        f"{baseline.median * 1e3:.3f} ms: overhead "
        f"{worst.relative_overhead * 100:+.1f}%")
    report(7, f"worst-case overhead {worst.relative_overhead * 100:+.2f}% "
              f"(bound +{OVERHEAD_BOUND * 100:.0f}%), "
              f"medians {worst.median * 1e3:.3f}/{baseline.median * 1e3:.3f} ms, "
              f"{elapsed:.1f}s total")


def test_criterion_8_propagation_check(programs_dir):
    program = parse((programs_dir / "hierarchy_split.stl").read_text())
    image = compile_program(program)
    # the public-only root is untouched by the rewrite
    assert not any(sym.mangled for sym in image.classes["Root"].dictionary)
    # the middle class's self-send to the root-only method stays plain
    helper = image.classes["Mid"].dictionary[
        image.symbols.intern("__protectedHelper")]
    assert render(helper) == "self.rootOnly()"
    dump = desugar_dump(image)
    assert "body protectedHelper() [protected]: self.rootOnly()" in dump
    # and the leaf's public override is what that plain send finds
    diff = differential_run(program, program_id="hierarchy_split")
    assert diff.agree
    assert diff.reference_outcome == Completed(IntVal(9))
    report(8, "root untouched, ancestor-only self-send plain, leaf override "
              "found; desugar and differential agree")


def test_criterion_9_deferred_site(programs_dir):
    program = parse((programs_dir / "late_install.stl").read_text())
    image = compile_program(program)
    assert [(d.class_name, d.selector) for d in image.deferred_sites] == \
        [("Box", "unknown")]
    cm = image.classes["Box"].dictionary[image.symbols.intern("anyMethod")]
    assert render(cm) == "self.unknown()"
    before = run_image(image)
    assert before.outcome == Errored(DoesNotUnderstand("Box", "unknown"))

    image2 = install_method(
        image, "Box",
        MethodDef("unknown", (), Send(SelfRef(), "seed", ()),
                  visibility="protected"))
    assert image2.deferred_sites == ()
    cm2 = image2.classes["Box"].dictionary[
        image2.symbols.intern("anyMethod")]
    assert render(cm2) == "self.__unknown()"
    after = run_image(image2)
    assert after.outcome == Completed(IntVal(5))
    report(9, "deferred site compiled plain, mangled after install, "
              "resolves at run time")
