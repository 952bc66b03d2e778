import dataclasses
import json

import pytest

from protolite.bench import (
    BenchConfig,
    bench_pair,
    deep_send_workload,
    repeat_main,
)
from protolite.compiler import CompileMode, compile_program
from protolite.errors import BenchConfigError
from protolite.generator import GeneratorConfig, generate_program
from protolite.metrics import (
    differential_run,
    measure_image,
    worst_case_ratios,
)
from protolite.outcomes import Completed, DoesNotUnderstand, Errored
from protolite.parser import parse
from protolite.runtime import run_image
from protolite.syntax import PROTECTED, Program, SuperSend
from protolite.validate import validate

from tests.oracles import images_equal, protected_free_three_way
from tests.workloads import polymorphic_workload


# -- memory accounting --------------------------------------------------------


def test_entry_counts_follow_the_law(two_level_program):
    report = measure_image(compile_program(two_level_program))
    assert report.per_class_entries["A"] == 2 * 1 + 2
    assert report.per_class_entries["B"] == 2 * 3 + 1
    assert report.per_class_entries["Object"] == 0
    assert report.total_entries == 4 + 7


def test_mangled_symbols_equal_scope_installed_selectors(two_level_program):
    report = measure_image(compile_program(two_level_program))
    scope_selectors = {
        m.selector
        for c in two_level_program.classes
        for m in c.methods
    }  # both classes are in scope here
    assert report.mangled_symbols == len(scope_selectors)


def test_protected_free_program_has_no_mangled_symbols():
    p = parse("""
        class A extends Object { method m() { self.n() } method n() { 1 } }
        main { (new A).m() }
    """)
    report = measure_image(compile_program(p))
    assert report.mangled_symbols == 0


def test_compiled_method_count_invariant_under_mangling(two_level_program):
    normal = measure_image(compile_program(two_level_program))
    baseline = measure_image(
        compile_program(two_level_program, CompileMode.BASELINE))
    assert normal.compiled_methods == baseline.compiled_methods == 7
    assert normal.total_entries > baseline.total_entries


def test_worst_case_symbol_ratio_is_exact(two_level_program):
    base = measure_image(compile_program(two_level_program, CompileMode.BASELINE))
    worst = measure_image(
        compile_program(two_level_program, CompileMode.WORST_CASE))
    # plain symbols: the five installed selectors; the '+' send has no
    # dictionary entry, so it is not counted
    assert base.plain_symbols == worst.plain_symbols == 5
    assert base.mangled_symbols == 0
    # every distinct installed selector gains exactly one mangled twin
    assert worst.mangled_symbols == 5
    ratios = worst_case_ratios(two_level_program)
    assert ratios.symbols == pytest.approx(
        worst.total_symbols / base.total_symbols)
    # baseline installs all 7 methods once; worst case pays 2 entries per
    # public method and 1 per protected: (2*1+2) + (2*3+1) = 11
    assert ratios.entries == pytest.approx(11 / 7)


def test_memory_report_ignores_what_runs_and_installs_intern(
        two_level_program):
    # A compile and its installs share one symbol table, which runs grow
    # as they lower bodies; an image's report counts its dictionaries' keys.
    from protolite.compiler import install_method
    from protolite.syntax import IntLit, MethodDef, SelfRef, Send

    image = compile_program(two_level_program)
    before = measure_image(image)
    symbols = len(image.symbols.symbols())
    assert isinstance(run_image(image).outcome, Completed)
    child = install_method(image, "B", MethodDef(
        "fresh", (), Send(SelfRef(), "unsent", (IntLit(1),))))
    run_image(child)
    assert len(image.symbols.symbols()) > symbols
    assert measure_image(image) == before
    grown = measure_image(child)
    assert grown.plain_symbols == before.plain_symbols + 1
    assert grown.mangled_symbols == before.mangled_symbols + 1


def test_memory_report_json_shape(two_level_program):
    report = measure_image(compile_program(two_level_program))
    payload = json.loads(json.dumps(report.to_json()))
    assert payload["totalEntries"] == report.total_entries
    assert payload["mangledSymbols"] == report.mangled_symbols


# -- generator -----------------------------------------------------------------


def test_generator_is_deterministic():
    assert generate_program(1234) == generate_program(1234)
    assert generate_program(1234) != generate_program(1235)


def test_generator_programs_validate():
    for seed in range(200):
        assert validate(generate_program(seed)) == [], seed


def test_generator_zero_protected_setting():
    config = GeneratorConfig(allow_protected=False)
    from protolite.compiler import rewrite_scope
    from protolite.validate import HierarchyIndex

    for seed in range(50):
        p = generate_program(seed, config)
        assert not any(m.visibility == PROTECTED
                       for c in p.classes for m in c.methods)
        assert rewrite_scope(HierarchyIndex(p)) == frozenset()


def test_generator_respects_depth_bound():
    from protolite.validate import HierarchyIndex

    for seed in range(80):
        p = generate_program(seed)
        idx = HierarchyIndex(p)
        for c in p.classes:
            assert len(idx.chain(c.name)) <= 6  # depth 5 plus Object


# -- differential runs ------------------------------------------------------------


def test_generated_programs_agree_at_small_fuels():
    # A run whose fuel ends exactly where it would get stuck is
    # FuelExhausted in both evaluators. About 0.5 s for these 1,600 runs on
    # a 2-core machine.
    for fuel in (1, 2, 3, 5):
        for seed in range(400):
            diff = differential_run(generate_program(seed), fuel=fuel)
            assert diff.agree, (seed, fuel, diff.detail)


def test_golden_programs_agree(programs_dir):
    for path in sorted(programs_dir.glob("golden_*.stl")):
        p = parse(path.read_text())
        result = differential_run(p, program_id=path.name)
        assert result.agree, result.detail


def test_step_mismatch_breaks_agreement(monkeypatch, programs_dir):
    # Equal outcomes are not enough: the runtime must also take exactly the
    # reference's number of steps.
    import protolite.metrics as metrics

    real_run_image = metrics.run_image

    def one_step_more(image, **kwargs):
        result = real_run_image(image, **kwargs)
        return dataclasses.replace(result, steps=result.steps + 1)

    monkeypatch.setattr(metrics, "run_image", one_step_more)
    p = parse((programs_dir / "golden_sum.stl").read_text())
    result = differential_run(p, program_id="golden_sum")
    assert result.reference_outcome == result.runtime_outcome
    assert result.runtime_steps == result.reference_steps + 1
    assert not result.agree
    assert "step mismatch" in result.detail


def test_differential_run_builds_one_hierarchy_index(monkeypatch,
                                                     two_level_program):
    # The compile and the reference evaluator share the program's index: a
    # parsed program brings its own, and one built afresh gets exactly one.
    from protolite.validate import HierarchyIndex

    builds = []
    real_init = HierarchyIndex.__init__

    def counting_init(self, program):
        builds.append(program)
        real_init(self, program)

    p = two_level_program
    monkeypatch.setattr(HierarchyIndex, "__init__", counting_init)
    assert differential_run(p).agree
    assert builds == []
    fresh = Program(p.classes, p.main)
    assert differential_run(fresh).agree
    assert len(builds) == 1 and builds[0] is fresh


def Completed_int(n):
    from protolite.values import IntVal

    return Completed(IntVal(n))


def test_three_way_agreement_on_protected_free_program():
    p = parse("""
        class A extends Object { method m() { self.n() + 2 } method n() { 4 } }
        main { (new A).m() }
    """)
    result = protected_free_three_way(p)
    assert result.diff.agree
    assert result.baseline_agrees
    assert result.dictionaries_equal
    assert result.diff.reference_outcome == Completed_int(6)


def test_hierarchy_split_progam_agrees(programs_dir):
    p = parse((programs_dir / "hierarchy_split.stl").read_text())
    result = differential_run(p, program_id="hierarchy_split")
    assert result.agree
    assert result.reference_outcome == Completed_int(9)


def test_images_equal_detects_differences(two_level_program):
    # Both classes already sit in the rewrite scope, so the worst-case
    # compile changes nothing here.
    assert images_equal(compile_program(two_level_program),
                        compile_program(two_level_program,
                                        CompileMode.WORST_CASE))
    # On a protected-free program the two modes genuinely differ.
    p = parse("""
        class A extends Object { method m() { self.n() } method n() { 1 } }
        main { (new A).m() }
    """)
    assert not images_equal(compile_program(p),
                            compile_program(p, CompileMode.WORST_CASE))
    assert images_equal(compile_program(p),
                        compile_program(p, CompileMode.BASELINE))


# -- bench ------------------------------------------------------------------------


def quick(**kw):
    defaults = dict(invocations=2, iterations=4, warmup=1, fuel=2_000_000)
    defaults.update(kw)
    return BenchConfig(**defaults)


def test_bench_rejects_empty_budgets(two_level_program):
    with pytest.raises(BenchConfigError):
        bench_pair(two_level_program, quick(iterations=0))
    with pytest.raises(BenchConfigError):
        bench_pair(two_level_program, quick(invocations=0))
    with pytest.raises(BenchConfigError):
        bench_pair(two_level_program, quick(iterations=2, warmup=2))


def test_bench_rejects_non_terminating_workload():
    p = parse("""
        class C extends Object { method spin() { self.spin() } }
        main { (new C).spin() }
    """)
    with pytest.raises(BenchConfigError):
        bench_pair(p, quick(fuel=5_000))


def test_bench_reports_medians_and_overhead(two_level_program):
    program = repeat_main(two_level_program, 50)
    baseline, measured = bench_pair(program,
                                    quick(mode=CompileMode.WORST_CASE))
    assert baseline.label == CompileMode.BASELINE.value
    assert measured.label == CompileMode.WORST_CASE.value
    assert len(baseline.samples) == len(measured.samples) == 2 * (4 - 1)
    assert measured.median > 0
    assert measured.relative_overhead is not None


def test_deep_send_workload_compiles_and_runs():
    program = deep_send_workload(depth=6, repeats=40)
    assert validate(program) == []
    image = compile_program(program)
    result = run_image(image)
    assert isinstance(result.outcome, Completed)
    # the root stays out of the rewrite scope
    assert "L0" not in image.rewrite_scope
    assert "L1" in image.rewrite_scope


def test_polymorphic_workload_spreads_classes():
    program = polymorphic_workload(n_classes=4, repeats=10)
    assert validate(program) == []
    result = run_image(compile_program(program))
    assert isinstance(result.outcome, Completed)
    assert result.stats.distinct_keys >= 4


@pytest.mark.parametrize("source", [
    "main { new Ghost }",
    "main { self.m() }",
    "main { (new Ghost).m() }",
    "class C extends Object { method m(x) { x } } main { (new C).m() }",
    "main { 1 + nil }",
    "main { nil + 1 }",
    "main { 5.zork() }",
    "main { let x = new Object in x }",
    "main { x }",
    "class C extends Object { method m() { y } } main { (new C).m() }",
])
def test_handwritten_edges_agree(source):
    result = differential_run(parse(source), program_id=source)
    assert result.agree, result.detail
    assert result.reference_steps == result.runtime_steps


def test_super_send_in_main_is_stuck_in_both_evaluators():
    # The parser never builds a super-send in main; a hand-built one looks
    # above Object and finds nothing, before any step.
    result = differential_run(Program((), SuperSend("m", ())),
                              program_id="super-in-main")
    assert result.agree, result.detail
    assert result.reference_outcome == Errored(DoesNotUnderstand("Object", "m"))
    assert result.reference_steps == result.runtime_steps == 0
