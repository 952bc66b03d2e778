import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from protolite import cli, compiler
from protolite.cli import main
from protolite.outcomes import Completed
from protolite.parser import MAX_NESTING, parse
from protolite.syntax import pretty_program
from protolite.validate import HierarchyIndex
from protolite.values import IntVal
from tests.conftest import PROGRAMS, program_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_prints_value(capsys):
    code, out, _ = run_cli(capsys, "run", program_path("golden_sum.stl"))
    assert code == 0
    assert out.strip() == "84"


def test_run_runtime_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "run", program_path("golden_raise_error.stl"))
    assert code == 1
    assert "DoesNotUnderstand" in err
    assert "protectedMethod" in err
    assert "__" not in err


def test_run_validation_failure_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "run", program_path("narrowing_rejected.stl"))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "OVERRIDINGPUBLICMETHOD" in err


def test_run_missing_file_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "run", "no/such/file.stl")
    assert exc.value.code == 3


def test_run_json_output(capsys):
    code, out, _ = run_cli(capsys, "run", "--json",
                           program_path("golden_call_on_b.stl"))
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "value"
    assert payload["value"] == 42


def test_run_fuel_flag(capsys):
    code, _, err = run_cli(capsys, "run", "--fuel", "1",
                           program_path("golden_sum.stl"))
    assert code == 1
    assert "fuel exhausted" in err
    # A zero budget is valid: it runs out before the first step.
    code, _, err = run_cli(capsys, "run", "--fuel", "0",
                           program_path("golden_sum.stl"))
    assert code == 1
    assert "fuel exhausted after 0 steps" in err


def test_fuel_env_override(capsys, monkeypatch):
    monkeypatch.setenv("PROTOLITE_FUEL", "1")
    code, _, err = run_cli(capsys, "run", program_path("golden_sum.stl"))
    assert code == 1
    assert "fuel" in err
    # explicit flag beats the environment
    monkeypatch.setenv("PROTOLITE_FUEL", "1")
    code, out, _ = run_cli(capsys, "run", "--fuel", "100000",
                           program_path("golden_sum.stl"))
    assert code == 0
    assert out.strip() == "84"


@pytest.mark.parametrize("argv, env", [
    (["run", "--fuel", "-5", "GOLDEN"], None),
    (["stats", "--fuel", "-2", "GOLDEN"], None),
    (["diff", "--seeds", "0..0", "--fuel", "-1"], None),
    (["bench", "--fuel", "-1", "--invocations", "1", "--iterations", "1",
      "--warmup", "0", "GOLDEN"], None),
    (["run", "GOLDEN"], "-3"),
    (["diff", "--seeds", "0..0"], "-3"),
    (["bench", "--invocations", "1", "--iterations", "1", "--warmup", "0",
      "GOLDEN"], "-3"),
], ids=["run", "stats", "diff", "bench", "env", "env-diff", "env-bench"])
def test_negative_fuel_exits_2(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("PROTOLITE_FUEL", env)
    golden = program_path("golden_sum.stl")
    with pytest.raises(SystemExit) as exc:
        main([golden if arg == "GOLDEN" else arg for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    source = "PROTOLITE_FUEL" if env is not None else "--fuel"
    assert f"{source} cannot be negative" in captured.err


def test_env_fuel_overrides_diff_and_bench_defaults(capsys, monkeypatch):
    monkeypatch.setenv("PROTOLITE_FUEL", "1")
    golden = program_path("golden_sum.stl")
    code, out, _ = run_cli(capsys, "diff", "--json", golden)
    assert code == 0
    assert json.loads(out)["outcomes"] == {"FuelExhausted": 1}
    code, out, err = run_cli(capsys, "bench", "--invocations", "1",
                             "--iterations", "1", "--warmup", "0", golden)
    assert code == 2
    assert "did not complete" in err


def test_check_ok_and_violations(capsys):
    code, out, _ = run_cli(capsys, "check", program_path("golden_sum.stl"))
    assert code == 0
    assert out.strip() == "ok"
    code, out, _ = run_cli(capsys, "check",
                           program_path("narrowing_rejected.stl"))
    assert code == 2
    assert "OVERRIDINGPUBLICMETHOD" in out


def test_duplicate_parameters_exit_2(capsys, tmp_path):
    # A repeated parameter name is ambiguous, so validation rejects the
    # program before either evaluator runs.
    path = tmp_path / "dup.stl"
    path.write_text("class A extends Object { method f(x, x) { x } }\n"
                    "main { (new A).f(1, 2) }\n")
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "PARAMSONCEPERMETHOD" in out
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "diff", str(path))
    assert exc.value.code == 2
    assert "PARAMSONCEPERMETHOD" in capsys.readouterr().err


def test_desugar_golden_fragments(capsys):
    code, out, _ = run_cli(capsys, "desugar", program_path("golden_sum.stl"))
    assert code == 0
    assert "__protectedMethod -> A#protectedMethod protected" in out
    assert "callProtected -> A#callProtected public shared" in out
    assert "self.__callProtected() + (new B).callProtected()" in out


def test_diff_seed_range(capsys):
    from collections import Counter

    from protolite.generator import generate_program
    from protolite.metrics import DIFF_FUEL
    from protolite.outcomes import Errored
    from protolite.reference import eval_program

    code, out, _ = run_cli(capsys, "diff", "--seeds", "0..19")
    assert code == 0
    head, *mix_lines = out.strip().splitlines()
    assert head == "20/20 agree"
    # The outcome mix: the reference evaluator's outcome kinds, most common
    # first, in text and under --json.
    outcomes = [eval_program(generate_program(seed), fuel=DIFF_FUEL).outcome
                for seed in range(20)]
    expected = Counter(o.reason.kind if isinstance(o, Errored)
                       else type(o).__name__ for o in outcomes)
    assert len(expected) > 1
    assert mix_lines == [f"  {kind}: {count}"
                         for kind, count in expected.most_common()]
    code, out, _ = run_cli(capsys, "diff", "--seeds", "0..19", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["total"], payload["agree"]) == (20, 20)
    assert list(payload["outcomes"].items()) == expected.most_common()


def test_diff_json_sums_reference_steps_per_outcome_kind(capsys):
    from collections import Counter

    from protolite.generator import generate_program
    from protolite.metrics import DIFF_FUEL
    from protolite.outcomes import Errored
    from protolite.reference import eval_program

    expected: Counter[str] = Counter()
    for seed in range(20):
        result = eval_program(generate_program(seed), fuel=DIFF_FUEL)
        o = result.outcome
        expected[o.reason.kind if isinstance(o, Errored)
                 else type(o).__name__] += result.steps
    code, out, _ = run_cli(capsys, "diff", "--seeds", "0..19", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["steps"] == dict(expected)
    assert list(payload["steps"]) == list(payload["outcomes"])


@pytest.mark.parametrize("seeds", ["5..4", "20..0", "0-9", "a..b"])
def test_diff_rejects_an_empty_or_malformed_seed_range(capsys, seeds):
    code, out, err = run_cli(capsys, "diff", "--seeds", seeds)
    assert code == 2
    assert out == ""
    assert "--seeds expects a range" in err


def test_diff_single_file(capsys):
    code, out, _ = run_cli(capsys, "diff", program_path("golden_sum.stl"))
    assert code == 0
    assert out.strip() == "1/1 agree"


def test_diff_reports_a_disagreement(monkeypatch, capsys):
    # A runtime that answers -1 where the reference evaluator gives 84.
    from protolite import metrics
    real_run_image = metrics.run_image

    def wrong_answer(image, **kwargs):
        return dataclasses.replace(real_run_image(image, **kwargs),
                                   outcome=Completed(IntVal(-1)))

    monkeypatch.setattr(metrics, "run_image", wrong_answer)
    path = program_path("golden_sum.stl")
    detail = (f"reference={Completed(IntVal(84))!r} "
              f"runtime={Completed(IntVal(-1))!r}")
    code, out, err = run_cli(capsys, "diff", path)
    assert code == 1
    assert out.strip() == "0/1 agree"
    assert f"disagreement on {path}: {detail}" in err
    program = pretty_program(parse((PROGRAMS / "golden_sum.stl").read_text()))
    assert f"--- offending program ---\n{program}\n" in err

    code, out, err = run_cli(capsys, "diff", "--json", path)
    assert code == 1
    [disagreement] = json.loads(out)["disagreements"]
    assert disagreement.keys() == {"id", "detail"}
    assert disagreement["id"] == path
    assert disagreement["detail"].startswith(detail)


@pytest.mark.parametrize("path", [program_path("golden_sum.stl"),
                                  "/no/such/file.stl"],
                         ids=["existing", "missing"])
def test_diff_rejects_a_file_with_seeds(capsys, path):
    code, out, err = run_cli(capsys, "diff", path, "--seeds", "0..2")
    assert code == 2
    assert out == ""
    assert "give a file or --seeds, not both" in err


def test_worst_case_and_no_protect_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--worst-case", "--no-protect",
              program_path("golden_sum.stl")])
    assert exc.value.code == 2


def test_stats_output(capsys):
    code, out, _ = run_cli(capsys, "stats", program_path("golden_sum.stl"))
    assert code == 0
    assert "probe 1 hits:" in out
    assert "probe 2 hits:" in out
    assert "probe 3 hits:" in out
    assert "misses:" in out
    assert "worst-case ratios" in out
    assert out.startswith("phases: parse ")


def test_stats_json_schema(capsys):
    code, out, _ = run_cli(capsys, "stats", "--json",
                           program_path("golden_sum.stl"))
    assert code == 0
    payload = json.loads(out)
    cache = payload["cache"]
    assert set(cache) == {"probe1", "probe2", "probe3", "misses",
                          "installs", "distinctKeys", "icHits", "icFills",
                          "ic"}
    assert set(cache["ic"]) == {"mono", "poly", "mega"}
    assert payload["memory"]["totalEntries"] == 11
    assert "worstCaseRatios" in payload


def test_stats_json_reports_phase_times(capsys):
    code, out, _ = run_cli(capsys, "stats", "--json",
                           program_path("golden_sum.stl"))
    assert code == 0
    phases = json.loads(out)["phases"]
    assert set(phases) == {"parse", "compile", "run"}
    assert all(isinstance(s, float) and s >= 0 for s in phases.values())


SITES_SOURCE = "\n".join(
    f"class P{i} extends Object {{ method probe() {{ {i} }} }}"
    for i in range(7)) + """
class Driver extends Object {
  method few(x) { x.probe() }
  method many(x) { x.probe() }
  method go() {
    let a = self.few(new P0) in let b = self.few(new P1) in
    let c = self.many(new P0) in let d = self.many(new P1) in
    let e = self.many(new P2) in let f = self.many(new P3) in
    let g = self.many(new P4) in let h = self.many(new P5) in
    let i = self.many(new P6) in 0
  }
}
main { (new Driver).go() }
"""


def test_stats_lists_polymorphic_and_megamorphic_sites(capsys, tmp_path):
    # few's send sees two receiver classes, many's seven: more than the
    # inline cache holds, so it goes megamorphic and keeps no classes.
    # Sites are numbered as bodies first run: main's send is 0 and go's
    # nine self-sends 1-9.
    path = tmp_path / "sites.stl"
    path.write_text(SITES_SOURCE)
    code, out, _ = run_cli(capsys, "stats", "--json", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["sites"] == [
        {"site": 10, "class": "Driver", "method": "few", "selector": "probe",
         "state": "poly", "receivers": ["P0", "P1"]},
        {"site": 11, "class": "Driver", "method": "many", "selector": "probe",
         "state": "mega", "receivers": []},
    ]
    assert payload["cache"]["ic"]["poly"] == 1
    assert payload["cache"]["ic"]["mega"] == 1
    code, out, _ = run_cli(capsys, "stats", str(path))
    assert code == 0
    lines = out.splitlines()
    ic = next(i for i, line in enumerate(lines)
              if line.startswith("inline caches:"))
    assert lines[ic + 1:ic + 3] == [
        "  site 10 in Driver.few sends probe: poly (P0, P1)",
        "  site 11 in Driver.many sends probe: mega",
    ]
    assert not lines[ic + 3].startswith("  site")


def test_bench_command_smoke(capsys):
    code, out, _ = run_cli(
        capsys, "bench", program_path("golden_sum.stl"),
        "--invocations", "2", "--iterations", "3", "--warmup", "1",
        "--repeat", "20")
    assert code == 0
    assert "[baseline] median" in out
    assert "overhead vs baseline" in out


@pytest.mark.parametrize("flags, message", [
    (("--warmup", "-1"), "warm-up cannot be negative"),
    (("--repeat", "0"), "replication factor must be positive"),
    (("--repeat", "-1"), "replication factor must be positive"),
])
def test_bench_rejects_negative_warmup_and_repeat_below_one(capsys, flags,
                                                             message):
    code, out, err = run_cli(
        capsys, "bench", program_path("golden_sum.stl"),
        "--invocations", "1", "--iterations", "2", *flags)
    assert code == 2
    assert out == ""
    assert message in err


def test_scripts_run_with_tiny_arguments():
    scripts = PROGRAMS.parent / "scripts"

    def run(name, *args):
        done = subprocess.run([sys.executable, str(scripts / name), *args],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()

    lines = run("bench_overhead.py", "--depth", "3", "--repeats", "5",
                "--invocations", "2", "--iterations", "2", "--warmup", "1")
    assert lines[0] == "workload: chain depth 3, 5 send rounds per iteration"
    for caches in ("all caches on", "global cache only", "no caches"):
        assert f"[{caches}]" in lines
    assert sum(line.startswith("  worst-case median") for line in lines) == 3
    lines = run("bench_install.py", "--sizes", "16", "32", "--repeats", "1")
    assert lines[0].split() == ["classes", "compile", "ms", "install", "ms",
                                "ratio"]
    assert [line.split()[0] for line in lines[1:]] == ["16", "32"]
    assert all(re.fullmatch(r"\s*\d+( +[\d.]+){2} +[\d.]+%", line)
               for line in lines[1:])


def test_worst_case_run_same_result(capsys):
    code, out, _ = run_cli(capsys, "run", "--worst-case",
                           program_path("golden_sum.stl"))
    assert code == 0
    assert out.strip() == "84"


def test_no_protect_changes_visibility(capsys):
    # Without mangling, protected methods are plainly visible: the
    # object-send that must fail under protection now succeeds.
    code, out, _ = run_cli(capsys, "run", "--no-protect",
                           program_path("golden_protected_object_send.stl"))
    assert code == 0
    assert out.strip() == "11"


def test_run_renders_object_values(capsys, tmp_path):
    source = "class A extends Object { }\nmain { new A }\n"
    path = tmp_path / "object_result.stl"
    path.write_text(source)
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    assert out.strip() == "<A#1>"


def test_parse_error_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.stl"
    path.write_text("class A extends { }\nmain { nil }\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "run", str(path))
    assert exc.value.code == 2
    assert "broken.stl:1" in capsys.readouterr().err


def test_bare_reserved_name_exits_2(capsys, tmp_path):
    path = tmp_path / "reserved.stl"
    path.write_text("main { __x }\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "run", str(path))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "reserved.stl:1:8" in err
    assert "identifier '__x' uses the reserved '__' prefix" in err
    assert "UnknownVariable" not in err


@pytest.mark.parametrize("main_expr", [
    "(" * 300 + "1" + ")" * 300,
    " + ".join(["1"] * 1200),
    "".join(f"let x{i} = {i} in " for i in range(1200)) + "x0",
], ids=["parentheses", "plus-chain", "nested-lets"])
def test_deep_input_exits_2_without_traceback(capsys, tmp_path, main_expr):
    path = tmp_path / "deep.stl"
    path.write_text(f"main {{ {main_expr} }}\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "nesting limit" in err
    assert "Traceback" not in err


def _run_main(argv):
    """``main``'s exit code, stdout and stderr, with SystemExit caught."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


NESTING_COMMANDS = ("check", "run", "desugar", "diff", "stats")


@pytest.mark.parametrize("where", ["main", "method"])
def test_plus_chains_get_one_parse_verdict_from_every_command(tmp_path, where):
    # A '+' chain is read in a loop; name resolution counts its tree levels,
    # so every command takes MAX_NESTING levels (one term more) and rejects
    # one more.
    verdicts = {}
    for levels in (MAX_NESTING, MAX_NESTING + 1, 1200):
        chain = " + ".join(["1"] * (levels + 1))
        path = tmp_path / f"chain{levels}.stl"
        path.write_text(
            f"main {{ {chain} }}\n" if where == "main" else
            f"class A extends Object {{ method m() {{ {chain} }} }}\n"
            "main { (new A).m() }\n")
        for command in NESTING_COMMANDS:
            code, out, err = _run_main([command, str(path)])
            assert code in (0, 2), (levels, command, err)
            assert (code == 2) == ("nesting limit" in err)
            assert "Traceback" not in out + err
            verdicts.setdefault(levels, set()).add(code)
    assert verdicts == {MAX_NESTING: {0}, MAX_NESTING + 1: {2}, 1200: {2}}


# Each shape nests ``n`` levels: its deepest node is n levels below the body's
# root, and n expressions deep in the descent where the shape opens any. The
# last three need a method: ``self`` is nil in main, and main has no super
# or fields.
NESTING_SHAPES = {
    "parentheses": lambda n: "(" * n + "1" + ")" * n,
    "object-send-arguments": lambda n: "new B.m(" * n + "1" + ")" * n,
    "plus-chain": lambda n: " + ".join(["1"] * (n + 1)),
    "receiver-chain": lambda n: "new B" + ".id()" * n,
    "let-bound": lambda n: "let x = " * n + "1" + " in x" * n,
    "let-body": lambda n: "let x = 1 in " * n + "x",
    "self-send-arguments": lambda n: "self.m(" * n + "1" + ")" * n,
    "super-send-arguments": lambda n: "super.m(" * n + "1" + ")" * n,
    "assignment": lambda n: "f := " * n + "1",
}
METHOD_ONLY_SHAPES = ("self-send-arguments", "super-send-arguments",
                      "assignment")
CALLER_DEPTH = 200


def _stack_depth():
    """Frames on the stack, the caller's included."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _main_at_depth(depth, argv):
    """``_run_main(argv)`` with ``main`` called ``depth`` frames below the
    top of the stack."""
    if _stack_depth() < depth - 2:
        return _main_at_depth(depth, argv)
    return _run_main(argv)


@pytest.mark.parametrize("shape, where", [
    (shape, where) for shape in NESTING_SHAPES for where in ("main", "method")
    if where == "method" or shape not in METHOD_ONLY_SHAPES])
def test_every_command_gives_one_nesting_verdict_from_a_deep_caller(
        tmp_path, shape, where):
    for levels, expected in ((MAX_NESTING, 0), (MAX_NESTING + 1, 2)):
        body = NESTING_SHAPES[shape](levels)
        path = tmp_path / f"{levels}.stl"
        path.write_text(
            "class B extends Object { method m(x) { x } method id() { self } }\n"
            + (f"main {{ {body} }}\n" if where == "main" else
               f"class A extends B {{ fields: f; method go() {{ {body} }} }}\n"
               "main { (new A).go() }\n"))
        for command in NESTING_COMMANDS:
            code, out, err = _main_at_depth(CALLER_DEPTH, [command, str(path)])
            assert code == expected, (levels, command, err[-300:])
            assert ("nesting limit" in err) == (expected == 2)
            assert "Traceback" not in out + err


def test_bench_repeat_runs_a_long_let_chain_from_a_deep_caller():
    # ``--repeat`` nests each replica of main in the body of a let, 3,000
    # deep, below any nesting the parser lets through: the site walk and the
    # lowering loop down let bodies, so neither reaches the recursion limit.
    code, out, err = _main_at_depth(CALLER_DEPTH, [
        "bench", program_path("golden_sum.stl"), "--repeat", "3000",
        "--invocations", "1", "--iterations", "2", "--warmup", "1"])
    assert code == 0, err[-300:]
    assert "Traceback" not in out + err


@pytest.mark.parametrize("source, positions", [
    ("class A extends Object { fields: x; method m() { x := 1 } } "
     "class A extends Object { fields: y; } main { nil }", "1 and 2"),
    ("class A extends Object { fields: x; } "
     "class B extends A { method m() { x } } "
     "class A extends Object { fields: y; method n() { y := 2 } } main { nil }",
     "1 and 3"),
], ids=["first-assigns", "later-assigns"])
def test_each_definition_of_a_duplicated_class_sees_its_own_fields(
        capsys, tmp_path, source, positions):
    path = tmp_path / "duplicated.stl"
    path.write_text(source)
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert out.splitlines() == [
        f"CLASSESONCE: class 'A': declared at positions {positions}"]
    assert err == ""


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_overlong_integer_literal_exits_2(capsys, tmp_path, flags):
    digits = sys.get_int_max_str_digits() + 700
    path = tmp_path / "long_literal.stl"
    path.write_text(f"main {{ {'9' * digits} }}\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", *flags, str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"long_literal.stl:1:8: integer literal of {digits} digits" in err
    assert f"{sys.get_int_max_str_digits()} digits" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_overlong_integer_result_prints_in_hexadecimal(capsys, tmp_path,
                                                       flags):
    # Each literal fits the decimal limit; their sum has one digit more.
    nines = "9" * sys.get_int_max_str_digits()
    path = tmp_path / "long_sum.stl"
    path.write_text(f"main {{ {nines} + {nines} }}\n")
    code, out, err = run_cli(capsys, "run", *flags, str(path))
    assert code == 0
    value = json.loads(out)["value"] if flags else out.strip()
    assert value == hex(2 * int(nines))
    assert "Traceback" not in err


def test_non_utf8_source_exits_3(capsys, tmp_path):
    path = tmp_path / "latin1.stl"
    path.write_bytes(b"main { 1 }\xff")
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "run", str(path))
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert "cannot read" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["stats"], ["diff", "--json"]])
@pytest.mark.parametrize("buffering", [1, -1], ids=["line", "block"])
def test_closed_stdout_exits_3(capsys, monkeypatch, argv, buffering):
    # A pipe whose reader is gone, as after ``| head -c 10``. Python ignores
    # SIGPIPE, so a write to it raises BrokenPipeError: at the first line
    # when line-buffered, at ``main``'s flush when block-buffered.
    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout = open(write_end, "w", buffering=buffering)
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        code = main([*argv, program_path("golden_sum.stl")])
        # The descriptor now leads to the null device: later writes and the
        # flush at close succeed.
        print("more", file=stdout, flush=True)
    finally:
        stdout.close()
    assert code == cli.EXIT_IO == 3
    assert capsys.readouterr().err == ""


def test_closed_stdout_prints_no_traceback_at_exit():
    # The reader closes its end before the child has started, so each of
    # the child's writes, and Python's own flush at exit, meets a closed
    # pipe.
    env = {**os.environ, "PYTHONPATH": str(PROGRAMS.parent / "src")}
    child = subprocess.Popen(
        [sys.executable, "-m", "protolite.cli", "stats",
         program_path("golden_sum.stl")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=120) == 3
    assert err == b""


@pytest.mark.parametrize("argv, validates", [
    (["run"], 1),
    (["check"], 1),
    (["desugar"], 1),
    (["diff"], 1),
    # One compile per mode: the run's validates, and worst_case_ratios' two
    # find the program valid already.
    (["stats"], 1),
    # The baseline's compile validates and the measured mode's does not.
    (["bench", "--invocations", "1", "--iterations", "1", "--warmup", "0"],
     1),
    # The repeated program shares the parsed program's index.
    (["bench", "--invocations", "1", "--iterations", "1", "--warmup", "0",
      "--repeat", "3"], 1),
], ids=lambda v: ("-".join(a.lstrip("-") for a in v[:1] + v[7:])
                  if isinstance(v, list) else str(v)))
def test_each_command_validates_once_per_compile(capsys, monkeypatch, argv,
                                                 validates):
    # Every command also builds one hierarchy index: the parsed program's,
    # which every later phase reads.
    calls, builds = [], []
    real_init = HierarchyIndex.__init__

    def counting(program, _validate=compiler.validate):
        calls.append(program)
        return _validate(program)

    def counting_init(self, program):
        builds.append(program)
        real_init(self, program)

    monkeypatch.setattr(compiler, "validate", counting)
    monkeypatch.setattr(cli, "validate", counting)
    monkeypatch.setattr(HierarchyIndex, "__init__", counting_init)
    code, _, _ = run_cli(capsys, argv[0], program_path("golden_sum.stl"),
                         *argv[1:])
    assert code == 0
    assert len(calls) == validates
    assert len(builds) == 1


def test_invalid_diff_file_fails_before_evaluating(capsys, monkeypatch):
    def no_eval(*args, **kwargs):
        raise AssertionError("evaluated an invalid program")

    monkeypatch.setattr("protolite.metrics.eval_program", no_eval)
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "diff", program_path("narrowing_rejected.stl"))
    assert exc.value.code == 2
    assert "OVERRIDINGPUBLICMETHOD" in capsys.readouterr().err


# -- exit codes on arbitrary input ----------------------------------------------

GOLDEN_SOURCES = sorted(p.read_bytes() for p in PROGRAMS.glob("*.stl"))

TOKENS = [b"class", b"A", b"B", b"extends", b"Object", b"{", b"}", b"fields:",
          b"f", b";", b"method", b"protected", b"m", b"(", b")", b",", b"x",
          b"main", b"self", b"super", b".", b"+", b"new", b"let", b"=", b"in",
          b":=", b"nil", b"0", b"7", b"__m", b"\n"]


def _splice(source: bytes, at: int, cut: int, insert: bytes) -> bytes:
    at %= len(source) + 1
    return source[:at] + insert + source[at + cut:]


# Raw bytes, token soup that sometimes parses, and golden programs with a
# stretch of bytes replaced, which mostly parse and often validate.
SOURCES = st.one_of(
    st.binary(max_size=120),
    st.lists(st.sampled_from(TOKENS), max_size=40).map(b" ".join),
    st.builds(_splice, st.sampled_from(GOLDEN_SOURCES), st.integers(0, 2000),
              st.integers(0, 12), st.binary(max_size=12)),
)


@given(SOURCES)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_any_bytes_exit_with_a_documented_code(tmp_path_factory, source):
    path = tmp_path_factory.mktemp("cli") / "input.stl"
    path.write_bytes(source)
    for argv in (["run", "--fuel", "20000"], ["check"], ["desugar"], ["diff"],
                 ["stats", "--fuel", "20000"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([argv[0], str(path), *argv[1:]])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, source, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue()
