import contextlib
import io
import json
import re
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from protolite import cli, compiler
from protolite.cli import main
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
    path = tmp_path / "sites.stl"
    path.write_text(SITES_SOURCE)
    code, out, _ = run_cli(capsys, "stats", "--json", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["sites"] == [
        {"site": 0, "class": "Driver", "method": "few", "selector": "probe",
         "state": "poly", "receivers": ["P0", "P1"]},
        {"site": 1, "class": "Driver", "method": "many", "selector": "probe",
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
        "  site 0 in Driver.few sends probe: poly (P0, P1)",
        "  site 1 in Driver.many sends probe: mega",
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


def test_non_utf8_source_exits_3(capsys, tmp_path):
    path = tmp_path / "latin1.stl"
    path.write_bytes(b"main { 1 }\xff")
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "run", str(path))
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert "cannot read" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, validates", [
    (["run"], 1),
    (["check"], 1),
    (["desugar"], 1),
    (["diff"], 1),
    # One compile per mode: the run's, then worst_case_ratios' two.
    (["stats"], 3),
    # The baseline's compile and the measured mode's.
    (["bench", "--invocations", "1", "--iterations", "1", "--warmup", "0"],
     2),
], ids=lambda v: v[0] if isinstance(v, list) else str(v))
def test_each_command_validates_once_per_compile(capsys, monkeypatch, argv,
                                                 validates):
    calls = []

    def counting(program, idx=None, _validate=compiler.validate):
        calls.append(program)
        return _validate(program, idx)

    monkeypatch.setattr(compiler, "validate", counting)
    monkeypatch.setattr(cli, "validate", counting)
    code, _, _ = run_cli(capsys, argv[0], program_path("golden_sum.stl"),
                         *argv[1:])
    assert code == 0
    assert len(calls) == validates


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
