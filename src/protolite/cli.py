"""Command-line interface.

Commands::

    protolite run <file>       parse, validate, compile, execute
    protolite check <file>     report validation violations
    protolite desugar <file>   dump compiled dictionaries and bodies
    protolite diff --seeds A..B | <file>   differential reference-vs-runtime
    protolite bench <file>     timed runs against the mangling-free baseline
    protolite stats <file>     phase times, cache counters, probe percentages,
                               memory report

Exit codes: 0 success, 1 runtime error (including fuel exhaustion), 2 parse or
validation failure (argparse usage errors, a negative step budget and a
``bench`` run that does not complete, fuel exhaustion included, also exit 2),
3 I/O failure. The ``PROTOLITE_FUEL`` environment variable overrides
each command's own default step budget: ``DEFAULT_FUEL`` (1,000,000) for
``run`` and ``stats``, ``DIFF_FUEL`` (3,000) for ``diff``, and ``BENCH_FUEL``
(5,000,000) for ``bench``. An explicit ``--fuel`` beats both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter

from .bench import (
    BENCH_FUEL,
    BenchConfig,
    BenchReport,
    bench_pair,
    repeat_main,
)
from .compiler import CompileMode, compile_program, desugar_dump
from .errors import LangError, ParseError, ProgramInvalidError
from .metrics import (
    DIFF_FUEL,
    differential_run,
    measure_image,
    worst_case_ratios,
)
from .outcomes import DEFAULT_FUEL, Completed, Errored, outcome_to_json
from .parser import parse
from .runtime import Interpreter
from .syntax import Program, pretty_program
from .validate import validate
from .values import render_value

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INVALID = 2
EXIT_IO = 3


def _read_source(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _parse_source(path: str, source: str) -> Program:
    try:
        return parse(source)
    except ParseError as err:
        print(f"{path}:{err}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _read_program(path: str) -> Program:
    return _parse_source(path, _read_source(path))


def _mode(args) -> CompileMode:
    if getattr(args, "no_protect", False):
        return CompileMode.BASELINE
    if getattr(args, "worst_case", False):
        return CompileMode.WORST_CASE
    return CompileMode.NORMAL


def _fuel(args, default: int) -> int:
    fuel, source = args.fuel, "--fuel"
    if fuel is None:
        source = "PROTOLITE_FUEL"
        env = os.environ.get(source)
        if env is None:
            return default
        try:
            fuel = int(env)
        except ValueError:
            print(f"error: {source} must be an integer, got {env!r}",
                  file=sys.stderr)
            raise SystemExit(EXIT_INVALID)
    if fuel < 0:
        print(f"error: {source} cannot be negative ({fuel})", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)
    return fuel


def _run_interpreter(args, image):
    interp = Interpreter(
        image,
        global_cache_on=not args.no_global_cache,
        inline_cache_on=not args.no_inline_cache,
        fuel=_fuel(args, DEFAULT_FUEL),
    )
    return interp, interp.run()


def cmd_run(args) -> int:
    image = compile_program(_read_program(args.file), _mode(args))
    interp, result = _run_interpreter(args, image)
    if args.json:
        payload = outcome_to_json(result.outcome)
        payload["steps"] = result.steps
        print(json.dumps(payload))
    if isinstance(result.outcome, Completed):
        if not args.json:
            print(render_value(result.outcome.value, interp.class_of_oid))
        return EXIT_OK
    if isinstance(result.outcome, Errored):
        if not args.json:
            reason = result.outcome.reason
            print(f"runtime error: {reason.kind}: {reason}", file=sys.stderr)
        return EXIT_RUNTIME
    if not args.json:
        print(f"fuel exhausted after {result.steps} steps", file=sys.stderr)
    return EXIT_RUNTIME


def cmd_check(args) -> int:
    program = _read_program(args.file)
    violations = validate(program)
    if args.json:
        print(json.dumps([
            {"rule": v.rule, "class": v.class_name, "member": v.member,
             "detail": v.detail}
            for v in violations
        ]))
    else:
        if not violations:
            print("ok")
        for v in violations:
            print(str(v))
    return EXIT_OK if not violations else EXIT_INVALID


def cmd_desugar(args) -> int:
    image = compile_program(_read_program(args.file), _mode(args))
    print(desugar_dump(image), end="")
    return EXIT_OK


def cmd_diff(args) -> int:
    from .generator import generate_program

    fuel = _fuel(args, DIFF_FUEL)
    if bool(args.seeds) == bool(args.file):
        both = ", not both" if args.file else ""
        print(f"error: give a file or --seeds{both}", file=sys.stderr)
        return EXIT_INVALID
    if args.seeds:
        try:
            lo, hi = args.seeds.split("..")
            seeds = range(int(lo), int(hi) + 1)
        except ValueError:
            seeds = range(0)
        if not seeds:
            print("error: --seeds expects a range like 0..999", file=sys.stderr)
            return EXIT_INVALID
        programs = ((str(s), generate_program(s)) for s in seeds)
    else:
        programs = [(args.file, _read_program(args.file))]

    disagreements = []
    mix: Counter[str] = Counter()
    steps: Counter[str] = Counter()  # reference steps per outcome kind
    for pid, program in programs:
        result = differential_run(program, fuel=fuel, program_id=pid)
        outcome = result.reference_outcome
        kind = (outcome.reason.kind if isinstance(outcome, Errored)
                else type(outcome).__name__)
        mix[kind] += 1
        steps[kind] += result.reference_steps
        if not result.agree:
            disagreements.append((pid, program, result))
    total = sum(mix.values())
    agreeing = total - len(disagreements)
    if args.json:
        print(json.dumps({
            "total": total,
            "agree": agreeing,
            "disagreements": [
                {"id": pid, "detail": r.detail}
                for pid, _, r in disagreements
            ],
            "outcomes": dict(mix.most_common()),
            "steps": {kind: steps[kind] for kind, _ in mix.most_common()},
        }))
    else:
        print(f"{agreeing}/{total} agree")
        if args.seeds:
            for kind, count in mix.most_common():
                print(f"  {kind}: {count}")
        for pid, program, result in disagreements:
            print(f"disagreement on {pid}: {result.detail}", file=sys.stderr)
            print("--- offending program ---", file=sys.stderr)
            print(pretty_program(program), file=sys.stderr)
    return EXIT_OK if not disagreements else EXIT_RUNTIME


def cmd_bench(args) -> int:
    program = _read_program(args.file)
    if args.repeat != 1:
        program = repeat_main(program, args.repeat)
    baseline, measured = bench_pair(program, BenchConfig(
        mode=_mode(args),
        invocations=args.invocations,
        iterations=args.iterations,
        warmup=args.warmup,
        global_cache_on=not args.no_global_cache,
        inline_cache_on=not args.no_inline_cache,
        fuel=_fuel(args, BENCH_FUEL),
    ))
    if args.json:
        print(json.dumps({"baseline": baseline.to_json(),
                          "measured": measured.to_json()}))
    else:
        _print_bench(baseline)
        _print_bench(measured)
    return EXIT_OK


def _print_bench(report: BenchReport) -> None:
    print(f"[{report.label}] median {report.median * 1e3:.3f} ms, "
          f"mean {report.mean * 1e3:.3f} ms over {len(report.samples)} samples "
          f"({report.invocations} invocations x {report.iterations} iterations, "
          f"{report.warmup} warm-up discarded)")
    if report.relative_overhead is not None:
        print(f"[{report.label}] overhead vs baseline: "
              f"{report.relative_overhead * 100:+.2f}%")


def cmd_stats(args) -> int:
    source = _read_source(args.file)
    t0 = time.perf_counter()
    program = _parse_source(args.file, source)
    t1 = time.perf_counter()
    image = compile_program(program, _mode(args))  # validates, then compiles
    t2 = time.perf_counter()
    interp, result = _run_interpreter(args, image)
    t3 = time.perf_counter()
    phases = {"parse": t1 - t0, "compile": t2 - t1, "run": t3 - t2}
    stats = result.stats
    memory = measure_image(image)
    ratios = worst_case_ratios(program)
    sites = interp.sites()
    if args.json:
        print(json.dumps({
            "cache": stats.to_json(),
            "memory": memory.to_json(),
            "worstCaseRatios": ratios.to_json(),
            "outcome": outcome_to_json(result.outcome),
            "steps": result.steps,
            "phases": phases,
            "sites": sites,
        }))
        return EXIT_OK
    print("phases: " + ", ".join(f"{name} {seconds * 1e3:.3f} ms"
                                 for name, seconds in phases.items()))
    total = stats.consultations
    print(f"global cache consultations: {total}")
    for i, hits in enumerate(stats.probe_hits, start=1):
        pct = 100.0 * hits / total if total else 0.0
        print(f"  probe {i} hits: {hits} ({pct:.1f}%)")
    miss_pct = 100.0 * stats.misses / total if total else 0.0
    print(f"  misses: {stats.misses} ({miss_pct:.1f}%)")
    print(f"distinct (class, selector) keys: {stats.distinct_keys}")
    print(f"inline caches: {stats.ic_monomorphic} monomorphic, "
          f"{stats.ic_polymorphic} polymorphic, "
          f"{stats.ic_megamorphic} megamorphic")
    for s in sites:
        where = ".".join(filter(None, (s["class"], s["method"])))
        receivers = f" ({', '.join(s['receivers'])})" if s["receivers"] else ""
        print(f"  site {s['site']} in {where} sends {s['selector']}: "
              f"{s['state']}{receivers}")
    print(f"dictionary entries: {memory.total_entries} "
          f"({json.dumps(memory.to_json()['perClassEntries'])})")
    print(f"symbols: {memory.plain_symbols} plain + "
          f"{memory.mangled_symbols} mangled")
    print(f"compiled methods: {memory.compiled_methods}")
    print(f"estimated bytes: {memory.estimated_bytes}")
    print(f"worst-case ratios vs mangling-free: "
          f"entries {ratios.entries:.2f}x, symbols {ratios.symbols:.2f}x, "
          f"bytes {ratios.estimated_bytes:.2f}x")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, cache_flags: bool = True,
                compile_flags: bool = True) -> None:
    p.add_argument("--fuel", type=int, default=None,
                   help="step budget (default PROTOLITE_FUEL, else the "
                        "command's own)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    if cache_flags:
        p.add_argument("--no-global-cache", action="store_true")
        p.add_argument("--no-inline-cache", action="store_true")
    if compile_flags:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--no-protect", action="store_true",
                           help="compile with mangling disabled")
        group.add_argument("--worst-case", action="store_true",
                           help="double-register every class's methods")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protolite",
        description="Toolchain for the protected-method language")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a program")
    p_run.add_argument("file")
    _add_common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_check = sub.add_parser("check", help="validate a program")
    p_check.add_argument("file")
    _add_common(p_check, cache_flags=False, compile_flags=False)
    p_check.set_defaults(fn=cmd_check)

    p_desugar = sub.add_parser("desugar", help="dump the compiled image")
    p_desugar.add_argument("file")
    _add_common(p_desugar, cache_flags=False)
    p_desugar.set_defaults(fn=cmd_desugar)

    p_diff = sub.add_parser("diff", help="differential reference-vs-runtime run")
    p_diff.add_argument("file", nargs="?")
    p_diff.add_argument("--seeds", help="seed range, e.g. 0..999")
    _add_common(p_diff, cache_flags=False, compile_flags=False)
    p_diff.set_defaults(fn=cmd_diff)

    p_bench = sub.add_parser("bench", help="benchmark against the baseline")
    p_bench.add_argument("file")
    p_bench.add_argument("--invocations", type=int, default=10)
    p_bench.add_argument("--iterations", type=int, default=15)
    p_bench.add_argument("--warmup", type=int, default=5)
    p_bench.add_argument("--repeat", type=int, default=1,
                         help="replicate the main expression N times")
    _add_common(p_bench)
    p_bench.set_defaults(fn=cmd_bench)

    p_stats = sub.add_parser("stats", help="cache and memory statistics")
    p_stats.add_argument("file")
    _add_common(p_stats)
    p_stats.set_defaults(fn=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout. Point it at the null device, so that
        # the flush at exit writes the rest nowhere instead of failing again.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return EXIT_IO
    except ProgramInvalidError as err:
        # compile_program validates; its refusal prints one violation per
        # line, as ``check`` does.
        for v in err.violations:
            print(str(v), file=sys.stderr)
        raise SystemExit(EXIT_INVALID)
    except LangError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
