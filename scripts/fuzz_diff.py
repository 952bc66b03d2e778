#!/usr/bin/env python3
"""Differential fuzzing sweep: reference evaluator vs compiled runtime.

Generates seeded random programs, runs both evaluators on each, and reports
agreement plus the outcome mix. Protected-free seeds additionally get the
three-way check against the mangling-free baseline compile. Any disagreement
dumps the offending program source for reproduction.

Usage:
    python scripts/fuzz_diff.py --seeds 2000 --fuel 3000
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from protolite.generator import GeneratorConfig, generate_program
from protolite.metrics import differential_run, protected_free_three_way
from protolite.outcomes import Errored
from protolite.syntax import pretty_program


def outcome_label(outcome) -> str:
    if isinstance(outcome, Errored):
        return f"error:{outcome.reason.kind}"
    return type(outcome).__name__.lower()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=1000)
    parser.add_argument("--fuel", type=int, default=3_000)
    parser.add_argument("--protected-free", type=int, default=300,
                        help="extra seeds run without protected methods, "
                             "checked three ways")
    args = parser.parse_args()

    started = time.perf_counter()
    mix: Counter = Counter()
    failures = 0

    for seed in range(args.seeds):
        result = differential_run(generate_program(seed), fuel=args.fuel,
                                  program_id=str(seed))
        mix[outcome_label(result.reference_outcome)] += 1
        if not result.agree:
            failures += 1
            print(f"DISAGREEMENT seed={seed}: {result.detail}")
            print(pretty_program(generate_program(seed)))

    free_config = GeneratorConfig(allow_protected=False)
    for seed in range(args.protected_free):
        program = generate_program(seed, free_config)
        result = protected_free_three_way(program, fuel=args.fuel,
                                          program_id=f"free-{seed}")
        if not (result.diff.agree and result.baseline_agrees
                and result.dictionaries_equal):
            failures += 1
            print(f"THREE-WAY DISAGREEMENT seed={seed}")
            print(pretty_program(program))

    elapsed = time.perf_counter() - started
    total = args.seeds + args.protected_free
    print(f"{total - failures}/{total} agree in {elapsed:.1f}s")
    for label, count in mix.most_common():
        print(f"  {label}: {count}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
