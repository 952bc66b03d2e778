#!/usr/bin/env python3
"""protolite's end-to-end benchmark, one workload per invocation.

    python3 perfbench/run.py --workload dispatch_mono --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` there
and nowhere else, so a directory without the sources fails (exit 2) instead of
measuring some installed copy. One process, one client, closed loop: the next
op starts when the previous one returns.

An op on ``dispatch_mono``, ``dispatch_mega`` and ``compile_large`` is
``parse -> validate -> compile_program (-> install_method) -> run_image`` on
one source text, in the default configuration (NORMAL mode, both caches on):
``protolite run`` without process start. An op on ``fuzz_diff`` is
``generate_program(seed) -> differential_run``: ``protolite diff --seeds``
on programs without protected methods (see ``workloads.FUZZ_CONFIG``).
Every op's output is checked against an expected value that does not come
from the runtime under test (see ``workloads.py``); an op that raises or
gives a wrong answer counts as failed and is reported, never skipped.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones; both read their names and units from ``BENCHMARK.json``. The last line
of standard output is the result object; the line before it is a report
(environment, sample counts, failures, outcome mix). A traced run also
writes its spans to ``.perfbench-out/``. ``perfbench/README.md`` says what
each metric means and which end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def import_checkout_package() -> None:
    """Import protolite from this checkout's ``src/``, or exit 2."""
    if not (SRC / "protolite" / "__init__.py").is_file():
        print(f"error: no protolite sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import protolite
    if Path(protolite.__file__).resolve().parent != SRC / "protolite":
        print(f"error: imported protolite from {protolite.__file__}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(BENCH))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_checkout_package()
    import harness

    workloads = harness.all_workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads)}")
    workload = workloads[args.workload]
    specs = harness.metric_specs("per_layer" if args.trace else "end_to_end")

    outcomes = harness.Outcomes()
    report: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "env_start": harness.environment()}
    if args.trace:
        values = harness.per_layer(args, workload, outcomes, report)
    else:
        values = harness.end_to_end(args, workload, outcomes, report)
    report["env_end"] = harness.environment()
    report["attempted"] = outcomes.attempted
    report["failed"] = outcomes.failed
    report["failures"] = outcomes.failures
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
