#!/usr/bin/env python3
"""Lookup-overhead experiment: worst-case double registration vs baseline.

Runs a send-heavy deep-hierarchy workload under every compile mode and cache
configuration, printing medians, overhead relative to the mangling-free
baseline, and the cache counters of the last run of each cell.

Usage:
    python scripts/bench_overhead.py --depth 8 --repeats 150
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from protolite.bench import BenchConfig, bench_pair, deep_send_workload
from protolite.compiler import CompileMode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--depth", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=150)
    parser.add_argument("--invocations", type=int, default=10)
    parser.add_argument("--iterations", type=int, default=15)
    parser.add_argument("--warmup", type=int, default=5)
    args = parser.parse_args()

    workload = deep_send_workload(depth=args.depth, repeats=args.repeats,
                                  protected_levels=False)

    print(f"workload: chain depth {args.depth}, {args.repeats} send rounds "
          f"per iteration")
    for caches, gc_on, ic_on in (
        ("all caches on", True, True),
        ("global cache only", True, False),
        ("no caches", False, False),
    ):
        baseline, worst = bench_pair(workload, BenchConfig(
            mode=CompileMode.WORST_CASE, global_cache_on=gc_on,
            inline_cache_on=ic_on, invocations=args.invocations,
            iterations=args.iterations, warmup=args.warmup))
        print(f"\n[{caches}]")
        print(f"  baseline   median {baseline.median * 1e3:8.3f} ms  "
              f"mean {baseline.mean * 1e3:8.3f} ms")
        print(f"  worst-case median {worst.median * 1e3:8.3f} ms  "
              f"mean {worst.mean * 1e3:8.3f} ms  "
              f"overhead {worst.relative_overhead * 100:+.2f}%")
        stats = worst.cache_stats
        if gc_on:
            print(f"  worst-case cache: probes {list(stats.probe_hits)} "
                  f"misses {stats.misses} distinct keys {stats.distinct_keys}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
