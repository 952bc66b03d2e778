#!/usr/bin/env python3
"""Run the benchmark over several seeds, workloads interleaved, and report
each end-to-end metric's median and quartile spread against its bound.

    python3 perfbench/sweep.py --seeds 1-10 [--sets 2] [--workloads a,b]

Each repetition runs every workload once, in an order rotated by one per
repetition, so slow drift in the machine falls on all workloads alike. With
``--sets 2`` the seed list is run twice and the second set's medians are
compared with the first's. The spread of a metric is the distance between
its first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of its median; a steady benchmark keeps it under a third of the
metric's bound. A JSON summary, with every run's report (its environment
included), goes to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
TIMEOUT_S = 900


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = json.loads(lines[-2])["report"]
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, ((q3 - q1) / median if median else 0.0)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    seeds = _seeds(args.seeds)
    results: dict = {w: [[] for _ in range(args.sets)] for w in workloads}
    runs = 0
    for s in range(args.sets):
        for i, seed in enumerate(seeds):
            order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
            for w in order:
                start = time.perf_counter()
                try:
                    out = run_once(w, seed, args.seconds, args.trace)
                except (RuntimeError, subprocess.TimeoutExpired) as err:
                    print(f"set {s} seed {seed} {w}: {err}", flush=True)
                    continue
                runs += 1
                results[w][s].append(out)
                print(f"set {s} seed {seed} {w}: {time.perf_counter() - start:.1f}s "
                      f"correct={out['correct']} failed={out['failed']}/"
                      f"{out['attempted']}", flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower"
                       for m in spec["end_to_end"] + spec["per_layer"]}
    summary: dict = {"seeds": seeds, "seconds": args.seconds,
                     "trace": args.trace, "runs": runs, "workloads": {},
                     "reports": {w: [[r["report"] for r in per_set]
                                     for per_set in results[w]]
                                 for w in workloads}}
    all_steady = True
    for w in workloads:
        rows = {}
        if not results[w][0]:
            continue
        names = results[w][0][0]["metrics"].keys()
        for name in names:
            sets = [[r["metrics"][name]["value"] for r in results[w][s]]
                    for s in range(args.sets)]
            stats = [spread(v) for v in sets]
            bound = bounds.get(name)
            row = {"values": sets, "medians": [m for m, _ in stats],
                   "spreads": [sp for _, sp in stats], "bound": bound}
            # How much worse each later set's median is than the first's.
            first = stats[0][0]
            row["worse_than_first"] = [
                ((m - first) if lower_is_better[name] else (first - m))
                / first if first else 0.0 for m, _ in stats[1:]]
            if bound is not None:
                row["steady"] = all(sp <= bound / 3 for _, sp in stats) \
                    and all(x <= bound for x in row["worse_than_first"])
                all_steady &= row["steady"]
            rows[name] = row
            print(f"{w:14s} {name:28s} medians "
                  + " ".join(f"{m:12.5g}" for m, _ in stats)
                  + "  spreads " + " ".join(f"{sp:7.4f}" for _, sp in stats)
                  + "".join(f"  worse {x:+.4f}" for x in row["worse_than_first"])
                  + (f"  bound {bound}" if bound is not None else ""))
        summary["workloads"][w] = rows
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"sweep-{int(time.time())}.json"
    path.write_text(json.dumps(summary, indent=1))
    print(f"summary: {path.relative_to(ROOT)}; steady={all_steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
