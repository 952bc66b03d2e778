#!/usr/bin/env python3
"""Install cost against program size: compile vs. one install on a leaf.

Builds binary class trees (class i extends class (i - 1) // 2); every class
defines one of eight one-argument selectors, and one class in sixteen makes
it protected, so a share of the tree is in the rewrite scope. Times
``compile_program`` on the tree and ``install_method`` of one public method
on its last class, a leaf, and prints the medians and their ratio. Each
repeat times one compile and then one install, so a burst of contention on
the machine falls on both sides of the ratio alike.

Usage:
    python scripts/bench_install.py --sizes 250 500 1000 2000 --repeats 5
"""

import argparse
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from protolite.compiler import compile_program, install_method
from protolite.syntax import (
    PROTECTED,
    PUBLIC,
    ClassDef,
    IntLit,
    MethodDef,
    Program,
    SelfRef,
    Send,
    Var,
)


def binary_tree(n: int) -> Program:
    classes = []
    for i in range(n):
        superclass = "Object" if i == 0 else f"C{(i - 1) // 2}"
        # The selector depends on the depth, so overrides keep their
        # visibility: a protected selector is protected wherever defined.
        depth = (i + 1).bit_length()
        visibility = PROTECTED if depth % 4 == 3 else PUBLIC
        body = Send(Send(SelfRef(), f"m{(depth + 1) % 8}", (Var("x"),)), "+",
                    (IntLit(1),))
        classes.append(ClassDef(f"C{i}", superclass, (), (
            MethodDef(f"m{depth % 8}", ("x",), body, visibility),)))
    return Program(tuple(classes), IntLit(0))


def median_seconds(fns, repeats: int) -> list[float]:
    """Median time of each of ``fns``, called in turn within each repeat."""
    times: list[list[float]] = [[] for _ in fns]
    for _ in range(repeats):
        for fn, fn_times in zip(fns, times):
            start = perf_counter()
            fn()
            fn_times.append(perf_counter() - start)
    return [statistics.median(fn_times) for fn_times in times]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[250, 500, 1000, 2000])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    print(f"{'classes':>8} {'compile ms':>11} {'install ms':>11} {'ratio':>7}")
    for n in args.sizes:
        program = binary_tree(n)
        image = compile_program(program)
        leaf = MethodDef("leaf", (), IntLit(1))
        compile_s, install_s = median_seconds(
            [lambda: compile_program(program),
             lambda: install_method(image, f"C{n - 1}", leaf)], args.repeats)
        print(f"{n:>8} {compile_s * 1e3:>11.2f} {install_s * 1e3:>11.3f} "
              f"{install_s / compile_s:>7.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
