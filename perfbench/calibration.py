"""A fixed pure-Python kernel that measures how fast the machine runs now.

On a shared machine other tenants slow every Python program by up to half,
for seconds or minutes at a time: on a 2-core VM, raw op times of the same
workload spread 20-85% from run to run. Timing this kernel right before each
op, and scaling the op's time by ``REFERENCE_S`` over the kernel's time,
removes that common factor: there, over ten seeds, median scaled op times
spread under 7% against 14-38% unscaled. The kernel imports nothing from
protolite, so a change to protolite cannot change it; it walks a small object
tree with dict and attribute traffic, as protolite's interpreters do.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# The kernel's time on an otherwise idle 2-core machine where it was sized;
# scaled times read as milliseconds on that machine when it is idle.
REFERENCE_S = 0.001
ROUNDS = 32


class _Node:
    __slots__ = ("kind", "value", "kids")

    def __init__(self, kind: str, value: int, kids: tuple = ()) -> None:
        self.kind = kind
        self.value = value
        self.kids = kids


def _tree(depth: int, i: int = 0) -> _Node:
    if depth == 0:
        return _Node("leaf", i)
    return _Node(("add", "let", "call")[i % 3], i,
                 (_tree(depth - 1, 2 * i + 1), _tree(depth - 1, 2 * i + 2)))


_TREE = _tree(7)


def _eval(node: _Node, env: dict) -> int:
    if node.kind == "leaf":
        return env.get(node.value & 7, node.value)
    left = _eval(node.kids[0], env)
    if node.kind == "let":
        env = dict(env)
        env[node.value & 7] = left
    return (left + _eval(node.kids[1], env)) & 0xFFFF


def kernel_seconds() -> float:
    start = perf_counter()
    for r in range(ROUNDS):
        _eval(_TREE, {r & 7: r})
    return perf_counter() - start


def scaled(times: list[float], kernels: list[float]) -> list[float]:
    """Each time scaled by the median kernel time of the nine nearest."""
    out = []
    for k, t in enumerate(times):
        window = kernels[max(0, k - 4):k + 5]
        out.append(t * REFERENCE_S / statistics.median(window))
    return out
