"""Spans around the calls into each protolite module, and chain-walk counts.

The benchmark calls the package through an ``api`` namespace. Untraced, it
holds the package's own functions. Traced, each function is wrapped in a span,
and the module-level names through which one module calls another
(``compiler.validate``; ``metrics.eval_program``, ``compile_program`` and
``run_image`` inside ``differential_run``) are rebound to wrapped versions for
the duration of a ``with`` block and restored after it. Nothing inside the
package changes.

A span is ``[name, start, end, parent index, op id]``; spans live in memory in
one list and are written out when the run ends. Span names are
``<module>.<function>``; the module part names the layer.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
from time import perf_counter
from types import SimpleNamespace


def _module(name: str):
    # importlib, not attribute access: the package re-exports the function
    # ``validate`` under the name of its module.
    return importlib.import_module(f"protolite.{name}")


# (api attribute, module, span name) for calls the benchmark makes itself.
BENCH_CALLS = (
    ("parse", _module("parser"), "parser.parse"),
    ("validate", _module("validate"), "validate.validate"),
    ("compile_program", _module("compiler"), "compiler.compile_program"),
    ("install_method", _module("compiler"), "compiler.install_method"),
    ("run_image", _module("runtime"), "runtime.run_image"),
    ("generate_program", _module("generator"), "generator.generate_program"),
    ("differential_run", _module("metrics"), "metrics.differential_run"),
)

# (calling module, global name, span name) for calls between modules.
INTERNAL_CALLS = (
    (_module("compiler"), "validate", "validate.validate"),
    (_module("metrics"), "eval_program", "reference.eval_program"),
    (_module("metrics"), "compile_program", "compiler.compile_program"),
    (_module("metrics"), "run_image", "runtime.run_image"),
)

OP_SPAN = "bench.op"


def plain_api() -> SimpleNamespace:
    return SimpleNamespace(**{attr: getattr(module, attr)
                              for attr, module, _ in BENCH_CALLS})


class Tracer:
    """Records spans and keeps the last result of each traced function."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.last: dict[str, object] = {}
        self.op_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, last = self.spans, self._stack, self.last

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          self.op_id])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = spans[index]
                span[1] = start
                span[2] = end
            last[name] = result
            return result

        return traced

    @contextlib.contextmanager
    def instrumented(self):
        """Yield a traced api; rebind inter-module calls while inside."""
        saved = [(module, attr, getattr(module, attr))
                 for module, attr, _ in INTERNAL_CALLS]
        for (module, attr, name), (_, _, fn) in zip(INTERNAL_CALLS, saved):
            setattr(module, attr, self.wrap(name, fn))
        try:
            yield SimpleNamespace(**{
                attr: self.wrap(name, getattr(module, attr))
                for attr, module, name in BENCH_CALLS})
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: duration minus what child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for (_, start, end, parent, _) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, _, _, _, _), seconds in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans
                   if n == name)


class ChainWalks:
    """Counts, depths and time of the chain walks behind global-cache misses.

    Rebinds ``protolite.runtime.cached_lookup`` and ``default_lookup`` while
    active. Only walks made from inside ``cached_lookup`` count: with the
    global cache on, the interpreter calls ``default_lookup`` directly only
    for the shadow check of ``differential_run``, which is not a lookup the
    runtime needs. Depth is the number of classes inspected, taken from the
    image's superclass links.
    """

    def __init__(self) -> None:
        self.depths: list[int] = []
        self.seconds = 0.0
        self._inside_cache = False

    @contextlib.contextmanager
    def hooked(self):
        rt = _module("runtime")
        default_lookup, cached_lookup = rt.default_lookup, rt.cached_lookup

        def walk(class_name, selector, image):
            if not self._inside_cache:
                return default_lookup(class_name, selector, image)
            start = perf_counter()
            found = default_lookup(class_name, selector, image)
            self.seconds += perf_counter() - start
            self.depths.append(_depth(image, class_name, found))
            return found

        def cached(class_name, selector, cache, image):
            self._inside_cache = True
            try:
                return cached_lookup(class_name, selector, cache, image)
            finally:
                self._inside_cache = False

        rt.default_lookup, rt.cached_lookup = walk, cached
        try:
            yield self
        finally:
            rt.default_lookup, rt.cached_lookup = default_lookup, cached_lookup

    def histogram(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for d in self.depths:
            out[d] = out.get(d, 0) + 1
        return dict(sorted(out.items()))

    def median_depth(self) -> float:
        return statistics.median(self.depths) if self.depths else 0.0


def _depth(image, class_name: str, found) -> int:
    stop = found[1] if found is not None else None
    depth = 1
    cursor = class_name
    while cursor != stop:
        cursor = image.classes[cursor].superclass
        if cursor is None:
            break
        depth += 1
    return depth
