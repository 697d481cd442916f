"""Span tracing of the library's layers, applied from outside the program.

``Tracer.install`` replaces each layer function named in ``LAYERS`` at every
module-level binding inside the ``magicborders`` package that refers to it
(``assemble.build_border``, ``corners.search_first``, ``cli.verify_bordered``
and so on) with a wrapper that records a span: name, start, end, parent
span and request.  Generator functions get one span per resume, so the time
a consumer spends between items is not charged to them.  ``uninstall``
puts every original binding back.  A layer that a refactor removes is simply
not wrapped and reports 0 calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

PACKAGE = "magicborders"

# (module, function) pairs; the metric prefix is "<module>.<function>".
LAYERS = (
    ("cli", "main"),
    ("assemble", "build_square"),
    ("assemble", "render_frame"),
    ("construct", "build_border"),
    ("verify", "verify_bordered"),
    ("verify", "verify_square"),
    ("verify", "verify_border"),
    ("documents", "serialize_grid"),
    ("documents", "parse_document"),
    ("documents", "serialize_plan"),
    ("corners", "construct_with_corners"),
    ("corners", "extend_border"),
    ("corners", "seed_order_m"),
    ("transform", "apply_symmetry"),
    ("enumeration", "search_first"),
    ("enumeration", "enumerate_omega"),
)

SEARCH_LAYER = "enumeration.search_first"
COUNTERS = ("verify.cells_checked", "documents.bytes_out", "enumeration.solutions")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_share", "_ratio")):
        return "ratio"
    return "bytes" if metric.endswith("bytes_out") else "count"


def _grid_cells(args) -> int:
    return len(args[0]) ** 2 if args else 0


def _text_bytes(result) -> int:
    return len(result.encode()) if isinstance(result, str) else 0


# layer -> (counter, function of (args, result) giving the amount to add)
_CALL_COUNTERS = {
    "verify.verify_square": ("verify.cells_checked", lambda args, result: _grid_cells(args)),
    "verify.verify_bordered": ("verify.cells_checked", lambda args, result: _grid_cells(args)),
    "documents.serialize_grid": ("documents.bytes_out", lambda args, result: _text_bytes(result)),
    "documents.serialize_plan": ("documents.bytes_out", lambda args, result: _text_bytes(result)),
}
# generator layer -> counter incremented once per yielded item
_ITEM_COUNTERS = {"enumeration.enumerate_omega": "enumeration.solutions"}


class Tracer:
    """Collects spans in memory; one instance per traced pass or test."""

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.request = -1
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        # one entry per span, in opening order
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.nested: list[bool] = []  # inside a span of the same name (recursion)
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # --- installation ----------------------------------------------------

    def _modules(self):
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> "Tracer":
        modules = self._modules()
        for module_name, func_name in self.layers:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, func_name, None)
            if not callable(original):
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.nested.append(self._active[name] > 0)
        self.ends.append(0.0)
        self._active[name] += 1
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()
        self._active[self.names[index]] -= 1

    def _wrap(self, name: str, func):
        if inspect.isgeneratorfunction(func):
            item_counter = _ITEM_COUNTERS.get(name)

            @functools.wraps(func)
            def generator_wrapper(*args, **kwargs):
                self.calls[name] += 1
                return self._resumes(name, func(*args, **kwargs), item_counter)

            return generator_wrapper

        counter = _CALL_COUNTERS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            index = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, result)
            return result

        return wrapper

    def _resumes(self, name: str, generator, item_counter: str | None):
        try:
            while True:
                index = self._open(name)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                if item_counter is not None:
                    self.counters[item_counter] += 1
                yield item
        finally:
            generator.close()

    # --- summaries -------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer calls, self and total seconds, counters and search share.

        Self time is a span's duration minus the durations of its direct
        children.  Total time counts only spans not nested in a span of the
        same name, so recursion is not double counted.
        """
        count = len(self.names)
        child_time = [0.0] * count
        for index in range(count):
            parent = self.parents[index]
            if parent >= 0:
                child_time[parent] += self.ends[index] - self.starts[index]
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for index in range(count):
            name = self.names[index]
            duration = self.ends[index] - self.starts[index]
            self_s[name] += duration - child_time[index]
            if not self.nested[index]:
                total_s[name] += duration
        metrics: dict[str, float] = {}
        for module_name, func_name in self.layers:
            name = f"{module_name}.{func_name}"
            metrics[f"{name}.calls"] = self.calls[name]
            metrics[f"{name}.self_s"] = self_s[name]
            metrics[f"{name}.total_s"] = total_s[name]
        for counter in COUNTERS:
            metrics[counter] = self.counters[counter]
        requests = set(self.requests)
        searched = {r for r, n in zip(self.requests, self.names) if n == SEARCH_LAYER}
        metrics["corners.search_share"] = len(searched) / len(requests) if requests else 0.0
        return metrics
