"""Span tracer for qpamp, installed from outside the package.

`Tracer.install` replaces every public function of the seven qpamp layers
(the names in each module's ``__all__``) with a timing wrapper, at every
place the name is bound inside ``qpamp``: ``qpamp.sweep.three_wave_strength``
is patched as well as ``qpamp.resonator.three_wave_strength``, so calls made
through a module global (the ``charge`` integrand looks ``capacitance`` up
at call time) are seen too.  No file of the package changes.

Spans are kept in memory as ``[layer, name, start, end, parent]`` lists.
Each thread has its own span stack; a span opened on a sweep worker thread
with an empty stack takes as parent the innermost span open on the main
thread, which is the ``sweep`` call that owns the thread pool.

`summarize` turns the spans of one operation into per-layer calls and self
time, where self time is a span's duration minus the part of it that its
child spans cover.  Children on parallel worker threads can overlap; the
overlap is reported as ``concurrent_s``, so that

    sum(layer self) + root self == root duration + concurrent_s.
"""

from __future__ import annotations

import copy
import functools
import importlib
import sys
import threading
import time
import types

LAYERS = ("material", "varactor", "resonator", "amplifier", "sweep", "config", "cli")

# (child name, parent name) pairs counted per parent call.
RATIO_EDGES = {
    "objective_evals_per_optimum": ("three_wave_strength", "maximize_3wm"),
    "root_evals_per_profile": ("reflection", "profile_from_rates"),
    "integrand_evals_per_charge": ("capacitance", "charge"),
    "charge_calls_per_inversion": ("charge", "voltage_from_charge"),
}

ROOT = "op"


class Tracer:
    """Collects spans from wrapped qpamp functions while installed."""

    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list = []
        self._patched: list = []

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, func):
        name = func.__name__
        spans = self.spans
        clock = time.perf_counter
        main_stack = self._main_stack
        stack_of = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else None
            span = [layer, name, 0.0, 0.0, parent]
            spans.append(span)
            stack.append(span)
            span[2] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Patch every binding of every public layer function inside qpamp."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qpamp.{layer}")
            for name in module.__all__:
                func = getattr(module, name)
                if isinstance(func, types.FunctionType) and func not in wrappers:
                    wrappers[func] = self._wrap(layer, func)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "qpamp" or mod_name.startswith("qpamp.")):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def open_root(self) -> list:
        """Open the operation's root span on the main thread."""
        span = [ROOT, ROOT, 0.0, 0.0, None]
        self.spans.append(span)
        self._main_stack.append(span)
        span[2] = time.perf_counter()
        return span

    def close_root(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._main_stack.pop()

    def take(self) -> list:
        spans, self.spans[:] = list(self.spans), []
        return spans


def _covered(intervals: list) -> float:
    intervals.sort()
    total = 0.0
    start, end = intervals[0]
    for lo, hi in intervals[1:]:
        if lo > end:
            total += end - start
            start, end = lo, hi
        elif hi > end:
            end = hi
    return total + end - start


def summarize(spans: list) -> dict:
    """Per-layer calls and self time of one traced operation.

    Returns a dict with ``layers`` (layer -> [calls, self_s]),
    ``root_self_s`` (the root span's own time: benchmark code outside any
    layer call), ``root_s``, ``concurrent_s`` and ``edges`` (the counts
    behind `RATIO_EDGES`, as [child calls under parent, parent calls]).
    """
    children: dict = {}
    for span in spans:
        parent = span[4]
        if parent is not None:
            children.setdefault(id(parent), []).append(span)
    layers = {layer: [0, 0.0] for layer in LAYERS}
    edges = {key: [0, 0] for key in RATIO_EDGES}
    root_self = root_total = concurrent = 0.0
    for span in spans:
        duration = span[3] - span[2]
        kids = children.get(id(span), ())
        if kids:
            covered = _covered([(k[2], k[3]) for k in kids])
            concurrent += sum(k[3] - k[2] for k in kids) - covered
        else:
            covered = 0.0
        if span[0] == ROOT:
            root_self += duration - covered
            root_total += duration
            continue
        entry = layers[span[0]]
        entry[0] += 1
        entry[1] += duration - covered
        parent = span[4]
        for key, (child_name, parent_name) in RATIO_EDGES.items():
            if span[1] == parent_name:
                edges[key][1] += 1
            elif span[1] == child_name and parent is not None and parent[1] == parent_name:
                edges[key][0] += 1
    return {
        "layers": layers,
        "root_self_s": root_self,
        "root_s": root_total,
        "concurrent_s": concurrent,
        "edges": edges,
    }


def merge(total: dict | None, part: dict) -> dict:
    """Add one `summarize` result into a running total (returned)."""
    if total is None:
        return copy.deepcopy(part)
    for layer, (calls, self_s) in part["layers"].items():
        total["layers"][layer][0] += calls
        total["layers"][layer][1] += self_s
    for key, (num, den) in part["edges"].items():
        total["edges"][key][0] += num
        total["edges"][key][1] += den
    for key in ("root_self_s", "root_s", "concurrent_s"):
        total[key] += part[key]
    return total
