"""Span timing around module functions, installed from outside the package.

A traced function is replaced, in every module namespace that holds it, by a
wrapper that records one span per call. Spans nest through a stack, so each
call's self time is its duration minus the part covered by traced calls it
made. Names are ``<layer>.<function>``; the layer is the text before the
first dot. Spans stay in memory as running totals and are read at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [name, start, time covered by children]
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.layer_busy: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self, name: str) -> None:
        popped, start, children = self._stack.pop()
        if popped != name:
            raise RuntimeError(f"span {name!r} closed while {popped!r} was open")
        duration = self.clock() - start
        self.calls[name] += 1
        self.self_time[name] += duration - children
        open_names = [frame[0] for frame in self._stack]
        if name not in open_names:  # an outer call of the same name already counts it
            self.busy[name] += duration
        layer = layer_of(name)
        if all(layer_of(n) != layer for n in open_names):
            self.layer_busy[layer] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, name: str, fn, count=None):
        """``fn`` with a span per call; ``count(args, kwargs)`` may return
        counter increments measured from the arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                for key, value in count(args, kwargs).items():
                    self.counters[key] += value
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(name)

        return traced

    def layer_self(self, layer: str) -> float:
        return sum((t for n, t in self.self_time.items() if layer_of(n) == layer), 0.0)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


@contextmanager
def installed(tracer: Tracer, targets, package: str):
    """Swap each ``(name, module, attribute, count)`` target for its traced
    wrapper in every loaded module of ``package`` that refers to it, and put
    the originals back on exit.

    Replacing by identity covers names imported with ``from x import f`` as
    well as calls through the defining module's globals.
    """
    modules = [
        m for key, m in list(sys.modules.items())
        if m is not None and (key == package or key.startswith(package + "."))
    ]
    undo = []
    try:
        for name, module, attribute, count in targets:
            original = getattr(module, attribute)
            wrapper = tracer.wrap(name, original, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        undo.append((m, key, original))
        yield tracer
    finally:
        for m, key, original in reversed(undo):
            setattr(m, key, original)
