"""Spans around the library's public functions, recorded from outside.

``Tracer.install(modules)`` replaces every public function attribute of
the given modules with a wrapper that records a span: name, start, end,
parent and the class of any exception that escaped.  A module looks its
functions up by name in its own namespace, and other modules reach them
as attributes (``weyl.longest_element``), so calls from inside the
library are caught as well as the benchmark's own; private helpers are
not wrapped.  A generator function gets one span per item it yields.
Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from typing import NamedTuple


class Span(NamedTuple):
    name: str  # "module.function"
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    error: str | None  # class name of the exception that escaped


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _call(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        error = None
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, error)

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    try:
                        item = self._call(name, next, (items,), {})
                    except StopIteration:
                        return
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return wrapper

    def install(self, modules) -> None:
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # imported from elsewhere; wrapped in its own module
                self._saved.append((module, attr, obj))
                setattr(module, attr, self._wrap(f"{short}.{attr}", obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def write(self, path) -> None:
        """Gzipped JSON lines: the field names, then one list per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(Span._fields) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for start, end in sorted((spans[k].start, spans[k].end) for k in kids):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def module_summary(spans, rejection_errors) -> dict[str, dict[str, float]]:
    """Per module: self time, span count, and rejections it originated.

    A rejection is a call from outside the library (a span without a
    parent) that raised one of ``rejection_errors`` (class names).  It is
    counted for the module of the innermost span the exception came out
    of; exceptions the library raises and catches itself are not counted.
    """
    raised_in: dict[int, int] = {}  # span -> its last child that raised
    for index, span in enumerate(spans):
        if span.error is not None and span.parent is not None:
            raised_in[span.parent] = index
    out: dict[str, dict[str, float]] = {}

    def entry(span):
        return out.setdefault(span.name.split(".")[0], {"self_s": 0.0, "calls": 0, "rejected": 0})

    for span, own in zip(spans, self_times(spans)):
        entry(span)["self_s"] += own
        entry(span)["calls"] += 1
    for index, span in enumerate(spans):
        if span.parent is None and span.error in rejection_errors:
            while index in raised_in and spans[raised_in[index]].error == span.error:
                index = raised_in[index]
            entry(spans[index])["rejected"] += 1
    return out
