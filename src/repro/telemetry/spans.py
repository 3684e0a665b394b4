"""Nested wall-clock spans forming a run-scoped trace tree.

A :class:`Span` always measures wall time (cheap: two
``perf_counter`` calls), so callers can time with it whether or not
telemetry is enabled. When telemetry *is* enabled, the span also
attaches itself to a process-local trace tree: same-named spans under
the same parent accumulate (seconds sum, count increments), so loops
produce one bounded node instead of one node per iteration.

Use as a context manager or decorator::

    with span("sweep.fig7") as sp:
        run_sweep()
    print(sp.seconds)

    @timed("routing.table_build")
    def build(): ...

The tree is exported by :mod:`repro.telemetry.export` (JSONL records
and a flattened ``span`` table) and cleared with :func:`clear`.
"""

from __future__ import annotations

import functools
import threading
import time

from repro.telemetry import registry as _registry

__all__ = ["Span", "span", "timed", "trace_tree", "span_rows", "clear"]


class _Node:
    """One accumulated trace-tree node."""

    __slots__ = ("name", "seconds", "count", "children")

    def __init__(self, name: str):
        self.name = name
        self.seconds = 0.0
        self.count = 0
        self.children: dict[str, _Node] = {}

    def as_dict(self) -> dict:
        d = {"name": self.name, "seconds": self.seconds, "count": self.count}
        if self.children:
            d["children"] = [c.as_dict() for c in self.children.values()]
        return d


_roots: dict[str, _Node] = {}
_local = threading.local()


def _stack() -> list[_Node]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


class Span:
    """Times one ``with`` block; attaches to the trace tree when enabled."""

    __slots__ = ("name", "seconds", "_t0", "_pushed")

    def __init__(self, name: str):
        self.name = name
        self.seconds = 0.0
        self._t0 = 0.0
        self._pushed = False

    def __enter__(self) -> "Span":
        if _registry.enabled():
            stack = _stack()
            parent = stack[-1].children if stack else _roots
            node = parent.get(self.name)
            if node is None:
                node = parent[self.name] = _Node(self.name)
            stack.append(node)
            self._pushed = True
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self._t0
        if self._pushed:
            node = _stack().pop()
            node.seconds += self.seconds
            node.count += 1
            self._pushed = False
        return None


def span(name: str) -> Span:
    """A fresh :class:`Span` (context manager) named ``name``."""
    return Span(name)


def timed(name: str | None = None):
    """Decorator wrapping a function call in a span (default: qualname)."""

    def deco(fn):
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with Span(label):
                return fn(*args, **kwargs)

        return wrapper

    return deco


def trace_tree() -> list[dict]:
    """The accumulated trace tree as JSON-ready dicts."""
    return [n.as_dict() for n in _roots.values()]


def span_rows() -> list[tuple[str, float, int]]:
    """Flattened ``(path, seconds, count)`` rows, depth-first."""
    rows: list[tuple[str, float, int]] = []

    def walk(node: _Node, prefix: str) -> None:
        path = f"{prefix}/{node.name}" if prefix else node.name
        rows.append((path, node.seconds, node.count))
        for child in node.children.values():
            walk(child, path)

    for root in _roots.values():
        walk(root, "")
    return rows


def clear() -> None:
    """Drop the trace tree (open spans keep timing but re-root)."""
    _roots.clear()
    if getattr(_local, "stack", None):
        _local.stack = []
