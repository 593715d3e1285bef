"""Span recorder for the traced run.

Wraps the public functions of each entroprec layer from outside (nothing in
the package changes), records one span per call (name, start, end, parent)
in memory, and restores every patched attribute when the context ends.
"""

from __future__ import annotations

import functools
import inspect
import json
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("core", "channels", "protocol", "charfunc", "reconstruct", "experiments", "cli")
# Public methods traced in addition to module-level functions.
METHODS = (("channels", "QuantumChannel", "apply_matrix"), ("experiments", "SweepReport", "rows"))


class SpanRecorder:
    """In-memory spans as [name, start, end, parent index] (-1 for a root)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index][1:3] = (start, end)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def _targets(package):
    """(span name, original) for each public function and traced method."""
    for layer in LAYERS:
        module = getattr(package, layer)
        for name, obj in vars(module).items():
            public = not name.startswith("_")
            if public and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield f"{layer}.{name}", obj
    for layer, cls, method in METHODS:
        yield f"{layer}.{cls}.{method}", vars(getattr(getattr(package, layer), cls))[method]


@contextmanager
def instrument(recorder: SpanRecorder, package):
    """Trace every layer of ``package`` while the context is open.

    A function is replaced under every module name that refers to it (modules
    import each other's functions by name), so calls across layers are traced
    too. All replaced attributes are put back on exit, also after an error.
    """
    wrapped = {id(fn): recorder.wrap(name, fn) for name, fn in _targets(package)}
    patched = []
    try:
        for module in [package] + [getattr(package, layer) for layer in LAYERS]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)])
        for layer, cls_name, method in METHODS:
            cls = getattr(getattr(package, layer), cls_name)
            original = vars(cls)[method]
            patched.append((cls, method, original))
            setattr(cls, method, wrapped[id(original)])
        yield recorder
    finally:
        for owner, attr, value in reversed(patched):
            setattr(owner, attr, value)
