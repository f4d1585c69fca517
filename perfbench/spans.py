"""In-memory span recorder that traces a package from outside it.

The recorder wraps callables at the names their callers look them up by:
module-level bindings (a function imported by name into another module is a
separate binding there) and methods on classes.  Each call becomes one span
with its layer, name, parent span, start and end.  Nothing here knows about
the package being traced; ``layers.py`` says what to wrap and how to read it.
"""
from __future__ import annotations

import time
import types
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Span:
    """One recorded call.  ``parent`` is the index of the enclosing span or None."""

    __slots__ = ("layer", "name", "parent", "start", "end", "attrs")

    def __init__(self, layer: str, name: str, parent: Optional[int], start: float, end: float = 0.0, attrs=None):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "layer": self.layer,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


# A hook reads a few small attributes off one call: (recorder, args, kwargs, result) -> dict.
Hook = Callable[["SpanRecorder", tuple, dict, object], dict]


class SpanRecorder:
    """Keeps spans in call order, plus the objects hooks marked (see ``mark``)."""

    def __init__(self):
        self.spans: List[Span] = []
        self.marked: Dict[int, object] = {}
        self._stack: List[int] = []

    def mark(self, obj) -> None:
        """Remember ``obj`` by id; holding it keeps the id from being reused."""
        self.marked[id(obj)] = obj

    def wrap(self, fn: Callable, layer: str, name: str, hook: Optional[Hook] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(layer, name, stack[-1] if stack else None, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                span.attrs = hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def public_functions(module: types.ModuleType, package: str) -> Iterable[Tuple[str, types.FunctionType]]:
    """Public module-level functions bound in ``module`` and defined inside ``package``."""
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or not isinstance(obj, types.FunctionType):
            continue
        if obj.__module__ == package or obj.__module__.startswith(package + "."):
            yield name, obj


class Patches:
    """Install wrappers over bindings and put every original back on exit.

    ``targets`` lists ``(owner, attribute, layer, hook)``; the owner is a
    module or a class.  Bindings are restored in reverse order, so a binding
    listed twice still ends as it was found.
    """

    def __init__(self, recorder: SpanRecorder, targets: Sequence[tuple]):
        self.recorder = recorder
        self.targets = list(targets)
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Patches":
        try:
            for owner, attr, layer, hook in self.targets:
                original = vars(owner)[attr]
                name = getattr(original, "__qualname__", attr)
                setattr(owner, attr, self.recorder.wrap(original, layer, name, hook))
                self._saved.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
