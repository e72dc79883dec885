"""In-memory span recorder that wraps the package's public functions.

A span is opened around every call into a wrapped function and records
its name, start, end and parent span.  Functions are wrapped at the
attribute their caller looks up (a module global or a class attribute),
so the package itself is never edited.  A target that no longer exists
is reported as not wrapped instead of failing, so an API change shows
up as an unmeasured layer.

Self time is a span's duration minus the time its child spans cover.
Children never overlap (one thread), so covered time is the sum of their
durations.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "attrs": self.attrs}


class Tracer:
    """Records nested spans; ``wrap`` patches a call target to open one."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        assert popped == span.id, "spans closed out of order"

    def wrap(self, target: str, name, describe=None) -> bool:
        """Patch ``target`` ("module:attr" or "module:Class.attr"); False if it is missing.

        ``name`` is a span name or a callable ``(args, kwargs) -> name``.
        ``describe(args, kwargs, outcome)`` returns extra span attributes;
        ``outcome`` is the return value or the raised exception.
        """
        owner, attr = _resolve(target)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            return False
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name(args, kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span)
                if describe:
                    span.attrs.update(describe(args, kwargs, exc))
                raise
            tracer.close(span)
            if describe:
                span.attrs.update(describe(args, kwargs, result))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        return True

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        self.spans.clear()


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, path
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the summed durations of its children."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.duration
    return out


def subtree(spans: list[Span], root: Span) -> list[Span]:
    """``root`` and every span opened beneath it (spans are in open order)."""
    inside = {root.id}
    out = [root]
    for s in spans[root.id + 1:]:
        if s.parent in inside:
            inside.add(s.id)
            out.append(s)
    return out
