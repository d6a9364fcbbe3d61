"""In-memory span recording around the service's public entry points.

A span is ``(name, start, end, parent, request, thread, attrs)`` with
``perf_counter`` seconds.  Spans nest through a per-thread stack: the span
open on the calling thread when a wrapped call starts is its parent, and a
root span opens a new request id on that thread.  Spans stay in memory and
are written out once, at the end of a run (:meth:`SpanRecorder.dump`).

Wrapping is done from the benchmark's side only: :func:`wrap_attr`
replaces an attribute (a module function, a class method or a bound
method on one instance) with a recording wrapper.  Nothing in the
program's source changes.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections.abc import Callable
from typing import Any

_clock = time.perf_counter


class SpanRecorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._next_request = 0
        self.spans: list[list[Any]] = []

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: dict[str, Any] | None = None) -> list[Any]:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            if stack:
                request = stack[-1][4]
            else:
                request = self._next_request
                self._next_request += 1
        parent = stack[-1][0] if stack else None
        # [id, name, start, end, request, parent, thread, attrs]
        span = [span_id, name, _clock(), None, request, parent,
                threading.current_thread().name, attrs or {}]
        stack.append(span)
        return span

    def close(self, span: list[Any]) -> None:
        span[3] = _clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def dump(self, path: str) -> None:
        """Write every closed span as JSON (atomically: write then rename)."""
        with self._lock:
            rows = [
                {
                    "id": s[0], "name": s[1], "start": s[2], "end": s[3],
                    "request": s[4], "parent": s[5], "thread": s[6],
                    "attrs": s[7],
                }
                for s in self.spans
            ]
        scratch = path + ".tmp"
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": rows}, handle)
        os.replace(scratch, path)


def wrap_attr(
    recorder: SpanRecorder,
    owner: Any,
    attr: str,
    name: str | Callable[..., str],
    attrs: Callable[..., dict[str, Any]] | None = None,
    after: Callable[[dict[str, Any], Any, tuple, dict], None] | None = None,
) -> None:
    """Replace ``owner.attr`` with a wrapper recording one span per call.

    ``name`` may be a callable of the call's arguments (to name a span by
    op or thread); ``attrs`` computes span attributes before the call and
    ``after(span_attrs, result, args, kwargs)`` may add more once it
    returns.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span_name = name(*args, **kwargs) if callable(name) else name
        span = recorder.open(span_name, attrs(*args, **kwargs) if attrs else None)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            after(span[7], result, args, kwargs)
        return result

    setattr(owner, attr, wrapper)


def wrap_generator(recorder: SpanRecorder, owner: Any, attr: str, name: str) -> None:
    """Wrap a generator function: one span per ``next()`` it serves.

    Used for WAL scanning, where the work happens lazily as the consumer
    pulls records; the consumer's own work between pulls is not counted.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        iterator = iter(original(*args, **kwargs))
        while True:
            span = recorder.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                recorder.close(span)
                return
            recorder.close(span)
            yield item

    setattr(owner, attr, wrapper)
