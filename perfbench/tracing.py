"""In-memory span recorder used by the traced run.

Spans are recorded from *outside* the program: :meth:`SpanRecorder.patch`
replaces a public function or method with a wrapper that times each call.
Nothing is written while the workload runs; the recorder aggregates every
span into per-name totals (count, busy seconds, self seconds) and the
caller writes :meth:`SpanRecorder.snapshot` out once serving has ended.

A span's parent is the span open in the calling context.  The context
travels through ``contextvars``: asyncio tasks copy it, and
:func:`propagate_context_to_threads` makes ``ThreadPoolExecutor.submit``
copy it as well, so a scheme's SP/TE legs (dispatch pool) and the server's
``run_in_executor`` work are children of the request span that caused
them.  Self time is a span's duration minus the union of its children's
intervals -- children on parallel threads may overlap each other.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import functools
import inspect
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

_clock = time.perf_counter


class _Span:
    __slots__ = ("name", "start", "children")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.children: List[Tuple[float, float]] = []


def covered(intervals: List[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low = max(low, reach)
        high = min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


class SpanRecorder:
    """Aggregates spans by name; thread-safe."""

    def __init__(self) -> None:
        self._current: contextvars.ContextVar[Optional[_Span]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._lock = threading.Lock()
        self._spans: Dict[str, List[float]] = {}
        self._counts: Dict[str, int] = {}

    # ------------------------------------------------------------------ recording
    def _open(self, name: str) -> Tuple[Optional[_Span], Optional[_Span], Any]:
        parent = self._current.get()
        if parent is not None and parent.name == name:
            return None, None, None  # direct recursion: one span covers it
        span = _Span(name, _clock())
        return span, parent, self._current.set(span)

    def _close(self, span: _Span, parent: Optional[_Span], token: Any) -> None:
        end = _clock()
        self._current.reset(token)
        duration = end - span.start
        own = duration - covered(span.children, span.start, end)
        if parent is not None:
            parent.children.append((span.start, end))
        with self._lock:
            entry = self._spans.get(span.name)
            if entry is None:
                self._spans[span.name] = [1, duration, own]
            else:
                entry[0] += 1
                entry[1] += duration
                entry[2] += own

    def count(self, name: str, amount: int) -> None:
        """Add ``amount`` to the counter ``name``."""
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    def wrap(self, function: Callable, name: Union[str, Callable[..., str]]) -> Callable:
        """A wrapper recording one span per call of ``function``.

        ``name`` is the span name, or a function of the call's arguments
        returning it (one wrapped boundary feeding several span names).
        """
        if getattr(function, "__perfbench_span__", None) is not None:
            return function
        naming = name if callable(name) else (lambda *args, **kwargs: name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span, parent, token = self._open(naming(*args, **kwargs))
            if span is None:
                return function(*args, **kwargs)
            try:
                return function(*args, **kwargs)
            finally:
                self._close(span, parent, token)

        @functools.wraps(function)
        async def traced_async(*args, **kwargs):
            span, parent, token = self._open(naming(*args, **kwargs))
            if span is None:
                return await function(*args, **kwargs)
            try:
                return await function(*args, **kwargs)
            finally:
                self._close(span, parent, token)

        wrapper = traced_async if inspect.iscoroutinefunction(function) else traced
        wrapper.__perfbench_span__ = True
        return wrapper

    def patch(self, owner: Any, attribute: str, name: Union[str, Callable[..., str]]) -> None:
        """Replace ``owner.attribute`` with a traced wrapper.

        For a module-level function every loaded ``repro`` module that bound
        the same object (``from x import f``) is patched too, so callers see
        the wrapper whichever name they call it by.
        """
        is_class = isinstance(owner, type)
        original = owner.__dict__[attribute] if is_class else getattr(owner, attribute)
        wrapped = self.wrap(original, name)
        setattr(owner, attribute, wrapped)
        if is_class:
            return
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            if module.__dict__.get(attribute) is original:
                setattr(module, attribute, wrapped)

    # ------------------------------------------------------------------ results
    def snapshot(self) -> Dict[str, Any]:
        """``{"spans": {name: [count, busy_s, self_s]}, "counts": {...}}``."""
        with self._lock:
            return {
                "spans": {name: list(entry) for name, entry in self._spans.items()},
                "counts": dict(self._counts),
            }


def merge(*snapshots: Dict[str, Any]) -> Dict[str, Any]:
    """Sum several :meth:`SpanRecorder.snapshot` results by name."""
    spans: Dict[str, List[float]] = {}
    counts: Dict[str, int] = {}
    for snapshot in snapshots:
        for name, (count, busy, own) in snapshot.get("spans", {}).items():
            entry = spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += count
            entry[1] += busy
            entry[2] += own
        for name, amount in snapshot.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + amount
    return {"spans": spans, "counts": counts}


def propagate_context_to_threads() -> None:
    """Make ``ThreadPoolExecutor.submit`` run work in the submitter's context."""
    executor = concurrent.futures.ThreadPoolExecutor
    if getattr(executor.submit, "__perfbench_context__", False):
        return
    original = executor.submit

    @functools.wraps(original)
    def submit(self, fn, /, *args, **kwargs):
        return original(self, contextvars.copy_context().run, fn, *args, **kwargs)

    submit.__perfbench_context__ = True
    executor.submit = submit
