"""Span tracing from outside the program: wrap the calls into each layer.

The benchmark does not change the program to trace it.  :class:`Tracer`
replaces a layer's entry points at the attribute their callers read them
from (a module global, a class attribute or a dict entry), records one
span per call — name, start, end, parent — in memory, and puts every
original back on :meth:`Tracer.restore`.  Spans nest through a stack,
so a layer's self time is its span minus the child spans it covers.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "weight")

    def __init__(self, name: str, start: float, parent: int, weight: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.weight = weight

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around patched entry points while active."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _open(self, name: str, weight: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, weight))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index].end = time.perf_counter()

    def _wrap(
        self, name: str, fn: Callable, weigh: Optional[Callable[..., int]]
    ) -> Callable:
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                index = tracer._open(name, weigh(*args) if weigh else 1)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._close(index)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name, weigh(*args) if weigh else 1)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        weigh: Optional[Callable[..., int]] = None,
    ) -> None:
        """Trace calls that read ``attr`` from ``owner`` as layer ``name``.

        ``owner`` is a module, a class or a dict; ``weigh(*args)`` gives
        the number of requests one call serves (default 1).
        """
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self._wrap(name, original, weigh)
        else:
            original = inspect.getattr_static(owner, attr)
            setattr(owner, attr, self._wrap(name, original, weigh))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, total seconds and self seconds.

        Total time counts a layer once even where it recurses into itself
        (only spans with no ancestor of the same name add to it).
        """
        child_seconds = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_seconds[span.parent] += span.seconds
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index, span in enumerate(self.spans):
            row = table[span.name]
            row["calls"] += 1
            row["self_s"] += span.seconds - child_seconds[index]
            if not self._has_ancestor(index, span.name):
                row["total_s"] += span.seconds
        return dict(table)

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, weight."""
        with path.open("w") as out:
            for span in self.spans:
                row = [span.name, span.start, span.end, span.parent, span.weight]
                out.write(json.dumps(row) + "\n")

    def top_level_seconds(self) -> float:
        """Wall time covered by spans that have no traced parent."""
        return sum(span.seconds for span in self.spans if span.parent < 0)

    def queue_wait(self, outer: str, inner: str) -> Tuple[float, float]:
        """Request-weighted (wait, latency) seconds of ``inner`` in ``outer``.

        A request served by an ``inner`` span waited from the start of the
        enclosing ``outer`` span until its own ``inner`` span began, and
        its response was released when ``outer`` ended.
        """
        wait = latency = 0.0
        for span in self.spans:
            if span.name != inner or span.parent < 0:
                continue
            parent = self.spans[span.parent]
            if parent.name != outer:
                continue
            wait += span.weight * (span.start - parent.start)
            latency += span.weight * (parent.end - parent.start)
        return wait, latency
