"""Layer spans recorded from outside the program.

The benchmark times calls into each layer's public functions by
wrapping them (module attributes or instance attributes, patched in the
traced pass only); nothing under ``src/`` knows it is being traced.
A span records its layer, thread, start, end and the span that was open
on the same thread when it began (its parent).  A layer's *self* time
is its spans' durations minus the part covered by their direct
children, so on one thread the self times of every span under a root
add up to the root's duration exactly.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder; fold with :meth:`self_times`."""

    def __init__(self) -> None:
        #: [layer, thread ident, start, end, parent index or -1]
        self.spans: List[list] = []
        self._local = threading.local()
        # Spans come from the pool's feeder thread too: the index a
        # span is appended at must be taken under a lock.
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str) -> int:
        stack = self._stack()
        span = [layer, threading.get_ident(), 0.0, 0.0,
                stack[-1] if stack else -1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span[2] = _clock()
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = _clock()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a ``layer`` span."""
        def traced(*args, **kwargs):
            index = self.begin(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_iter(self, layer: str, iterator: Iterator) -> Iterator:
        """``iterator`` with every ``next`` recorded as a span."""
        iterator = iter(iterator)
        while True:
            index = self.begin(layer)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.end(index)
            yield item

    def self_times(self, thread: Optional[int] = None
                   ) -> Dict[str, float]:
        """Seconds of self time per layer (one thread, or all)."""
        child_time = [0.0] * len(self.spans)
        for layer, ident, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for i, (layer, ident, start, end, _parent) in \
                enumerate(self.spans):
            if thread is None or ident == thread:
                totals[layer] = (totals.get(layer, 0.0)
                                 + (end - start) - child_time[i])
        return totals

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span[0]] = counts.get(span[0], 0) + 1
        return counts

    def first(self, layer: str) -> Optional[Tuple[float, float]]:
        """``(start, end)`` of the earliest span of ``layer``."""
        for name, _ident, start, end, _parent in self.spans:
            if name == layer:
                return start, end
        return None
