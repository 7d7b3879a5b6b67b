"""In-memory spans around calls into the program's public functions.

A :class:`SpanRecorder` wraps named functions and methods of the program
(``patch``), records one span per call on the calling thread (name,
start, end, parent span), and restores the originals on ``unpatch``.
Nothing under ``src/`` changes: the wrappers live only in the traced
benchmark process.  At the end the spans are written as Chrome
trace-event JSON (load it in Perfetto or ``chrome://tracing``) next to a
table of per-layer self time.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path

_MISSING = object()


class Span:
    __slots__ = ("name", "tid", "start", "end", "parent", "child_s")

    def __init__(self, name: str, tid: int, start: float, parent):
        self.name = name
        self.tid = tid
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0     # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class SpanRecorder:
    """Records nested spans per thread; patches program entry points."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def begin(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(name, threading.get_ident(), time.perf_counter(),
                    stack[-1] if stack else None)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        with self._lock:
            self.spans.append(span)

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``."""
        original = owner.__dict__.get(attr, _MISSING)
        target = getattr(owner, attr)

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                return target(*args, **kwargs)
            finally:
                self.end(span)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over calls and threads."""
        out: dict[str, float] = {}
        with self._lock:
            for span in self.spans:
                out[span.name] = out.get(span.name, 0.0) + span.self_s
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        with self._lock:
            for span in self.spans:
                out[span.name] = out.get(span.name, 0) + 1
        return out

    def write_chrome_trace(self, path: Path, origin: float) -> None:
        """Chrome trace-event JSON ("X" complete events, microseconds)."""
        pid = os.getpid()
        threads = {t.ident: t.name for t in threading.enumerate()}
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s.start)
        events = [{"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                   "args": {"name": threads.get(tid, f"thread-{tid}")}}
                  for tid in sorted({s.tid for s in spans})]
        events.extend({"name": s.name, "cat": s.name.split(".", 1)[0],
                       "ph": "X", "pid": pid, "tid": s.tid,
                       "ts": (s.start - origin) * 1e6,
                       "dur": s.duration * 1e6} for s in spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))


def self_time_table(rows: list[tuple[str, float, int]], wall_s: float,
                    title: str) -> str:
    """Render ``(layer, self seconds, calls)`` rows as a text table whose
    seconds column adds up to ``wall_s``."""
    lines = [title, f"{'layer':28s} {'self_s':>10s} {'share':>7s} "
                    f"{'calls':>8s}"]
    for name, seconds, calls in rows:
        share = seconds / wall_s if wall_s else 0.0
        lines.append(f"{name:28s} {seconds:10.4f} {share:7.1%} {calls:8d}")
    total = sum(seconds for _, seconds, _ in rows)
    lines.append(f"{'sum':28s} {total:10.4f} {total / wall_s:7.1%}")
    lines.append(f"{'wall':28s} {wall_s:10.4f}")
    return "\n".join(lines)
