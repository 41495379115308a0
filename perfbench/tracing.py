"""Span wrappers installed from outside the library.

A span is recorded around every call of a wrapped public function: name,
start, end and the enclosing span.  Per name the tracer keeps call count,
total time and self time (span time minus the time its child spans cover);
count hooks add quantities derived from public return values.  Spans are
kept in memory and written out when the job ends.

Wrapping happens where callers look a name up: the wrapper replaces every
binding of the original function in every loaded fnclass module (so
`scan5`, which binds `sep_profile_word` at import time, is covered), and
methods are replaced on their class.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

SPAN_CAP = 50_000  # full span records kept per job; stats cover every span


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _enter(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        dur = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += dur
        stat[2] += dur - frame[1]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], parent[0] if parent else -1, name,
                               start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, start, time.perf_counter())

    def wrap(self, name: str, fn, hook=None):
        """A traced stand-in for `fn`; `hook(tracer, args, result)` counts."""
        clock = time.perf_counter
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(name, frame, start, clock())
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap every (owner, attribute, span name, hook) target.

        A module-level function is replaced wherever a loaded fnclass
        module binds it; a method is replaced on its class.
        """
        modules = [m for key, m in sys.modules.items()
                   if key == "fnclass" or key.startswith("fnclass.")]
        for owner, attr, name, hook in targets:
            original = getattr(owner, attr)
            traced = self.wrap(name, original, hook)
            if isinstance(owner, type):
                setattr(owner, attr, traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts)}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def no_span(_name: str):
    return contextlib.nullcontext()
