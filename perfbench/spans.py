"""Spans recorded by the benchmark around its calls into traitclust.

A span is ``[id, name, start, end, parent, job]``. Spans are kept in memory
and written out once the run is over, so recording costs two clock reads
and a list append.
"""

import contextlib
import json
from time import perf_counter

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: the same call sites, no clock reads."""

    job = None

    def span(self, name):
        return _NULL


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        rec = [len(self.spans), name, perf_counter(), None,
               self._open[-1] if self._open else None, self.job]
        self.spans.append(rec)
        self._open.append(rec[0])
        try:
            yield rec
        finally:
            rec[3] = perf_counter()
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; return its result and the span's seconds."""
        with self.span(name) as rec:
            result = fn(*args, **kwargs)
        return result, rec[3] - rec[2]

    def children(self, job, parent):
        """Durations of the direct children of the job's spans named
        ``parent``, summed by child name, and those spans' total duration.
        Every span below a parent is a leaf, so each child's duration is
        its self time."""
        parents = {s[0]: s for s in self.spans if s[5] == job and s[1] == parent}
        by_name = {}
        for s in self.spans:
            if s[4] in parents:
                by_name[s[1]] = by_name.get(s[1], 0.0) + (s[3] - s[2])
        return by_name, sum(s[3] - s[2] for s in parents.values())

    def write(self, path, origin):
        with open(path, "w", encoding="utf-8") as f:
            for sid, name, start, end, parent, job in self.spans:
                f.write(json.dumps({"span": sid, "name": name, "start": start - origin,
                                    "end": end - origin, "parent": parent, "job": job}) + "\n")
