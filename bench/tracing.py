"""Spans and counters recorded from outside the program.

The benchmark opens a span around every call it makes into a funnelsim
module, and may replace a public name that one funnelsim module calls in
another with a wrapper that opens a span or counts calls.  Nothing in the
program's source is edited, and every replacement is undone on exit.

A span records its name, start and end (``time.perf_counter`` seconds),
the index of its parent span and the id of the op that issued it.  Spans
stay in memory until the run ends and are written out in one piece.
"""

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class NullTracer:
    """Tracer that records nothing; used for the untraced runs."""

    op_id = None

    @contextmanager
    def span(self, name, **attrs):
        yield attrs

    @contextmanager
    def patched(self):
        yield self


class Tracer(NullTracer):
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)     # op id -> counter name -> n
        self._stack = []
        self._patches = []                     # (owner, attribute, wrapper)

    @contextmanager
    def span(self, name, **attrs):
        rec = {"name": name, "op": self.op_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "attrs": attrs}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap_span(self, owner, attr, name):
        """Open span `name` around every call of ``owner.attr``."""
        inner = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        self._patches.append((owner, attr, wrapper))

    def wrap_count(self, owner, attr, name):
        """Count calls of ``owner.attr`` under counter `name`."""
        inner = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            self.counts[self.op_id][name] += 1
            return inner(*args, **kwargs)

        self._patches.append((owner, attr, wrapper))

    @contextmanager
    def patched(self):
        """Install the registered wrappers; restore the originals on exit."""
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in self._patches]
        try:
            for owner, attr, wrapper in self._patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def self_times(self, op_id):
        """Per span name: summed duration minus the time its children cover."""
        own = {}
        for i, rec in enumerate(self.spans):
            if rec["op"] == op_id:
                own[i] = rec["end"] - rec["start"]
        for i in list(own):
            parent = self.spans[i]["parent"]
            if parent in own:
                own[parent] -= self.spans[i]["end"] - self.spans[i]["start"]
        out = Counter()
        for i, seconds in own.items():
            out[self.spans[i]["name"]] += seconds
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "counts": {str(k): dict(v)
                                  for k, v in self.counts.items()}}, fh)
