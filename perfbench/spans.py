"""In-memory span recorder for the traced benchmark run (stdlib only).

A span is one call the benchmark makes into a public ``klbp`` function, or
one benchmark operation around such calls.  Each span keeps its name,
start and end (``perf_counter_ns``), the id of the span that was open when
it started, and the id of the operation it belongs to.  The open span lives
in a ``ContextVar``, so nesting needs no bookkeeping at the call sites.

With ``enabled=False`` the recorder calls straight through and records
nothing; the untraced run uses it that way.
"""

from __future__ import annotations

import contextvars
import json
from contextlib import contextmanager
from time import perf_counter_ns


class Recorder:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        # (span id, parent id, op id, workload, name, start ns, end ns)
        self.spans: list[tuple] = []
        self.workload = ""
        self._open = contextvars.ContextVar("open_span", default=(None, None))
        self._next_id = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``; when enabled, inside a span ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str, *, op_id=None):
        """Open a span; ``op_id`` starts a new operation, else it is inherited."""
        if not self.enabled:
            yield
            return
        parent, parent_op = self._open.get()
        sid = self._next_id
        self._next_id += 1
        op = parent_op if op_id is None else op_id
        token = self._open.set((sid, op))
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._open.reset(token)
            self.spans.append((sid, parent, op, self.workload, name, start, end))

    def write(self, path) -> None:
        """Write every span as JSON (one list of records)."""
        keys = ("id", "parent", "op", "workload", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children.

    The recorder runs on one thread and nests spans through a ContextVar, so
    children of one span never overlap and never outlive their parent.
    """
    out = {s[0]: s[6] - s[5] for s in spans}
    for s in spans:
        if s[1] is not None:
            out[s[1]] -= s[6] - s[5]
    return out


SETUP_OP = "setup"  # op id of every span opened during a workload's set-up


def aggregate(spans) -> dict:
    """(workload, phase, name) -> per-call durations and self times, in ns.

    ``phase`` is "setup" for spans under a set-up, else "op".
    """
    selfs = self_times(spans)
    out: dict = {}
    for s in spans:
        phase = SETUP_OP if s[2] == SETUP_OP else "op"
        entry = out.setdefault((s[3], phase, s[4]), {"dur": [], "self": []})
        entry["dur"].append(s[6] - s[5])
        entry["self"].append(selfs[s[0]])
    return out
