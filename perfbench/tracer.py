"""Span tracer that wraps a program's functions from the outside.

The tracer patches functions and methods in place and records one span
per call: its name, start, end and the span that was open when it began
(its parent). Self time is a span's duration minus the time its direct
children cover, so the self times of all spans under a root add up to
the root's duration exactly. Every patch is undone by :meth:`restore`.

The per-call path only appends a row and adds a duration to the parent's
row; per-name totals are computed afterwards by :meth:`aggregate`.
Nothing here imports the program: callers hand over the objects to wrap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Any, Callable

#: Span row fields.
NAME, START, END, PARENT, CHILD_NS = range(5)


class Probe:
    """Per-call hook around a wrapped function.

    ``before`` runs just before the call and returns a token that
    ``after`` receives with the call's arguments and result. Probes derive
    counts the span alone cannot give (round sizes, staleness, cache hits)
    and add them to ``tracer.counts``.
    """

    def before(self, tracer: "Tracer", args: tuple) -> Any:
        return None

    def after(self, tracer: "Tracer", token: Any, args: tuple, result: Any) -> None:
        pass


class Tracer:
    """In-memory spans plus free-form probe counts.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        #: One row per span: [name, start_ns, end_ns, parent_row,
        #: child_ns], appended at entry, so parents precede children.
        #: ``parent_row`` is -1 for a root; ``child_ns`` sums the
        #: durations of the span's direct children.
        self.spans: list[list] = []
        #: Rows of the spans open right now, innermost last.
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------------
    def enter(self, name: str) -> None:
        stack = self.stack
        self.spans.append(
            [name, self.clock(), 0, stack[-1] if stack else -1, 0]
        )
        stack.append(len(self.spans) - 1)

    def exit(self) -> None:
        end = self.clock()
        span = self.spans[self.stack.pop()]
        span[END] = end
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD_NS] += end - span[START]

    def span(self, name: str) -> "_SpanContext":
        """Context manager form of :meth:`enter`/:meth:`exit`."""
        return _SpanContext(self, name)

    # -- patching ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        probe: Probe | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a class (the attribute must be defined on it, not
        inherited) or a module. Wrapping an attribute this tracer already
        wrapped is an error, since restore order would then matter.
        """
        if isinstance(owner, type):
            if attr not in vars(owner):
                raise AttributeError(
                    f"{owner.__qualname__}.{attr} is inherited; wrap the "
                    "class that defines it"
                )
            original = vars(owner)[attr]
        else:
            original = getattr(owner, attr)
        if getattr(original, "__perfbench_tracer__", None) is self:
            raise ValueError(f"{name} is already wrapped by this tracer")
        if not callable(original):
            raise TypeError(f"{name} is not a plain function")
        tracer, spans, stack, clock = self, self.spans, self.stack, self.clock

        # enter()/exit() inlined: the per-call cost lands in the parent's
        # self time, so it is kept to a row append and one addition.
        @functools.wraps(original)
        def traced(*args, **kwargs):
            token = probe.before(tracer, args) if probe is not None else None
            parent = stack[-1] if stack else -1
            row = [name, clock(), 0, parent, 0]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                row[END] = end
                if parent >= 0:
                    spans[parent][CHILD_NS] += end - row[START]
            if probe is not None:
                probe.after(tracer, token, args, result)
            return result

        traced.__perfbench_tracer__ = self
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def wrapped(self) -> list[tuple[Any, str, Any]]:
        """``(owner, attr, original)`` for every live patch."""
        return list(self._patches)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------------
    def aggregate(self, first: int = 0, last: int | None = None) -> dict:
        """Per-name ``calls``, ``total_ns`` and ``self_ns`` over span rows
        ``first:last`` (all rows by default); every span must be closed."""
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for name, start, end, _, child_ns in self.spans[first:last]:
            duration = end - start
            calls[name] += 1
            total[name] += duration
            own[name] += duration - child_ns
        return {"calls": calls, "total_ns": total, "self_ns": own}

    def dump(self, path: str) -> None:
        """Write the spans (columnar) and per-name totals as JSON."""
        agg = self.aggregate()
        out = {
            "spans": {
                "name": [s[NAME] for s in self.spans],
                "start_ns": [s[START] for s in self.spans],
                "end_ns": [s[END] for s in self.spans],
                "parent": [s[PARENT] for s in self.spans],
            },
            "by_name": {
                name: {
                    "calls": agg["calls"][name],
                    "total_s": agg["total_ns"][name] / 1e9,
                    "self_s": agg["self_ns"][name] / 1e9,
                }
                for name in sorted(agg["calls"])
            },
        }
        with open(path, "w") as f:
            json.dump(out, f)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Tracer:
        self.tracer.enter(self.name)
        return self.tracer

    def __exit__(self, *exc) -> None:
        self.tracer.exit()
