"""Span recording around calls into abcselect's public functions.

The benchmark never edits the program: it replaces a function where the
calling module binds it (``abcselect.engine.pick_next``,
``abcselect.harness.run_abc`` ...) or a method on its class, records a span
per call, and puts the original back afterwards. Spans stay in memory until
the run ends.

A span is ``(name, start, end, parent, selection, info)``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``selection`` the id shared
by every span inside one selection call (0 outside any selection). Return
values are not kept: a target may reduce one to a small record, and the time
that takes is recorded as a sibling span named ``HOOK``, so that it counts
neither in the call's span nor in its parent's self time.
"""

from __future__ import annotations

import gzip
import time
from dataclasses import dataclass
from typing import Any, Callable

# Span names that start a selection call; the spans inside one share its id.
SELECTIONS = frozenset({"run_abc", "select_with_budget", "successive_halving", "full_run"})
# Name of the spans that time the benchmark's own work on a return value.
HOOK = "benchmark.result"


@dataclass(frozen=True)
class Target:
    """One binding to wrap: ``owner.attr`` recorded under ``name``.

    ``info`` maps the call's arguments to a number stored on the span, such
    as the training rows times epochs of a learner probe; ``rename`` may
    refine the span name from the arguments (the learner kind of a probe).
    ``result`` reduces the return value to the record kept in
    ``Tracer.results`` under the span's index.
    """

    owner: Any
    attr: str
    name: str
    info: Callable[..., float] | None = None
    rename: Callable[..., str] | None = None
    result: Callable[[Any], Any] | None = None


class Tracer:
    """Wraps a set of targets and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.results: dict[int, Any] = {}
        self._stack: list[int] = []
        self._selection = 0
        self._next_selection = 0
        self._saved: list[tuple[Any, str, Any]] = []
        self.missing: set[str] = set()

    def install(self, targets) -> None:
        """Wrap every target; a binding the program no longer has is
        recorded in ``missing`` and left alone."""
        for target in targets:
            original = target.owner.__dict__.get(target.attr)
            if original is None:
                self.missing.add(f"{target.owner.__name__}.{target.attr}")
                continue
            self._saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(original, target))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        spans, stack, results = self.spans, self._stack, self.results
        opens_selection = target.name in SELECTIONS
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            name = target.rename(*args, **kwargs) if target.rename else target.name
            info = target.info(*args, **kwargs) if target.info else None
            outer_selection = self._selection
            if opens_selection and outer_selection == 0:
                self._next_selection += 1
                self._selection = self._next_selection
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._selection, info)
                self._selection = outer_selection
            if target.result:
                hook = len(spans)
                spans.append(None)
                hook_start = clock()
                results[index] = target.result(result)
                spans[hook] = (HOOK, hook_start, clock(), parent, self._selection, None)
            return result

        return wrapper

    def hook_seconds(self) -> float:
        """Time spent reducing return values since the last ``clear``."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == HOOK)

    def clear(self) -> None:
        self.spans.clear()
        self.results.clear()


def exclusive_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def write_spans(path, spans: list[tuple]) -> None:
    """Write spans as gzipped CSV, times in microseconds from the first span;
    ``parent`` is the row id of the enclosing span, -1 at top level."""
    origin = min((s[1] for s in spans), default=0.0)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("id,name,start_us,end_us,parent,selection,info\n")
        for i, (name, start, end, parent, selection, info) in enumerate(spans):
            fh.write(
                f"{i},{name},{(start - origin) * 1e6:.3f},{(end - origin) * 1e6:.3f},"
                f"{parent},{selection},{'' if info is None else info}\n"
            )


def summarize(spans: list[tuple]) -> dict[str, list[float]]:
    """Per span name: [calls, inclusive s, exclusive s, sum of info]."""
    table: dict[str, list[float]] = {}
    for span, own in zip(spans, exclusive_times(spans)):
        row = table.setdefault(span[0], [0, 0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += span[2] - span[1]
        row[2] += own
        row[3] += span[5] or 0.0
    return table
