"""Spans recorded from outside the program, and self time computed from them.

A :class:`SpanRecorder` wraps functions of the program under test.  Each
call of a wrapped function becomes one span: the span's name, its start
and end (``perf_counter_ns``), the span that was open when it started
(its parent), and an optional integer key taken from the arguments (a
message id, a packet id, or the backlog at a decision; see ``layers``).
Spans stay in memory and are written out once, at the end.

The wrapped calls all run on one thread of their process (the event
loop of a simulator or a live peer), so spans nest strictly and the
open spans form a stack.  Self time is a span's duration minus the
durations of its direct children, so the self times of one process sum
to at most the time its outermost spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable, Iterable

__all__ = ["SpanRecorder", "Target", "install", "read_spans", "summarize"]

_now_ns = time.perf_counter_ns

#: (module name, attribute path, span name, key extractor or None).
#: The attribute path is ``"func"`` for a module-level function or
#: ``"Class.method"`` for a method; the method is wrapped on the class
#: and on every loaded subclass that overrides it.
Target = tuple[str, str, str, "Callable[..., int] | None"]


class SpanRecorder:
    """In-memory span log of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: ``[name_id, start_ns, end_ns, parent_index, key]`` per span,
        #: in start order (a parent always precedes its children).
        self.spans: list[Any] = []
        self._stack: list[int] = []
        #: Objects whose bound methods were called through a wrapper,
        #: by span name (read after the run for program counters).
        self.receivers: dict[str, dict[int, Any]] = {}
        self.started_ns = _now_ns()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self,
        fn: Callable,
        name: str,
        key: Callable[..., int] | None = None,
        method: bool = False,
    ) -> Callable:
        """``fn`` wrapped so that each call records one span."""
        name_id = self.name_id(name)
        spans = self.spans
        stack = self._stack
        receivers = self.receivers.setdefault(name, {}) if method else None

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name_id, 0, 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            if receivers is not None:
                receivers[id(args[0])] = args[0]
            if key is not None:
                span[4] = key(*args, **kwargs)
            span[1] = _now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = _now_ns()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.perfbench_span = name
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def write(self, path: str, meta: dict[str, Any]) -> None:
        """Write the header line and one JSON array per span to ``path``."""
        with open(path, "w", encoding="utf-8") as out:
            header = dict(meta)
            header["names"] = self.names
            header["fields"] = ["name", "start_ns", "end_ns", "parent", "key"]
            out.write(json.dumps(header) + "\n")
            for name_id, start, end, parent, key in self.spans:
                out.write(f"[{name_id},{start},{end},{parent},{json.dumps(key)}]\n")


def _subclasses(cls: type) -> Iterable[type]:
    seen = {cls}
    todo = [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.add(sub)
                todo.append(sub)
    return seen


def install(targets: Iterable[Target], wrap: Callable[..., Callable]) -> None:
    """Replace every target in the already-imported program modules.

    ``wrap(fn, name, key, method)`` returns the replacement:
    :meth:`SpanRecorder.wrap` records spans; the self-tests pass a
    wrapper that plants a delay.  A method a recorder already wrapped
    (a subclass listed before its base) is left as it is.
    """
    for module_name, path, name, key in targets:
        module = sys.modules[module_name]
        if "." in path:
            class_name, attr = path.split(".")
            for cls in _subclasses(getattr(module, class_name)):
                fn = vars(cls).get(attr)
                if fn is not None and not hasattr(fn, "perfbench_span"):
                    setattr(cls, attr, wrap(fn, name, key, True))
            continue
        original = getattr(module, path)
        wrapped = wrap(original, name, key, False)
        # Callers that imported the function by name hold their own
        # binding: rebind every module attribute that is this function.
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").split(".")[0] != "repro":
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, wrapped)


def read_spans(path: str) -> tuple[dict[str, Any], list[list]]:
    """The header and span rows of a file written by :meth:`SpanRecorder.write`."""
    with open(path, encoding="utf-8") as f:
        header = json.loads(f.readline())
        rows = [json.loads(line) for line in f]
    return header, rows


def summarize(
    names: list[str], spans: list, groups: dict[str, Iterable[str]]
) -> dict[str, Any]:
    """Self seconds per span name, and call statistics per group of names.

    A group's ``calls`` counts its spans that have no ancestor in the
    group (a ``super()`` call, or a wrapper strategy calling the one it
    wraps, is part of its caller's call); ``total_s`` sums their
    durations and ``key_sum`` their keys.  ``covered_s`` is the time
    the process's outermost spans cover: the self times sum to it.
    """
    n = len(spans)
    child_ns = [0] * n
    ancestors: list[frozenset] = [frozenset()] * n
    self_s = dict.fromkeys(names, 0.0)
    covered = 0
    for index, (name_id, start, end, parent, _key) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            ancestors[index] = ancestors[parent] | {spans[parent][0]}
        else:
            covered += end - start
    for index, (name_id, start, end, _parent, _key) in enumerate(spans):
        self_s[names[name_id]] += (end - start - child_ns[index]) / 1e9
    stats: dict[str, dict[str, float]] = {}
    for group, members in groups.items():
        ids = {i for i, name in enumerate(names) if name in set(members)}
        calls, total, key_sum = 0, 0, 0
        for index, (name_id, start, end, _parent, key) in enumerate(spans):
            if name_id in ids and not ids & ancestors[index]:
                calls += 1
                total += end - start
                key_sum += key or 0
        stats[group] = {"calls": calls, "total_s": total / 1e9, "key_sum": key_sum}
    return {"self_s": self_s, "groups": stats, "covered_s": covered / 1e9}
