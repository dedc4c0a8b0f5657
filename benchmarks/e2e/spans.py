"""In-memory spans recorded from outside the program under test.

The benchmark's ``--traced`` runs wrap the *public* callables at each
layer boundary (methods on their class, module-level functions on
every ``repro`` module that imported them) with :meth:`Recorder.wrap`.
Nothing here is imported by ``src/``; an untraced run never installs a
wrapper, so end-to-end metrics are always measured on unmodified code.

A span is ``(id, parent, name, start, end, thread, tag)``; the layer is
the part of ``name`` before the first dot (``storage.scan`` → layer
``storage``).  Spans stay in a list until :meth:`Recorder.write_ndjson`
dumps them, one JSON object per line::

    {"id": 7, "parent": 3, "name": "core.kernel", "layer": "core",
     "start": 1.0321, "end": 1.0489, "thread": 1402, "tag": "shard-0003"}

``start``/``end`` are ``time.perf_counter()`` seconds of the recording
process; ``tag`` is the request / tick / shard identifier current when
the span opened.  Parents are the enclosing span on the same thread; a
span opened on a pool thread with nothing enclosing it adopts the
innermost span open on the *driver* thread (the engine runs task bodies
on pool threads while the driver blocks inside ``run``).

A layer's **self time** is its span's duration minus the part of that
interval its children cover (children on two pool threads may overlap,
so the union of their intervals is subtracted, not the sum).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Iterable

ID, PARENT, NAME, START, END, THREAD, TAG = range(7)

_WRAPPED = "__e2e_span_original__"


class Recorder:
    """Collects spans and owns every wrapper it installed."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.tag: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._driver = threading.get_ident()
        self._ambient: int | None = None
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> list[Any]:
        """Open a span under the innermost open span of this thread."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        thread = threading.get_ident()
        parent = stack[-1][ID] if stack else (
            self._ambient if thread != self._driver else None
        )
        span = [next(self._ids), parent, name, time.perf_counter(), None,
                thread, self.tag]
        stack.append(span)
        if thread == self._driver:
            self._ambient = span[ID]
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def close(self, span: list[Any]) -> None:
        """Close ``span`` (must be the innermost open one on its thread)."""
        span[END] = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        if span[THREAD] == self._driver:
            self._ambient = stack[-1][ID] if stack else None

    def wrap(self, fn: Callable[..., Any],
             name: str | Callable[..., str | None]) -> Callable[..., Any]:
        """``fn`` recording one span per call.

        ``name`` may be a callable of the call's arguments returning
        the span name, or ``None`` to leave that call unrecorded (used
        to tell the events table from the output tables on ``Table``).
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name if isinstance(name, str) else name(*args, **kwargs)
            if label is None:
                return fn(*args, **kwargs)
            span = recorder.open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(span)

        setattr(traced, _WRAPPED, fn)
        return traced

    # -- installing wrappers ---------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` and remember the original for :meth:`remove`."""
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if attr in getattr(owner, "__dict__", {})
                              else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap_method(self, cls: type, attr: str,
                    name: str | Callable[..., str | None],
                    around: Callable[[Callable[..., Any]],
                                     Callable[..., Any]] | None = None) -> None:
        """Replace ``cls.attr`` by its span-recording wrapper.

        ``around`` optionally decorates the original first (the engine
        counters use it to hand ``DailyCdiJob.run`` a ``RunTrace``).
        """
        original = cls.__dict__[attr]
        inner = original if around is None else around(original)
        self.patch(cls, attr, self.wrap(inner, name))

    def wrap_function(self, fn: Callable[..., Any], name: str,
                      prefix: str = "repro") -> int:
        """Replace ``fn`` in every loaded ``prefix`` module that holds it.

        ``from x import fn`` copies the reference into the importing
        module, so patching only the defining module would miss every
        such caller.  Returns the number of module attributes replaced.
        """
        traced = self.wrap(fn, name)
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == prefix or module_name.startswith(prefix + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, traced)
                    replaced += 1
        return replaced

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- export ----------------------------------------------------------------

    def write_ndjson(self, path: Any) -> None:
        """Dump every closed span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span[END] is None:
                    continue
                handle.write(json.dumps({
                    "id": span[ID], "parent": span[PARENT],
                    "name": span[NAME], "layer": layer_of(span[NAME]),
                    "start": span[START], "end": span[END],
                    "thread": span[THREAD], "tag": span[TAG],
                }) + "\n")


def is_wrapped(value: Any) -> bool:
    """Whether ``value`` is a wrapper made by :meth:`Recorder.wrap`."""
    return hasattr(value, _WRAPPED)


def layer_of(name: str) -> str:
    """``storage.scan`` → ``storage``."""
    return name.split(".", 1)[0]


def validate(spans: Iterable[list[Any]]) -> list[str]:
    """Problems with a span tree: unclosed spans, unknown parents, and
    same-thread children that leak outside their parent."""
    spans = list(spans)
    by_id = {span[ID]: span for span in spans}
    problems = []
    for span in spans:
        if span[END] is None:
            problems.append(f"span {span[ID]} {span[NAME]} never closed")
            continue
        if span[END] < span[START]:
            problems.append(f"span {span[ID]} {span[NAME]} ends before start")
        if span[PARENT] is None:
            continue
        parent = by_id.get(span[PARENT])
        if parent is None:
            problems.append(f"span {span[ID]} has unknown parent {span[PARENT]}")
        elif parent[END] is None:
            problems.append(f"span {span[ID]} outlived parent {parent[ID]}")
        elif not (parent[START] <= span[START] and span[END] <= parent[END]):
            problems.append(
                f"span {span[ID]} {span[NAME]} lies outside parent "
                f"{parent[ID]} {parent[NAME]}"
            )
    return problems


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    edge = float("-inf")
    for start, end in sorted(intervals):
        if end <= edge:
            continue
        total += end - max(start, edge)
        edge = end
    return total


class Summary:
    """Per-name totals over the spans that lie inside ``windows``.

    ``inclusive[name]`` sums span durations, skipping a span nested
    under one of the same name (``column_batches`` calls ``columns``);
    ``self_time[name]`` sums durations minus child coverage, so self
    times of all names partition the traced part of the windows.
    """

    def __init__(self, spans: Iterable[list[Any]],
                 windows: list[tuple[float, float]]) -> None:
        closed = [
            span for span in spans if span[END] is not None and any(
                lo <= span[START] and span[END] <= hi for lo, hi in windows
            )
        ]
        by_id = {span[ID]: span for span in closed}
        children: dict[int, list[list[Any]]] = {}
        for span in closed:
            if span[PARENT] in by_id:
                children.setdefault(span[PARENT], []).append(span)
        self.spans = closed
        self.children = children
        self.window_seconds = sum(hi - lo for lo, hi in windows)
        self.count: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        roots = []
        for span in closed:
            name = span[NAME]
            duration = span[END] - span[START]
            covered = _covered([
                (max(child[START], span[START]), min(child[END], span[END]))
                for child in children.get(span[ID], ())
            ])
            self.self_time[name] = (
                self.self_time.get(name, 0.0) + duration - covered
            )
            self.durations.setdefault(name, []).append(duration)
            self.count[name] = self.count.get(name, 0) + 1
            ancestor = by_id.get(span[PARENT])
            while ancestor is not None and ancestor[NAME] != name:
                ancestor = by_id.get(ancestor[PARENT])
            if ancestor is None:
                self.inclusive[name] = self.inclusive.get(name, 0.0) + duration
            if span[PARENT] not in by_id:
                roots.append((span[START], span[END]))
        #: Share of the windows' wall time some named span covers.
        self.attributed_ratio = (
            min(1.0, _covered(roots) / self.window_seconds)
            if self.window_seconds > 0 else 0.0
        )

    def seconds(self, name: str) -> float:
        """Inclusive seconds of ``name`` (0.0 when it never ran)."""
        return self.inclusive.get(name, 0.0)

    def self_seconds(self, name: str) -> float:
        """Self seconds of ``name`` (0.0 when it never ran)."""
        return self.self_time.get(name, 0.0)

    def median_us(self, name: str) -> float:
        """Median duration of one ``name`` call in microseconds."""
        values = sorted(self.durations.get(name, ()))
        if not values:
            return 0.0
        return values[len(values) // 2] * 1e6

    def with_children(self, name: str) -> tuple[int, float]:
        """``(count, seconds)`` of ``name`` spans that have a child —
        a cache-fronted call that had to do the work underneath."""
        hits = [
            span for span in self.spans
            if span[NAME] == name and self.children.get(span[ID])
        ]
        return len(hits), sum(span[END] - span[START] for span in hits)

    def self_by_layer(self) -> dict[str, float]:
        """Self seconds summed per layer, largest first."""
        layers: dict[str, float] = {}
        for name, seconds in self.self_time.items():
            layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + seconds
        return dict(sorted(layers.items(), key=lambda item: -item[1]))
