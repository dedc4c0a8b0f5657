"""Run tracing for the engine and the daily pipeline.

The paper's CloudBot runs the CDI computation as a *monitored*
production Spark job (Section V): engineers watch per-stage timings,
retries, and stragglers in the Spark UI and SLS dashboards.  After the
fault-tolerance PR the mini engine acquired retries, backoff, timeouts,
and chaos injection — and kept exactly one ``perf_counter`` pair of
instrumentation, so a retried, backed-off, chaos-delayed job was
indistinguishable from a clean one.  This module is the missing flight
recorder:

* :class:`TaskAttemptRecord` — one attempt of one task, carrying queue
  / run / backoff / injected-delay durations, the retry cause, and the
  chaos-plan annotation.  Records are produced inside the executor's
  attempt loop, on the pool thread that ran the attempt.
* :class:`Span` — a named, nestable wall-clock interval: engine
  nodes (one per ``map_shards`` call), checkpoint shards, pipeline
  stages, whole days.
* :class:`RunTrace` — the collector: spans plus attempt records, JSONL
  export/import, a human :meth:`~RunTrace.summary` (critical path,
  slowest stages, retry hot spots), and :meth:`~RunTrace.validate` —
  the completeness contract the chaos suite asserts under fault
  storms: every executed task accounted, spans properly nested,
  attempt durations non-negative and additive.

Timestamps are ``time.monotonic()`` values; JSONL export rebases every
timestamp onto seconds-since-trace-start.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, ContextManager, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (executor→trace)
    from repro.engine.executor import JobMetrics

#: Terminal states of one task attempt.  ``"ok"`` is the kept result;
#: the rest mirror :class:`repro.engine.executor.TaskFailure.kind`.
ATTEMPT_STATUSES = ("ok", "error", "timeout", "injected", "dropped")


@dataclass(frozen=True, slots=True)
class TaskAttemptRecord:
    """Accounting for one attempt of one task.

    ``attempt`` is 1-based; a chaos-``duplicate`` speculative execution
    shares its attempt number with the kept execution and is marked
    ``speculative`` (its runtime lies *inside* the kept attempt's wall
    interval but is timed separately, so it never double-counts).
    ``queue_seconds`` is the wait between driver-side submission and
    the first instruction of attempt 1 (0 for later attempts — they
    never re-queue).  ``backoff_seconds`` is the retry sleep taken
    *after* this attempt failed.  ``busy_seconds`` (run + injected
    delay) is what aggregates into
    :attr:`repro.engine.executor.TaskMetrics.seconds`.
    """

    node_name: str
    partition: int
    attempt: int
    job: int = 0
    speculative: bool = False
    started: float = 0.0
    ended: float = 0.0
    queue_seconds: float = 0.0
    run_seconds: float = 0.0
    backoff_seconds: float = 0.0
    chaos_delay_seconds: float = 0.0
    status: str = "ok"
    error: str | None = None
    chaos_kind: str | None = None

    @property
    def wall_seconds(self) -> float:
        """Start-to-end wall time of this attempt (excl. backoff)."""
        return self.ended - self.started

    @property
    def busy_seconds(self) -> float:
        """Productive-plus-injected time: task body + chaos delay."""
        return self.run_seconds + self.chaos_delay_seconds


@dataclass(slots=True)
class Span:
    """One named wall-clock interval in a run trace."""

    span_id: int
    parent_id: int | None
    name: str
    kind: str                       # "node" | "stage" | "shard" | "day" | ...
    started: float
    ended: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall seconds (0.0 while the span is still open)."""
        return 0.0 if self.ended is None else self.ended - self.started


class RunTrace:
    """Collector for one traced run: spans + task attempt records.

    Span begin/end calls are expected from the driver thread (pipeline
    code and ``map_shards`` both run there); attempt records arrive
    from pool threads, so all mutation is guarded by a lock.
    """

    def __init__(self, name: str = "run") -> None:
        self.name = name
        self.origin = time.monotonic()
        self.created_unix = time.time()
        self.spans: list[Span] = []
        self.attempts: list[TaskAttemptRecord] = []
        self._lock = threading.Lock()
        self._stack: list[Span] = []
        self._next_id = 1

    # -- recording -----------------------------------------------------------

    def begin_span(self, name: str, kind: str = "stage",
                   **attributes: Any) -> Span:
        """Open a span nested under the innermost open span."""
        with self._lock:
            parent = self._stack[-1].span_id if self._stack else None
            span = Span(self._next_id, parent, name, kind,
                        time.monotonic(), None, dict(attributes))
            self._next_id += 1
            self.spans.append(span)
            self._stack.append(span)
            return span

    def end_span(self, span: Span) -> None:
        """Close ``span`` (and any child left open underneath it)."""
        with self._lock:
            ended = time.monotonic()
            while self._stack:
                top = self._stack.pop()
                if top.ended is None:
                    top.ended = ended
                if top is span:
                    break

    @contextmanager
    def span(self, name: str, kind: str = "stage",
             **attributes: Any) -> Iterator[Span]:
        """Context manager form of :meth:`begin_span`/:meth:`end_span`."""
        span = self.begin_span(name, kind, **attributes)
        try:
            yield span
        finally:
            self.end_span(span)

    def record_attempts(self, records: Iterable[TaskAttemptRecord]) -> None:
        """Append attempt records (thread-safe)."""
        materialized = list(records)
        with self._lock:
            self.attempts.extend(materialized)

    # -- derived views -------------------------------------------------------

    def task_groups(
        self,
    ) -> dict[tuple[int, str, int], list[TaskAttemptRecord]]:
        """Attempt records grouped per task, in attempt order.

        Keyed by ``(job, node_name, partition)`` — the job id
        disambiguates ``map_shards`` calls under one node name (e.g.
        one resolve call per checkpoint shard).
        """
        groups: dict[tuple[int, str, int], list[TaskAttemptRecord]] = {}
        for record in self.attempts:
            key = (record.job, record.node_name, record.partition)
            groups.setdefault(key, []).append(record)
        for records in groups.values():
            records.sort(key=lambda r: (r.attempt, not r.speculative))
        return groups

    def stage_seconds(self) -> dict[str, float]:
        """Wall seconds aggregated per node/stage span name."""
        totals: dict[str, float] = {}
        for span in self.spans:
            if span.kind in ("node", "stage") and span.ended is not None:
                totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def critical_path(self) -> list[Span]:
        """Dominant span chain: from each level, follow the slowest child."""
        children: dict[int | None, list[Span]] = {}
        for span in self.spans:
            if span.ended is not None:
                children.setdefault(span.parent_id, []).append(span)
        path: list[Span] = []
        cursor: int | None = None
        while True:
            options = children.get(cursor)
            if not options:
                return path
            slowest = max(options, key=lambda s: s.duration)
            path.append(slowest)
            cursor = slowest.span_id

    def retry_hot_spots(self) -> list[tuple[str, int, int, str]]:
        """Tasks with failed attempts: ``(node, partition, count, kinds)``
        sorted most-retried first."""
        counts: dict[tuple[str, int], list[str]] = {}
        for record in self.attempts:
            if record.status != "ok" and not record.speculative:
                key = (record.node_name, record.partition)
                counts.setdefault(key, []).append(record.status)
        spots = [
            (node, partition, len(kinds), ",".join(sorted(set(kinds))))
            for (node, partition), kinds in counts.items()
        ]
        spots.sort(key=lambda s: (-s[2], s[0], s[1]))
        return spots

    # -- reporting -----------------------------------------------------------

    def summary(self, top: int = 5) -> str:
        """Human-readable digest: the trace's answer to the Spark UI."""
        tasks = self.task_groups()
        failed = [r for r in self.attempts
                  if r.status != "ok" and not r.speculative]
        speculative = sum(1 for r in self.attempts if r.speculative)
        roots = [s for s in self.spans if s.parent_id is None
                 and s.ended is not None]
        wall = sum(s.duration for s in roots)
        lines = [
            f"run trace {self.name!r}: {len(self.spans)} spans, "
            f"{len(tasks)} tasks, {len(self.attempts)} attempt records",
            f"  wall {wall:.3f}s  failed attempts {len(failed)}"
            f"  speculative {speculative}",
        ]
        path = self.critical_path()
        if path:
            chain = " > ".join(s.name for s in path)
            lines.append(f"critical path: {chain}  ({path[0].duration:.3f}s)")
        stage_totals = sorted(self.stage_seconds().items(),
                              key=lambda kv: -kv[1])
        if stage_totals:
            lines.append("slowest stages:")
            for name, seconds in stage_totals[:top]:
                lines.append(f"  {name:<24} {seconds * 1000:9.2f} ms")
        spots = self.retry_hot_spots()
        if spots:
            lines.append("retry hot spots:")
            for node, partition, count, kinds in spots[:top]:
                lines.append(
                    f"  {node}[{partition}]  {count} failed attempts ({kinds})"
                )
        else:
            lines.append("retry hot spots: none")
        return "\n".join(lines)

    # -- completeness contract ----------------------------------------------

    def validate(self, metrics: "JobMetrics | None" = None, *,
                 tolerance: float = 0.05) -> list[str]:
        """Check the trace's structural invariants; return problems.

        An empty list means the trace is complete and self-consistent:

        * every span closed, with a non-negative duration, nested
          inside its parent's interval (within ``tolerance``);
        * every task's kept attempts are numbered 1..n with only the
          final attempt successful, all durations non-negative, and the
          per-attempt walls + backoffs summing to the task's own
          first-start→last-end interval (within ``tolerance`` plus 5%);
        * every task lies inside a node span of its stage;
        * with ``metrics`` (the executor's accounting for one job):
          every successful task has records whose attempt count and
          cumulative busy seconds match exactly, and every recorded
          failure has a matching failed-attempt record.
        """
        problems: list[str] = []
        by_id: dict[int, Span] = {}
        for span in self.spans:
            by_id[span.span_id] = span
            if span.ended is None:
                problems.append(f"span {span.name!r} was never closed")
            elif span.ended < span.started:
                problems.append(f"span {span.name!r} has negative duration")
        node_spans: dict[tuple[Any, str], Span] = {}
        for span in self.spans:
            if span.ended is None:
                continue
            if span.kind == "node":
                node_spans[(span.attributes.get("job"), span.name)] = span
            parent = by_id.get(span.parent_id) if span.parent_id else None
            if span.parent_id is not None and parent is None:
                problems.append(f"span {span.name!r} has a dangling parent id")
            elif parent is not None and parent.ended is not None:
                if (span.started < parent.started - tolerance
                        or span.ended > parent.ended + tolerance):
                    problems.append(
                        f"span {span.name!r} escapes parent {parent.name!r}"
                    )
        for (job, node, partition), records in self.task_groups().items():
            label = f"task {node}[{partition}] job {job}"
            for record in records:
                if record.status not in ATTEMPT_STATUSES:
                    problems.append(
                        f"{label}: unknown status {record.status!r}"
                    )
                if (record.ended < record.started
                        or min(record.queue_seconds, record.run_seconds,
                               record.backoff_seconds,
                               record.chaos_delay_seconds) < 0):
                    problems.append(
                        f"{label}: negative duration on attempt "
                        f"{record.attempt}"
                    )
            kept = [r for r in records if not r.speculative]
            if not kept:
                problems.append(f"{label}: only speculative records")
                continue
            if [r.attempt for r in kept] != list(range(1, len(kept) + 1)):
                problems.append(f"{label}: attempts are not consecutive")
            if any(r.status == "ok" for r in kept[:-1]):
                problems.append(f"{label}: non-final attempt marked ok")
            span_seconds = kept[-1].ended - kept[0].started
            accounted = sum(r.wall_seconds + r.backoff_seconds for r in kept)
            if abs(span_seconds - accounted) > tolerance + 0.05 * max(
                span_seconds, accounted
            ):
                problems.append(
                    f"{label}: attempts account for {accounted:.4f}s of a "
                    f"{span_seconds:.4f}s task interval"
                )
            node_span = node_spans.get((job, node))
            if node_span is None:
                problems.append(f"{label}: no node span for its stage")
            elif (kept[0].started < node_span.started - tolerance
                  or kept[-1].ended > (node_span.ended or 0.0) + tolerance):
                problems.append(f"{label}: attempts escape the node span")
        if metrics is not None:
            problems.extend(self._validate_against(metrics))
        return problems

    def _validate_against(self, metrics: "JobMetrics") -> list[str]:
        """Cross-check one job's executor accounting against the trace."""
        problems: list[str] = []
        groups = {
            (node, partition): records
            for (job, node, partition), records in self.task_groups().items()
            if job == metrics.job
        }
        for task in metrics.tasks:
            records = groups.get((task.node_name, task.partition))
            label = f"task {task.node_name}[{task.partition}]"
            if records is None:
                problems.append(f"{label}: successful task has no records")
                continue
            kept = [r for r in records if not r.speculative]
            if kept[-1].status != "ok":
                problems.append(f"{label}: final attempt record not ok")
            if len(kept) != task.attempts:
                problems.append(
                    f"{label}: {len(kept)} records for {task.attempts} "
                    "attempts"
                )
            busy = sum(r.busy_seconds for r in kept)
            if abs(busy - task.seconds) > 1e-6:
                problems.append(
                    f"{label}: busy seconds {busy:.6f} != metrics "
                    f"seconds {task.seconds:.6f}"
                )
        for failure in metrics.failures:
            records = groups.get((failure.node_name, failure.partition)) or []
            if not any(r.attempt == failure.attempt and r.status == failure.kind
                       and not r.speculative for r in records):
                problems.append(
                    f"failure {failure.node_name}[{failure.partition}] "
                    f"attempt {failure.attempt} ({failure.kind}) has no "
                    "matching attempt record"
                )
        return problems

    def assert_complete(self, metrics: "JobMetrics | None" = None, *,
                        tolerance: float = 0.05) -> None:
        """Raise ``AssertionError`` listing every validation problem."""
        problems = self.validate(metrics, tolerance=tolerance)
        if problems:
            raise AssertionError(
                "incomplete run trace:\n" + "\n".join(problems)
            )

    # -- persistence ---------------------------------------------------------

    def to_jsonl_lines(self) -> list[str]:
        """Serialize as JSONL: one meta line, then spans, then attempts.

        Timestamps are rebased to seconds since trace start so traces
        from different runs are directly comparable.
        """
        origin = self.origin
        lines = [json.dumps({
            "type": "meta", "version": 1, "name": self.name,
            "created_unix": self.created_unix,
            "spans": len(self.spans), "attempts": len(self.attempts),
        }, sort_keys=True)]
        for span in self.spans:
            lines.append(json.dumps({
                "type": "span", "id": span.span_id,
                "parent": span.parent_id, "name": span.name,
                "kind": span.kind,
                "start": round(span.started - origin, 9),
                "end": (None if span.ended is None
                        else round(span.ended - origin, 9)),
                "attributes": span.attributes,
            }, sort_keys=True))
        for r in self.attempts:
            lines.append(json.dumps({
                "type": "attempt", "node": r.node_name,
                "partition": r.partition, "attempt": r.attempt,
                "job": r.job, "speculative": r.speculative,
                "start": round(r.started - origin, 9),
                "end": round(r.ended - origin, 9),
                "queue": r.queue_seconds, "run": r.run_seconds,
                "backoff": r.backoff_seconds,
                "chaos_delay": r.chaos_delay_seconds,
                "status": r.status, "error": r.error,
                "chaos_kind": r.chaos_kind,
            }, sort_keys=True))
        return lines

    def write_jsonl(self, path: str | Path) -> Path:
        """Write the trace to ``path`` as JSONL, creating parents."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("\n".join(self.to_jsonl_lines()) + "\n")
        return target

    @classmethod
    def load(cls, path: str | Path) -> "RunTrace":
        """Load a trace written by :meth:`write_jsonl`.

        The loaded trace's clock origin is 0.0, so all timestamps read
        as seconds since trace start; ``summary()`` and ``validate()``
        work unchanged.
        """
        trace = cls()
        trace.origin = 0.0
        max_id = 0
        for line in Path(path).read_text().splitlines():
            if not line.strip():
                continue
            obj = json.loads(line)
            kind = obj.get("type")
            if kind == "meta":
                trace.name = obj.get("name", trace.name)
                trace.created_unix = obj.get("created_unix", 0.0)
            elif kind == "span":
                span = Span(obj["id"], obj["parent"], obj["name"],
                            obj["kind"], obj["start"], obj["end"],
                            dict(obj.get("attributes") or {}))
                trace.spans.append(span)
                max_id = max(max_id, span.span_id)
            elif kind == "attempt":
                trace.attempts.append(TaskAttemptRecord(
                    node_name=obj["node"], partition=obj["partition"],
                    attempt=obj["attempt"], job=obj.get("job", 0),
                    speculative=obj.get("speculative", False),
                    started=obj["start"], ended=obj["end"],
                    queue_seconds=obj.get("queue", 0.0),
                    run_seconds=obj.get("run", 0.0),
                    backoff_seconds=obj.get("backoff", 0.0),
                    chaos_delay_seconds=obj.get("chaos_delay", 0.0),
                    status=obj.get("status", "ok"),
                    error=obj.get("error"),
                    chaos_kind=obj.get("chaos_kind"),
                ))
            else:
                raise ValueError(f"unknown trace line type {kind!r}")
        trace._next_id = max_id + 1
        return trace


# -- optional-tracing helpers (no-ops when no trace is attached) -------------


def trace_span(trace: RunTrace | None, name: str, kind: str = "stage",
               **attributes: Any) -> ContextManager[Span | None]:
    """``trace.span(...)`` when tracing, an inert context otherwise."""
    if trace is None:
        return nullcontext(None)
    return trace.span(name, kind, **attributes)


@contextmanager
def executor_tracing(executor: Any, trace: RunTrace | None) -> Iterator[None]:
    """Temporarily point ``executor.trace`` at ``trace``.

    The pipeline threads one :class:`RunTrace` through jobs that share
    a long-lived executor; this scopes the attachment so concurrent
    untraced runs on the same context are unaffected.
    """
    if trace is None:
        yield
        return
    previous = executor.trace
    executor.trace = trace
    try:
        yield
    finally:
        executor.trace = previous
