"""Multi-day pipeline runs feeding the CDI monitor.

Glue for the common operational loop: run the daily job over a span of
day partitions, collect each day's two output tables, and stream them
into a :class:`~repro.pipeline.monitor.CdiMonitor` — the full
Fig. 4 → Section VI-C path in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.core.events import Event
from repro.core.indicator import ServicePeriod
from repro.engine.trace import RunTrace, trace_span
from repro.pipeline.checkpoint import JobCheckpoint
from repro.pipeline.daily import DailyCdiJob, DailyJobResult
from repro.pipeline.monitor import CdiMonitor
from repro.pipeline.tables import EVENTS_TABLE

#: Supplies one day's raw events given (day_index, partition_label).
EventSource = Callable[[int, str], Sequence[Event]]


@dataclass(frozen=True, slots=True)
class BackfillResult:
    """Outcome of a multi-day run."""

    partitions: tuple[str, ...]
    job_results: tuple[DailyJobResult, ...]
    monitor: CdiMonitor


def day_partitions(days: int, prefix: str = "day") -> list[str]:
    """Zero-padded partition labels — day00, day01, ... — that sort
    chronologically: two digits, or as many as the last index needs
    (the serving layer orders and ranges days by label)."""
    if days < 1:
        raise ValueError(f"days must be >= 1, got {days}")
    width = max(2, len(str(days - 1)))
    return [f"{prefix}{index:0{width}d}" for index in range(days)]


def run_days(
    job: DailyCdiJob,
    events_for_day: EventSource,
    services: Mapping[str, ServicePeriod],
    days: int,
    *,
    monitor: CdiMonitor | None = None,
    prefix: str = "day",
    checkpoint_dir: str | Path | None = None,
    resume: bool = True,
    shards: int = 8,
    trace: RunTrace | None = None,
) -> BackfillResult:
    """Ingest + run the daily job for ``days`` consecutive partitions.

    Each day's output tables are appended to ``monitor`` (a default
    monitor without RCA is created when none is supplied).  Events are
    pulled from ``events_for_day`` per partition, so scenarios control
    exactly what happens on which day.

    With ``checkpoint_dir`` set, every day runs through
    :meth:`~repro.pipeline.daily.DailyCdiJob.run_checkpointed` with a
    per-day checkpoint file (``<prefix>NN.ckpt.json``): a killed
    backfill resumed with ``resume=True`` skips completed VM shards of
    the interrupted day outright, and days whose checkpoints are
    already finalized replay their staged outputs without re-ingesting
    or re-scanning any events.  Outputs are byte-identical to an
    uncheckpointed run either way.

    ``trace`` attaches a :class:`~repro.engine.trace.RunTrace` across
    the whole backfill: one ``kind="day"`` span per partition with
    ingest/observe stage spans, and inside each day the daily job's
    own pipeline spans plus the engine's node spans and task attempt
    records.
    """
    monitor = monitor or CdiMonitor()
    partitions = day_partitions(days, prefix)
    results = []
    with trace_span(trace, f"backfill[{prefix}x{days}]", "pipeline",
                    days=days, checkpointed=checkpoint_dir is not None):
        for index, partition in enumerate(partitions):
            with trace_span(trace, f"day[{partition}]", "day"):
                if checkpoint_dir is None:
                    with trace_span(trace, "ingest", "stage"):
                        events = list(events_for_day(index, partition))
                        job.ingest_events(events, partition)
                    result = job.run(partition, services, trace=trace)
                else:
                    checkpoint = JobCheckpoint(
                        Path(checkpoint_dir) / f"{partition}.ckpt.json"
                    )
                    fingerprint = job.checkpoint_fingerprint(
                        partition, services, shards=shards
                    )
                    # Opened once here: ``ensure`` will not re-read it.
                    replayable = (
                        resume and checkpoint.load()
                        and checkpoint.fingerprint() == fingerprint
                        and checkpoint.is_finalized()
                    )
                    if not replayable:
                        # Overwrite-then-ingest keeps a re-run of a
                        # partially processed day idempotent (ingest
                        # alone appends).
                        with trace_span(trace, "ingest", "stage"):
                            job.tables.get(EVENTS_TABLE).drop_partition(
                                partition
                            )
                            events = list(events_for_day(index, partition))
                            job.ingest_events(events, partition)
                    result = job.run_checkpointed(
                        partition, services, checkpoint=checkpoint,
                        shards=shards, resume=resume, trace=trace,
                    )
                results.append(result)
                with trace_span(trace, "observe", "stage"):
                    vm_rows, event_rows = job.output_rows(partition)
                    monitor.observe_day(partition, vm_rows, event_rows)
    return BackfillResult(
        partitions=tuple(partitions),
        job_results=tuple(results),
        monitor=monitor,
    )
