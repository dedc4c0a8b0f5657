"""The streaming CDI loop: tail → extract → apply → checkpoint → publish.

:class:`StreamingCdiPipeline` is the continuous counterpart of the
paper's daily Spark job — CloudBot's collect → extract → match loop
driving the CDI state online.  Each :meth:`tick`:

1. **tails** the log store past the persisted cursor
   (:class:`~repro.streaming.tailer.LogTailer` — watermark admission,
   bounded reordering);
2. **extracts** events from the released records
   (:class:`~repro.streaming.extract.StreamingExtractor`, the batch
   expert rules reused);
3. **applies** the resulting events-table rows to the incremental
   state (:class:`~repro.streaming.state.IncrementalCdiState`), and
   optionally **matches** the tick's events against a
   :class:`~repro.cloudbot.rules.RuleEngine`;
4. **checkpoints** the stream state — one sealed record, appended and
   fsynced (:class:`~repro.streaming.persist.StreamCheckpoint`), *then*
5. **publishes** the refreshed rollup columns into the serving tables
   through ``overwrite_partition_columns`` — the generation-stamped
   publish primitive, so a concurrent reader sees the old rollup or
   the new one, never a torn mix.

The checkpoint-before-publish order makes every tick boundary a safe
kill point: a crash after the checkpoint but before the publish is
repaired by :meth:`resume` (replay + republish, both idempotent); a
crash before the checkpoint loses only unacknowledged cursor
progress, so the next poll re-reads those records — and since the
replayed state was rebuilt strictly from the checkpoint, nothing is
ever double-counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.cloudbot.rules import RuleEngine, RuleMatch
from repro.core.events import EventCatalog
from repro.core.indicator import CdiReport, ServicePeriod
from repro.core.fastpath import ResolverIndex, WeightTable
from repro.core.weights import WeightConfig
from repro.pipeline.checkpoint import job_fingerprint
from repro.pipeline.daily import WEIGHTS_CONFIG_KEY, event_to_row
from repro.pipeline.tables import (
    EVENT_CDI_TABLE,
    VM_CDI_TABLE,
    event_cdi_schema,
    vm_cdi_schema,
)
from repro.serving.rollups import CATEGORIES, report_from_arrays
from repro.storage.configdb import ConfigDB
from repro.storage.logstore import LogEntry, LogStore
from repro.storage.table import TableStore
from repro.streaming.extract import StreamingExtractor
from repro.streaming.persist import StreamCheckpoint, StreamSnapshot
from repro.streaming.state import IncrementalCdiState
from repro.streaming.tailer import LogTailer


@dataclass(frozen=True, slots=True)
class TickResult:
    """What one tick (or flush) of the streaming loop did."""

    tick: int
    released: int
    applied: int
    ignored: int
    buffered: int
    late_dropped: int
    watermark: float | None
    fleet_report: CdiReport
    matches: tuple[RuleMatch, ...] = ()


class StreamingCdiPipeline:
    """Continuous CDI maintenance for one day partition.

    Parameters
    ----------
    log_store:
        The SLS-like hot store the tailer consumes.
    tables:
        Output table store; ``vm_cdi``/``event_cdi`` are created if
        absent and their ``partition`` is republished every tick.
    config_db:
        Holds the weight configuration under
        :data:`~repro.pipeline.daily.WEIGHTS_CONFIG_KEY`.
    catalog, services, partition:
        Same meaning as for the batch daily job.
    allowed_lateness, max_buffer:
        Tailer watermark slack and reordering-buffer bound.
    checkpoint:
        Optional :class:`StreamCheckpoint` for crash recovery; without
        one the stream is memory-only.
    extractor:
        Record → events extraction (defaults to the shared expert
        rules).
    rule_engine:
        Optional CloudBot rule engine evaluated against each tick's
        extracted events (the "match" step); matches are surfaced on
        the :class:`TickResult`, not acted on here.
    """

    def __init__(self, log_store: LogStore, tables: TableStore,
                 config_db: ConfigDB, catalog: EventCatalog,
                 services: Mapping[str, ServicePeriod], partition: str, *,
                 allowed_lateness: float = 600.0, max_buffer: int = 4096,
                 checkpoint: StreamCheckpoint | None = None,
                 extractor: StreamingExtractor | None = None,
                 rule_engine: RuleEngine | None = None) -> None:
        self._tables = tables
        self._partition = partition
        self._checkpoint = checkpoint
        self._extractor = (
            StreamingExtractor() if extractor is None else extractor
        )
        self._rule_engine = rule_engine
        for name, schema in (
            (VM_CDI_TABLE, vm_cdi_schema()),
            (EVENT_CDI_TABLE, event_cdi_schema()),
        ):
            tables.create(name, schema, if_not_exists=True)
        record = config_db.get(WEIGHTS_CONFIG_KEY)
        weights = WeightConfig.from_dict(record.value)
        weight_table = WeightTable.from_config(catalog, weights)
        index = ResolverIndex.build(catalog, weight_table)
        self._fingerprint = job_fingerprint(
            partition, services, record.version, 0,
            f"streaming+lateness={allowed_lateness!r}",
        )
        self._tailer = LogTailer(
            log_store, allowed_lateness=allowed_lateness,
            max_buffer=max_buffer,
        )
        self._services = dict(services)
        self._catalog = catalog
        self._weight_table = weight_table
        self._index = index
        self._state = IncrementalCdiState(
            services, catalog, weight_table, index
        )
        # The checkpoint's row log; stays empty without a checkpoint.
        self._rows_log: list[dict[str, Any]] = []
        self._ticks = 0
        self._ignored = 0

    # -- introspection ------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """Digest tying checkpoints to this stream's exact inputs."""
        return self._fingerprint

    @property
    def ticks(self) -> int:
        """Ticks completed (flushes included)."""
        return self._ticks

    @property
    def tailer(self) -> LogTailer:
        """The underlying tailer (cursor/watermark introspection)."""
        return self._tailer

    @property
    def state(self) -> IncrementalCdiState:
        """The incremental CDI state being maintained."""
        return self._state

    # -- the loop -----------------------------------------------------------

    def resume(self) -> bool:
        """Restore from the checkpoint, if one exists; republish.

        Rebuilds the tailer (cursor, watermark, buffer, counters) and
        the CDI state (row-log replay) strictly from the checkpoint,
        then republishes the rollups — so a crash anywhere between two
        checkpoint writes resolves to the last checkpointed tick, and
        records past the checkpointed cursor are simply re-read on the
        next poll.  Raises ``ValueError`` when the checkpoint belongs
        to a different stream (fingerprint mismatch).
        """
        if self._checkpoint is None:
            return False
        snapshot = self._checkpoint.load()
        if snapshot is None:
            return False
        if snapshot.fingerprint != self._fingerprint:
            raise ValueError(
                "stream checkpoint fingerprint mismatch: checkpoint "
                f"{snapshot.fingerprint[:12]}… does not belong to this "
                f"stream ({self._fingerprint[:12]}…)"
            )
        self._tailer.restore(
            cursor=snapshot.last_seq, watermark=snapshot.watermark,
            buffer=snapshot.buffer, consumed=snapshot.consumed,
            late_dropped=snapshot.late_dropped,
        )
        self._state = IncrementalCdiState(
            self._services, self._catalog, self._weight_table, self._index
        )
        self._rows_log = []
        for row in snapshot.rows:
            self._state.apply(row)
            self._rows_log.append(row)
        self._ticks = snapshot.ticks
        self._ignored = snapshot.ignored
        self._publish()
        return True

    def tick(self) -> TickResult:
        """One poll-extract-apply-checkpoint-publish round."""
        return self._process(self._tailer.poll())

    def flush(self) -> TickResult:
        """Close out the stream: release the whole reordering buffer."""
        return self._process(self._tailer.flush())

    def _process(self, entries: Sequence[LogEntry]) -> TickResult:
        """The shared tail end of :meth:`tick` and :meth:`flush`."""
        events = self._extractor.events_from_entries(entries)
        applied = ignored = 0
        for event in events:
            row = event_to_row(event)
            if self._state.apply(row):
                if self._checkpoint is not None:
                    self._rows_log.append(row)
                applied += 1
            else:
                ignored += 1
        self._ignored += ignored
        matches: tuple[RuleMatch, ...] = ()
        if self._rule_engine is not None and events:
            now = max(event.time for event in events)
            matches = tuple(self._rule_engine.evaluate(events, now))
        self._ticks += 1
        self._persist()
        report = self._publish()
        return TickResult(
            tick=self._ticks,
            released=len(entries),
            applied=applied,
            ignored=ignored,
            buffered=self._tailer.buffered,
            late_dropped=self._tailer.late_dropped,
            watermark=self._tailer.watermark,
            fleet_report=report,
            matches=matches,
        )

    def _persist(self) -> None:
        """Checkpoint the stream state (before publishing); of the full
        snapshot the checkpoint persists only what its file lacks."""
        if self._checkpoint is None:
            return
        self._checkpoint.save(StreamSnapshot(
            fingerprint=self._fingerprint,
            last_seq=self._tailer.cursor,
            watermark=self._tailer.watermark,
            ticks=self._ticks,
            consumed=self._tailer.consumed,
            late_dropped=self._tailer.late_dropped,
            ignored=self._ignored,
            rows=self._rows_log,
            buffer=self._tailer.buffer_snapshot(),
        ))

    def _publish(self) -> CdiReport:
        """Swap the refreshed rollup columns into the serving tables.

        ``overwrite_partition_columns`` validates, replaces the
        partition, and *then* bumps the table generation — the
        atomic-visibility publish the serving layer's
        ``GenerationCache`` snapshots against.
        """
        vm_columns, event_columns = self._state.snapshot_columns()
        vm_table = self._tables.get(VM_CDI_TABLE)
        vm_table.overwrite_partition_columns(vm_columns, self._partition)
        self._tables.get(EVENT_CDI_TABLE).overwrite_partition_columns(
            event_columns, self._partition
        )
        # Formula 4 over the typed blocks just published (the serving
        # kernel: float-identical to the row loop, no per-VM Python pass).
        blocks = vm_table.columns(self._partition)
        return report_from_arrays(*(
            blocks[name].values for name in ("service_time", *CATEGORIES)
        ))
