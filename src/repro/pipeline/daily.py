"""The daily CDI job: the paper's Spark application (Section V).

Reads raw events from the MaxCompute-like events table and the weight
configuration from the MySQL-like config DB, computes per-VM CDI
reports and per-(VM, event) drill-down CDIs on the shard-map
engine, and writes the two output tables back — the exact dataflow of
Fig. 4.

There is one production compute path: the events table is scanned as
typed column blocks, each engine task resolves its batch to
weighted intervals with array gathers, and every damage integral of
the whole fleet — all VMs × categories *and* all (VM, event-name)
drill-down groups — comes out of one vectorized kernel sweep
(:func:`repro.core.fastpath.fleet_cdi_columns_columnar`).

``DailyCdiJob(..., use_fastpath=False)`` selects the **reference
oracle** instead: Algorithm 1 per VM per category with the pure-Python
sweep, then once more per event name — the paper's pseudocode executed
literally, kept so tests and the benchmark's oracles have something
independent to compare against.

Output rows are written sorted (by VM, then event name) so reruns
and both paths produce byte-identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.core.events import Event, EventCatalog, Severity
from repro.core.fastpath import (
    FlatInterval,
    ResolverIndex,
    WeightTable,
    flat_interval_arrays,
    fleet_cdi_columns_columnar,
)
from repro.core.indicator import CdiCalculator, CdiReport, ServicePeriod
from repro.core.periods import resolve_periods
from repro.core.weights import WeightConfig
from repro.engine.dataset import EngineContext
from repro.engine.trace import RunTrace, executor_tracing, trace_span
from repro.pipeline.checkpoint import (
    JobCheckpoint,
    job_fingerprint,
    shard_units,
    split_shards,
)
from repro.pipeline.tables import (
    EVENT_CDI_TABLE,
    EVENTS_TABLE,
    VM_CDI_TABLE,
    event_cdi_schema,
    events_schema,
    vm_cdi_schema,
)
from repro.storage.columns import factorize_block
from repro.storage.configdb import ConfigDB
from repro.storage.table import TableStore

#: Config DB key holding the serialized weight configuration.
WEIGHTS_CONFIG_KEY = "cdi_weights"


def shard_events_partition(partition: str, unit: str) -> str:
    """Events-table partition holding one VM shard's slice of a day.

    Sharded ingestion (``DailyCdiJob.ingest_events(..., unit=...)`` +
    ``run_checkpointed(..., sharded_events=True)``) stores each
    contiguous VM shard's events under its own partition key, so a
    shard's compute pass scans only its own slice — the full day never
    has to be resident at once.
    """
    return f"{partition}@{unit}"


def event_to_row(event: Event) -> dict[str, Any]:
    """Serialize an event into an events-table row."""
    duration = event.attributes.get("duration")
    return {
        "name": event.name,
        "time": event.time,
        "target": event.target,
        "level": int(event.level),
        "expire_interval": event.expire_interval,
        "duration": float(duration) if duration is not None else None,
    }


#: Value → member lookup; ``Severity(value)`` goes through ``EnumMeta.__call__``
#: which is too slow for the per-event deserialization loop.
_SEVERITY_BY_VALUE = {int(level): level for level in Severity}


def row_severity(row: Mapping[str, Any]) -> Severity:
    """The row's :class:`Severity`; an unknown level is a ``ValueError``.

    The one statement of the unknown-severity policy: the reference
    oracle and the stateful pairing reach it through
    :func:`row_to_event`, streaming through ``IncrementalCdiState.apply``,
    and the columnar resolve stage calls it on the first bad row its
    vectorized check finds.
    """
    level = _SEVERITY_BY_VALUE.get(int(row["level"]))
    if level is None:
        raise ValueError(
            f"unknown severity level {row['level']} on event {row['name']!r}"
        )
    return level


def row_to_event(row: Mapping[str, Any]) -> Event:
    """Deserialize an events-table row."""
    duration = row.get("duration")
    attributes = {} if duration is None else {"duration": float(duration)}
    return Event(
        name=row["name"], time=float(row["time"]), target=row["target"],
        expire_interval=float(row["expire_interval"]),
        level=row_severity(row), attributes=attributes,
    )


@dataclass(frozen=True, slots=True)
class DailyJobResult:
    """Summary of one daily run."""

    partition: str
    vm_count: int
    event_count: int
    fleet_report: CdiReport


def resolve_stateless_row(
    row: Mapping[str, Any],
    info: tuple[float, Mapping[int, tuple[float, int]]],
) -> FlatInterval | None:
    """One stateless events-table row → weight-resolved flat interval.

    ``info`` is the row's :attr:`ResolverIndex.stateless` entry
    (``(window, {level: (weight, category index)})``).  Returns ``None``
    when the ``(name, level)`` pair has no weight entry (the reference
    calculator's skip), applies the catalog window when the row carries
    no explicit duration, and raises ``ValueError`` on a negative
    explicit duration or an unknown severity level.  The per-record
    form of :class:`_ResolveColumnsStage`'s stateless resolution, used
    by the streaming incremental state (:mod:`repro.streaming.state`),
    which sees one row at a time.
    """
    entry = info[1].get(row["level"])
    if entry is None:
        row_severity(row)
        return None
    duration = row["duration"]
    if duration is None:
        duration = info[0]
    elif duration < 0:
        raise ValueError(
            f"negative duration {duration} on event {row['name']!r}"
        )
    end = row["time"]
    return (row["name"], entry[0], entry[1], end - duration, end)


def resolve_stateful_rows(
    rows: list[Mapping[str, Any]], catalog: EventCatalog,
    weight_table: WeightTable, horizon: float,
) -> list[FlatInterval]:
    """Reference start/end pairing + weight lookup for stateful rows.

    Shared by the daily job and the streaming incremental state, which
    re-pairs a VM's accumulated ``*_add``/``*_del`` rows through this
    exact function whenever a new one arrives: stateful detail events
    are rare, so both hand them to the same reference resolution in
    :func:`~repro.core.periods.resolve_periods`.
    """
    events = [row_to_event(row) for row in rows]
    periods = resolve_periods(events, catalog, horizon=horizon)
    lookup = weight_table.entries.get
    flat: list[FlatInterval] = []
    for period in periods:
        entry = lookup((period.name, period.level))
        if entry is not None:
            flat.append(
                (period.name, entry[0], entry[1], period.start, period.end)
            )
    return flat


@dataclass(frozen=True, slots=True)
class _ResolvedBatch:
    """Per-column-batch output of :class:`_ResolveColumnsStage`.

    Carries the stateless resolution as parallel numpy arrays (indices
    into the batch-local ``names`` table) plus the raw stateful rows,
    which the driver re-resolves through the reference pairing.
    """

    names: tuple[str, ...]
    name_ids: np.ndarray
    vm_idx: np.ndarray
    weights: np.ndarray
    cats: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    event_count: int
    stateful: list[tuple[str, dict[str, Any]]] = field(default_factory=list)


@dataclass(frozen=True)
class _ResolveColumnsStage:
    """Engine stage: ``ColumnBatch → _ResolvedBatch`` (no row dicts).

    The daily job's period resolution: event names and targets are
    factorized with ``np.unique`` once per batch, weight/category/
    window lookups become small per-unique-name tables, and the whole
    batch is resolved with array gathers — the hot loop touches no
    Python object per event.  Stateless semantics are those of
    :func:`resolve_stateless_row` (the skip of a ``(name, level)`` pair
    without a weight entry; ``ValueError`` on a negative explicit
    duration), and an in-service row of any catalogued name whose level
    is not a :class:`~repro.core.events.Severity` raises the
    ``ValueError`` of :func:`row_severity`; stateful rows are
    reconstructed as dicts and deferred to the driver.
    """

    index: ResolverIndex
    vm_of: Mapping[str, int]

    def __call__(self, batch: Any) -> _ResolvedBatch:
        size = len(batch)
        if size == 0:
            empty_f = np.empty(0, dtype=np.float64)
            empty_i = np.empty(0, dtype=np.int64)
            return _ResolvedBatch((), empty_i, empty_i.copy(), empty_f,
                                  empty_i.copy(), empty_f.copy(),
                                  empty_f.copy(), 0)
        name_block = batch.column("name")
        target_block = batch.column("target")
        times = np.asarray(batch.values("time"), dtype=np.float64)
        levels = np.asarray(batch.values("level"), dtype=np.int64)
        dur_block = batch.column("duration")
        dur_vals = np.asarray(dur_block.values, dtype=np.float64)
        dur_null = dur_block.null_mask
        if dur_null is None:
            dur_null = np.zeros(size, dtype=np.bool_)

        vm_of = self.vm_of
        uniq_targets, inv_t = factorize_block(target_block)
        target_codes = np.fromiter(
            (vm_of.get(t, -1) for t in uniq_targets.tolist()),
            dtype=np.int64, count=len(uniq_targets),
        )
        vm_idx_all = target_codes[inv_t]
        in_service = vm_idx_all >= 0
        event_count = int(np.count_nonzero(in_service))

        uniq_names, inv_n = factorize_block(name_block)
        num_levels = int(Severity.FATAL) + 1
        k = len(uniq_names)
        windows = np.zeros(k, dtype=np.float64)
        kind = np.zeros(k, dtype=np.int8)  # 0 unknown / 1 stateless / 2 stateful
        has_entry = np.zeros((k, num_levels), dtype=np.bool_)
        weight_lut = np.zeros((k, num_levels), dtype=np.float64)
        cat_lut = np.zeros((k, num_levels), dtype=np.int64)
        stateless = self.index.stateless
        stateful_names = self.index.stateful_names
        names_tuple = tuple(uniq_names.tolist())
        for j, name in enumerate(names_tuple):
            info = stateless.get(name)
            if info is not None:
                kind[j] = 1
                windows[j] = info[0]
                for level, (weight, category) in info[1].items():
                    if 0 <= level < num_levels:
                        has_entry[j, level] = True
                        weight_lut[j, level] = weight
                        cat_lut[j, level] = category
            elif name in stateful_names:
                kind[j] = 2

        kinds_all = kind[inv_n]
        # Severity values are the contiguous 1-based ranks of Formula 1.
        level_ok = (levels >= 1) & (levels < num_levels)
        if not level_ok.all():
            unknown = in_service & (kinds_all != 0) & ~level_ok
            if unknown.any():
                bad = int(np.argmax(unknown))
                row_severity({"level": int(levels[bad]),
                              "name": names_tuple[inv_n[bad]]})
        safe_levels = np.where(level_ok, levels, 0)
        sel = in_service & (kinds_all == 1) & level_ok
        sel &= has_entry[inv_n, safe_levels]

        # A negative *explicit* duration is an error on any stateless
        # in-service event whose (name, level) has a weight entry.
        explicit = sel & ~dur_null & (dur_vals < 0)
        if explicit.any():
            bad = int(np.argmax(explicit))
            raise ValueError(
                f"negative duration {float(dur_vals[bad])} on event "
                f"{uniq_names[inv_n[bad]]!r}"
            )

        sel_idx = np.nonzero(sel)[0]
        sel_names = inv_n[sel_idx]
        sel_levels = levels[sel_idx]
        durations = np.where(
            dur_null[sel_idx], windows[sel_names], dur_vals[sel_idx]
        )
        ends = times[sel_idx]

        stateful_rows: list[tuple[str, dict[str, Any]]] = []
        if (kinds_all == 2).any():
            # Decode strings only on this (rare) branch — the hot
            # stateless path never materializes per-row python objects.
            targets = target_block.to_pylist()
            names_col = name_block.to_pylist()
            exp_vals = np.asarray(
                batch.values("expire_interval"), dtype=np.float64
            )
            for i in np.nonzero(in_service & (kinds_all == 2))[0].tolist():
                stateful_rows.append((targets[i], {
                    "name": names_col[i],
                    "time": float(times[i]),
                    "target": targets[i],
                    "level": int(levels[i]),
                    "expire_interval": float(exp_vals[i]),
                    "duration": None if dur_null[i] else float(dur_vals[i]),
                }))

        return _ResolvedBatch(
            names=names_tuple,
            name_ids=np.ascontiguousarray(sel_names, dtype=np.int64),
            vm_idx=np.ascontiguousarray(vm_idx_all[sel_idx], dtype=np.int64),
            weights=weight_lut[sel_names, sel_levels],
            cats=cat_lut[sel_names, sel_levels],
            starts=ends - durations,
            ends=ends,
            event_count=event_count,
            stateful=stateful_rows,
        )


class DailyCdiJob:
    """End-to-end daily computation on the shard-map engine.

    Parameters
    ----------
    context:
        Engine context (the "100 executors" of Section V, scaled down).
    tables:
        Table store holding ``events`` and receiving the two outputs.
    config_db:
        Config DB holding the weight configuration under
        :data:`WEIGHTS_CONFIG_KEY`.
    catalog:
        Event catalog (name → category/kind/window).
    use_fastpath:
        ``True`` (default) is the production path: columnar scan and
        the vectorized fleet kernel.  ``False`` makes this job the
        Algorithm-1 oracle — the per-VM reference sweep, for tests and
        benchmark oracles to compare against.  The output tables are
        byte-identical either way.
    """

    def __init__(self, context: EngineContext, tables: TableStore,
                 config_db: ConfigDB, catalog: EventCatalog, *,
                 use_fastpath: bool = True) -> None:
        self._context = context
        self._tables = tables
        self._config_db = config_db
        self._catalog = catalog
        self._path = "columnar" if use_fastpath else "reference"
        # (config version → resolved weight table + resolver index);
        # weight resolution is computed once per configuration, not
        # once per run (let alone once per period).
        self._weight_cache: tuple[int, WeightTable, ResolverIndex] | None = None
        for name, schema in (
            (EVENTS_TABLE, events_schema()),
            (VM_CDI_TABLE, vm_cdi_schema()),
            (EVENT_CDI_TABLE, event_cdi_schema()),
        ):
            tables.create(name, schema, if_not_exists=True)

    @property
    def tables(self) -> TableStore:
        """The job's table store (events + the two output tables)."""
        return self._tables

    def output_rows(
        self, partition: str
    ) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
        """``(vm_cdi, event_cdi)`` rows written for one partition.

        Public read path for downstream consumers (e.g. the backfill
        runner) so they don't reach into the private table store.
        """
        return (
            self._tables.get(VM_CDI_TABLE).rows(partition=partition),
            self._tables.get(EVENT_CDI_TABLE).rows(partition=partition),
        )

    # -- ingestion ---------------------------------------------------------

    def ingest_events(self, events: Iterable[Event], partition: str, *,
                      unit: str | None = None) -> int:
        """Append raw events into the events table (SLS → MaxCompute sync).

        ``unit`` routes the batch into a per-shard events partition
        (:func:`shard_events_partition`) for out-of-core runs: events
        must then be pre-sharded exactly like the VM list that
        ``run_checkpointed(..., sharded_events=True)`` will split.
        """
        if unit is not None:
            partition = shard_events_partition(partition, unit)
        table = self._tables.get(EVENTS_TABLE)
        return table.append([event_to_row(e) for e in events], partition)

    def store_weights(self, weights: WeightConfig) -> None:
        """Persist the weight configuration (ticket model + expert review)."""
        self._config_db.put(WEIGHTS_CONFIG_KEY, weights.to_dict())

    def load_weights(self) -> WeightConfig:
        """Load the latest weight configuration."""
        record = self._config_db.get(WEIGHTS_CONFIG_KEY)
        return WeightConfig.from_dict(record.value)

    def _resolved_weights(self) -> tuple[WeightTable, ResolverIndex]:
        """Weight table + resolver index for the current config version."""
        record = self._config_db.get(WEIGHTS_CONFIG_KEY)
        cached = self._weight_cache
        if cached is not None and cached[0] == record.version:
            return cached[1], cached[2]
        weights = WeightConfig.from_dict(record.value)
        weight_table = WeightTable.from_config(self._catalog, weights)
        index = ResolverIndex.build(self._catalog, weight_table)
        self._weight_cache = (record.version, weight_table, index)
        return weight_table, index

    # -- the job -------------------------------------------------------------

    def run(self, partition: str, services: Mapping[str, ServicePeriod], *,
            trace: RunTrace | None = None) -> DailyJobResult:
        """Compute and write the two output tables for one day.

        ``services`` maps each VM in service to its service period; VMs
        without any events still contribute zero-CDI rows (their
        service time dilutes the fleet aggregate, Formula 4).
        ``trace`` attaches a
        :class:`~repro.engine.trace.RunTrace` flight recorder for the
        duration of the run: pipeline-stage spans here, node spans and
        attempt records from the engine underneath.
        """
        horizon = max((s.end for s in services.values()), default=0.0)
        with trace_span(trace, f"daily[{partition}]", "pipeline",
                        path=self._path), \
                executor_tracing(self._context.executor, trace):
            with trace_span(trace, "compute", "stage",
                            vms=len(services)):
                vm_columns, event_columns, event_count = (
                    self._compute_columns(partition, services, horizon)
                )
            with trace_span(trace, "write_outputs", "stage"):
                return self._write_outputs(
                    partition, vm_columns, event_columns, event_count
                )

    def run_checkpointed(
        self, partition: str, services: Mapping[str, ServicePeriod], *,
        checkpoint: JobCheckpoint, shards: int = 8, resume: bool = True,
        sharded_events: bool = False, trace: RunTrace | None = None,
    ) -> DailyJobResult:
        """Fault-tolerant :meth:`run`: compute in VM shards, checkpoint
        each, and resume a killed run from the last completed shard.

        The sorted VM list is split into ``shards`` contiguous shards;
        each shard's output columns are staged durably through
        ``checkpoint`` as soon as it completes.  On ``resume``, shards
        already recorded (under a matching job fingerprint) are **not
        recomputed** — their events are never even re-scanned — and a
        fully finalized checkpoint skips straight to rewriting the
        merged outputs.  Output tables are byte-identical to a plain
        :meth:`run` because the fleet kernel's per-VM results are exact
        per group: sharding only partitions the sweep, never changes
        any value, and contiguous shards concatenate back into the
        canonical global order.

        ``sharded_events=True`` scans each shard's events from its own
        partition (:func:`shard_events_partition`) instead of the whole
        day's — the out-of-core mode.  The caller must have ingested
        events with matching ``unit`` routing (same contiguous split of
        the same sorted VM list); the outputs are then still identical
        because every event lands in the shard that owns its target VM
        and off-shard events were dropped by the service filter anyway.
        """
        horizon = max((s.end for s in services.values()), default=0.0)
        fingerprint = self.checkpoint_fingerprint(
            partition, services, shards=shards,
            sharded_events=sharded_events,
        )
        done = checkpoint.ensure(fingerprint, partition, resume=resume)
        vm_list = sorted(services)
        shard_vms = split_shards(vm_list, shards)
        units = shard_units(len(shard_vms))
        with trace_span(trace, f"daily_checkpointed[{partition}]",
                        "pipeline", path=self._path, shards=len(shard_vms),
                        resumed=len(done)), \
                executor_tracing(self._context.executor, trace):
            for unit, vms in zip(units, shard_vms):
                if unit in done:
                    continue
                with trace_span(trace, f"shard[{unit}]", "shard",
                                vms=len(vms)):
                    shard_services = {vm: services[vm] for vm in vms}
                    events_partition = (
                        shard_events_partition(partition, unit)
                        if sharded_events else partition
                    )
                    vm_cols, event_cols, count = self._compute_columns(
                        events_partition, shard_services, horizon
                    )
                    checkpoint.record_shard(unit, vm_cols, event_cols, count)
            with trace_span(trace, "merge_write", "stage"):
                event_count = sum(checkpoint.completed_units().values())
                vm_columns, event_columns = checkpoint.merged_columns(units)
                result = self._write_outputs(
                    partition, vm_columns, event_columns, event_count
                )
                checkpoint.mark_finalized()
            return result

    def checkpoint_fingerprint(
        self, partition: str, services: Mapping[str, ServicePeriod], *,
        shards: int, sharded_events: bool = False,
    ) -> str:
        """Fingerprint of one checkpointed run's inputs.

        Used to decide whether an on-disk checkpoint belongs to the
        same work (same day, services, weight-config version, shard
        count, compute path, and event-partition layout) before
        resuming from it.
        """
        path = self._path
        if sharded_events:
            path += "+sharded-events"
        version = self._config_db.get(WEIGHTS_CONFIG_KEY).version
        return job_fingerprint(partition, services, version, shards, path)

    def _write_outputs(self, partition: str, vm_columns: dict[str, list],
                       event_columns: dict[str, list],
                       event_count: int) -> DailyJobResult:
        """Overwrite both output partitions and build the run summary."""
        self._tables.get(VM_CDI_TABLE).overwrite_partition_columns(
            vm_columns, partition
        )
        self._tables.get(EVENT_CDI_TABLE).overwrite_partition_columns(
            event_columns, partition
        )
        return DailyJobResult(
            partition=partition,
            vm_count=len(vm_columns["vm"]),
            event_count=event_count,
            fleet_report=fleet_report_from_columns(vm_columns),
        )

    def _compute_columns(
        self, partition: str, services: Mapping[str, ServicePeriod],
        horizon: float,
    ) -> tuple[dict[str, list], dict[str, list], int]:
        """One compute pass over ``services``, as output column lists.

        The single entry point behind :meth:`run` and each checkpoint
        shard; the oracle's rows are converted column-major so the
        write side is uniform.
        """
        if self._path == "columnar":
            return self._run_columnar(partition, services, horizon)
        return self._run_reference(partition, services, horizon)

    def _run_columnar(
        self, partition: str, services: Mapping[str, ServicePeriod],
        horizon: float,
    ) -> tuple[dict[str, list], dict[str, list], int]:
        """Column-batch scan → vectorized resolve → one kernel sweep.

        The events table is scanned as typed column blocks (no row
        dicts), each engine task resolves its batch with array
        gathers, and the per-batch name tables are merged into one
        global table before the fleet kernel sweep.  Stateful detail
        rows (rare) fall back to the reference pairing per VM.  Returns
        the two output tables as column value lists in canonical order,
        written through the vectorized columnar validation without ever
        materializing row dicts.
        """
        weight_table, index = self._resolved_weights()
        vm_list = sorted(services)
        vm_of = {vm: i for i, vm in enumerate(vm_list)}
        stage = _ResolveColumnsStage(index, vm_of)
        batches = self._tables.get(EVENTS_TABLE).column_batches(
            partition=partition, batches=self._context.parallelism
        )
        resolved = self._context.map_shards(
            stage, batches, name="resolve_columns"
        )

        # name → global name id, in first-seen order.
        name_of: dict[str, int] = {}
        parts: list[tuple[np.ndarray, ...]] = []
        stateful_by_vm: dict[str, list[dict[str, Any]]] = {}
        event_count = 0
        for bundle in resolved:
            event_count += bundle.event_count
            if len(bundle.name_ids):
                # Remap batch-local name ids onto the global name table.
                lut = np.array(
                    [name_of.setdefault(name, len(name_of))
                     for name in bundle.names], dtype=np.int64,
                )
                parts.append((bundle.vm_idx, lut[bundle.name_ids],
                              bundle.weights, bundle.cats, bundle.starts,
                              bundle.ends))
            for vm, row in bundle.stateful:
                stateful_by_vm.setdefault(vm, []).append(row)

        # Always appended (empty when the day has no stateful rows), so
        # the concatenation below never sees an empty part list.
        parts.append(flat_interval_arrays(
            ((vm_of[vm], resolve_stateful_rows(
                vm_rows, self._catalog, weight_table, horizon))
             for vm, vm_rows in stateful_by_vm.items()),
            name_of,
        ))
        vm_idx, name_ids, weights, cats, starts, ends = (
            np.concatenate(column) for column in zip(*parts)
        )

        svc_starts = np.array(
            [services[vm].start for vm in vm_list], dtype=np.float64
        )
        svc_ends = np.array(
            [services[vm].end for vm in vm_list], dtype=np.float64
        )
        columns = fleet_cdi_columns_columnar(
            vm_list, svc_starts, svc_ends, vm_idx, name_ids, list(name_of),
            weights, cats, starts, ends,
        )
        return columns.vm_columns, columns.event_columns, event_count

    def _run_reference(
        self, partition: str, services: Mapping[str, ServicePeriod],
        horizon: float,
    ) -> tuple[dict[str, list], dict[str, list], int]:
        """Algorithm 1 executed literally, per VM per category per name."""
        rows = [
            row for row in self._tables.get(EVENTS_TABLE).rows(
                partition=partition
            )
            if row["target"] in services
        ]
        # Uncatalogued names are dropped before conversion (period
        # resolution would skip them anyway), so only a row that counts
        # can raise on its fields.
        logical_name = self._catalog.logical_name
        by_vm: dict[str, list[Event]] = {}
        for row in rows:
            if logical_name(row["name"]) is not None:
                by_vm.setdefault(row["target"], []).append(row_to_event(row))
        calculator = CdiCalculator(self._catalog, self.load_weights())
        vm_rows: list[dict[str, Any]] = []
        event_rows: list[dict[str, Any]] = []
        for vm, service in services.items():
            periods = resolve_periods(
                by_vm.get(vm, ()), self._catalog, horizon=horizon
            )
            report = calculator.vm_report(periods, service)
            vm_rows.append({
                "vm": vm,
                "unavailability": report.unavailability,
                "performance": report.performance,
                "control_plane": report.control_plane,
                "service_time": report.service_time,
            })
            event_rows.extend(
                {
                    "vm": vm,
                    "event": name,
                    "cdi": calculator.event_level_cdi(periods, service, name),
                    "service_time": service.duration,
                }
                for name in sorted({p.name for p in periods})
            )
        vm_rows.sort(key=_vm_row_key)
        event_rows.sort(key=_event_row_key)
        return (
            _rows_to_columns(vm_rows, vm_cdi_schema().names),
            _rows_to_columns(event_rows, event_cdi_schema().names),
            len(rows),
        )


def _rows_to_columns(rows: list[dict[str, Any]],
                     names: Sequence[str]) -> dict[str, list]:
    """Row dicts → column value lists, preserving row order."""
    return {name: [row[name] for row in rows] for name in names}


#: Deterministic output orders (C-level key extraction for the sorts).
_vm_row_key = itemgetter("vm")
_event_row_key = itemgetter("vm", "event")


def fleet_report_from_rows(rows: list[Mapping[str, Any]]) -> CdiReport:
    """Formula 4 aggregation over vm_cdi rows, in row order.

    The rows are transposed and handed to
    :func:`fleet_report_from_columns`, so there is one accumulator.
    """
    return fleet_report_from_columns(_rows_to_columns(rows, (
        "service_time", "unavailability", "performance", "control_plane",
    )))


def fleet_report_from_columns(columns: Mapping[str, list]) -> CdiReport:
    """Formula 4 over vm_cdi *columns*.

    One fused pass accumulating the three numerators and the shared
    service-time denominator in row order — float-identical to calling
    :func:`repro.core.indicator.aggregate` per category (not a numpy
    sum: pairwise summation would round differently).
    """
    num_u = num_p = num_c = total = 0.0
    for service_time, u, p, c in zip(
        columns["service_time"], columns["unavailability"],
        columns["performance"], columns["control_plane"],
    ):
        if service_time < 0:
            raise ValueError(f"negative service time {service_time}")
        num_u += service_time * u
        num_p += service_time * p
        num_c += service_time * c
        total += service_time
    if total == 0.0:
        return CdiReport(unavailability=0.0, performance=0.0,
                         control_plane=0.0, service_time=total)
    return CdiReport(
        unavailability=num_u / total,
        performance=num_p / total,
        control_plane=num_c / total,
        service_time=total,
    )
