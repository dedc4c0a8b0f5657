"""Incrementally maintained per-VM damage integrals and rollup rows.

:class:`IncrementalCdiState` is the streaming counterpart of one
:meth:`~repro.pipeline.daily.DailyCdiJob.run` compute pass: it accepts
events-table rows one at a time (in the tailer's release order) and
keeps, per VM, exactly the flat weight-resolved intervals the daily
job's resolve stage would have produced for the same rows — stateless
rows through :func:`~repro.pipeline.daily.resolve_stateless_row`,
stateful ``*_add``/``*_del`` rows re-paired wholesale through the
shared :func:`~repro.pipeline.daily.resolve_stateful_rows` whenever a
new one arrives (pairing is order-sensitive, so the carried raw rows
are resolved as one group, never incrementally).

Each :meth:`~IncrementalCdiState.refresh` pushes all the VMs dirtied
since the last one through the daily job's kernel assembly
(:func:`~repro.core.fastpath.fleet_cdi_columns_columnar`) in one call
and splices the returned columns into per-VM caches.  The kernel is
exact per group — the property ``run_checkpointed`` sharding already
relies on — so a snapshot assembled from per-tick sweeps over whichever
VMs happened to be dirty is byte-identical to a from-scratch batch
recompute over the same rows.  That identity — not approximate
agreement — is what ``tests/streaming`` asserts.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

import numpy as np

from repro.core.events import Event, EventCatalog
from repro.core.fastpath import (
    FlatInterval,
    ResolverIndex,
    WeightTable,
    flat_interval_arrays,
    fleet_cdi_columns_columnar,
)
from repro.core.indicator import CdiReport, ServicePeriod
from repro.pipeline.daily import (
    _columns_to_rows,
    _rows_to_columns,
    event_to_row,
    fleet_report_from_columns,
    resolve_stateful_rows,
    resolve_stateless_row,
    row_severity,
)
from repro.pipeline.tables import event_cdi_schema, vm_cdi_schema


class IncrementalCdiState:
    """Per-VM CDI state maintained online across tick boundaries.

    Parameters
    ----------
    services:
        VM → service period, fixed for the stream's day.  Rows whose
        target is not in service are rejected by :meth:`apply` (the
        batch job's service filter).
    catalog:
        Event catalog (stateful pairing definitions).
    weight_table, index:
        The resolved weight configuration — the same objects the batch
        job builds once per config version.
    """

    def __init__(self, services: Mapping[str, ServicePeriod],
                 catalog: EventCatalog, weight_table: WeightTable,
                 index: ResolverIndex) -> None:
        self._services = dict(services)
        self._vm_list = sorted(self._services)
        self._horizon = max(
            (s.end for s in self._services.values()), default=0.0
        )
        self._catalog = catalog
        self._weight_table = weight_table
        self._index = index
        self._flat: dict[str, list[FlatInterval]] = {}
        self._stateful_rows: dict[str, list[dict[str, Any]]] = {}
        # Caches hold each VM's latest kernel output; eventless VMs
        # start at the kernel's exact zero row (0.0 integrals over the
        # service-time denominator).
        self._vm_row_cache: dict[str, dict[str, Any]] = {
            vm: {
                "vm": vm, "unavailability": 0.0, "performance": 0.0,
                "control_plane": 0.0,
                "service_time": service.end - service.start,
            }
            for vm, service in self._services.items()
        }
        self._event_rows_cache: dict[str, list[dict[str, Any]]] = {
            vm: [] for vm in self._services
        }
        self._dirty: set[str] = set()
        self._applied = 0

    @property
    def applied(self) -> int:
        """Rows accepted so far (the batch job's ``event_count``)."""
        return self._applied

    @property
    def horizon(self) -> float:
        """Open stateful periods clip here (max service end)."""
        return self._horizon

    def apply(self, row: Mapping[str, Any]) -> bool:
        """Ingest one events-table row; ``False`` if out of service.

        Applies the exact batch resolution semantics: stateless rows
        resolve immediately (``(name, level)`` pairs without a weight
        entry skip), stateful rows join the VM's carried raw group for
        wholesale re-pairing, and unknown names count toward
        ``applied`` without producing intervals.  A negative explicit
        duration, or a level that is no ``Severity`` on a catalogued
        name, raises ``ValueError`` as the batch resolve stage would.
        """
        vm = row["target"]
        if vm not in self._services:
            return False
        self._applied += 1
        name = row["name"]
        info = self._index.stateless.get(name)
        if info is not None:
            interval = resolve_stateless_row(row, info)
            if interval is not None:
                self._flat.setdefault(vm, []).append(interval)
                self._dirty.add(vm)
        elif name in self._index.stateful_names:
            row_severity(row)
            self._stateful_rows.setdefault(vm, []).append(dict(row))
            self._dirty.add(vm)
        return True

    def apply_event(self, event: Event) -> bool:
        """Ingest one extracted :class:`Event` (row conversion inline)."""
        return self.apply(event_to_row(event))

    def apply_rows(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """Ingest many rows in order; returns how many were accepted."""
        accepted = 0
        for row in rows:
            if self.apply(row):
                accepted += 1
        return accepted

    def refresh(self) -> set[str]:
        """Re-sweep all dirty VMs in one kernel call; returns them."""
        if not self._dirty:
            return set()
        dirty = sorted(self._dirty)
        name_of: dict[str, int] = {}
        vm_idx, name_ids, weights, cats, starts, ends = flat_interval_arrays(
            ((i, self._intervals(vm)) for i, vm in enumerate(dirty)), name_of
        )
        periods = [self._services[vm] for vm in dirty]
        columns = fleet_cdi_columns_columnar(
            dirty,
            np.array([p.start for p in periods], dtype=np.float64),
            np.array([p.end for p in periods], dtype=np.float64),
            vm_idx, name_ids, list(name_of), weights, cats, starts, ends,
        )
        for row in _columns_to_rows(columns.vm_columns,
                                    vm_cdi_schema().names):
            self._vm_row_cache[row["vm"]] = row
            self._event_rows_cache[row["vm"]] = []
        # Kernel output is in canonical (vm, event) order, so each VM's
        # rows land in its cache already event-sorted.
        for row in _columns_to_rows(columns.event_columns,
                                    event_cdi_schema().names):
            self._event_rows_cache[row["vm"]].append(row)
        recomputed = self._dirty
        self._dirty = set()
        return recomputed

    def _intervals(self, vm: str) -> list[FlatInterval]:
        """The VM's current flat intervals, stateful rows re-paired."""
        flat = self._flat.get(vm, [])
        stateful = self._stateful_rows.get(vm)
        if stateful:
            flat = flat + resolve_stateful_rows(
                stateful, self._catalog, self._weight_table, self._horizon
            )
        return flat

    def snapshot_rows(
        self,
    ) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
        """``(vm_cdi, event_cdi)`` rows in the canonical batch order.

        VM rows sorted by VM; event rows sorted by (VM, event) — each
        VM's cached rows are already event-sorted, so concatenating
        them in VM order *is* the global sort.
        """
        self.refresh()
        vm_rows = [self._vm_row_cache[vm] for vm in self._vm_list]
        event_rows: list[dict[str, Any]] = []
        for vm in self._vm_list:
            event_rows.extend(self._event_rows_cache[vm])
        return vm_rows, event_rows

    def snapshot_columns(self) -> tuple[dict[str, list], dict[str, list]]:
        """Snapshot as output-table column lists (the publish shape)."""
        vm_rows, event_rows = self.snapshot_rows()
        return (
            _rows_to_columns(vm_rows, vm_cdi_schema().names),
            _rows_to_columns(event_rows, event_cdi_schema().names),
        )

    def fleet_report(self) -> CdiReport:
        """Formula 4 aggregation over the current per-VM rows."""
        vm_rows, _ = self.snapshot_rows()
        return fleet_report_from_columns(
            _rows_to_columns(vm_rows, vm_cdi_schema().names)
        )
