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

The publishable snapshot is typed and maintained by delta: a fixed
sorted VM axis (one sealed ``vm`` block, service bounds as arrays), a
``float64`` array per category over it, and ``event_cdi`` as parallel
arrays (VM index, event-name code, cdi) in ``(vm, event)`` order.
:meth:`~IncrementalCdiState.refresh` pushes the dirty VMs through the
daily job's kernel assembly
(:func:`~repro.core.fastpath.fleet_cdi_columns_columnar`) in one call,
scatters the category values in by index and swaps the dirty VMs' event
segments: a tick costs Python over its events and dirty VMs plus array
copies over the fleet.  The kernel is exact per group (what
``run_checkpointed`` sharding relies on) and a stable sort on VM index
restores the canonical order, so the snapshot is byte-identical — not
approximately equal — to a from-scratch batch recompute over the same
rows, which ``tests/streaming`` asserts.
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
from repro.core.indicator import ServicePeriod
from repro.pipeline.daily import (
    event_to_row,
    resolve_stateful_rows,
    resolve_stateless_row,
    row_severity,
)
from repro.serving.rollups import CATEGORIES
from repro.storage.columns import ColumnBatch, ColumnBlock


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
        vms = self._vm_names = tuple(sorted(services))
        self._vm_index = {vm: i for i, vm in enumerate(vms)}
        self._vm_block = ColumnBlock.build(str, vms)
        periods = [services[vm] for vm in vms]
        self._svc_starts = np.array([p.start for p in periods], dtype=float)
        self._svc_ends = np.array([p.end for p in periods], dtype=float)
        self._durations = self._svc_ends - self._svc_starts
        # Open stateful periods clip here (max service end).
        self._horizon = max(self._svc_ends.tolist(), default=0.0)
        self._catalog = catalog
        self._weight_table = weight_table
        self._index = index
        self._flat: dict[str, list[FlatInterval]] = {}
        self._stateful_rows: dict[str, list[dict[str, Any]]] = {}
        # One array per category over the VM axis; eventless VMs stay
        # at the kernel's exact zero row.
        self._cdi = {name: np.zeros(len(vms)) for name in CATEGORIES}
        # event_cdi as parallel arrays in canonical (vm, event) order;
        # ``code`` indexes the growing ``_event_names`` dictionary.
        self._events = {"vm": np.empty(0, np.int32),
                        "code": np.empty(0, np.int32), "cdi": np.empty(0)}
        self._event_names: dict[str, int] = {}
        self._dirty: set[str] = set()
        self._applied = 0

    @property
    def applied(self) -> int:
        """Rows accepted so far (the batch job's ``event_count``)."""
        return self._applied

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
        if vm not in self._vm_index:
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
        vm_index = self._vm_index
        axis = np.array([vm_index[vm] for vm in dirty], dtype=np.int64)
        columns = fleet_cdi_columns_columnar(
            dirty, self._svc_starts[axis], self._svc_ends[axis],
            vm_idx, name_ids, list(name_of), weights, cats, starts, ends,
        )
        for name, values in self._cdi.items():
            values[axis] = columns.vm_columns[name]
        # Swap the dirty VMs' event segments.  The mask decides what
        # leaves (re-pairing can shrink or empty a VM's rows); kernel
        # output is (vm, event)-sorted and dirty/clean VMs are disjoint,
        # so a stable sort on VM index restores the canonical order.
        is_dirty = np.zeros(len(vm_index), dtype=np.bool_)
        is_dirty[axis] = True
        clean = ~is_dirty[self._events["vm"]]
        events, codes = columns.event_columns, self._event_names
        fresh = {
            "vm": [vm_index[vm] for vm in events["vm"]],
            "code": [codes.setdefault(n, len(codes)) for n in events["event"]],
            "cdi": events["cdi"],
        }
        merged = {
            key: np.concatenate((old[clean], np.array(fresh[key], old.dtype)))
            for key, old in self._events.items()
        }
        order = np.argsort(merged["vm"], kind="stable")
        self._events = {key: arr[order] for key, arr in merged.items()}
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

    def snapshot_columns(
        self,
    ) -> tuple[dict[str, ColumnBlock], dict[str, ColumnBlock]]:
        """``(vm_cdi, event_cdi)`` as typed column blocks (the publish shape).

        Canonical batch order: VM rows by VM, event rows by (VM, event).
        Every block is a fresh read-only copy — never a view of the
        working arrays — except the ``vm`` block, sealed once.
        """
        self.refresh()
        events = self._events
        vm_columns = {
            "vm": self._vm_block,
            **{name: ColumnBlock(arr.copy())
               for name, arr in self._cdi.items()},
            "service_time": ColumnBlock(self._durations.copy()),
        }
        event_columns = {
            "vm": ColumnBlock.from_codes(events["vm"].copy(), self._vm_names),
            "event": ColumnBlock.from_codes(events["code"].copy(),
                                            self._event_names),
            "cdi": ColumnBlock(events["cdi"].copy()),
            "service_time": ColumnBlock(self._durations[events["vm"]]),
        }
        return vm_columns, event_columns

    def snapshot_rows(
        self,
    ) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
        """:meth:`snapshot_columns` decoded to row dicts."""
        return tuple(
            list(ColumnBatch(columns, len(columns["vm"])).rows())
            for columns in self.snapshot_columns()
        )
