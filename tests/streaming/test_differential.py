"""The headline differential gate: stream ≡ batch, byte for byte.

Hypothesis drives adversarial :class:`~tests.strategies.StreamCase`
scenarios — shuffled bounded-lag arrivals, duplicates, unknown names,
null and boundary-straddling durations, orphan/open stateful pairs,
arbitrary tick boundaries — through the streaming pipeline and
demands the published tables equal a from-scratch batch recompute on
both batch paths (columnar and the reference oracle).  Deterministic companions cover the cases the
bounded-lag precondition excludes (true beyond-watermark drops) and
mid-stream resume.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.events import Event, Severity, default_catalog
from repro.core.fastpath import ResolverIndex, WeightTable
from repro.core.weights import expert_only_config
from repro.engine.dataset import EngineContext
from repro.pipeline.daily import WEIGHTS_CONFIG_KEY, DailyCdiJob, event_to_row
from repro.storage.logstore import LogStore
from repro.storage.table import TableStore
from repro.streaming import IncrementalCdiState, StreamCheckpoint

from tests.strategies import (
    DAY,
    make_fleet_events,
    make_services,
    stream_cases,
)
from tests.streaming.conftest import (
    ALL_PATHS,
    PARTITION,
    make_config_db,
    append_events,
    batch_bytes,
    bounded_lag_arrival,
    chunked,
    decoded,
    make_pipeline,
    oracle_order,
    published_bytes,
    run_stream,
)


class TestStreamBatchEquivalence:
    @given(case=stream_cases())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_published_tables_byte_identical_to_batch(self, case):
        services = case.services()
        store = LogStore()
        tables = TableStore()
        pipeline = make_pipeline(store, services,
                                 allowed_lateness=case.lateness,
                                 tables=tables)
        for chunk in case.chunks():
            append_events(store, chunk)
            pipeline.tick()
        pipeline.flush()
        # The bounded-lag arrival order makes zero drops a theorem,
        # so the oracle runs over *all* the arrivals.
        assert pipeline.tailer.late_dropped == 0
        assert pipeline.state.applied == len(case.arrival)
        streamed = published_bytes(tables)
        oracle = case.oracle_events()
        for use_fastpath in ALL_PATHS:
            assert streamed == batch_bytes(
                oracle, services, use_fastpath=use_fastpath
            )

    @given(case=stream_cases(max_ticks=3))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_tick_granularity_is_invisible(self, case):
        """One tick per arrival vs. the case's ticks: same bytes."""
        services = case.services()
        _, coarse, _ = run_stream(list(case.arrival), services,
                                  allowed_lateness=case.lateness,
                                  chunks=len(case.tick_sizes))
        _, fine, _ = run_stream(list(case.arrival), services,
                                allowed_lateness=case.lateness,
                                chunks=max(1, len(case.arrival)))
        assert published_bytes(coarse) == published_bytes(fine)


class TestBatchedRefresh:
    """One refresh sweeping many dirty VMs at once ≡ many small
    refreshes ≡ the columnar batch job — over a day that has stateful
    add/del pairs, clipped-out and zero-weight intervals, and
    eventless VMs."""

    VMS = 24

    def weights(self):
        """The expert weight table with one entry forced to weight 0
        (no weight configuration produces one; the kernel's filter
        still has to treat it like the batch job does)."""
        catalog = default_catalog()
        table = WeightTable.from_config(catalog, expert_only_config())
        entries = dict(table.entries)
        _, category = entries[("slow_io", Severity.INFO)]
        entries[("slow_io", Severity.INFO)] = (0.0, category)
        table = WeightTable(entries)
        return catalog, table, ResolverIndex.build(catalog, table)

    def day_rows(self, seed):
        events = make_fleet_events(seed, vm_count=self.VMS, events_per_vm=4)
        events += [
            # Wholly after the service period: clips out, row stays.
            Event(name="vm_down", time=2 * DAY, target="vm-001",
                  expire_interval=600.0, level=Severity.FATAL,
                  attributes={"duration": 60.0}),
            Event(name="slow_io", time=5_000.0, target="vm-002",
                  expire_interval=600.0, level=Severity.INFO,
                  attributes={"duration": 900.0}),
        ]
        random.Random(seed).shuffle(events)
        return events, [event_to_row(event) for event in events]

    @pytest.mark.parametrize("seed", [3, 11])
    def test_one_big_refresh_equals_small_ticks_and_batch(self, seed):
        services = make_services(self.VMS + 4)  # 4 VMs never get an event
        catalog, table, index = self.weights()
        events, rows = self.day_rows(seed)

        fine = IncrementalCdiState(services, catalog, table, index)
        for start in range(0, len(rows), 3):
            fine.apply_rows(rows[start:start + 3])
            assert len(fine.refresh()) <= 3
        coarse = IncrementalCdiState(services, catalog, table, index)
        coarse.apply_rows(rows)
        assert len(coarse.refresh()) > self.VMS // 2
        # Decoded: dictionary order (first-seen event names) is not
        # part of a typed column's value.
        assert decoded(coarse.snapshot_columns()) == \
            decoded(fine.snapshot_columns())

        job = DailyCdiJob(EngineContext(parallelism=2), TableStore(),
                          make_config_db(), catalog)
        version = job._config_db.get(WEIGHTS_CONFIG_KEY).version
        job._weight_cache = (version, table, index)
        job.ingest_events(events, PARTITION)
        job.run(PARTITION, services)
        assert json.dumps(coarse.snapshot_rows(), sort_keys=True) == \
            json.dumps(list(job.output_rows(PARTITION)), sort_keys=True)
        # The clipped-out and the zero-weight occurrence still own a
        # drill-down row each.
        assert {("vm-001", "vm_down"), ("vm-002", "slow_io")} <= {
            (row["vm"], row["event"]) for row in coarse.snapshot_rows()[1]
        }


class TestSeededFleetDays:
    """The shared seeded generator, streamed: bigger fleets than the
    hypothesis cases, still byte-identical on both batch paths."""

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_seeded_day_all_paths(self, seed):
        services = make_services(16)
        events = make_fleet_events(seed, vm_count=16, events_per_vm=3)
        rng = random.Random(1000 + seed)
        arrival = bounded_lag_arrival(events, 3600.0, rng)
        pipeline, tables, _ = run_stream(arrival, services,
                                         allowed_lateness=3600.0,
                                         chunks=5)
        assert pipeline.tailer.late_dropped == 0
        streamed = published_bytes(tables)
        oracle = oracle_order(arrival)
        for use_fastpath in ALL_PATHS:
            assert streamed == batch_bytes(
                oracle, services, use_fastpath=use_fastpath
            )


class TestBeyondWatermark:
    """Truly late records (lag past the allowed lateness) drop
    deterministically; the oracle then covers the *admitted* set."""

    def make_event(self, name, time, vm="vm-000", duration=300.0):
        return Event(name=name, time=time, target=vm,
                     expire_interval=600.0, level=Severity.CRITICAL,
                     attributes={"duration": duration})

    def test_late_record_dropped_and_counted(self):
        services = make_services(1)
        admitted = [
            self.make_event("vm_down", 10_000.0),
            self.make_event("slow_io", 12_000.0),
        ]
        late = self.make_event("vm_down", 1_000.0)  # 11_000s stale
        store = LogStore()
        tables = TableStore()
        pipeline = make_pipeline(store, services,
                                 allowed_lateness=600.0, tables=tables)
        append_events(store, admitted)
        pipeline.tick()  # watermark → 12_000 - 600
        append_events(store, [late])
        pipeline.tick()
        pipeline.flush()
        assert pipeline.tailer.late_dropped == 1
        assert pipeline.state.applied == 2
        assert published_bytes(tables) == batch_bytes(admitted, services)

    def test_same_batch_records_never_drop_each_other(self):
        """Admission uses the previous poll's watermark: a batch whose
        newest record is hours ahead of its oldest still admits both."""
        services = make_services(1)
        events = [
            self.make_event("vm_down", 50_000.0),
            self.make_event("slow_io", 1_000.0),  # 49_000s older
        ]
        store = LogStore()
        tables = TableStore()
        pipeline = make_pipeline(store, services,
                                 allowed_lateness=600.0, tables=tables)
        append_events(store, events)
        pipeline.tick()
        pipeline.flush()
        assert pipeline.tailer.late_dropped == 0
        assert published_bytes(tables) == batch_bytes(
            oracle_order(events), services
        )


class TestMidStreamResume:
    def test_resume_then_continue_matches_uninterrupted(self, tmp_path):
        services = make_services(12)
        events = make_fleet_events(42, vm_count=12, events_per_vm=3)
        rng = random.Random(7)
        arrival = bounded_lag_arrival(events, 3600.0, rng)
        chunks = chunked(arrival, 6)

        # Uninterrupted reference run.
        _, reference, _ = run_stream(arrival, services,
                                     allowed_lateness=3600.0, chunks=6)

        # First half on pipeline A, then a fresh pipeline B resumes
        # from the checkpoint and finishes the stream.
        store = LogStore()
        tables = TableStore()
        checkpoint = StreamCheckpoint(tmp_path / "stream.ck")
        first = make_pipeline(store, services, allowed_lateness=3600.0,
                              checkpoint=checkpoint, tables=tables)
        for chunk in chunks[:3]:
            append_events(store, chunk)
            first.tick()
        del first

        tables_b = TableStore()
        second = make_pipeline(store, services, allowed_lateness=3600.0,
                               checkpoint=checkpoint, tables=tables_b)
        assert second.resume() is True
        assert second.ticks == 3
        for chunk in chunks[3:]:
            append_events(store, chunk)
            second.tick()
        second.flush()
        assert published_bytes(tables_b) == published_bytes(reference)
        assert published_bytes(tables_b) == batch_bytes(
            oracle_order(arrival), services
        )

    def test_resume_without_checkpoint_is_a_noop(self):
        services = make_services(2)
        pipeline = make_pipeline(LogStore(), services)
        assert pipeline.resume() is False

    def test_resume_with_empty_checkpoint_is_a_noop(self, tmp_path):
        services = make_services(2)
        pipeline = make_pipeline(
            LogStore(), services,
            checkpoint=StreamCheckpoint(tmp_path / "missing.ck"),
        )
        assert pipeline.resume() is False
