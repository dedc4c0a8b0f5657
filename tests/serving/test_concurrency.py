"""Thread-safety of the serving read path under concurrent writes.

The contract (DESIGN.md §11): readers snapshot generation stamps before
reading data and writers bump generations after mutating, so a racing
read returns either the pre-write or the post-write answer — never a
torn or stale one.  These tests hammer that window with real threads.
"""

import threading

import pytest

from repro.pipeline.backfill import run_days
from repro.pipeline.daily import fleet_report_from_rows
from repro.pipeline.tables import (
    EVENT_CDI_TABLE,
    VM_CDI_TABLE,
    event_cdi_schema,
    vm_cdi_schema,
)
from repro.serving import MISS, GenerationCache, QueryService
from repro.serving.service import FleetRangeQuery
from repro.storage.table import TableStore

from tests.serving.conftest import DAY, build_dataset, events_factory

ROUNDS = 200
READERS = 4


def make_rows(tag: str, performance: float) -> list[dict]:
    return [
        {"vm": f"vm-{tag}-{i:02d}", "unavailability": 0.0,
         "performance": performance * (i + 1), "control_plane": 0.0,
         "service_time": DAY}
        for i in range(8)
    ]


class TestReadersVsOverwrites:
    def test_answers_are_always_pre_or_post_write(self):
        tables = TableStore()
        tables.create(VM_CDI_TABLE, vm_cdi_schema())
        tables.create(EVENT_CDI_TABLE, event_cdi_schema())
        states = {
            "a": make_rows("a", 1e-4),
            "b": make_rows("b", 2e-4),
        }
        expected = {
            tag: fleet_report_from_rows(rows) for tag, rows in states.items()
        }
        vm_table = tables.get(VM_CDI_TABLE)
        vm_table.overwrite_partition(states["a"], partition="day00")
        service = QueryService(tables)

        stop = threading.Event()
        violations: list = []

        def reader():
            while not stop.is_set():
                report = service.fleet("day00")
                if report not in expected.values():
                    violations.append(report)
                    return

        threads = [threading.Thread(target=reader) for _ in range(READERS)]
        for thread in threads:
            thread.start()
        try:
            for round_number in range(ROUNDS):
                tag = "b" if round_number % 2 == 0 else "a"
                vm_table.overwrite_partition(states[tag], partition="day00")
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not violations, f"torn/stale read: {violations[:3]}"
        # The loop ended on an even round count → back to state "a".
        assert service.fleet("day00") == expected["a"]

    def test_write_visible_to_next_read(self):
        """Sequential write→read on different threads observes the write."""
        tables = TableStore()
        tables.create(VM_CDI_TABLE, vm_cdi_schema())
        tables.create(EVENT_CDI_TABLE, event_cdi_schema())
        service = QueryService(tables)
        vm_table = tables.get(VM_CDI_TABLE)
        results = []

        def writer_then_signal(rows, done):
            vm_table.overwrite_partition(rows, partition="day00")
            done.set()

        for tag in ("a", "b", "a", "b"):
            rows = make_rows(tag, 3e-4)
            done = threading.Event()
            thread = threading.Thread(
                target=writer_then_signal, args=(rows, done)
            )
            thread.start()
            done.wait()
            results.append(
                service.fleet("day00") == fleet_report_from_rows(rows)
            )
            thread.join()
        assert all(results)


class TestReadersDuringBackfill:
    def test_completed_days_stable_while_backfill_extends(self):
        """Readers over day00/day01 see constant answers while a live
        backfill appends later partitions through the engine."""
        job, fleet, services = build_dataset(days=2)
        service = QueryService(job.tables, resolver=fleet.dimensions_of)
        baseline = {
            day: (service.fleet(day), service.top_events(day, 3))
            for day in ("day00", "day01")
        }

        stop = threading.Event()
        violations: list = []

        def reader(day):
            while not stop.is_set():
                answer = (service.fleet(day), service.top_events(day, 3))
                if answer != baseline[day]:
                    violations.append((day, answer))
                    return

        threads = [
            threading.Thread(target=reader, args=(day,))
            for day in ("day00", "day01") for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        try:
            # Four fresh partitions (ext00..ext03) written through the
            # engine while the readers hammer the finished days.
            from repro.core.events import default_catalog
            run_days(job, events_factory(sorted(fleet.vms),
                                         default_catalog(), 7),
                     services, 4, prefix="ext")
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not violations, f"finished day changed: {violations[:2]}"
        assert service.days() == \
            ["day00", "day01", "ext00", "ext01", "ext02", "ext03"]
        # The new partitions are queryable afterwards.
        assert service.fleet("ext03").service_time == pytest.approx(16 * DAY)


class TestGenerationCacheConcurrency:
    """The cache's counters and values stay consistent under contention."""

    def test_readers_vs_generation_bumping_writer(self):
        cache = GenerationCache(maxsize=32)
        current = {"gen": 0}
        lock = threading.Lock()
        stop = threading.Event()
        violations: list = []
        done_lookups = [0] * READERS

        def value_for(gen: int) -> tuple[str, int]:
            return ("value", gen)

        def reader(slot: int) -> None:
            while not stop.is_set():
                with lock:
                    gen = current["gen"]
                got = cache.get("key", gen)
                if got is MISS:
                    cache.put("key", gen, value_for(gen))
                elif got != value_for(gen):
                    # A hit under stamp `gen` must carry gen's value —
                    # anything else is a stale serve.
                    violations.append((gen, got))
                    return
                done_lookups[slot] += 1

        threads = [
            threading.Thread(target=reader, args=(slot,))
            for slot in range(READERS)
        ]
        for thread in threads:
            thread.start()
        try:
            for _ in range(ROUNDS):
                with lock:
                    current["gen"] += 1
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not violations, f"stale hit: {violations[:3]}"
        stats = cache.stats
        assert stats.hits + stats.misses == stats.lookups
        assert stats.lookups >= sum(done_lookups)
        assert stats.lookups > 0

    def test_lookups_counter_not_lost_under_threads(self):
        cache = GenerationCache(maxsize=8)
        per_thread = 500

        def worker(slot: int) -> None:
            for i in range(per_thread):
                key = f"k{(slot + i) % 16}"
                if cache.get(key, 0) is MISS:
                    cache.put(key, 0, slot)

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(READERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = cache.stats
        assert stats.lookups == READERS * per_thread
        assert stats.hits + stats.misses == stats.lookups


class TestShardedMergeUnderWrites:
    """Cross-shard merges are snapshots, never torn mixes."""

    def test_range_merge_never_mixes_write_rounds(self):
        # One VM per partition whose performance encodes the write
        # round.  The writer advances day00 then day01 to round v; a
        # merged range read must see (v0, v1) with v0 >= v1 and
        # v0 - v1 <= 1 — any other combination is a torn merge — and
        # each reader's rounds must be monotonic (no stale serve).
        tables = TableStore()
        tables.create(VM_CDI_TABLE, vm_cdi_schema())
        tables.create(EVENT_CDI_TABLE, event_cdi_schema())
        vm_table = tables.get(VM_CDI_TABLE)

        def round_rows(version: int) -> list[dict]:
            return [{"vm": "vm-00", "unavailability": 0.0,
                     "performance": float(version), "control_plane": 0.0,
                     "service_time": DAY}]

        for day in ("day00", "day01"):
            vm_table.overwrite_partition(round_rows(0), partition=day)
        service = QueryService(tables, shards=2, parallelism=2)
        assert service.shard_count == 2

        stop = threading.Event()
        violations: list = []

        def reader() -> None:
            last = (0, 0)
            while not stop.is_set():
                result = dict(service.execute(FleetRangeQuery()))
                observed = (
                    int(result["day00"].performance),
                    int(result["day01"].performance),
                )
                v0, v1 = observed
                if not (v0 >= v1 and v0 - v1 <= 1) or observed < last:
                    violations.append((last, observed))
                    return
                last = observed

        threads = [threading.Thread(target=reader) for _ in range(READERS)]
        for thread in threads:
            thread.start()
        try:
            for version in range(1, ROUNDS + 1):
                vm_table.overwrite_partition(round_rows(version),
                                             partition="day00")
                vm_table.overwrite_partition(round_rows(version),
                                             partition="day01")
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not violations, f"torn/stale merge: {violations[:3]}"
        final = dict(service.execute(FleetRangeQuery()))
        assert int(final["day00"].performance) == ROUNDS
        assert int(final["day01"].performance) == ROUNDS
        service.close()
