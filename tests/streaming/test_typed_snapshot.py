"""The typed, delta-maintained snapshot and its typed publish.

:class:`~repro.streaming.state.IncrementalCdiState` keeps the
publishable tables as arrays and patches only the dirty VMs' entries
each refresh; ``snapshot_columns()`` hands typed blocks to the same
``overwrite_partition_columns`` the batch job feeds lists.  Three
properties hold that together and are pinned here: the delta equals a
from-scratch state (and the batch job) for *any* slicing of a day into
refreshes; the typed publish is indistinguishable from a list publish
to every reader, serving included; and a reader holding a published
snapshot never sees a later tick through it.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.core.events import Event, Severity, default_catalog
from repro.core.fastpath import ResolverIndex, WeightTable
from repro.core.weights import expert_only_config
from repro.engine.dataset import EngineContext
from repro.pipeline.daily import WEIGHTS_CONFIG_KEY, DailyCdiJob, event_to_row
from repro.pipeline.tables import EVENT_CDI_TABLE, VM_CDI_TABLE
from repro.serving import QueryService, run_query
from repro.storage.logstore import LogStore
from repro.storage.table import TableStore
from repro.streaming import IncrementalCdiState

from tests.strategies import (
    block_arrays,
    make_fleet_events,
    make_services,
    stream_cases,
)
from tests.streaming.conftest import (
    PARTITION,
    append_events,
    decoded,
    make_config_db,
    make_pipeline,
    published_bytes,
)


def weights(*, without=()):
    """The expert weight configuration, resolved; ``without`` drops
    ``(name, level)`` entries (no shipped configuration lacks one, but
    a period whose level has no weight resolves to nothing — the one
    way re-pairing makes a VM's event rows *vanish*)."""
    catalog = default_catalog()
    table = WeightTable.from_config(catalog, expert_only_config())
    if without:
        table = WeightTable({key: entry for key, entry in table.entries.items()
                             if key not in without})
    return catalog, table, ResolverIndex.build(catalog, table)


def batch_rows(events, services, resolved):
    """``[vm_cdi rows, event_cdi rows]`` of a batch job over ``events``
    under the same resolved weights."""
    catalog, table, index = resolved
    job = DailyCdiJob(EngineContext(parallelism=2), TableStore(),
                      make_config_db(), catalog)
    version = job._config_db.get(WEIGHTS_CONFIG_KEY).version
    job._weight_cache = (version, table, index)
    job.ingest_events(events, PARTITION)
    job.run(PARTITION, services)
    return list(job.output_rows(PARTITION))


def sliced_state(events, services, resolved, sizes):
    """A state fed ``events`` in ``sizes``-long slices, refreshed (and
    snapshotted, as a tick does) after each."""
    state = IncrementalCdiState(services, *resolved)
    rows = [event_to_row(event) for event in events]
    offset = 0
    for size in sizes:
        state.apply_rows(rows[offset:offset + size])
        state.snapshot_columns()
        offset += size
    state.apply_rows(rows[offset:])
    return state


def assert_equals_scratch_and_batch(state, events, services, resolved):
    scratch = sliced_state(events, services, resolved, ())
    assert decoded(state.snapshot_columns()) == \
        decoded(scratch.snapshot_columns())
    assert json.dumps(list(state.snapshot_rows())) == \
        json.dumps(batch_rows(events, services, resolved))


def stateful(name, time, vm, level=Severity.FATAL):
    return Event(name=name, time=time, target=vm, expire_interval=3600.0,
                 level=level)


def slow_io(time, vm):
    return Event(name="slow_io", time=time, target=vm, expire_interval=600.0,
                 level=Severity.CRITICAL, attributes={"duration": 300.0})


class TestDeltaEqualsScratch:
    @given(case=stream_cases(max_vms=5, max_events=24))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_slicing_of_a_day(self, case):
        """Adds and dels ticks apart, VMs dirtied in consecutive
        refreshes, eventless VMs: the strategy draws them all."""
        services = case.services()
        resolved = weights()
        events = case.oracle_events()
        state = sliced_state(events, services, resolved, case.tick_sizes)
        assert_equals_scratch_and_batch(state, events, services, resolved)

    def test_repairing_that_shrinks_then_empties_a_vms_event_rows(self):
        """The mask, not the new rows, decides what leaves: an earlier
        ``*_add`` at a level with no weight takes over the open period,
        so the VM's ``ddos_blackhole`` row goes (two rows → one), and
        on a VM with nothing else the segment vanishes outright."""
        services = make_services(4)
        resolved = weights(without={("ddos_blackhole", Severity.INFO)})
        events = [
            slow_io(5_000.0, "vm-001"),
            stateful("ddos_blackhole_add", 10_000.0, "vm-001"),
            stateful("ddos_blackhole_add", 10_000.0, "vm-002"),
            slow_io(6_000.0, "vm-003"),
            # Arrive last, sort first within their VM's group.
            stateful("ddos_blackhole_add", 9_000.0, "vm-001", Severity.INFO),
            stateful("ddos_blackhole_add", 9_000.0, "vm-002", Severity.INFO),
        ]
        state = sliced_state(events[:4], services, resolved, (2, 2))
        before = state.snapshot_rows()[1]
        assert [(row["vm"], row["event"]) for row in before] == [
            ("vm-001", "ddos_blackhole"), ("vm-001", "slow_io"),
            ("vm-002", "ddos_blackhole"), ("vm-003", "slow_io"),
        ]
        state.apply_rows([event_to_row(event) for event in events[4:]])
        vm_rows, after = state.snapshot_rows()
        assert [(row["vm"], row["event"]) for row in after] == [
            ("vm-001", "slow_io"), ("vm-003", "slow_io"),
        ]
        assert vm_rows[2]["unavailability"] == 0.0  # vm-002, back to zero
        assert_equals_scratch_and_batch(state, events, services, resolved)

    def test_one_vm_dirtied_every_refresh_changing_its_name_set(self):
        services = make_services(3)
        resolved = weights()
        events = [
            stateful("ddos_blackhole_add", 1_000.0, "vm-001"),
            slow_io(2_000.0, "vm-001"),
            Event(name="vm_down", time=3_000.0, target="vm-001",
                  expire_interval=600.0, level=Severity.FATAL,
                  attributes={"duration": 60.0}),
            stateful("ddos_blackhole_del", 4_000.0, "vm-001"),
            slow_io(5_000.0, "vm-001"),
        ]
        for cut in range(1, len(events) + 1):
            state = sliced_state(events[:cut], services, resolved,
                                 (1,) * cut)
            assert_equals_scratch_and_batch(state, events[:cut], services,
                                            resolved)

    def test_empty_fleet(self):
        resolved = weights()
        state = IncrementalCdiState({}, *resolved)
        assert state.apply(event_to_row(slow_io(1.0, "vm-000"))) is False
        assert decoded(state.snapshot_columns()) == [
            {"vm": [], "unavailability": [], "performance": [],
             "control_plane": [], "service_time": []},
            {"vm": [], "event": [], "cdi": [], "service_time": []},
        ]
        assert_equals_scratch_and_batch(state, [], {}, resolved)


class TestTypedPublishEqualsListPublish:
    """The same values through both arms of ``validate_block``."""

    def streamed_day(self):
        services = make_services(12)
        events = make_fleet_events(5, vm_count=10, events_per_vm=3)
        events.sort(key=lambda event: event.time)
        store, tables = LogStore(), TableStore()
        pipeline = make_pipeline(store, services, allowed_lateness=0.0,
                                 tables=tables)
        generations = []
        for start in range(0, len(events), 7):
            append_events(store, events[start:start + 7])
            pipeline.tick()
            generations.append(tables.get(VM_CDI_TABLE).generation)
        return pipeline, tables, generations

    def test_rows_generations_and_serving_answers(self):
        pipeline, streamed, generations = self.streamed_day()
        # One generation bump per publish, like any overwrite.
        assert generations == list(range(1, len(generations) + 1))
        listed = TableStore()
        for name in (VM_CDI_TABLE, EVENT_CDI_TABLE):
            source = streamed.get(name)
            table = listed.create(name, source.schema)
            table.overwrite_partition_columns({
                column: block.to_pylist()
                for column, block in source.columns(PARTITION).items()
            }, PARTITION)
            assert table.generation == 1
            assert table.rows(PARTITION) == source.rows(PARTITION)
        assert published_bytes(listed) == published_bytes(streamed)
        payloads = [
            {"kind": "fleet", "day": PARTITION},
            {"kind": "top-events", "day": PARTITION, "k": 3},
            {"kind": "vm", "day": PARTITION, "vm": "vm-003"},
            {"kind": "vm", "day": PARTITION, "vm": "vm-011"},  # eventless
        ] + [
            {"kind": "top-vms", "day": PARTITION, "category": category,
             "k": 4}
            for category in ("unavailability", "performance", "control_plane")
        ]
        with QueryService(streamed, shards=2) as typed, \
                QueryService(listed, shards=2) as plain:
            for payload in payloads:
                answer = run_query(typed, payload)
                assert answer["ok"] is True
                assert json.dumps(answer) == \
                    json.dumps(run_query(plain, payload))


class TestReaderIsolation:
    def test_held_snapshot_survives_a_tick_that_dirties_the_same_vm(self):
        """A reader's zero-copy view of tick *n* is bit-unchanged and
        still read-only after tick *n+1* rewrites the same VM, and it
        shares no memory with the state's working arrays."""
        services = make_services(6)
        store, tables = LogStore(), TableStore()
        pipeline = make_pipeline(store, services, allowed_lateness=0.0,
                                 tables=tables)
        append_events(store, [slow_io(1_000.0, "vm-002"),
                              slow_io(1_500.0, "vm-004")])
        pipeline.tick()
        held = {name: tables.get(name).columns(PARTITION)
                for name in (VM_CDI_TABLE, EVENT_CDI_TABLE)}
        arrays = [arr for blocks in held.values()
                  for block in blocks.values() for arr in block_arrays(block)]
        frozen = [arr.copy() for arr in arrays]
        rows_before = published_bytes(tables)

        append_events(store, [
            slow_io(2_000.0, "vm-002"),
            stateful("ddos_blackhole_add", 2_500.0, "vm-002"),
        ])
        pipeline.tick()

        assert published_bytes(tables) != rows_before  # the tick landed
        state = pipeline.state
        working = [*state._cdi.values(), *state._events.values(),
                   state._durations]
        for arr, copy in zip(arrays, frozen):
            assert not arr.flags.writeable
            assert np.array_equal(arr, copy)
            assert not any(np.shares_memory(arr, mine) for mine in working)
        # What the next reader gets is sealed the same way.
        for name in held:
            for block in tables.get(name).columns(PARTITION).values():
                for arr in block_arrays(block):
                    assert not arr.flags.writeable
                    assert not any(np.shares_memory(arr, mine)
                                   for mine in working)


class TestMemoryOnlyStream:
    def test_no_row_log_without_a_checkpoint(self):
        """A stream with nothing to persist to does not hold the day's
        rows a second time."""
        services = make_services(3)
        store = LogStore()
        pipeline = make_pipeline(store, services, allowed_lateness=0.0)
        append_events(store, [slow_io(1_000.0, "vm-000"),
                              slow_io(2_000.0, "vm-001")])
        assert pipeline.tick().applied == 2
        assert pipeline._rows_log == []
