"""Out-of-core differential suite: sharded events + spill staging.

The fleet-scale ingestion path (events spilled to disk per VM-shard
partition, computed shard by shard with ``sharded_events=True``) must
be invisible in the outputs: both compute paths (columnar and the
reference oracle) produce tables byte-identical to a plain whole-day :meth:`DailyCdiJob.run`.
"""

import json

import pytest

from repro.core.events import Event, default_catalog
from repro.core.indicator import ServicePeriod
from repro.core.weights import expert_only_config
from repro.engine.dataset import EngineContext
from repro.pipeline.checkpoint import JobCheckpoint, shard_units
from repro.pipeline.daily import DailyCdiJob
from repro.pipeline.tables import EVENTS_TABLE, events_schema
from repro.storage import SpillTable
from repro.storage.configdb import ConfigDB
from repro.storage.table import TableStore
from repro.telemetry.fleetgen import split_fleet

from tests.strategies import make_fleet_events as shared_fleet_events
from tests.strategies import make_services as shared_services

DAY = 86400.0
PARTITION = "d0"
SHARDS = 4
VM_COUNT = 24

#: ``use_fastpath`` per job: the columnar path and the reference oracle.
ALL_PATHS = [True, False]


def make_fleet_events(seed: int = 11) -> list[Event]:
    """A day with stateless, null-duration, and stateful paired events."""
    return shared_fleet_events(seed, VM_COUNT, events_per_vm=4)


def make_services() -> dict[str, ServicePeriod]:
    return shared_services(VM_COUNT)


def make_job(store: TableStore | None = None, *,
             use_fastpath: bool = True) -> DailyCdiJob:
    job = DailyCdiJob(EngineContext(parallelism=2),
                      store if store is not None else TableStore(),
                      ConfigDB(), default_catalog(),
                      use_fastpath=use_fastpath)
    job.store_weights(expert_only_config())
    return job


def output_bytes(job: DailyCdiJob) -> bytes:
    vm_rows, event_rows = job.output_rows(PARTITION)
    return json.dumps([vm_rows, event_rows], sort_keys=True).encode()


def ingest_sharded(job: DailyCdiJob, events: list[Event],
                   services: dict[str, ServicePeriod]) -> None:
    """Route each event into the shard partition owning its target VM,
    using the same contiguous split ``run_checkpointed`` will use."""
    unit_of = {
        vm: shard.unit
        for shard in split_fleet(sorted(services), SHARDS)
        for vm in shard.targets
    }
    by_unit: dict[str, list[Event]] = {}
    for event in events:
        by_unit.setdefault(unit_of[event.target], []).append(event)
    for unit in shard_units(SHARDS):
        job.ingest_events(by_unit.get(unit, []), PARTITION, unit=unit)


@pytest.fixture(scope="module")
def fleet():
    return make_fleet_events(), make_services()


@pytest.fixture(scope="module")
def plain_outputs(fleet):
    """Whole-day, in-memory reference bytes per compute path: one
    ingested store, one job per path over it."""
    events, services = fleet
    store = TableStore()
    make_job(store).ingest_events(events, PARTITION)
    outputs = {}
    for fast in ALL_PATHS:
        job = make_job(store, use_fastpath=fast)
        job.run(PARTITION, services)
        outputs[fast] = output_bytes(job)
    return outputs


def spill_store(tmp_path) -> tuple[TableStore, SpillTable]:
    store = TableStore()
    table = SpillTable(EVENTS_TABLE, events_schema(),
                       spool_dir=tmp_path / "spool", spill_bytes=512)
    store.add(table)
    return store, table


class TestOutOfCoreDifferential:
    def test_plain_paths_agree(self, plain_outputs):
        assert len(set(plain_outputs.values())) == 1

    @pytest.mark.parametrize("fast", ALL_PATHS,
                             ids=["columnar", "reference"])
    def test_byte_identical_on_every_compute_path(self, tmp_path, fleet,
                                                  plain_outputs, fast):
        events, services = fleet
        store, table = spill_store(tmp_path)
        job = make_job(store, use_fastpath=fast)
        ingest_sharded(job, events, services)
        spilled = sum(
            table._partitions[part].spilled_rows
            for part in table.partitions
        )
        assert spilled > 0  # the day really staged on disk
        job.run_checkpointed(
            PARTITION, services,
            checkpoint=JobCheckpoint(tmp_path / "ck.json"),
            shards=SHARDS, sharded_events=True,
        )
        assert output_bytes(job) == plain_outputs[fast]

    def test_sharded_events_fingerprint_is_distinct(self, fleet):
        _, services = fleet
        job = make_job()
        plain = job.checkpoint_fingerprint(PARTITION, services,
                                           shards=SHARDS)
        sharded = job.checkpoint_fingerprint(PARTITION, services,
                                             shards=SHARDS,
                                             sharded_events=True)
        assert plain != sharded
