"""Out-of-core fleet scaling: 1k → 100k VMs in bounded memory.

The paper's daily job processes the *whole* Alibaba Cloud fleet —
tens of millions of VMs — on a Spark cluster where no single executor
ever holds a day of raw events.  This benchmark reproduces that
property at repo scale: one process ingests and computes a full
synthetic day for fleets of 1k, 10k and 100k VMs through the
out-of-core path and reports throughput plus **peak RSS** per scale
point, so ``check_fleet_scale.py`` can gate that memory grows
sublinearly in fleet size (the day is streamed, never resident).

The out-of-core path under test, end to end:

* :func:`repro.telemetry.fleetgen.iter_fleet_faults` generates ground
  truth one VM shard at a time (never the whole fleet's faults);
* each shard's events are ingested into a
  :class:`repro.storage.SpillTable` partition via
  ``DailyCdiJob.ingest_events(..., unit=shard.unit)`` — the spill
  table pages event columns to disk above a fixed byte threshold;
* ``run_checkpointed(..., sharded_events=True)`` computes shard by
  shard, each pass scanning only its own per-shard events partition.

Because ``resource.getrusage`` reports a process-lifetime high-water
mark, every scale point runs in its **own subprocess** (this file
re-invoked as a script prints one JSON point on stdout); the pytest
orchestrator collects the points into ``BENCH_fleet_scale.json``.

Environment knobs: ``REPRO_BENCH_FLEET_VM_COUNTS`` overrides the
scale points (CI smoke runs ``10000`` alone),
``REPRO_CHAOS_SEED`` the fault seed, and
``REPRO_BENCH_FLEET_RESULT_PATH`` redirects the JSON artifact.
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from conftest import (
    REPO_ROOT,
    bench_result_path,
    bench_vm_counts,
    chaos_seed,
    print_table,
    run_once,
)

DAY = 86400.0
PARTITION = "fleet-day"
PARALLELISM = 8
#: Contiguous VM shards: generation, ingestion and compute all use the
#: same split, so one shard is the unit of residency.
SHARDS = 16
#: Per-partition in-memory budget before event columns spill to disk.
#: Deliberately tiny (one shard of the 1k fleet is ~24 KiB of event
#: columns) so every scale point actually stages its day on disk.
SPILL_BYTES = 16 << 10
#: Expected faults/VM/day ≈ 1.5 at this scale factor (matches the
#: Section V pipeline bench), so 100k VMs ≈ 150k events.
FAULT_SCALE = 20.0
DEFAULT_VM_COUNTS = [1_000, 10_000, 100_000]

RESULT_PATH = bench_result_path(
    "BENCH_fleet_scale.json", env="REPRO_BENCH_FLEET_RESULT_PATH"
)


def run_scale_point(vm_count):
    """One full out-of-core day at ``vm_count`` VMs; returns the point."""
    from repro.core.events import Event, default_catalog
    from repro.core.indicator import ServicePeriod
    from repro.engine.dataset import EngineContext
    from repro.pipeline.checkpoint import JobCheckpoint
    from repro.pipeline.daily import DailyCdiJob
    from repro.pipeline.tables import EVENTS_TABLE, events_schema
    from repro.scenarios.common import default_weights, fault_to_period
    from repro.storage import SpillTable
    from repro.storage.configdb import ConfigDB
    from repro.storage.table import TableStore
    from repro.telemetry.faults import baseline_rates
    from repro.telemetry.fleetgen import iter_fleet_faults

    catalog = default_catalog()
    vm_ids = [f"vm-{i:06d}" for i in range(vm_count)]
    services = {vm: ServicePeriod(0.0, DAY) for vm in vm_ids}
    rates = baseline_rates(scale=FAULT_SCALE)
    seed = chaos_seed() or 0

    with tempfile.TemporaryDirectory(prefix="fleet_scale_") as tmp:
        tmp_path = Path(tmp)
        store = TableStore()
        store.add(SpillTable(EVENTS_TABLE, events_schema(),
                             spool_dir=tmp_path, spill_bytes=SPILL_BYTES))
        context = EngineContext(parallelism=PARALLELISM)
        job = DailyCdiJob(context, store, ConfigDB(), catalog)
        job.store_weights(default_weights())

        started = time.perf_counter()
        event_count = 0
        for shard, faults in iter_fleet_faults(
            vm_ids, SHARDS, rates, 0.0, DAY, seed=seed
        ):
            events = []
            for fault in faults:
                period = fault_to_period(fault, catalog)
                events.append(Event(
                    name=period.name, time=period.end, target=period.target,
                    expire_interval=600.0, level=period.level,
                    attributes={"duration": period.duration},
                ))
            event_count += job.ingest_events(events, PARTITION,
                                             unit=shard.unit)
        ingest_seconds = time.perf_counter() - started
        spool_bytes = sum(
            spool.stat().st_size for spool in tmp_path.glob("*.spool.jsonl")
        )

        started = time.perf_counter()
        result = job.run_checkpointed(
            PARTITION, services,
            checkpoint=JobCheckpoint(tmp_path / "checkpoint.json"),
            shards=SHARDS, sharded_events=True,
        )
        compute_seconds = time.perf_counter() - started

        assert result.vm_count == vm_count
        assert result.event_count == event_count

    # Linux reports ru_maxrss in KiB.  Lifetime high-water mark — the
    # reason each point runs in a fresh subprocess.
    peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    total = ingest_seconds + compute_seconds
    return {
        "vm_count": vm_count,
        "event_count": event_count,
        "shards": SHARDS,
        "ingest_seconds": ingest_seconds,
        "compute_seconds": compute_seconds,
        "total_seconds": total,
        "rows_per_second": event_count / total,
        "compute_rows_per_second": event_count / compute_seconds,
        "spool_bytes": spool_bytes,
        "peak_rss_mb": peak_rss_mb,
    }


def run_point_subprocess(vm_count):
    """Run one scale point in a fresh interpreter; parse its JSON."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not extra else src + os.pathsep + extra
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(vm_count)],
        capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"scale point {vm_count} failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def run_sweep(vm_counts):
    """All scale points, smallest first, one subprocess each."""
    return [run_point_subprocess(count) for count in sorted(vm_counts)]


def test_fleet_scale(benchmark):
    vm_counts = bench_vm_counts(DEFAULT_VM_COUNTS)
    points = run_once(benchmark, run_sweep, vm_counts)

    print_table(
        "Out-of-core fleet scale (per-point subprocess)",
        ["VMs", "events", "ingest", "compute", "rows/s", "peak RSS"],
        [
            (f"{p['vm_count']:,}", f"{p['event_count']:,}",
             f"{p['ingest_seconds']:.2f} s",
             f"{p['compute_seconds']:.2f} s",
             f"{p['rows_per_second']:,.0f}",
             f"{p['peak_rss_mb']:.1f} MB")
            for p in points
        ],
    )

    RESULT_PATH.write_text(json.dumps({
        "benchmark": "fleet_scale",
        "parallelism": PARALLELISM,
        "shards": SHARDS,
        "spill_bytes": SPILL_BYTES,
        "fault_scale": FAULT_SCALE,
        "points": points,
    }, indent=2) + "\n")
    print(f"\nresult JSON: {RESULT_PATH}")

    assert points, "no scale points configured"
    for point in points:
        assert point["event_count"] > 0
        assert point["rows_per_second"] > 0
        assert point["peak_rss_mb"] > 0


if __name__ == "__main__":
    print(json.dumps(run_scale_point(int(sys.argv[1]))))
