"""Section V — implementation scale of the daily CDI job.

Paper: the production Spark job processes ~10 GB of events on 100
executors × 8 cores; the end-to-end run takes ~2 hours dominated by
cleaning/IO, while the *core CDI computation* is ~500 seconds.  We
cannot match a production cluster, but we reproduce the job's
structure at laptop scale and report the analogous breakdown: total
wall time vs core-computation task time, plus engine task counts.

Besides the printed table, the benchmark writes a machine-readable
``BENCH_pipeline_scale.json`` next to the repo root so the perf
trajectory is tracked across PRs: end-to-end wall time (best of
:data:`TIMED_REPEATS`), core-compute task seconds, task counts, the
speedup against the recorded pre-fast-path seed baseline, and per-stage wall timings from a completeness-
validated run trace (the Spark-UI analogue).

Environment knobs: ``REPRO_BENCH_VM_COUNT`` overrides the fleet size (CI smoke runs a
smaller fleet); ``REPRO_BENCH_RESULT_PATH`` redirects the JSON
artifact.
"""

import json
import time

from conftest import (
    bench_result_path,
    bench_vm_count,
    print_table,
    run_once,
)

from repro.core.events import default_catalog
from repro.core.indicator import ServicePeriod
from repro.engine.dataset import EngineContext
from repro.pipeline.daily import DailyCdiJob
from repro.pipeline.tables import EVENTS_TABLE
from repro.scenarios.common import default_weights, fault_to_period
from repro.storage.configdb import ConfigDB
from repro.storage.table import TableStore
from repro.telemetry.faults import FaultInjector, baseline_rates

DAY = 86400.0
VM_COUNT = bench_vm_count(2000)
PARALLELISM = 8
#: Extra timed end-to-end repeats for the JSON artifact (the reported
#: wall time is the minimum — standard practice for wall benchmarks).
TIMED_REPEATS = 5

#: Where the machine-readable result lands (repo root).
RESULT_PATH = bench_result_path("BENCH_pipeline_scale.json")

#: End-to-end wall seconds of this benchmark at the growth seed
#: (commit 996a564: pure-Python per-VM sweeps + per-event-name
#: re-sweeps on the thread pool), measured as best-of-5 on the same
#: 8-core container that produced the committed artifact.  Kept here
#: so every rerun reports its speedup against the same "before".
SEED_BASELINE_WALL_SECONDS = 0.0775


def build_job_inputs():
    from repro.core.events import Event

    vm_ids = [f"vm-{i:05d}" for i in range(VM_COUNT)]
    injector = FaultInjector(baseline_rates(scale=20.0), seed=0)
    faults = injector.sample(vm_ids, 0.0, DAY)
    catalog = default_catalog()
    events = []
    for fault in faults:
        period = fault_to_period(fault, catalog)
        events.append(Event(
            name=period.name, time=period.end, target=period.target,
            expire_interval=600.0, level=period.level,
            attributes={"duration": period.duration},
        ))
    services = {vm: ServicePeriod(0.0, DAY) for vm in vm_ids}
    return events, services


def run_daily_job(events, services, trace=None):
    context = EngineContext(parallelism=PARALLELISM)
    job = DailyCdiJob(context, TableStore(), ConfigDB(), default_catalog())
    job.store_weights(default_weights())
    job.ingest_events(events, "bench")
    result = job.run("bench", services, trace=trace)
    return result, context.last_job_metrics


def _best_of(repeats, fn, *args, **kwargs):
    walls = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn(*args, **kwargs)
        walls.append(time.perf_counter() - started)
    return min(walls)


def time_compute_path(events, services):
    """Compute-only timings on one pre-ingested job.

    Times only :meth:`DailyCdiJob.run` (the daily compute), not job
    construction or ingestion, plus the raw columnar table scan
    underneath.
    """
    context = EngineContext(parallelism=PARALLELISM)
    job = DailyCdiJob(context, TableStore(), ConfigDB(), default_catalog())
    job.store_weights(default_weights())
    job.ingest_events(events, "bench")
    # Warm-up (seals the column blocks, fills the weight cache).
    job.run("bench", services)
    table = job.tables.get(EVENTS_TABLE)
    return {
        "job_run_columnar_seconds": _best_of(
            TIMED_REPEATS, job.run, "bench", services
        ),
        "scan_columns_seconds": _best_of(
            TIMED_REPEATS, table.columns, "bench"
        ),
    }


def test_sec5_pipeline_scale(benchmark):
    events, services = build_job_inputs()
    result, metrics = run_once(benchmark, run_daily_job, events, services)
    core_seconds = metrics.total_seconds

    # Steady-state repeats for the JSON artifact (the single
    # benchmark-harness round above still carries warmup costs).
    walls = []
    for _ in range(TIMED_REPEATS):
        started = time.perf_counter()
        run_daily_job(events, services)
        walls.append(time.perf_counter() - started)
    wall_seconds = min(walls)

    paths = time_compute_path(events, services)

    # One traced run for the per-stage breakdown (the analogue of
    # reading the production job's Spark UI): pipeline + node stage
    # wall seconds, validated for completeness before they are
    # trusted enough to land in the artifact.
    from repro.engine.trace import RunTrace

    trace = RunTrace("bench")
    _, traced_metrics = run_daily_job(events, services, trace=trace)
    assert trace.validate(traced_metrics) == []
    stage_seconds = trace.stage_seconds()
    slowest = sorted(stage_seconds.items(), key=lambda kv: -kv[1])

    print_table(
        "Section V: daily job scale (laptop-scale analogue)",
        ["quantity", "paper (production)", "reproduced"],
        [
            ("input events", "~10 GB/day", f"{result.event_count} events"),
            ("VMs", "tens of millions", f"{result.vm_count}"),
            ("executors", "100 x 8 cores",
             f"1 x {PARALLELISM} threads"),
            ("core CDI task time", "~500 s",
             f"{core_seconds:.2f} s across {metrics.task_count} tasks"),
            ("end-to-end wall", "~2 h",
             f"{wall_seconds * 1000:.1f} ms (best of {TIMED_REPEATS})"),
            ("speedup vs seed", "-",
             f"{SEED_BASELINE_WALL_SECONDS / wall_seconds:.1f}x"),
            ("compute-only run", "-",
             f"{paths['job_run_columnar_seconds'] * 1000:.1f} ms"),
            ("columnar events scan", "-",
             f"{paths['scan_columns_seconds'] * 1000:.2f} ms"),
            *[
                (f"stage: {name}", "-", f"{seconds * 1000:.2f} ms")
                for name, seconds in slowest[:4]
            ],
        ],
    )

    RESULT_PATH.write_text(json.dumps({
        "benchmark": "sec5_pipeline_scale",
        "vm_count": result.vm_count,
        "event_count": result.event_count,
        "parallelism": PARALLELISM,
        "timed_repeats": TIMED_REPEATS,
        "wall_seconds": wall_seconds,
        "core_compute_seconds": core_seconds,
        "task_count": metrics.task_count,
        "seed_baseline_wall_seconds": SEED_BASELINE_WALL_SECONDS,
        "speedup_vs_seed": SEED_BASELINE_WALL_SECONDS / wall_seconds,
        "stage_seconds": {
            name: round(seconds, 6)
            for name, seconds in sorted(stage_seconds.items())
        },
        **paths,
    }, indent=2) + "\n")

    assert result.vm_count == VM_COUNT
    assert result.event_count == len(events)
    assert metrics.task_count > 0


def test_sec5_core_cdi_throughput(benchmark):
    """Microbenchmark of Algorithm 1 itself: events/second swept."""
    import numpy as np

    from repro.core.indicator import ServicePeriod, WeightedInterval, cdi

    rng = np.random.default_rng(0)
    starts = rng.uniform(0.0, DAY, 5000)
    intervals = [
        WeightedInterval(float(s), float(s + rng.uniform(60, 3600)),
                         float(rng.uniform(0.1, 1.0)))
        for s in starts
    ]
    service = ServicePeriod(0.0, DAY)
    value = benchmark(cdi, intervals, service)
    assert 0.0 < value <= 1.0
