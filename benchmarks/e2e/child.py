"""The process under test: one repetition of one workload, then exit.

``run.py`` starts this file in a fresh interpreter per repetition
(``ru_maxrss`` is a lifetime high-water mark, and set-up is measured
from the first line below, imports included).  Only calls into
``repro`` are on the clock; input generation, oracles and digests are
not.  The last stdout line is the repetition's JSON result.

For ``serve_*`` this process is the *server host*: it prints a READY
line, answers ``mark``/``stop`` commands on stdin with counter
snapshots, and the harness process is the load generator.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from metrics import percentile  # noqa: E402
from spans import Recorder, Summary  # noqa: E402

PARTITION = "day00"


def peak_rss_mb() -> float:
    """Peak RSS of this process.

    ``VmHWM`` rather than ``ru_maxrss``: on exec Linux folds the forking
    parent's peak into the child's ``ru_maxrss``, so a server host would
    report the load generator's memory whenever that is the larger.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Timed:
    """The timed region: wall and CPU seconds of the calls into the
    program, plus the windows a traced run attributes to layers."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self.windows: list[tuple[float, float]] = []

    def call(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` on the clock."""
        cpu = time.process_time()
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            ended = time.perf_counter()
            self.wall += ended - started
            self.cpu += time.process_time() - cpu
            self.windows.append((started, ended))


def stop_tracing(recorder):
    """Unwrap everything before the (untimed) oracle runs, so the
    oracle's own job adds no spans and no engine counters."""
    if recorder is not None:
        recorder.remove()


def layer_summary(recorder, timed, engine):
    """What a traced repetition adds to its result."""
    summary = Summary(recorder.spans, timed.windows)
    return summary, {
        **engine.metrics(),
        "trace.attributed_ratio": summary.attributed_ratio,
    }, trace_detail(summary)


def trace_detail(summary):
    """Self seconds per layer and per span name, largest first."""
    return {
        "self_by_layer": summary.self_by_layer(),
        "self_by_span": dict(sorted(summary.self_time.items(),
                                    key=lambda item: -item[1])),
    }


# -- batch_day -------------------------------------------------------------------


def run_batch_day(cfg, seed, work_dir, recorder, engine, full_oracle):
    from repro.core.events import default_catalog
    from repro.engine.dataset import EngineContext
    from repro.pipeline.checkpoint import JobCheckpoint
    from repro.pipeline.daily import DailyCdiJob
    from repro.pipeline.tables import EVENTS_TABLE, events_schema
    from repro.scenarios.common import default_weights, full_day_services
    from repro.serving import QueryService, run_query
    from repro.storage import SpillTable
    from repro.storage.configdb import ConfigDB
    from repro.storage.table import TableStore

    catalog = default_catalog()
    ids = workloads.vm_ids(cfg["vms"])
    services = full_day_services(ids, workloads.DAY)
    sample = set(random.Random(seed).sample(ids, cfg["oracle_vms"]))
    sample_events = []
    store = TableStore()
    store.add(SpillTable(EVENTS_TABLE, events_schema(), spool_dir=work_dir,
                         spill_bytes=cfg["spill_bytes"]))
    job = DailyCdiJob(EngineContext(parallelism=2, backend="thread"),
                      store, ConfigDB(), catalog)
    job.store_weights(default_weights())

    watch = workloads.Stopwatch()
    timed = Timed()
    ingested = 0
    # Generation is interleaved shard by shard with the (timed) ingest so
    # that only one shard's events are ever resident, as out-of-core.
    for shard, events in workloads.iter_shard_events(
            ids, cfg["shards"], seed, catalog, watch):
        sample_events.extend(e for e in events if e.target in sample)
        ingested += timed.call(job.ingest_events, events, PARTITION,
                               unit=shard.unit)
        del events
    ingest_s = timed.wall
    setup_s = time.perf_counter() - T0 - ingest_s
    spill_bytes = sum(p.stat().st_size
                      for p in Path(work_dir).glob("*.spool.jsonl"))

    checkpoint_path = Path(work_dir) / "checkpoint.json"
    result = timed.call(
        job.run_checkpointed, PARTITION, services,
        checkpoint=JobCheckpoint(checkpoint_path), shards=cfg["shards"],
        sharded_events=True,
    )
    payloads = [
        {"kind": "fleet", "day": PARTITION},
        {"kind": "top-vms", "day": PARTITION, "category": "performance",
         "k": 5},
        {"kind": "top-events", "day": PARTITION, "k": 5},
        {"kind": "vm", "day": PARTITION, "vm": ids[len(ids) // 2]},
    ]
    opened = timed.wall
    service = timed.call(QueryService, job.tables)
    cold = []
    readable_ms = []
    for payload in payloads:
        cold.append((payload, timed.call(run_query, service, payload)))
        # Every panel is due when the dashboard opens, so each one's
        # delay counts the panels answered before it.
        readable_ms.append((timed.wall - opened) * 1000.0)
    service.close()
    rss = peak_rss_mb()
    stop_tracing(recorder)

    out = {
        "setup_s": setup_s, "timed_s": timed.wall, "cpu_s": timed.cpu,
        "work_units": ingested + len(payloads), "peak_rss_mb": rss,
        # Open-to-readable delay of the cold dashboard's panels; the last
        # one is the whole dashboard.
        "latency_p50_ms": statistics.median(readable_ms),
        "latency_tail_ms": readable_ms[-1],
        "latency_samples": len(readable_ms),
        "setup_breakdown": watch.seconds,
        "sizes": {"vms": len(ids), "events": ingested,
                  "shards": cfg["shards"]},
    }
    vm_rows, event_rows = oracles.output_rows(job.tables, PARTITION)
    out["digest"] = oracles.digest([vm_rows, event_rows,
                                    [response for _, response in cold]])
    problems = []
    if full_oracle:
        problems = oracles.check_batch_day(
            ingested=ingested, vm_count=len(ids), result=result,
            vm_rows=vm_rows, event_rows=event_rows, cold=cold,
            sample_events=sample_events,
            sample_services={vm: services[vm] for vm in sample},
        )
    out["attempted"] = out["work_units"]
    out["problems"] = problems
    if recorder is not None:
        summary, layers, detail = layer_summary(recorder, timed, engine)
        _, rollup_build_s = summary.with_children("serving.rollup")
        layers.update({
            "telemetry.fleetgen_s": watch.seconds["telemetry.fleetgen_s"],
            "scenarios.to_events_s": watch.seconds["scenarios.to_events_s"],
            "pipeline.ingest_s": summary.seconds("pipeline.ingest"),
            "pipeline.ingest_rows": ingested,
            "storage.spill_bytes": spill_bytes,
            "storage.scan_s": summary.seconds("storage.scan"),
            "storage.scan_rows": result.event_count,
            "core.kernel_s": summary.seconds("core.kernel"),
            "core.kernel_events": result.event_count,
            "pipeline.run_self_s": summary.self_seconds("pipeline.run"),
            "pipeline.checkpoint_s": summary.seconds("pipeline.checkpoint"),
            "pipeline.checkpoint_bytes": checkpoint_path.stat().st_size,
            "storage.overwrite_s": summary.seconds("storage.overwrite"),
            "storage.overwrite_rows": len(vm_rows) + len(event_rows),
            "serving.rollup_build_s": rollup_build_s,
            "serving.cold_query_ms": readable_ms[-1],
        })
        out["layers"], out["trace"] = layers, detail
    return out


# -- control_loop ----------------------------------------------------------------


def run_control_loop(cfg, seed, work_dir, recorder, engine, full_oracle):
    from repro.control import (
        ClosedLoopController,
        scorecard_json,
        seeded_scenario,
    )
    from repro.engine.dataset import EngineContext

    context = EngineContext(parallelism=2, backend="thread")
    scenarios = [
        seeded_scenario(seed * 1000 + index, days=cfg["days"])
        for index in range(cfg["scenarios"])
    ]
    setup_s = time.perf_counter() - T0
    timed = Timed()
    cards = []
    loop_ms = []
    for scenario in scenarios:
        before = timed.wall
        cards.append(timed.call(
            ClosedLoopController(scenario, context=context).run))
        loop_ms.append((timed.wall - before) * 1000.0)
    rss = peak_rss_mb()
    stop_tracing(recorder)
    reference = {}
    if full_oracle:
        serial = EngineContext(parallelism=1)
        for index in random.Random(seed).sample(range(len(scenarios)),
                                                cfg["oracle_scenarios"]):
            reference[index] = scorecard_json(ClosedLoopController(
                scenarios[index], context=serial).run())
    days = cfg["days"] * len(scenarios)
    out = {
        "setup_s": setup_s, "timed_s": timed.wall, "cpu_s": timed.cpu,
        "work_units": days, "peak_rss_mb": rss,
        # One closed loop = one scenario's controller run.
        "latency_p50_ms": statistics.median(loop_ms),
        "latency_tail_ms": percentile(loop_ms, 0.75),
        "latency_samples": len(loop_ms),
        "setup_breakdown": {},
        "sizes": {"scenarios": len(scenarios), "days": cfg["days"],
                  "vms": len(scenarios[0].vm_ids),
                  "mean_recall": statistics.fmean(c.recall for c in cards),
                  "mean_precision": statistics.fmean(
                      c.precision for c in cards)},
        "digest": oracles.digest([scorecard_json(card) for card in cards]),
        "attempted": days,
        "problems": oracles.check_control(cards, reference),
    }
    if recorder is not None:
        summary, layers, detail = layer_summary(recorder, timed, engine)
        layers.update({
            "control.run_s": summary.seconds("control.run"),
            "control.telemetry_s": summary.seconds("control.telemetry"),
            "control.job_s": summary.seconds("pipeline.run"),
            "control.detect_s": summary.seconds("control.detect"),
            "control.rca_s": summary.seconds("control.rca"),
            "control.platform_s": summary.seconds("control.platform"),
            "control.evaluate_s": summary.seconds("control.evaluate"),
            "pipeline.ingest_s": summary.seconds("pipeline.ingest"),
            "pipeline.run_self_s": summary.self_seconds("pipeline.run"),
            "core.kernel_s": summary.seconds("core.kernel"),
            "storage.scan_s": summary.seconds("storage.scan"),
            "storage.overwrite_s": summary.seconds("storage.overwrite"),
        })
        out["layers"], out["trace"] = layers, detail
    return out


# -- stream_day ------------------------------------------------------------------


def run_stream_day(cfg, seed, work_dir, recorder, engine, full_oracle):
    from repro.core.events import default_catalog
    from repro.pipeline.daily import WEIGHTS_CONFIG_KEY
    from repro.scenarios.common import default_weights, full_day_services
    from repro.storage.configdb import ConfigDB
    from repro.storage.logstore import LogStore
    from repro.storage.table import TableStore
    from repro.streaming import (
        StreamCheckpoint,
        StreamingCdiPipeline,
        event_record,
    )

    catalog = default_catalog()
    ids = workloads.vm_ids(cfg["vms"])
    services = full_day_services(ids, workloads.DAY)
    watch = workloads.Stopwatch()
    events = []
    for _, shard_events in workloads.iter_shard_events(
            ids, cfg["shards"], seed, catalog, watch):
        events.extend(shard_events)
    arrival = workloads.stream_arrival(events, cfg["lateness"], seed)
    records = [(event.time, event_record(event)) for event in arrival]
    config = ConfigDB()
    config.put(WEIGHTS_CONFIG_KEY, default_weights().to_dict())
    store = LogStore()
    tables = TableStore()
    checkpoint_path = Path(work_dir) / "stream.ck"
    pipeline = StreamingCdiPipeline(
        store, tables, config, catalog, services, PARTITION,
        allowed_lateness=cfg["lateness"],
        checkpoint=StreamCheckpoint(checkpoint_path),
    )
    ticks = cfg["ticks"]
    size = max(1, (len(records) + ticks - 1) // ticks)
    setup_s = time.perf_counter() - T0

    def append_and_tick(batch):
        for stamp, record in batch:
            store.append(stamp, **record)
        return pipeline.tick()

    timed = Timed()
    tick_ms = []
    results = []
    checkpoint_bytes = 0
    for offset in range(0, len(records), size):
        if recorder is not None:
            recorder.tag = f"tick-{len(results):04d}"
        before = timed.wall
        results.append(timed.call(append_and_tick,
                                  records[offset:offset + size]))
        # Append-to-readable: the slice is queryable when tick() returns.
        tick_ms.append((timed.wall - before) * 1000.0)
        checkpoint_bytes += checkpoint_path.stat().st_size
    before = timed.wall
    results.append(timed.call(pipeline.flush))
    tick_ms.append((timed.wall - before) * 1000.0)
    checkpoint_bytes += checkpoint_path.stat().st_size
    rss = peak_rss_mb()
    stop_tracing(recorder)

    edge = max(1, len(tick_ms) // 10)
    late_dropped = results[-1].late_dropped
    out = {
        "setup_s": setup_s, "timed_s": timed.wall, "cpu_s": timed.cpu,
        "work_units": len(records), "peak_rss_mb": rss,
        "latency_p50_ms": statistics.median(tick_ms),
        "latency_tail_ms": percentile(tick_ms, 0.90),
        "latency_samples": len(tick_ms),
        "setup_breakdown": watch.seconds,
        "sizes": {"vms": len(ids), "events": len(records),
                  "ticks": len(tick_ms)},
        "attempted": len(records),
        "late_dropped": late_dropped,
    }
    streamed = oracles.output_rows(tables, PARTITION)
    out["digest"] = oracles.digest(streamed)
    problems = []
    if full_oracle:
        problems = oracles.check_stream_day(
            streamed=streamed, arrival=arrival, services=services,
            partition=PARTITION, late_dropped=late_dropped,
        )
    elif late_dropped:
        problems = [f"{late_dropped} records dropped as late"]
    out["problems"] = problems
    if recorder is not None:
        summary, layers, detail = layer_summary(recorder, timed, engine)
        layers.update({
            "telemetry.fleetgen_s": watch.seconds["telemetry.fleetgen_s"],
            "scenarios.to_events_s": watch.seconds["scenarios.to_events_s"],
            "streaming.poll_s": summary.seconds("streaming.poll"),
            "streaming.extract_s": summary.seconds("streaming.extract"),
            "streaming.apply_s": summary.seconds("streaming.apply"),
            "streaming.snapshot_s": summary.seconds("streaming.snapshot"),
            "streaming.checkpoint_s": summary.seconds("streaming.checkpoint"),
            "streaming.checkpoint_bytes_written": checkpoint_bytes,
            "streaming.publish_s": summary.seconds("storage.overwrite"),
            "storage.overwrite_s": summary.seconds("storage.overwrite"),
            "storage.overwrite_rows": sum(
                len(rows) for rows in streamed) * len(tick_ms),
            "streaming.tick_growth": (
                statistics.median(tick_ms[-edge:])
                / statistics.median(tick_ms[:edge])),
            "streaming.released": sum(r.released for r in results),
            "streaming.applied": sum(r.applied for r in results),
            "streaming.late_dropped": late_dropped,
            "streaming.buffered_max": max(r.buffered for r in results),
            "storage.logstore_append_s":
                summary.seconds("storage.logstore_append"),
            "storage.logstore_read_s":
                summary.seconds("storage.logstore_read"),
        })
        out["layers"], out["trace"] = layers, detail
    return out


# -- serve_* host ------------------------------------------------------------------


class Publisher:
    """Open-loop writer: overwrite one day's two output partitions with
    identical rows every ``1/hz`` seconds, on schedule whatever the
    readers do; how late each publish started is recorded."""

    def __init__(self, tables, day, hz):
        from repro.pipeline.tables import EVENT_CDI_TABLE, VM_CDI_TABLE

        self._vm = tables.get(VM_CDI_TABLE)
        self._event = tables.get(EVENT_CDI_TABLE)
        self._vm_rows = self._vm.rows(partition=day)
        self._event_rows = self._event.rows(partition=day)
        self._day = day
        self._period = 1.0 / hz
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="publisher",
                                        daemon=True)
        self.publishes = 0
        self.late_max = 0.0

    def _run(self):
        origin = time.perf_counter()
        due = origin
        while not self._stop.is_set():
            delay = due - time.perf_counter()
            if delay > 0:
                if self._stop.wait(delay):
                    return
            self.late_max = max(self.late_max, time.perf_counter() - due)
            self._vm.overwrite_partition(self._vm_rows, self._day)
            self._event.overwrite_partition(self._event_rows, self._day)
            self.publishes += 1
            due += self._period

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=10.0)


def run_serve_host(workload, cfg, seed, recorder, engine):
    from repro.serving import AdmissionController, QueryService, ServerThread

    job, fleet = workloads.build_serving_tables(cfg, seed)
    admission = AdmissionController(max_in_flight=cfg["max_in_flight"])
    service = QueryService(job.tables, resolver=fleet.dimensions_of,
                           shards=cfg["shards"])
    publisher = None
    marks = []

    def snapshot():
        cache = service.cache_stats
        stats = admission.stats
        mark = {
            "t": time.perf_counter(), "cpu_s": time.process_time(),
            "peak_rss_mb": peak_rss_mb(),
            "admitted": stats.admitted,
            "rejected": stats.rejected_overload + stats.rejected_rate,
            "query_hits": cache.hits, "query_lookups": cache.lookups,
            "invalidations": cache.invalidations,
            "publishes": publisher.publishes if publisher else 0,
            "publisher_late_ms_max":
                publisher.late_max * 1000.0 if publisher else 0.0,
        }
        if publisher:
            publisher.late_max = 0.0
        marks.append(mark)
        return mark

    with service, ServerThread(service, admission=admission) as server:
        if workload == "serve_publish":
            days = service.days()
            publisher = Publisher(job.tables, days[-1], cfg["publish_hz"])
            publisher.start()
        print(json.dumps({"ready": True, "address": list(server.address),
                          "setup_s": time.perf_counter() - T0}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                print(json.dumps(snapshot()), flush=True)
            elif command == "stop":
                break
        if publisher:
            publisher.stop()
        # Let the event loop see the clients' EOFs before ServerThread
        # closes it; otherwise asyncio warns about destroyed tasks.
        time.sleep(0.05)
    out = {"stopped": True}
    if recorder is not None and len(marks) >= 2:
        window = [(marks[0]["t"], marks[1]["t"])]
        summary = Summary(recorder.spans, window)
        responds = summary.count.get("serving.respond", 0)
        rollups = summary.count.get("serving.rollup", 0)
        builds, build_s = summary.with_children("serving.rollup")
        out["layers"] = {
            "serving.parse_us": summary.median_us("serving.parse"),
            "serving.execute_us": summary.median_us("serving.execute"),
            "serving.serialize_us": summary.median_us("serving.serialize"),
            "serving.respond_us": summary.median_us("serving.respond"),
            "serving.rollup_build_s": build_s,
            "serving.rollup_cache_hit_ratio":
                1.0 - builds / rollups if rollups else 1.0,
            "storage.overwrite_s": summary.seconds("storage.overwrite"),
        }
        out["respond_calls"] = responds
        out["trace"] = trace_detail(summary)
    return out


RUNNERS = {
    "batch_day": run_batch_day,
    "control_loop": run_control_loop,
    "stream_day": run_stream_day,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--oracle", action="store_true",
                        help="run the full oracle (else digest only)")
    parser.add_argument("--spans-out")
    args = parser.parse_args()
    os.makedirs(args.work_dir, exist_ok=True)
    # Always a fresh directory: a finalized checkpoint left by an earlier
    # repetition would turn the daily job into a replay.
    scratch = tempfile.mkdtemp(prefix=args.workload + "-", dir=args.work_dir)
    cfg = workloads.workload_sizes(args.workload, args.smoke)

    recorder = engine = None
    if args.traced:
        import layers

        recorder = Recorder()
        engine = layers.install(recorder)
    try:
        if args.workload in workloads.SERVE_WORKLOADS:
            out = run_serve_host(args.workload, cfg, args.seed, recorder,
                                 engine)
        else:
            out = RUNNERS[args.workload](cfg, args.seed, scratch,
                                         recorder, engine, args.oracle)
    finally:
        if recorder is not None:
            recorder.remove()
        shutil.rmtree(scratch, ignore_errors=True)
    if recorder is not None and args.spans_out:
        recorder.write_ndjson(args.spans_out)
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
