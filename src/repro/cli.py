"""Command-line interface: regenerate the paper's figures and tables.

Usage::

    python -m repro list
    python -m repro fig5
    python -m repro fig6 --seed 3
    python -m repro all

Each subcommand rebuilds one experiment from scratch (deterministic
for a given ``--seed``) and prints the corresponding rows/series.  The
benchmark harness (`pytest benchmarks/ --benchmark-only -s`) runs the
same reproductions with timing and shape assertions.
"""

from __future__ import annotations

import argparse
from typing import Callable, Sequence


def _print_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> None:
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def cmd_fig2(seed: int) -> None:
    """Fig. 2: ticket distribution."""
    from repro.core.events import EventCategory
    from repro.telemetry.tickets import PAPER_TICKET_MIXTURE, TicketGenerator
    from repro.tickets.classifier import train_default_classifier

    tickets = TicketGenerator(seed=seed or 20230101).generate(
        6000, targets=["fleet"]
    )
    classifier = train_default_classifier(seed=7)
    predictions = classifier.predict([t.text for t in tickets])
    rows = [
        (c.value, f"{PAPER_TICKET_MIXTURE[c]:.0%}",
         f"{sum(1 for p in predictions if p is c) / len(predictions):.1%}")
        for c in EventCategory
    ]
    _print_table("Fig. 2: ticket distribution (paper vs reproduced)",
                 ["category", "paper", "reproduced"], rows)


def cmd_table4(seed: int) -> None:
    """Table IV: the worked CDI example."""
    from repro.core.indicator import ServicePeriod, WeightedInterval, aggregate, cdi

    def minutes(h: int, m: int) -> float:
        return h * 60.0 + m

    cases = {
        1: ([WeightedInterval(minutes(10, 8), minutes(10, 10), 0.3),
             WeightedInterval(minutes(10, 10), minutes(10, 12), 0.3)],
            ServicePeriod(minutes(10, 0), minutes(11, 0)), "0.020"),
        2: ([WeightedInterval(minutes(13, 25), minutes(13, 30), 0.6)],
            ServicePeriod(0.0, 1440.0), "0.002"),
        3: ([WeightedInterval(minutes(8, 8), minutes(8, 10), 0.5),
             WeightedInterval(minutes(8, 10), minutes(8, 12), 0.5),
             WeightedInterval(minutes(8, 10), minutes(8, 15), 0.6)],
            ServicePeriod(0.0, 1000.0), "0.004"),
    }
    rows = []
    per_vm = []
    for vm, (intervals, service, paper) in cases.items():
        value = cdi(intervals, service)
        per_vm.append((service.duration, value))
        rows.append((vm, paper, f"{value:.3f}"))
    rows.append(("All", "0.003", f"{aggregate(per_vm):.3f}"))
    _print_table("Table IV: worked CDI example",
                 ["VM", "paper CDI", "reproduced CDI"], rows)


def cmd_fig5(seed: int) -> None:
    """Fig. 5: incidents vs AIR/DP."""
    from repro.scenarios.incidents import (
        normalize_to_daily,
        simulate_incident_days,
    )

    rows_by_day = normalize_to_daily(simulate_incident_days(seed=seed))
    metrics = ("CDI-U", "CDI-P", "CDI-C", "AIR", "DP")
    rows = [
        [day] + [f"{rows_by_day[day][m]:.2f}" for m in metrics]
        for day in ("daily", "20240425", "20240702", "20250107")
    ]
    _print_table("Fig. 5: normalized metrics per incident day",
                 ["day", *metrics], rows)


def cmd_fig6(seed: int) -> None:
    """Fig. 6: FY2024 trend."""
    from repro.core.events import EventCategory
    from repro.scenarios.fiscal_year import (
        simulate_fiscal_year,
        smoothed,
        year_over_year_reduction,
    )

    curve = simulate_fiscal_year(seed=seed)
    smooth = smoothed(curve)
    rows = [
        (m.month, f"{m.report.unavailability:.5f}",
         f"{m.report.performance:.5f}", f"{m.report.control_plane:.5f}")
        for m in smooth
    ]
    _print_table("Fig. 6: smoothed monthly CDI",
                 ["month", "CDI-U", "CDI-P", "CDI-C"], rows)
    reductions = year_over_year_reduction(curve)
    paper = {"unavailability": "40%", "performance": "80%",
             "control_plane": "35%"}
    _print_table("Fig. 6: year-over-year reduction",
                 ["sub-metric", "paper", "reproduced"],
                 [(c.value, paper[c.value], f"{reductions[c]:.0%}")
                  for c in EventCategory])


def cmd_fig8(seed: int) -> None:
    """Fig. 8: architecture comparison."""
    from repro.scenarios.architecture import (
        divergence_ratio,
        simulate_architecture_comparison,
    )

    curve = simulate_architecture_comparison(seed=seed)
    rows = [(d.day, f"{d.homogeneous:.5f}", f"{d.hybrid:.5f}")
            for d in curve]
    _print_table("Fig. 8: Performance Indicator per architecture",
                 ["day", "homogeneous", "hybrid"], rows)
    print(f"\nhybrid/homogeneous ratio: "
          f"pre {divergence_ratio(curve, (1, 12)):.2f}, "
          f"bug {divergence_ratio(curve, (14, 20)):.2f}, "
          f"rollback {divergence_ratio(curve, (27, 28)):.2f}")


def cmd_fig9(seed: int) -> None:
    """Fig. 9: event-level spike and dip."""
    from repro.analytics.detect import CdiCurveDetector
    from repro.scenarios.event_level import simulate_event_level_curves

    curves = simulate_event_level_curves(seed=seed)
    rows = [
        (i + 1, f"{a:.5f}", f"{b:.5f}")
        for i, (a, b) in enumerate(
            zip(curves.allocation_failed, curves.power_tdp)
        )
    ]
    _print_table("Fig. 9: event-level CDI curves",
                 ["day", "(a) vm_allocation_failed",
                  "(b) inspect_cpu_power_tdp"], rows)
    detector = CdiCurveDetector(window=7, k=3.0, calibration=10)
    spikes = [d.index + 1 for d in detector.detect(curves.allocation_failed)
              if d.direction == "spike"]
    dips = [d.index + 1 for d in detector.detect(curves.power_tdp)
            if d.direction == "dip"]
    print(f"\nspike detections (a): {spikes}; dip detections (b): {dips}")


def cmd_table5(seed: int) -> None:
    """Table V + Fig. 11: the Case 8 A/B test."""
    from repro.abtest.analysis import analyze
    from repro.core.events import EventCategory
    from repro.scenarios.abtest_case8 import PAPER_MEANS, build_case8_experiment

    experiment = build_case8_experiment(hits_per_variant=450, seed=seed)
    analysis = analyze(experiment)
    rows = []
    for category in EventCategory:
        sub = analysis.by_category[category]
        pairs = ", ".join(
            f"{a}-{b}:{p.pvalue:.3f}{'*' if p.significant else ''}"
            for p in sub.workflow.pairs for a, b in [p.pair]
        ) or "-"
        rows.append((category.value, f"{sub.workflow.omnibus.pvalue:.2f}",
                     str(sub.significant), pairs))
    _print_table("Table V: hypothesis test results",
                 ["sub-metric", "omnibus p", "significant", "post-hoc"],
                 rows)
    perf = analysis.by_category[EventCategory.PERFORMANCE]
    _print_table("Fig. 11: Performance Indicator per action",
                 ["action", "paper mean", "reproduced mean"],
                 [(n, f"{PAPER_MEANS[n]:.2f}", f"{perf.means[n]:.2f}")
                  for n in ("A", "B", "C")])
    print(f"\nrecommended action: {analysis.recommendation}")


def cmd_daily(seed: int, *, days: int = 1, vms: int = 64,
              max_retries: int = 2,
              checkpoint_dir: str | None = None, resume: bool = True,
              shards: int = 8, chaos_seed: int | None = None,
              trace_dir: str | None = None) -> None:
    """Fault-tolerant daily CDI job over a synthetic fleet."""
    from pathlib import Path

    from repro.core.events import Event, default_catalog
    from repro.core.indicator import ServicePeriod
    from repro.engine import (
        ChaosInjector,
        EngineContext,
        RunTrace,
        spark_like_policy,
    )
    from repro.pipeline.backfill import run_days
    from repro.pipeline.daily import DailyCdiJob
    from repro.scenarios.common import default_weights, fault_to_period
    from repro.storage.configdb import ConfigDB
    from repro.storage.table import TableStore
    from repro.telemetry.faults import FaultInjector, baseline_rates

    day_seconds = 86400.0
    catalog = default_catalog()
    vm_ids = [f"vm-{index:05d}" for index in range(vms)]
    services = {vm: ServicePeriod(0.0, day_seconds) for vm in vm_ids}

    def events_for_day(index: int, partition: str) -> list[Event]:
        injector = FaultInjector(baseline_rates(scale=20.0),
                                 seed=seed * 1000 + index)
        events = []
        for fault in injector.sample(vm_ids, 0.0, day_seconds):
            period = fault_to_period(fault, catalog)
            events.append(Event(
                name=period.name, time=period.end, target=period.target,
                expire_interval=600.0, level=period.level,
                attributes={"duration": period.duration},
            ))
        return events

    chaos = None
    if chaos_seed is not None:
        chaos = ChaosInjector.storm(seed=chaos_seed)
    context = EngineContext(
        parallelism=4,
        retry_policy=spark_like_policy(max_retries, seed=seed),
        chaos=chaos,
    )
    job = DailyCdiJob(context, TableStore(), ConfigDB(), catalog)
    job.store_weights(default_weights())
    trace = RunTrace("daily") if trace_dir is not None else None
    backfill = run_days(
        job, events_for_day, services, days,
        checkpoint_dir=checkpoint_dir, resume=resume, shards=shards,
        trace=trace,
    )
    rows = [
        (result.partition, result.vm_count, result.event_count,
         f"{result.fleet_report.unavailability:.5f}",
         f"{result.fleet_report.performance:.5f}",
         f"{result.fleet_report.control_plane:.5f}")
        for result in backfill.job_results
    ]
    _print_table(
        "Daily CDI job" + (" (chaos on)" if chaos else ""),
        ["day", "VMs", "events", "CDI-U", "CDI-P", "CDI-C"], rows,
    )
    metrics = context.executor.last_job_metrics
    print(f"\nlast stage: {len(metrics.tasks)} tasks, "
          f"{metrics.retry_attempts} retried attempts, "
          f"{metrics.failed_tasks} failed, "
          f"{metrics.timed_out_tasks} timed out")
    if checkpoint_dir is not None:
        print(f"checkpoints under {checkpoint_dir} "
              f"({'resume enabled' if resume else 'resume disabled'})")
    if trace is not None and trace_dir is not None:
        target = trace.write_jsonl(
            Path(trace_dir) / f"daily-seed{seed}.jsonl"
        )
        problems = trace.validate()
        print(f"\ntrace written to {target} "
              f"({'complete' if not problems else 'INCOMPLETE'})")
        for problem in problems:
            print(f"  trace problem: {problem}")
        print(trace.summary())


def _build_query_service(seed: int, days: int, vms: int, *,
                         shards: int = 1,
                         parallelism: "int | None" = None):
    """Synthetic fleet + daily-job backfill → a ready QueryService.

    The dataset behind ``repro query``/``repro serve``: a topology-
    aware fleet (so group-by queries have dimensions to slice),
    deterministic per-day fault events, and the daily CDI job run over
    every partition.  ``shards`` > 1 splits the rollup store so
    multi-day queries merge shard results in parallel.
    """
    from repro.core.events import Event, default_catalog
    from repro.core.indicator import ServicePeriod
    from repro.engine.dataset import EngineContext
    from repro.pipeline.backfill import run_days
    from repro.pipeline.daily import DailyCdiJob
    from repro.scenarios.common import default_weights, fault_to_period
    from repro.serving import QueryService
    from repro.storage.configdb import ConfigDB
    from repro.storage.table import TableStore
    from repro.telemetry.faults import FaultInjector, baseline_rates
    from repro.telemetry.topology import build_fleet

    day_seconds = 86400.0
    catalog = default_catalog()
    fleet = build_fleet(
        seed=seed, regions=2, azs_per_region=2, clusters_per_az=1,
        ncs_per_cluster=2, vms_per_nc=max(1, vms // 8),
    )
    vm_ids = sorted(fleet.vms)
    services = {vm: ServicePeriod(0.0, day_seconds) for vm in vm_ids}

    def events_for_day(index: int, partition: str) -> list[Event]:
        injector = FaultInjector(baseline_rates(scale=20.0),
                                 seed=seed * 1000 + index)
        events = []
        for fault in injector.sample(vm_ids, 0.0, day_seconds):
            period = fault_to_period(fault, catalog)
            events.append(Event(
                name=period.name, time=period.end, target=period.target,
                expire_interval=600.0, level=period.level,
                attributes={"duration": period.duration},
            ))
        return events

    job = DailyCdiJob(EngineContext(parallelism=4), TableStore(),
                      ConfigDB(), catalog)
    job.store_weights(default_weights())
    run_days(job, events_for_day, services, days)
    return QueryService(job.tables, resolver=fleet.dimensions_of,
                        shards=shards, parallelism=parallelism)


def _query_payload(args) -> dict:
    """Assemble the wire query payload from parsed CLI arguments."""
    payload: dict = {"kind": args.kind}
    optional = {
        "day": args.day, "start": args.start, "end": args.end,
        "category": args.category, "dimension": args.dimension,
        "event": args.event, "vm": args.vm_id,
    }
    for field, value in optional.items():
        if value is not None:
            payload[field] = value
    if args.kind in ("top-vms", "top-events"):
        payload["k"] = args.k
    return payload


def cmd_query(seed: int, *, days: int = 2, vms: int = 16,
              kind: str = "fleet", day: str | None = None,
              start: str | None = None, end: str | None = None,
              category: str | None = None, dimension: str | None = None,
              k: int = 5, event: str | None = None,
              vm_id: str | None = None) -> int:
    """One CDI query over a synthetic fleet, answered as JSON."""
    import json
    import sys
    from types import SimpleNamespace

    from repro.serving import run_query

    service = _build_query_service(seed, days, vms)
    if day is None and kind in ("fleet", "group-by", "top-vms",
                                "top-events", "vm"):
        day = service.days()[-1] if service.days() else None
    if kind == "group-by" and dimension is None:
        dimension = "region"
    if kind in ("trend", "top-vms") and category is None:
        category = "performance"
    if kind == "event-series" and event is None:
        leaders = service.top_events(day or service.days()[-1], 1)
        event = leaders[0][0] if leaders else "vm_down"
    args = SimpleNamespace(kind=kind, day=day, start=start, end=end,
                           category=category, dimension=dimension, k=k,
                           event=event, vm_id=vm_id)
    response = run_query(service, _query_payload(args))
    print(json.dumps(response, indent=2, sort_keys=True))
    stats = service.cache_stats
    print(f"cache: {stats.hits} hits / {stats.misses} misses "
          f"({stats.size} entries)", file=sys.stderr)
    return 0 if response.get("ok") else 1


def _parse_listen(listen: str) -> tuple[str, int]:
    """``HOST:PORT`` / ``:PORT`` → ``(host, port)`` (host defaults local)."""
    host, sep, port = listen.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(
            f"--listen expects HOST:PORT or :PORT, got {listen!r}"
        )
    return host or "127.0.0.1", int(port)


def cmd_serve(seed: int, *, days: int = 2, vms: int = 16,
              listen: str | None = None, serve_shards: int = 4,
              max_in_flight: int = 64,
              rate_limit: float | None = None) -> None:
    """Query server: JSON lines over stdin/stdout, or TCP via --listen."""
    import asyncio
    import json
    import sys

    from repro.serving import (
        QUERY_KINDS,
        AdmissionController,
        QueryServer,
        serve_lines,
    )

    service = _build_query_service(seed, days, vms, shards=serve_shards)
    admission = AdmissionController(max_in_flight=max_in_flight,
                                    rate_per_client=rate_limit)
    if listen is not None:
        host, port = _parse_listen(listen)
        server = QueryServer(service, host=host, port=port,
                             admission=admission)

        async def _run() -> None:
            bound_host, bound_port = await server.start()
            print(
                f"repro serve: listening on {bound_host}:{bound_port} "
                f"({len(service.days())} days, {service.shard_count} "
                f"shards); one JSON query per line",
                file=sys.stderr,
            )
            await server.serve_forever()

        try:
            asyncio.run(_run())
        except KeyboardInterrupt:
            print("repro serve: interrupted", file=sys.stderr)
        finally:
            service.close()
        return
    print(
        f"repro serve: {len(service.days())} days "
        f"({', '.join(service.days())}), kinds: "
        f"{', '.join(sorted(QUERY_KINDS))}; one JSON query per line",
        file=sys.stderr,
    )
    answered = serve_lines(service, sys.stdin, print,
                           admission=admission)
    stats = service.cache_stats
    print(
        f"served {answered} queries; cache {stats.hits} hits / "
        f"{stats.misses} misses "
        f"({json.dumps(stats.hit_rate)} hit rate)",
        file=sys.stderr,
    )
    service.close()


def cmd_stream(seed: int, *, vms: int = 32, ticks: int = 6,
               lateness: float = 1800.0,
               checkpoint_dir: str | None = None) -> int:
    """Streaming incremental CDI with a live batch differential check."""
    import json
    import random
    from pathlib import Path

    from repro.core.events import Event, default_catalog
    from repro.core.indicator import ServicePeriod
    from repro.engine.dataset import EngineContext
    from repro.pipeline.daily import WEIGHTS_CONFIG_KEY, DailyCdiJob
    from repro.pipeline.tables import EVENT_CDI_TABLE, VM_CDI_TABLE
    from repro.scenarios.common import default_weights, fault_to_period
    from repro.storage.configdb import ConfigDB
    from repro.storage.logstore import LogStore
    from repro.storage.table import TableStore
    from repro.streaming import (
        StreamCheckpoint,
        StreamingCdiPipeline,
        event_record,
    )
    from repro.telemetry.faults import FaultInjector, baseline_rates

    day_seconds = 86400.0
    partition = "day00"
    catalog = default_catalog()
    vm_ids = [f"vm-{index:05d}" for index in range(vms)]
    services = {vm: ServicePeriod(0.0, day_seconds) for vm in vm_ids}

    # One synthetic fleet day, then a bounded-lag shuffle: each record
    # arrives with a lag strictly below the allowed lateness, so the
    # tailer's watermark never drops one and the stream must reproduce
    # the batch answer over the whole day, byte for byte.
    injector = FaultInjector(baseline_rates(scale=20.0), seed=seed * 1000)
    events = []
    for fault in injector.sample(vm_ids, 0.0, day_seconds):
        period = fault_to_period(fault, catalog)
        events.append(Event(
            name=period.name, time=period.end, target=period.target,
            expire_interval=600.0, level=period.level,
            attributes={"duration": period.duration},
        ))
    rng = random.Random(seed)
    lags = [rng.uniform(0.0, 0.9 * lateness) for _ in events]
    order = sorted(range(len(events)),
                   key=lambda i: (events[i].time + lags[i], i))
    arrival = [events[i] for i in order]

    config = ConfigDB()
    config.put(WEIGHTS_CONFIG_KEY, default_weights().to_dict())
    checkpoint = None
    if checkpoint_dir is not None:
        checkpoint = StreamCheckpoint(
            Path(checkpoint_dir) / f"stream-seed{seed}.ck"
        )
    store = LogStore()
    tables = TableStore()
    pipeline = StreamingCdiPipeline(
        store, tables, config, catalog, services, partition,
        allowed_lateness=lateness, checkpoint=checkpoint,
    )
    if pipeline.resume():
        print(f"resumed from checkpoint at tick {pipeline.ticks} "
              f"(cursor {pipeline.tailer.cursor})")

    ticks = max(1, ticks)
    size = max(1, (len(arrival) + ticks - 1) // ticks)
    rows = []
    for offset in range(0, len(arrival), size):
        for event in arrival[offset:offset + size]:
            store.append(event.time, **event_record(event))
        result = pipeline.tick()
        rows.append(result)
    rows.append(pipeline.flush())
    _print_table(
        f"Streaming CDI ({vms} VMs, lateness {lateness:g}s"
        + (", checkpointed" if checkpoint else "") + ")",
        ["tick", "released", "applied", "buffered", "late_dropped",
         "watermark", "CDI-U", "CDI-P"],
        [
            (r.tick, r.released, r.applied, r.buffered, r.late_dropped,
             "-" if r.watermark is None else f"{r.watermark:.0f}",
             f"{r.fleet_report.unavailability:.5f}",
             f"{r.fleet_report.performance:.5f}")
            for r in rows
        ],
    )

    # The differential gate, live: a from-scratch batch job over the
    # admitted events (in the tailer's release order) must publish the
    # exact same bytes the stream just did.
    oracle_events = [
        event for _, event in sorted(
            enumerate(arrival), key=lambda pair: (pair[1].time, pair[0])
        )
    ]
    oracle = DailyCdiJob(EngineContext(parallelism=4), TableStore(),
                         ConfigDB(), catalog)
    oracle.store_weights(default_weights())
    oracle.ingest_events(oracle_events, partition)
    oracle.run(partition, services)

    def table_bytes(source: TableStore) -> bytes:
        return json.dumps([
            source.get(VM_CDI_TABLE).rows(partition=partition),
            source.get(EVENT_CDI_TABLE).rows(partition=partition),
        ], sort_keys=True).encode()

    streamed, batch = table_bytes(tables), table_bytes(oracle.tables)
    verdict = "IDENTICAL" if streamed == batch else "DIVERGED"
    print(f"\ndifferential vs batch recompute: {verdict} "
          f"({pipeline.tailer.consumed} consumed, "
          f"{pipeline.tailer.late_dropped} dropped, "
          f"{pipeline.state.applied} applied)")
    return 0 if streamed == batch else 1


def cmd_control(seed: int, *, days: int = 21, scenario: str = "seeded",
                json_out: str | None = None) -> int:
    """Closed-loop controller: detect, localize, act, evaluate."""
    from pathlib import Path

    from repro.control import (
        ClosedLoopController,
        quiet_scenario,
        scorecard_json,
        seeded_scenario,
    )
    from repro.engine.dataset import EngineContext

    builders = {"seeded": seeded_scenario, "quiet": quiet_scenario}
    spec = builders[scenario](seed, days=days)
    controller = ClosedLoopController(
        spec, context=EngineContext(parallelism=2)
    )
    card = controller.run()
    if spec.incidents:
        _print_table(
            "Closed loop: injected incidents vs detection",
            ["incident", "category", "onset", "detected", "latency",
             "RCA correct"],
            [
                (i.incident_id, i.category, i.onset_day,
                 "yes" if i.detected else "NO",
                 "-" if i.latency_days is None else i.latency_days,
                 "-" if i.rca_correct is None else str(i.rca_correct))
                for i in card.incidents
            ],
        )
    _print_table(
        "Closed loop: episodes and action verdicts",
        ["episode", "category", "day", "action", "arms", "effective",
         "improvement", "rolled out"],
        [
            (a.episode_id, a.category, a.opened_day, a.action,
             f"{a.treated}/{a.control}", str(a.effective),
             f"{a.realized_improvement:.5f}", str(a.rolled_out))
            for a in card.actions
        ],
    )
    print(f"\nprecision {card.precision:.2f}, recall {card.recall:.2f}, "
          f"false positives {card.false_positives}, "
          f"mean latency "
          + ("-" if card.mean_latency_days is None
             else f"{card.mean_latency_days:.1f}d")
          + ", RCA accuracy "
          + ("-" if card.rca_accuracy is None
             else f"{card.rca_accuracy:.2f}")
          + f", total CDI improvement "
            f"{card.realized_improvement_total:.5f}")
    if json_out is not None:
        target = Path(json_out)
        target.write_text(scorecard_json(card))
        print(f"scorecard written to {target}")
    return 0


def cmd_faceoff(seed: int, *, json_out: str | None = None) -> int:
    """AIR-vs-CDI head-to-head over the outage scenario family."""
    from pathlib import Path

    from repro.scenarios.faceoff import faceoff_json, run_faceoff

    result = run_faceoff(seed)
    _print_table(
        "KPI faceoff: AIR vs CDI over the outage family "
        f"(seed {seed}, ratio vs {result['flag_ratio']}x baseline)",
        ["scenario", "AIR ratio", "CDI-U", "CDI-P", "CDI-C",
         "verdict", "RCA"],
        [
            (
                r["name"],
                f"{r['kpis']['air']['ratio']:.2f}"
                + ("*" if r["kpis"]["air"]["flagged"] else ""),
                *(
                    f"{r['kpis'][key]['ratio']:.2f}"
                    + ("*" if r["kpis"][key]["flagged"] else "")
                    for key in ("cdi_unavailability", "cdi_performance",
                                "cdi_control_plane")
                ),
                r["verdict"],
                ("-" if not r["rca"]["scored"]
                 else "correct" if r["rca"]["correct"] else "WRONG"),
            )
            for r in result["scenarios"]
        ],
    )
    summary = result["summary"]
    rca = summary["rca"]
    print(f"\n* = flagged (>= {result['flag_ratio']}x baseline). "
          f"AIR-blind scenarios: "
          f"{', '.join(summary['air_blind_scenarios']) or 'none'}; "
          f"CDI-blind: "
          f"{', '.join(summary['cdi_blind_scenarios']) or 'none'}. "
          f"RCA cluster localization {rca['correct']}/{rca['scored']} "
          f"(accuracy {rca['accuracy']:.2f}). "
          f"Expectations met: {summary['expectations_met']}.")
    if json_out is not None:
        target = Path(json_out)
        target.write_text(faceoff_json(result))
        print(f"faceoff artifact written to {target}")
    return 0 if summary["expectations_met"] else 1


def _newest_trace(trace_dir: str) -> "str | None":
    from pathlib import Path

    candidates = sorted(
        Path(trace_dir).glob("*.jsonl"),
        key=lambda p: p.stat().st_mtime,
    )
    return str(candidates[-1]) if candidates else None


def cmd_trace(seed: int, *, trace_file: str | None = None,
              trace_dir: str | None = None) -> None:
    """Summarize a run trace written by `daily --trace-dir`."""
    from repro.engine import RunTrace

    path = trace_file
    if path is None and trace_dir is not None:
        path = _newest_trace(trace_dir)
    if path is None:
        print("no trace file given; run `repro daily --trace-dir DIR` "
              "first, then `repro trace --trace-dir DIR` (or "
              "--trace-file FILE)")
        return
    trace = RunTrace.load(path)
    problems = trace.validate()
    print(f"trace file: {path} "
          f"({'complete' if not problems else 'INCOMPLETE'})")
    for problem in problems:
        print(f"  trace problem: {problem}")
    print(trace.summary())


COMMANDS: dict[str, Callable[[int], None]] = {
    "fig2": cmd_fig2,
    "table4": cmd_table4,
    "fig5": cmd_fig5,
    "fig6": cmd_fig6,
    "fig8": cmd_fig8,
    "fig9": cmd_fig9,
    "table5": cmd_table5,
    "daily": cmd_daily,
    "control": cmd_control,
    "faceoff": cmd_faceoff,
    "stream": cmd_stream,
    "trace": cmd_trace,
    "query": cmd_query,
    "serve": cmd_serve,
}

#: Commands skipped by ``repro all`` (interactive: blocks on stdin).
_INTERACTIVE_COMMANDS = frozenset({"serve"})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("command",
                        choices=[*COMMANDS, "all", "list"],
                        help="which artifact to regenerate")
    parser.add_argument("--seed", type=int, default=0,
                        help="simulation seed (default 0)")
    daily = parser.add_argument_group(
        "daily", "options for the fault-tolerant daily job"
    )
    daily.add_argument("--days", type=int, default=None,
                       help="number of day partitions to run "
                            "(default 1; 21 for control)")
    daily.add_argument("--vms", type=int, default=64,
                       help="synthetic fleet size (default 64)")
    daily.add_argument("--max-retries", type=int, default=2,
                       help="per-task retry budget (default 2)")
    daily.add_argument("--checkpoint-dir", default=None,
                       help="directory for per-day checkpoint files "
                            "(enables checkpoint/resume)")
    daily.add_argument("--resume", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="resume from existing checkpoints "
                            "(default on; --no-resume starts over)")
    daily.add_argument("--shards", type=int, default=8,
                       help="VM shards per checkpointed day (default 8)")
    daily.add_argument("--chaos-seed", type=int, default=None,
                       help="enable deterministic chaos injection "
                            "with this seed")
    daily.add_argument("--trace-dir", default=None,
                       help="write a JSONL run trace into this directory "
                            "and print its summary")
    control = parser.add_argument_group(
        "control", "options for the closed-loop controller"
    )
    control.add_argument("--scenario", choices=["seeded", "quiet"],
                         default="seeded",
                         help="seeded (three injected incidents) or "
                              "quiet (background only; default seeded)")
    control.add_argument("--json-out", default=None,
                         help="write the scorecard (control) or faceoff "
                              "artifact JSON to this path")
    stream = parser.add_argument_group(
        "stream", "options for the streaming incremental CDI loop"
    )
    stream.add_argument("--ticks", type=int, default=6,
                        help="number of streaming tick batches "
                             "(default 6)")
    stream.add_argument("--lateness", type=float, default=1800.0,
                        help="allowed out-of-order lateness in seconds "
                             "(default 1800)")
    trace = parser.add_argument_group(
        "trace", "options for summarizing run traces"
    )
    trace.add_argument("--trace-file", default=None,
                       help="trace JSONL file to summarize")
    query = parser.add_argument_group(
        "query/serve", "options for the CDI query service"
    )
    query.add_argument("--kind", default="fleet",
                       choices=["fleet", "range", "trend", "group-by",
                                "top-vms", "top-events", "event-series",
                                "vm"],
                       help="query kind (default fleet)")
    query.add_argument("--day", default=None,
                       help="day partition, e.g. day00 (default: latest)")
    query.add_argument("--start", default=None,
                       help="range start day (inclusive)")
    query.add_argument("--end", default=None,
                       help="range end day (inclusive)")
    query.add_argument("--category", default=None,
                       help="sub-metric: unavailability / performance / "
                            "control_plane")
    query.add_argument("--dimension", default=None,
                       help="group-by dimension, e.g. region / az / "
                            "cluster (default region)")
    query.add_argument("--k", type=int, default=5,
                       help="top-K size (default 5)")
    query.add_argument("--event", default=None,
                       help="event name for event-series queries")
    query.add_argument("--vm-id", default=None,
                       help="VM id for vm point lookups")
    query.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="serve over TCP instead of stdin/stdout "
                            "(e.g. 127.0.0.1:7077 or :0 for ephemeral)")
    query.add_argument("--serve-shards", type=int, default=4,
                       help="rollup-store shards for the query service "
                            "(default 4)")
    query.add_argument("--max-in-flight", type=int, default=64,
                       help="admission limit on concurrent queries "
                            "(default 64)")
    query.add_argument("--rate-limit", type=float, default=None,
                       help="per-client queries/second token-bucket rate "
                            "(default: unlimited)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, fn in COMMANDS.items():
            print(f"{name:8} {fn.__doc__.strip() if fn.__doc__ else ''}")
        return 0
    if args.command == "all":
        for name, fn in COMMANDS.items():
            if name not in _INTERACTIVE_COMMANDS:
                fn(args.seed)
        return 0
    if args.command == "control":
        return cmd_control(args.seed, days=args.days or 21,
                           scenario=args.scenario, json_out=args.json_out)
    if args.command == "faceoff":
        return cmd_faceoff(args.seed, json_out=args.json_out)
    if args.command == "daily":
        cmd_daily(
            args.seed, days=args.days or 1, vms=args.vms,
            max_retries=args.max_retries, checkpoint_dir=args.checkpoint_dir,
            resume=args.resume, shards=args.shards,
            chaos_seed=args.chaos_seed, trace_dir=args.trace_dir,
        )
        return 0
    if args.command == "stream":
        return cmd_stream(args.seed, vms=args.vms, ticks=args.ticks,
                          lateness=args.lateness,
                          checkpoint_dir=args.checkpoint_dir)
    if args.command == "trace":
        cmd_trace(args.seed, trace_file=args.trace_file,
                  trace_dir=args.trace_dir)
        return 0
    if args.command == "query":
        return cmd_query(
            args.seed, days=args.days or 1, vms=args.vms, kind=args.kind,
            day=args.day, start=args.start, end=args.end,
            category=args.category, dimension=args.dimension, k=args.k,
            event=args.event, vm_id=args.vm_id,
        )
    if args.command == "serve":
        cmd_serve(args.seed, days=args.days or 1, vms=args.vms,
                  listen=args.listen, serve_shards=args.serve_shards,
                  max_in_flight=args.max_in_flight,
                  rate_limit=args.rate_limit)
        return 0
    COMMANDS[args.command](args.seed)
    return 0
