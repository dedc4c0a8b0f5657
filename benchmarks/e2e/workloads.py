"""Workload definitions and seeded input generation.

Everything a workload feeds the program is made here from ``--seed``;
the program under test sees only the generated inputs.  Generation is
always off the clock: the process-under-test entry points in
``child.py`` time only the calls into ``repro``.

Sizes are fixed per mode.  ``FULL`` is what ``BENCHMARK.json`` measures;
``SMOKE`` is the same code at toy size for ``test_harness.py``.
"""

from __future__ import annotations

import json
import random
import time
from typing import Any, Iterator

DAY = 86400.0
#: Expected faults/VM/day ≈ 1.5 (the legacy fleet-scale bench's mix).
FAULT_SCALE = 20.0
EXPIRE_INTERVAL = 600.0

#: name → why, in the order every report prints them.
WORKLOADS = {
    "batch_day": (
        "the daily job out-of-core at the largest size the run budget "
        "allows: per-row costs (spill codec, scan, resolve, kernel, "
        "checkpoint writes) dominate, per-call overhead is negligible"
    ),
    "control_loop": (
        "the same DailyCdiJob the opposite way: hundreds of 32-VM days, so "
        "per-day fixed cost and the detectors dominate and per-row cost is "
        "nil; buying batch_day rows/s with per-job set-up shows here as loss"
    ),
    "stream_day": (
        "one day arriving out of order in 120 slices: per-tick cost (full "
        "row-log checkpoint, full-partition republish) dominates per-event "
        "apply cost, so tick latency and its growth over the day show"
    ),
    "serve_hot": (
        "22 dashboard payloads repeated by 2 closed-loop connections: every "
        "request after the first pass is a wire-cache hit, isolating socket "
        "+ asyncio + cached bytes and bypassing parse/execute/serialize"
    ),
    "serve_wide": (
        "13k distinct point lookups and top-k lines against a 1024-entry "
        "wire cache and 256-entry query cache: parse, admit, executor hop, "
        "execute and json.dumps do the work, the caches none"
    ),
    "serve_publish": (
        "serve_hot's mix beside an open-loop publisher at 50 overwrites/s: "
        "generation bumps, cache invalidation, rollup rebuilds and "
        "snapshot-validate retries do the work"
    ),
}

SERVE_WORKLOADS = ("serve_hot", "serve_wide", "serve_publish")

#: The tail percentile of the query round trip: the highest one that
#: reads the same from run to run.  On ``serve_hot`` the machine decides
#: p99: for streaks of several repetitions 3% instead of 2% of the 0.1 ms
#: round trips are delayed by ~40 us, and p99 reads 0.163 instead of
#: 0.145 ms while p95 does not move.  On ``serve_publish`` about 1% of
#: the requests pay a rollup rebuild after a publish, so p99 sits on the
#: edge of that population and flips between 1.5 and 1.9 ms from phase
#: to phase; p99.5 lies inside it (70 samples beyond).
SERVE_TAIL = {"serve_hot": 0.95, "serve_wide": 0.99, "serve_publish": 0.995}

FULL = {
    "batch_day": {"vms": 40_000, "shards": 16, "spill_bytes": 16 << 10,
                  "oracle_vms": 200},
    # One scenario's cost varies with its seed (sd 13% over 300 seeds:
    # how often the EVT detector refits), so across seeds a panel of n
    # reads throughput to about 18%/sqrt(n) between quartiles: 2.9% at
    # 40, where one 90-day scenario reads 33%.
    "control_loop": {"scenarios": 40, "days": 21, "oracle_scenarios": 8},
    "stream_day": {"vms": 3_000, "ticks": 120, "lateness": 1800.0,
                   "shards": 4},
    "serve": {"vms_per_nc": 125, "days": 5, "shards": 4, "max_in_flight": 64,
              "connections": 2, "warmup_s": 0.5, "wide_k": 400,
              "publish_hz": 50.0},
}

SMOKE = {
    "batch_day": {"vms": 1_000, "shards": 4, "spill_bytes": 16 << 10,
                  "oracle_vms": 50},
    # seeded_scenario refuses fewer than 20 days.
    "control_loop": {"scenarios": 2, "days": 21, "oracle_scenarios": 2},
    "stream_day": {"vms": 1_000, "ticks": 10, "lateness": 1800.0,
                   "shards": 2},
    "serve": {"vms_per_nc": 25, "days": 2, "shards": 4, "max_in_flight": 64,
              "connections": 2, "warmup_s": 0.2, "wide_k": 50,
              "publish_hz": 50.0},
}


def sizes(smoke: bool) -> dict[str, Any]:
    """The size table of one mode."""
    return SMOKE if smoke else FULL


def workload_sizes(workload: str, smoke: bool) -> dict[str, Any]:
    """The size entry a workload runs at (serve_* share one)."""
    table = sizes(smoke)
    return table["serve" if workload in SERVE_WORKLOADS else workload]


class Stopwatch:
    """Accumulates wall seconds under named keys (harness-side timing of
    the generators, so ``setup_s`` can be broken down without tracing)."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    def add(self, key: str, started: float) -> float:
        """Add ``now - started`` to ``key``; returns ``now``."""
        now = time.perf_counter()
        self.seconds[key] = self.seconds.get(key, 0.0) + now - started
        return now


def vm_ids(count: int) -> list[str]:
    """Sorted synthetic VM ids."""
    return [f"vm-{index:06d}" for index in range(count)]


def faults_to_events(faults: Any, catalog: Any) -> list[Any]:
    """Faults as the events the extractor would have produced."""
    from repro.core.events import Event
    from repro.scenarios.common import fault_to_period

    events = []
    for fault in faults:
        period = fault_to_period(fault, catalog)
        events.append(Event(
            name=period.name, time=period.end, target=period.target,
            expire_interval=EXPIRE_INTERVAL, level=period.level,
            attributes={"duration": period.duration},
        ))
    return events


def iter_shard_events(ids: list[str], shards: int, seed: int, catalog: Any,
                      watch: Stopwatch) -> Iterator[tuple[Any, list[Any]]]:
    """``(shard, events)`` one shard at a time, generator time recorded
    under ``telemetry.fleetgen_s`` / ``scenarios.to_events_s``."""
    from repro.telemetry.faults import baseline_rates
    from repro.telemetry.fleetgen import iter_fleet_faults

    generator = iter_fleet_faults(
        ids, shards, baseline_rates(scale=FAULT_SCALE), 0.0, DAY, seed=seed,
    )
    while True:
        started = time.perf_counter()
        try:
            shard, faults = next(generator)
        except StopIteration:
            return
        started = watch.add("telemetry.fleetgen_s", started)
        events = faults_to_events(faults, catalog)
        watch.add("scenarios.to_events_s", started)
        yield shard, events


def stream_arrival(events: list[Any], lateness: float, seed: int) -> list[Any]:
    """``events`` in bounded-lag shuffled arrival order (as ``cmd_stream``):
    every lag is below 0.9 × lateness, so the tailer never drops one."""
    rng = random.Random(seed)
    lags = [rng.uniform(0.0, 0.9 * lateness) for _ in events]
    order = sorted(range(len(events)),
                   key=lambda i: (events[i].time + lags[i], i))
    return [events[i] for i in order]


# -- serving -------------------------------------------------------------------


def build_serving_tables(cfg: dict[str, Any], seed: int) -> tuple[Any, Any]:
    """``(job, fleet)`` with ``cfg['days']`` backfilled day partitions.

    Called by the server host (its set-up) and by the harness (the
    oracle's own copy): same seed, same bytes.
    """
    from repro.core.events import default_catalog
    from repro.engine.dataset import EngineContext
    from repro.pipeline.backfill import run_days
    from repro.pipeline.daily import DailyCdiJob
    from repro.scenarios.common import default_weights, full_day_services
    from repro.storage.configdb import ConfigDB
    from repro.storage.table import TableStore
    from repro.telemetry.faults import FaultInjector, baseline_rates
    from repro.telemetry.topology import build_fleet

    catalog = default_catalog()
    fleet = build_fleet(seed=seed, regions=2, azs_per_region=2,
                        clusters_per_az=1, ncs_per_cluster=2,
                        vms_per_nc=cfg["vms_per_nc"])
    ids = sorted(fleet.vms)
    services = full_day_services(ids, DAY)

    def events_for_day(index: int, partition: str) -> list[Any]:
        injector = FaultInjector(baseline_rates(scale=FAULT_SCALE),
                                 seed=seed * 1000 + index)
        return faults_to_events(injector.sample(ids, 0.0, DAY), catalog)

    job = DailyCdiJob(EngineContext(parallelism=2, backend="thread"),
                      TableStore(), ConfigDB(), catalog)
    job.store_weights(default_weights())
    run_days(job, events_for_day, services, cfg["days"])
    return job, fleet


def dashboard_payloads(days: list[str]) -> list[dict[str, Any]]:
    """The dashboard mix one client cycles through (4 per day + 2)."""
    mix: list[dict[str, Any]] = []
    for day in days:
        mix.append({"kind": "fleet", "day": day})
        mix.append({"kind": "top-events", "day": day, "k": 5})
        mix.append({"kind": "group-by", "day": day, "dimension": "region"})
        mix.append({"kind": "top-vms", "day": day,
                    "category": "performance", "k": 5})
    mix.append({"kind": "range"})
    mix.append({"kind": "trend", "category": "unavailability"})
    return mix


def wide_payloads(days: list[str], ids: list[str],
                  max_k: int) -> list[dict[str, Any]]:
    """Every distinct line of the wide workload: a ``vm`` lookup per
    (day, VM) and ``top-vms``/``top-events`` for each k in 1..max_k."""
    payloads: list[dict[str, Any]] = []
    for day in days:
        payloads.extend({"kind": "vm", "day": day, "vm": vm} for vm in ids)
        for k in range(1, max_k + 1):
            for category in ("unavailability", "performance", "control_plane"):
                payloads.append({"kind": "top-vms", "day": day,
                                 "category": category, "k": k})
            payloads.append({"kind": "top-events", "day": day, "k": k})
    return payloads


def encode_lines(payloads: list[dict[str, Any]]) -> list[bytes]:
    """Payloads as the wire lines the clients send."""
    return [(json.dumps(payload) + "\n").encode() for payload in payloads]


def connection_streams(workload: str, line_count: int, connections: int,
                       seed: int, length: int) -> list[list[int]]:
    """Per connection, the indices into the line table it sends, in order.

    Dashboard workloads cycle the mix from staggered offsets (as the
    legacy bench's clients did); the wide workload draws uniformly with
    a per-connection seeded generator.
    """
    if workload == "serve_wide":
        return [
            random.Random(seed * 7919 + slot).choices(
                range(line_count), k=length)
            for slot in range(connections)
        ]
    return [
        [(slot + step) % line_count for step in range(length)]
        for slot in range(connections)
    ]
