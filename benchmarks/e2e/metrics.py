"""The metric vocabulary: names, units, direction, bounds.

``test_harness.py`` holds ``BENCHMARK.json`` to these tables, so a metric
cannot be printed under one name and bounded under another.
"""

from __future__ import annotations

import statistics
from typing import Any, Iterable

#: (name, unit, better, bound): what a user of the system sees.  The
#: bound is the share of the baseline median by which the metric may
#: worsen before ``compare`` calls it a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.10),
    ("latency_p50_ms", "ms", "lower", 0.10),
    ("latency_tail_ms", "ms", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("cpu_s_per_kop", "s", "lower", 0.10),
    # 1 - failed_ops_ratio: the contract wants end-to-end metrics that
    # are never 0, and a run without failures has failed_ops_ratio 0.
    ("ok_ops_ratio", "ratio", "higher", 0.001),
)

#: (name, unit, better): one layer each, no bound.
PER_LAYER = (
    ("telemetry.fleetgen_s", "s", "lower"),
    ("scenarios.to_events_s", "s", "lower"),
    ("pipeline.ingest_s", "s", "lower"),
    ("pipeline.ingest_rows", "rows", "higher"),
    ("storage.spill_bytes", "bytes", "lower"),
    ("storage.scan_s", "s", "lower"),
    ("storage.scan_rows", "rows", "lower"),
    ("core.kernel_s", "s", "lower"),
    ("core.kernel_events", "count", "higher"),
    ("pipeline.run_self_s", "s", "lower"),
    ("pipeline.checkpoint_s", "s", "lower"),
    ("pipeline.checkpoint_bytes", "bytes", "lower"),
    ("storage.overwrite_s", "s", "lower"),
    ("storage.overwrite_rows", "rows", "lower"),
    ("engine.tasks", "count", "lower"),
    ("engine.task_run_s", "s", "lower"),
    ("engine.task_wait_s", "s", "lower"),
    ("engine.retries", "count", "lower"),
    ("streaming.poll_s", "s", "lower"),
    ("streaming.extract_s", "s", "lower"),
    ("streaming.apply_s", "s", "lower"),
    ("streaming.snapshot_s", "s", "lower"),
    ("streaming.checkpoint_s", "s", "lower"),
    ("streaming.checkpoint_bytes_written", "bytes", "lower"),
    ("streaming.publish_s", "s", "lower"),
    ("streaming.tick_growth", "ratio", "lower"),
    ("streaming.released", "count", "higher"),
    ("streaming.applied", "count", "higher"),
    ("streaming.late_dropped", "count", "lower"),
    ("streaming.buffered_max", "count", "lower"),
    ("storage.logstore_append_s", "s", "lower"),
    ("storage.logstore_read_s", "s", "lower"),
    ("serving.rollup_build_s", "s", "lower"),
    ("serving.cold_query_ms", "ms", "lower"),
    ("serving.parse_us", "us", "lower"),
    ("serving.execute_us", "us", "lower"),
    ("serving.serialize_us", "us", "lower"),
    ("serving.respond_us", "us", "lower"),
    ("serving.wire_us", "us", "lower"),
    ("serving.wire_cache_hit_ratio", "ratio", "higher"),
    ("serving.query_cache_hit_ratio", "ratio", "higher"),
    ("serving.rollup_cache_hit_ratio", "ratio", "higher"),
    ("serving.invalidations", "count", "lower"),
    ("serving.admitted", "count", "higher"),
    ("serving.rejected", "count", "lower"),
    ("serving.shed_unavailable", "count", "lower"),
    ("serving.publishes", "count", "higher"),
    ("loadgen.publisher_late_ms_max", "ms", "lower"),
    ("loadgen.cpu_share", "ratio", "lower"),
    ("control.run_s", "s", "lower"),
    ("control.telemetry_s", "s", "lower"),
    ("control.job_s", "s", "lower"),
    ("control.detect_s", "s", "lower"),
    ("control.rca_s", "s", "lower"),
    ("control.platform_s", "s", "lower"),
    ("control.evaluate_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.attributed_ratio", "ratio", "higher"),
    ("failed_ops_ratio", "ratio", "lower"),
)

END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def percentile(values: Iterable[float], fraction: float) -> float:
    """The ``fraction`` quantile by nearest rank (as the legacy benches)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def with_units(values: dict[str, float],
               units: dict[str, str]) -> dict[str, dict[str, Any]]:
    """``{name: {"value", "unit"}}`` for every name in ``units``
    (a layer that does not run on a workload reads 0)."""
    return {
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, unit in units.items()
    }
