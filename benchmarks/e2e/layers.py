"""Which public callables are wrapped at which layer boundary.

Only a ``--traced`` run calls :func:`install`; the span names here are
the vocabulary of the per-layer metrics in ``BENCHMARK.json`` (layer =
``repro`` package name).  Methods are replaced on their class,
module-level functions on every ``repro`` module that imported them.
"""

from __future__ import annotations

import json
import types
from typing import Any, Callable

from spans import Recorder


class EngineCounters:
    """Task counts and seconds harvested from the repo's own ``RunTrace``.

    ``EngineContext.last_job_metrics`` keeps only the latest engine
    action, and a checkpointed day is one action per shard, so the
    traced run hands every ``DailyCdiJob.run``/``run_checkpointed`` call
    a ``RunTrace`` (their public ``trace=`` argument) and sums the
    attempt records afterwards.
    """

    def __init__(self) -> None:
        self.tasks = 0
        self.retries = 0
        self.task_run_s = 0.0
        self.task_wait_s = 0.0

    def around(self, run: Callable[..., Any]) -> Callable[..., Any]:
        """``run`` with a ``RunTrace`` attached unless the caller gave one."""
        from repro.engine.trace import RunTrace

        def with_trace(*args: Any, **kwargs: Any) -> Any:
            if kwargs.get("trace") is not None:
                return run(*args, **kwargs)
            trace = kwargs["trace"] = RunTrace("e2e")
            try:
                return run(*args, **kwargs)
            finally:
                for record in trace.attempts:
                    if record.speculative:
                        continue
                    if record.attempt == 1:
                        self.tasks += 1
                    else:
                        self.retries += 1
                    self.task_run_s += record.run_seconds
                    self.task_wait_s += record.queue_seconds

        return with_trace

    def metrics(self) -> dict[str, float]:
        """The four ``engine.*`` per-layer metrics."""
        return {
            "engine.tasks": self.tasks,
            "engine.retries": self.retries,
            "engine.task_run_s": self.task_run_s,
            "engine.task_wait_s": self.task_wait_s,
        }


def _table_read(self: Any, *args: Any, **kwargs: Any) -> str:
    from repro.pipeline.tables import EVENTS_TABLE

    return "storage.scan" if self.name == EVENTS_TABLE else "storage.read_outputs"


def install(recorder: Recorder) -> EngineCounters:
    """Wrap every layer boundary; undo with ``recorder.remove()``."""
    import repro.analytics.rca as rca
    import repro.core.fastpath as fastpath
    import repro.serving.listener as listener
    import repro.serving.server as server
    from repro.abtest.effectiveness import evaluate_rule_effectiveness
    from repro.analytics.detect import CdiCurveDetector
    from repro.cloudbot.platform import OperationPlatform
    from repro.control import ClosedLoopController
    from repro.pipeline.checkpoint import JobCheckpoint
    from repro.pipeline.daily import DailyCdiJob
    from repro.serving.rollups import RollupStore
    from repro.serving.service import QueryService
    from repro.storage.logstore import LogStore
    from repro.storage.table import Table
    from repro.streaming.extract import StreamingExtractor
    from repro.streaming.persist import StreamCheckpoint
    from repro.streaming.state import IncrementalCdiState
    from repro.streaming.tailer import LogTailer
    from repro.telemetry.fleetgen import labeled_day_faults

    engine = EngineCounters()
    method = recorder.wrap_method
    function = recorder.wrap_function

    # pipeline + core + storage: the daily job, batch and control.
    method(DailyCdiJob, "ingest_events", "pipeline.ingest")
    method(DailyCdiJob, "run", "pipeline.run", around=engine.around)
    method(DailyCdiJob, "run_checkpointed", "pipeline.run",
           around=engine.around)
    for name in ("ensure", "record_shard", "merged_columns", "mark_finalized"):
        method(JobCheckpoint, name, "pipeline.checkpoint")
    function(fastpath.fleet_cdi_columns_columnar, "core.kernel")
    method(Table, "columns", _table_read)
    method(Table, "column_batches", _table_read)
    method(Table, "overwrite_partition", "storage.overwrite")
    method(Table, "overwrite_partition_columns", "storage.overwrite")

    # streaming: one tick is poll → extract → apply → snapshot →
    # checkpoint → publish (the publish is storage.overwrite above).
    method(LogStore, "append", "storage.logstore_append")
    method(LogStore, "appended_after", "storage.logstore_read")
    method(LogTailer, "poll", "streaming.poll")
    method(LogTailer, "flush", "streaming.poll")
    method(StreamingExtractor, "events_from_entries", "streaming.extract")
    method(IncrementalCdiState, "apply", "streaming.apply")
    method(IncrementalCdiState, "snapshot_columns", "streaming.snapshot")
    method(StreamCheckpoint, "save", "streaming.checkpoint")

    # serving: respond_line = parse → admit → execute → to_jsonable; the
    # listener's json.dumps is reached through a stand-in ``json``
    # namespace on that one module so nothing else in the process pays.
    function(server.respond_line, "serving.respond")
    function(server.parse_query, "serving.parse")
    function(server.to_jsonable, "serving.serialize")
    method(QueryService, "execute", "serving.execute")
    method(RollupStore, "rollup", "serving.rollup")
    recorder.patch(listener, "json", types.SimpleNamespace(
        dumps=recorder.wrap(json.dumps, "serving.serialize"),
        loads=json.loads, JSONDecodeError=json.JSONDecodeError,
    ))

    # control: the controller's day is telemetry → job → detect → rca →
    # platform → evaluate.
    method(ClosedLoopController, "run", "control.run")
    function(labeled_day_faults, "control.telemetry")
    method(CdiCurveDetector, "detect_consensus", "control.detect")
    function(rca.localize, "control.rca")
    function(rca.vm_damage_leaves, "control.rca")
    method(OperationPlatform, "submit", "control.platform")
    function(evaluate_rule_effectiveness, "control.evaluate")
    return engine
