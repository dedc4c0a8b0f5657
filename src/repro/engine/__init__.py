"""Shard-map engine with Spark's task semantics (Apache Spark stand-in).

The paper computes CDI daily with a Spark application over ~10 GB of
events (Section V).  What the daily job needs of that substrate is one
shape — a map over column batches — so this package provides exactly
that, with the task-level behaviour a production cluster adds:

* :class:`EngineContext` — ``map_shards(fn, shards, name=...)``: one
  task per shard on a shared thread pool, results in shard order;
* :class:`LocalExecutor` — the attempt loop behind it: task retries on
  a fresh attempt with backoff (:class:`RetryPolicy`), straggler
  timeouts, seeded fault injection (:class:`ChaosInjector`), and
  per-task metrics;
* :class:`RunTrace` — node spans and per-attempt records.

There is no lineage DAG and no shuffle: the job has no wide operation.
"""

from repro.engine.chaos import (
    ChaosInjector,
    DroppedResult,
    FaultRule,
    InjectedFault,
)
from repro.engine.dataset import EngineContext
from repro.engine.executor import (
    JobMetrics,
    LocalExecutor,
    TaskFailedError,
    TaskFailure,
    TaskMetrics,
    TaskTimeoutError,
)
from repro.engine.retry import RetryPolicy, spark_like_policy
from repro.engine.trace import (
    RunTrace,
    Span,
    TaskAttemptRecord,
    executor_tracing,
    trace_span,
)

__all__ = [
    "ChaosInjector",
    "DroppedResult",
    "EngineContext",
    "FaultRule",
    "InjectedFault",
    "JobMetrics",
    "LocalExecutor",
    "RetryPolicy",
    "RunTrace",
    "Span",
    "TaskAttemptRecord",
    "TaskFailedError",
    "TaskFailure",
    "TaskMetrics",
    "TaskTimeoutError",
    "executor_tracing",
    "spark_like_policy",
    "trace_span",
]
