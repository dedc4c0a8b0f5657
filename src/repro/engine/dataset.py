"""Entry point of the shard-map engine.

The module is still called ``dataset`` although the lazy ``Dataset``
API it once held is gone: ``from repro.engine.dataset import
EngineContext`` is the import every caller (and the end-to-end
benchmark, which a PR may not edit) already uses, and an alias module
would be a second name for one thing.

Example::

    ctx = EngineContext(parallelism=4)
    bundles = ctx.map_shards(resolve, batches, name="resolve_columns")
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.engine.chaos import ChaosInjector
from repro.engine.executor import JobMetrics, LocalExecutor
from repro.engine.retry import RetryPolicy
from repro.engine.trace import RunTrace


class EngineContext:
    """Entry point, analogous to a SparkContext.

    ``parallelism`` is how many shards callers split their input into
    and the worker-pool width of the bundled executor;
    ``retry_policy``, ``chaos``, and ``trace`` configure that bundled
    :class:`LocalExecutor` (fault-tolerant execution, deterministic
    fault injection, and a :class:`~repro.engine.trace.RunTrace` flight
    recorder) and therefore conflict with a ready-made ``executor``.

    ``backend`` is a compatibility check, not a choice: the process
    backend was removed, ``"thread"`` is the only value existing callers
    pass, and anything else is rejected.
    """

    def __init__(self, parallelism: int = 4,
                 executor: LocalExecutor | None = None, *,
                 backend: str = "thread",
                 retry_policy: RetryPolicy | None = None,
                 chaos: ChaosInjector | None = None,
                 trace: RunTrace | None = None) -> None:
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        if backend != "thread":
            raise ValueError(
                f"backend={backend!r} was removed: the engine runs on one "
                "shared thread pool (drop the argument)"
            )
        if executor is None:
            executor = LocalExecutor(
                max_workers=parallelism, retry_policy=retry_policy,
                chaos=chaos, trace=trace,
            )
        else:
            for keyword, value in (("retry_policy", retry_policy),
                                   ("chaos", chaos), ("trace", trace)):
                if value is not None:
                    raise ValueError(
                        f"{keyword}= would be ignored next to executor=; "
                        "configure the LocalExecutor instead"
                    )
        self.parallelism = parallelism
        self.executor = executor

    def map_shards(self, fn: Callable[[Any], Any], shards: Iterable[Any], *,
                   name: str) -> list[Any]:
        """``[fn(s) for s in shards]`` as retried, traced pool tasks
        (see :meth:`LocalExecutor.map_shards`)."""
        return self.executor.map_shards(fn, shards, name=name)

    @property
    def last_job_metrics(self) -> JobMetrics:
        """Metrics of the most recent ``map_shards`` call."""
        return self.executor.last_job_metrics

    @property
    def trace(self) -> RunTrace | None:
        """The run trace currently attached to the executor, if any."""
        return self.executor.trace
