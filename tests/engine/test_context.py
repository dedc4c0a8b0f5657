"""Tests for ``EngineContext``: validation, delegation, and the exact
surface ``benchmarks/e2e`` builds on (which a PR may not edit, so the
engine may not drift from it unnoticed)."""

import pytest

from repro.core.events import default_catalog
from repro.engine.chaos import ChaosInjector
from repro.engine.dataset import EngineContext
from repro.engine.executor import LocalExecutor
from repro.engine.retry import RetryPolicy
from repro.engine.trace import RunTrace
from repro.pipeline.daily import DailyCdiJob
from repro.scenarios.common import default_weights
from repro.storage.configdb import ConfigDB
from repro.storage.table import TableStore

from tests.strategies import make_fleet_events, make_services


class TestEngineContext:
    def test_invalid_parallelism(self):
        with pytest.raises(ValueError, match="parallelism"):
            EngineContext(parallelism=0)

    def test_engine_arguments_configure_the_bundled_executor(self):
        policy, chaos, trace = RetryPolicy.none(), ChaosInjector([]), RunTrace()
        ctx = EngineContext(parallelism=3, retry_policy=policy, chaos=chaos,
                            trace=trace)
        assert ctx.parallelism == 3
        assert ctx.executor.retry_policy is policy
        assert ctx.executor.chaos is chaos
        assert ctx.trace is trace

    def test_map_shards_and_job_metrics_exposed_via_context(self):
        ctx = EngineContext(parallelism=3)
        assert ctx.map_shards(sum, [[1, 2], [3], []], name="sum") == [3, 3, 0]
        assert ctx.last_job_metrics is ctx.executor.last_job_metrics
        assert ctx.last_job_metrics.task_count == 3

    @pytest.mark.parametrize("keyword, value", [
        ("retry_policy", RetryPolicy.none()),
        ("chaos", ChaosInjector.storm(seed=0)),
        ("trace", RunTrace()),
    ])
    def test_executor_conflicts_with_engine_arguments(self, keyword, value):
        """Regression: a ready executor used to win silently, so a chaos
        test written ``EngineContext(executor=..., chaos=...)`` passed
        without a single injected fault."""
        with pytest.raises(ValueError, match=f"{keyword}="):
            EngineContext(executor=LocalExecutor(), **{keyword: value})
        ctx = EngineContext(parallelism=2, executor=LocalExecutor())
        assert ctx.executor.chaos is None


class TestBenchmarkSurface:
    def test_constructor_shapes_the_harness_uses(self):
        assert EngineContext(parallelism=2, backend="thread").parallelism == 2
        assert EngineContext(parallelism=1).parallelism == 1
        with pytest.raises(ValueError, match="removed"):
            EngineContext(parallelism=2, backend="process")

    def test_traced_daily_run_yields_first_attempt_records(self):
        context = EngineContext(parallelism=2, backend="thread")
        job = DailyCdiJob(context, TableStore(), ConfigDB(), default_catalog())
        job.store_weights(default_weights())
        job.ingest_events(make_fleet_events(seed=11), "day")
        trace = RunTrace("e2e")
        result = job.run("day", make_services(), trace=trace)
        assert result.event_count > 0
        assert context.trace is None            # executor_tracing scoped it
        assert len(trace.attempts) == context.parallelism
        for record in trace.attempts:
            assert not record.speculative
            assert record.attempt == 1
            assert record.run_seconds >= 0.0
            assert record.queue_seconds >= 0.0
        assert trace.validate(context.last_job_metrics) == []
