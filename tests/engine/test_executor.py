"""Tests for the local executor: shard maps, retries, metrics."""

import threading
import time

import pytest

from repro.engine.chaos import ChaosInjector, FaultRule
from repro.engine.dataset import EngineContext
from repro.engine.executor import (
    JobMetrics,
    LocalExecutor,
    TaskFailedError,
    TaskFailure,
    TaskMetrics,
)
from repro.engine.retry import RetryPolicy
from repro.engine.trace import RunTrace


def _kaput(part):
    raise ValueError("kaput")


def _sleepy(part):
    time.sleep(0.5)
    return list(part)


class TestBasicExecution:
    def test_source_materialization(self):
        executor = LocalExecutor()
        assert executor.map_shards(list, [[1, 2], [3]], name="copy") == \
            [[1, 2], [3]]
        assert executor.map_shards(list, [], name="copy") == []
        assert executor.map_shards(list, iter([(1,), (2,)]), name="copy") == \
            [[1], [2]]

    def test_narrow_runs_per_partition(self):
        executor = LocalExecutor()
        seen = []

        def times_ten(part):
            seen.append(part)
            return [x * 10 for x in part]

        assert executor.map_shards(times_ten, [[1, 2], [3]], name="x10") == \
            [[10, 20], [30]]
        assert sorted(seen) == [[1, 2], [3]]    # one task per shard

    def test_results_need_not_be_sized(self):
        """A task returns one object of any type (no ``len`` taken)."""
        executor = LocalExecutor()
        assert executor.map_shards(sum, [[1, 2], [3]], name="sum") == [3, 3]
        assert executor.map_shards(lambda s: None, [0], name="none") == [None]

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            LocalExecutor(max_workers=0)


class TestRetries:
    def test_transient_failure_retried(self):
        failures = {"count": 0}

        def injector(name, partition, attempt):
            if name == "flaky" and attempt == 1:
                failures["count"] += 1
                raise RuntimeError("transient")

        executor = LocalExecutor(failure_injector=injector)
        assert executor.map_shards(list, [[1], [2]], name="flaky") == \
            [[1], [2]]
        assert failures["count"] == 2
        assert executor.last_job_metrics.retried_tasks == 2

    def test_permanent_failure_exhausts_retries(self):
        def injector(name, partition, attempt):
            if name == "doomed":
                raise RuntimeError("permanent")

        executor = LocalExecutor(max_task_retries=1, failure_injector=injector)
        with pytest.raises(TaskFailedError, match="2 attempts"):
            executor.map_shards(list, [[1]], name="doomed")

    def test_zero_retries(self):
        def injector(name, partition, attempt):
            raise RuntimeError("fail")

        executor = LocalExecutor(max_task_retries=0, failure_injector=injector)
        with pytest.raises(TaskFailedError, match="1 attempts"):
            executor.map_shards(list, [[1]], name="boom")


class TestMetrics:
    def test_task_metrics_recorded(self):
        executor = LocalExecutor()
        executor.map_shards(list, [[1, 2], [3]], name="copy")
        metrics = executor.last_job_metrics
        assert sorted((t.node_name, t.partition) for t in metrics.tasks) == \
            [("copy", 0), ("copy", 1)]
        assert all(t.seconds >= 0 and t.attempts == 1 for t in metrics.tasks)

    def test_metrics_reset_between_jobs(self):
        executor = LocalExecutor()
        executor.map_shards(list, [[1]], name="copy")
        first = executor.last_job_metrics.task_count
        executor.map_shards(list, [[1]], name="copy")
        assert executor.last_job_metrics.task_count == first
        assert executor.last_job_metrics.job == 2

    def test_by_node_aggregation(self):
        executor = LocalExecutor()
        executor.map_shards(list, [[("a", 1)], [("b", 2)]], name="sh.map")
        by_node = executor.last_job_metrics.by_node()
        assert set(by_node) == {"sh.map"}
        assert by_node["sh.map"] == executor.last_job_metrics.total_seconds

    def test_seconds_cumulative_across_attempts(self):
        """Regression: a crash-then-succeed task reports the failed
        attempt's runtime too, not just the final attempt's."""
        calls = {"n": 0}

        def crash_then_succeed(part):
            calls["n"] += 1
            time.sleep(0.05)
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return list(part)

        executor = LocalExecutor(max_workers=1)
        assert executor.map_shards(crash_then_succeed, [[1]],
                                   name="flaky") == [[1]]
        (task,) = executor.last_job_metrics.tasks
        assert task.attempts == 2
        # Both ~0.05s attempt bodies must be accounted (the old code
        # reset the timer every attempt and reported only the last).
        assert task.seconds >= 0.09

    def test_backoff_sleep_not_counted_as_busy_time(self):
        calls = {"n": 0}

        def crash_once(part):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return list(part)

        executor = LocalExecutor(
            max_workers=1,
            retry_policy=RetryPolicy(max_retries=1, base_delay=0.1),
        )
        assert executor.map_shards(crash_once, [[1]], name="flaky") == [[1]]
        (task,) = executor.last_job_metrics.tasks
        assert task.seconds < 0.1   # the 0.1s backoff is idle, not busy

    def test_duplicate_speculation_not_double_counted(self):
        """Regression: a chaos-``duplicate`` speculative run is its own
        attempt record, not part of the kept attempt's busy time."""
        trace = RunTrace()
        chaos = ChaosInjector([FaultRule(kind="duplicate")])
        executor = LocalExecutor(max_workers=1, chaos=chaos, trace=trace)

        def nap(part):
            time.sleep(0.08)
            return list(part)

        assert executor.map_shards(nap, [[1]], name="dup") == [[1]]
        (task,) = executor.last_job_metrics.tasks
        # The body ran twice (~0.16s total) but only the kept run counts.
        assert 0.08 <= task.seconds < 0.14
        (spec,) = [r for r in trace.attempts if r.speculative]
        assert spec.run_seconds >= 0.08
        assert spec.chaos_kind == "duplicate"
        (kept,) = [r for r in trace.attempts if not r.speculative]
        # The speculative run happens inside the kept attempt's wall
        # interval — visible there, excluded from its run_seconds.
        assert kept.wall_seconds >= 0.16
        assert kept.run_seconds < 0.14
        assert trace.validate(executor.last_job_metrics) == []


class TestFailureAccounting:
    """Satellite: JobMetrics failure counters (retried/failed/timed out)."""

    def test_counters_from_synthetic_failures(self):
        metrics = JobMetrics(
            tasks=[
                TaskMetrics("a", 0, seconds=0.0, attempts=1),
                TaskMetrics("a", 1, seconds=0.0, attempts=3),
            ],
            failures=[
                TaskFailure("a", 1, attempt=1, kind="error", error="E"),
                TaskFailure("a", 1, attempt=2, kind="timeout", error="T"),
                TaskFailure("b", 0, attempt=1, kind="timeout", error="T"),
                TaskFailure("b", 0, attempt=2, kind="timeout", error="T",
                            fatal=True),
            ],
        )
        assert metrics.retried_tasks == 1       # only ("a", 1) succeeded late
        assert metrics.retry_attempts == 3      # non-fatal failures
        assert metrics.failed_tasks == 1        # the fatal one
        assert metrics.timed_out_tasks == 2     # distinct (node, partition)

    def test_retried_tasks_counts_tasks_not_attempts(self):
        executor = LocalExecutor(
            max_workers=2, retry_policy=RetryPolicy(max_retries=3),
            chaos=ChaosInjector([FaultRule(kind="crash", attempts=2)]),
        )
        assert executor.map_shards(list, [[1], [2]], name="flaky") == \
            [[1], [2]]
        metrics = executor.last_job_metrics
        assert metrics.retried_tasks == 2   # 2 tasks recovered
        assert metrics.retry_attempts == 4  # 2 injected crashes each
        assert metrics.failed_tasks == 0
        assert all(t.attempts == 3 for t in metrics.tasks)

    def test_failed_tasks_counted_on_exhaustion(self):
        executor = LocalExecutor(max_task_retries=1)
        with pytest.raises(TaskFailedError):
            executor.map_shards(_kaput, [[1]], name="doomed")
        metrics = executor.last_job_metrics
        assert metrics.failed_tasks == 1
        assert metrics.retry_attempts == 1
        assert [f.kind for f in metrics.failures] == ["error", "error"]
        assert [f.fatal for f in metrics.failures] == [False, True]

    def test_timeout_attempts_counted(self):
        executor = LocalExecutor(
            max_workers=1,
            retry_policy=RetryPolicy(max_retries=1, timeout=0.05),
        )
        with pytest.raises(TaskFailedError) as excinfo:
            executor.map_shards(_sleepy, [[1]], name="straggler")
        assert excinfo.value.cause_type == "TaskTimeoutError"
        metrics = executor.last_job_metrics
        assert metrics.timed_out_tasks == 1
        assert metrics.failed_tasks == 1
        assert all(f.kind == "timeout" for f in metrics.failures)

    def test_timeout_recovers_when_retry_is_fast(self):
        slow_once = {"done": False}

        def sometimes_slow(part):
            if not slow_once["done"]:
                slow_once["done"] = True
                time.sleep(0.5)
            return list(part)

        executor = LocalExecutor(
            max_workers=1, retry_policy=RetryPolicy(max_retries=1,
                                                    timeout=0.1),
        )
        assert executor.map_shards(sometimes_slow, [[7]],
                                   name="warmup") == [[7]]
        metrics = executor.last_job_metrics
        assert metrics.timed_out_tasks == 1
        assert metrics.retried_tasks == 1
        assert metrics.failed_tasks == 0


class TestErrorContext:
    """Satellite: TaskFailedError preserves node, cause, and traceback."""

    def test_failure_chains_original_exception(self):
        executor = LocalExecutor(max_task_retries=1)
        with pytest.raises(TaskFailedError) as excinfo:
            executor.map_shards(_kaput, [[1]], name="exploding_node")
        error = excinfo.value
        assert error.node_name == "exploding_node"
        assert error.partition == 0
        assert error.attempts == 2
        assert error.cause_type == "ValueError"
        assert error.cause_message == "kaput"
        assert 'raise ValueError("kaput")' in error.cause_traceback
        assert "ValueError: kaput" in error.cause_traceback
        assert "-- original traceback --" in str(error)
        assert isinstance(error.__cause__, ValueError)
        assert str(error.__cause__) == "kaput"

    def test_message_names_node_and_attempts(self):
        executor = LocalExecutor(max_task_retries=0)
        with pytest.raises(TaskFailedError,
                           match="task 'boom' partition 0 failed after "
                                 "1 attempts: ValueError: kaput"):
            executor.map_shards(_kaput, [[1]], name="boom")


class TestConcurrency:
    def test_tasks_actually_run_concurrently(self):
        barrier = threading.Barrier(parties=4, timeout=10.0)

        def wait_at_barrier(part):
            barrier.wait()
            return list(part)

        context = EngineContext(parallelism=4)
        shards = [[0, 1], [2, 3], [4, 5], [6, 7]]
        assert context.map_shards(wait_at_barrier, shards,
                                  name="barrier") == shards
