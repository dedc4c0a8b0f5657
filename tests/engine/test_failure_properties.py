"""Property tests: task failures never corrupt engine results.

The executor retries failed tasks; under any injected transient
failure pattern — closure-injected, a seeded chaos storm, or both —
``map_shards`` must return exactly the serial ``[fn(s) for s in
shards]``, in shard order: the determinism contract that makes retries
safe.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.chaos import ChaosInjector
from repro.engine.dataset import EngineContext
from repro.engine.executor import LocalExecutor, TaskFailedError
from repro.engine.retry import RetryPolicy

#: The CI chaos matrix's storm seeds (``REPRO_CHAOS_SEED`` = 0, 1, 2).
SEEDS = (0, 1, 2)

# Up to 8 shards on 2 workers (more shards than workers), empty shards
# and the empty shard list included.
shards_st = st.lists(
    st.lists(st.integers(min_value=-100, max_value=100), max_size=8),
    max_size=8,
)
failure_pattern_st = st.sets(
    st.tuples(st.integers(min_value=0, max_value=7),
              st.integers(min_value=1, max_value=2)),
    max_size=6,
)


def _stage(shard: list[int]) -> tuple[int, list[int]]:
    return sum(shard), [x * 2 for x in shard]


class TestFailureDeterminism:
    @given(shards_st, failure_pattern_st, st.sampled_from(SEEDS))
    @example([], set(), 0)
    @example([[i] for i in range(8)], {(7, 1), (7, 2), (0, 2)}, 1)
    @settings(max_examples=40, deadline=None)
    def test_transient_failures_do_not_change_results(self, shards, pattern,
                                                      seed):
        """Inject failures on arbitrary (partition, attempt<=2) pairs on
        top of a seeded storm (first attempts only); with retries
        available, output matches the serial map, shard for shard."""

        def injector(name, partition, attempt):
            if (partition, attempt) in pattern:
                raise RuntimeError("injected")

        flaky_ctx = EngineContext(
            parallelism=2,
            executor=LocalExecutor(
                max_workers=2, max_task_retries=3, failure_injector=injector,
                chaos=ChaosInjector.storm(seed=seed, probability=0.3,
                                          delay=0.0005),
            ),
        )
        result = flaky_ctx.map_shards(_stage, shards, name="stage")
        assert result == [_stage(shard) for shard in shards]
        metrics = flaky_ctx.last_job_metrics
        assert sorted(t.partition for t in metrics.tasks) == \
            list(range(len(shards)))
        assert metrics.failed_tasks == 0

    @given(shards_st)
    @settings(max_examples=40, deadline=None)
    def test_first_attempt_always_fails_still_correct(self, shards):
        def injector(name, partition, attempt):
            if attempt == 1:
                raise RuntimeError("cold start")

        ctx = EngineContext(
            parallelism=2,
            executor=LocalExecutor(max_workers=2, max_task_retries=2,
                                   failure_injector=injector),
        )
        assert ctx.map_shards(_stage, shards, name="stage") == \
            [_stage(shard) for shard in shards]
        # Every task needed a retry.
        assert ctx.last_job_metrics.task_count == len(shards)
        assert ctx.last_job_metrics.retried_tasks == len(shards)

    @pytest.mark.parametrize("doomed", [0, 3, 5])
    def test_exhausted_retries_name_the_shard(self, doomed):
        """A shard that fails every attempt surfaces as a structured
        ``TaskFailedError`` naming the call, the shard index, and the
        whole attempt budget — the other shards' retries succeed."""

        def injector(name, partition, attempt):
            if partition == doomed or attempt == 1:
                raise RuntimeError(f"shard {partition} attempt {attempt}")

        policy = RetryPolicy(max_retries=2)
        executor = LocalExecutor(max_workers=2, retry_policy=policy,
                                 failure_injector=injector)
        with pytest.raises(TaskFailedError) as excinfo:
            executor.map_shards(_stage, [[i] for i in range(6)], name="stage")
        error = excinfo.value
        assert (error.node_name, error.partition, error.attempts) == \
            ("stage", doomed, policy.max_attempts)
        assert error.cause_type == "RuntimeError"
        assert error.cause_message == f"shard {doomed} attempt 3"
