"""Tests for the deterministic executor-level chaos injector.

Covers rule validation and matching, plan determinism, every fault
kind flowing through the executor, and seed-for-seed equivalence of
reruns.
"""

import pytest

from repro.engine.chaos import (
    FAULT_KINDS,
    ChaosInjector,
    DroppedResult,
    FaultRule,
    InjectedFault,
)
from repro.engine.executor import LocalExecutor, TaskFailedError
from repro.engine.retry import RetryPolicy


def _double(part):
    return [x * 2 for x in part]


def _chained_pipeline(executor):
    """Two engine calls, ``stage_a`` then ``stage_b``; returns the final
    partitions and the two calls' metrics."""
    first = executor.map_shards(
        _double, [[1, 2], [3, 4], [5], [6, 7, 8]], name="stage_a"
    )
    metrics_a = executor.last_job_metrics
    second = executor.map_shards(_double, first, name="stage_b")
    return second, metrics_a, executor.last_job_metrics


class TestFaultRule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(kind="explode")

    def test_delay_kind_requires_positive_delay(self):
        with pytest.raises(ValueError):
            FaultRule(kind="delay")
        FaultRule(kind="delay", delay=0.01)  # valid

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError):
            FaultRule(kind="crash", probability=1.5)
        with pytest.raises(ValueError):
            FaultRule(kind="crash", probability=-0.1)

    def test_attempts_window(self):
        rule = FaultRule(kind="crash", attempts=2)
        assert rule.matches("n", 0, 1)
        assert rule.matches("n", 0, 2)
        assert not rule.matches("n", 0, 3)

    def test_node_glob_matching(self):
        rule = FaultRule(kind="crash", node="resolve_*")
        assert rule.matches("resolve_periods", 0, 1)
        assert not rule.matches("ingest", 0, 1)

    def test_partition_targeting(self):
        rule = FaultRule(kind="crash", partition=2)
        assert rule.matches("n", 2, 1)
        assert not rule.matches("n", 1, 1)


class TestInjectorPlan:
    def test_plan_is_deterministic(self):
        injector = ChaosInjector.storm(seed=3, probability=0.5)
        decisions = [
            injector.plan("node", part, attempt)
            for part in range(8) for attempt in (1, 2)
        ]
        again = [
            injector.plan("node", part, attempt)
            for part in range(8) for attempt in (1, 2)
        ]
        assert decisions == again

    def test_no_matching_rule_returns_none(self):
        injector = ChaosInjector([FaultRule(kind="crash", node="other")])
        assert injector.plan("node", 0, 1) is None

    def test_delay_rules_accumulate(self):
        injector = ChaosInjector([
            FaultRule(kind="delay", delay=0.01),
            FaultRule(kind="delay", delay=0.02),
        ])
        plan = injector.plan("node", 0, 1)
        assert plan.delay == pytest.approx(0.03)
        assert plan.kind is None

    def test_first_non_delay_rule_wins(self):
        injector = ChaosInjector([
            FaultRule(kind="drop"),
            FaultRule(kind="crash"),
        ])
        assert injector.plan("node", 0, 1).kind == "drop"

    def test_probability_zero_never_fires(self):
        injector = ChaosInjector([FaultRule(kind="crash", probability=0.0)])
        assert all(
            injector.plan("node", part, 1) is None for part in range(32)
        )

    def test_probability_fraction_fires_sometimes(self):
        injector = ChaosInjector([FaultRule(kind="crash", probability=0.5)],
                                 seed=1)
        fired = sum(
            injector.plan("node", part, 1) is not None for part in range(64)
        )
        assert 0 < fired < 64

    def test_different_seeds_differ(self):
        def pattern(seed):
            injector = ChaosInjector(
                [FaultRule(kind="crash", probability=0.5)], seed=seed
            )
            return tuple(
                injector.plan("node", part, 1) is not None
                for part in range(64)
            )

        assert pattern(0) != pattern(1)

    def test_seeded_storm_pattern_is_pinned(self):
        """Golden values: a seed means the same storm in every release,
        so recorded chaos seeds stay reproducible."""
        from repro.engine.retry import stable_hash, stable_uniform

        assert stable_hash(("vm-1", 2, None, b"x", True)) == \
            599616426452912324
        assert stable_uniform((0, 1, "resolve_columns", 3, 1)) == \
            0.8798785202670842
        injector = ChaosInjector.storm(seed=0, probability=0.5)
        plans = [injector.plan("resolve_columns", part, 1)
                 for part in range(6)]
        assert [plan and (plan.delay, plan.kind) for plan in plans] == [
            None, (0.0, "drop"), (0.0, "crash"), (0.0, "crash"),
            (0.005, None), None,
        ]

    def test_storm_covers_all_kinds(self):
        injector = ChaosInjector.storm(seed=0)
        assert tuple(rule.kind for rule in injector.rules) == FAULT_KINDS

    def test_injector_pickles(self):
        import pickle

        injector = ChaosInjector.storm(seed=5, probability=0.3)
        clone = pickle.loads(pickle.dumps(injector))
        assert clone == injector
        assert [clone.plan("n", p, 1) for p in range(8)] == \
            [injector.plan("n", p, 1) for p in range(8)]


class TestFaultsThroughExecutor:
    def test_crash_is_retried_to_success(self):
        executor = LocalExecutor(
            max_workers=2,
            chaos=ChaosInjector([FaultRule(kind="crash", node="stage_a")]),
        )
        result, metrics, metrics_b = _chained_pipeline(executor)
        assert result == [[4, 8], [12, 16], [20], [24, 28, 32]]
        assert metrics.retried_tasks == 4
        assert metrics.retry_attempts == 4
        assert metrics.failed_tasks == 0
        assert all(f.kind == "injected" for f in metrics.failures)
        assert metrics_b.failures == []     # the rule names stage_a only

    def test_permanent_crash_exhausts_retries(self):
        executor = LocalExecutor(
            max_workers=2, retry_policy=RetryPolicy(max_retries=1),
            chaos=ChaosInjector(
                [FaultRule(kind="crash", node="stage_b", attempts=99)]
            ),
        )
        with pytest.raises(TaskFailedError) as excinfo:
            _chained_pipeline(executor)
        error = excinfo.value
        assert error.node_name == "stage_b"
        assert error.attempts == 2
        assert error.cause_type == "InjectedFault"
        assert executor.last_job_metrics.failed_tasks >= 1

    def test_drop_loses_result_then_retry_recovers(self):
        executor = LocalExecutor(
            max_workers=2,
            chaos=ChaosInjector([FaultRule(kind="drop", node="stage_b")]),
        )
        result, metrics_a, metrics_b = _chained_pipeline(executor)
        assert result == [[4, 8], [12, 16], [20], [24, 28, 32]]
        assert metrics_a.failures == []
        failures = metrics_b.failures
        assert failures and all(f.kind == "dropped" for f in failures)

    def test_permanent_drop_raises_dropped_result(self):
        executor = LocalExecutor(
            max_workers=1, retry_policy=RetryPolicy.none(),
            chaos=ChaosInjector([FaultRule(kind="drop", attempts=99)]),
        )
        with pytest.raises(TaskFailedError) as excinfo:
            executor.map_shards(_double, [[1]], name="only")
        assert excinfo.value.cause_type == "DroppedResult"
        assert isinstance(excinfo.value.__cause__, DroppedResult)

    def test_duplicate_runs_body_twice(self):
        calls = []

        def recording(part):
            rows = list(part)
            calls.append(rows)
            return rows

        executor = LocalExecutor(
            max_workers=1,
            chaos=ChaosInjector([FaultRule(kind="duplicate")]),
        )
        assert executor.map_shards(recording, [[1, 2]], name="dup") == \
            [[1, 2]]
        assert calls == [[1, 2], [1, 2]]  # speculative + kept execution
        assert executor.last_job_metrics.failures == []

    def test_delay_slows_the_attempt(self):
        executor = LocalExecutor(
            max_workers=1,
            chaos=ChaosInjector([FaultRule(kind="delay", delay=0.05)]),
        )
        assert executor.map_shards(_double, [[1]], name="slow") == [[2]]
        task, = executor.last_job_metrics.tasks
        assert task.seconds >= 0.05

    def test_injected_fault_not_visible_without_chaos(self):
        executor = LocalExecutor(max_workers=2)
        assert executor.chaos is None
        _, metrics_a, metrics_b = _chained_pipeline(executor)
        assert metrics_a.failures == metrics_b.failures == []


class TestStormDeterminism:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_storm_decisions_identical_across_reruns(self, seed):
        """The same storm seed produces identical results and the same
        failure multiset on every run (fresh executor each time)."""
        outcomes = []
        for _ in range(2):
            executor = LocalExecutor(
                max_workers=2,
                chaos=ChaosInjector.storm(seed=seed, probability=0.6,
                                          delay=0.001),
            )
            result, metrics_a, metrics_b = _chained_pipeline(executor)
            failures = sorted(
                (f.node_name, f.partition, f.attempt, f.kind)
                for f in metrics_a.failures + metrics_b.failures
            )
            outcomes.append((result, failures))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == [[4, 8], [12, 16], [20], [24, 28, 32]]
