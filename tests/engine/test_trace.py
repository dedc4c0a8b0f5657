"""Tests for the run-tracing layer: spans, attempt records, JSONL."""

import time

import pytest

from repro.engine.chaos import ChaosInjector, FaultRule
from repro.engine.dataset import EngineContext
from repro.engine.executor import LocalExecutor, TaskFailedError
from repro.engine.trace import (
    RunTrace,
    TaskAttemptRecord,
    executor_tracing,
    trace_span,
)


def _copy(part):
    return list(part)


def _nap(part):
    time.sleep(0.02)
    return list(part)


def _traced_run(**executor_kwargs):
    trace = RunTrace("t")
    executor = LocalExecutor(max_workers=2, trace=trace, **executor_kwargs)
    result = executor.map_shards(_copy, [[1, 2], [3]], name="copy")
    return trace, executor, result


class TestSpans:
    def test_spans_nest_under_innermost_open_span(self):
        trace = RunTrace()
        with trace.span("outer", "pipeline") as outer:
            with trace.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert 0.0 <= inner.duration <= outer.duration

    def test_end_span_closes_abandoned_children(self):
        trace = RunTrace()
        outer = trace.begin_span("outer")
        trace.begin_span("leaked")
        trace.end_span(outer)
        assert all(s.ended is not None for s in trace.spans)

    def test_attributes_are_recorded(self):
        trace = RunTrace()
        with trace.span("stage", "node", tasks=3) as span:
            span.attributes["vms"] = 7
        assert span.attributes == {"tasks": 3, "vms": 7}

    def test_trace_span_helper_is_inert_without_trace(self):
        with trace_span(None, "anything") as span:
            assert span is None

    def test_executor_tracing_scopes_the_attachment(self):
        executor = LocalExecutor()
        trace = RunTrace()
        assert executor.trace is None
        with executor_tracing(executor, trace):
            assert executor.trace is trace
        assert executor.trace is None


class TestCollection:
    def test_every_task_gets_attempt_records(self):
        trace, executor, result = _traced_run()
        assert result == [[1, 2], [3]]
        groups = trace.task_groups()
        metrics = executor.last_job_metrics
        assert len(groups) == metrics.task_count
        assert trace.validate(metrics) == []

    def test_node_span_carries_tasks_and_job(self):
        trace, executor, _ = _traced_run()
        (span,) = [s for s in trace.spans if s.kind == "node"]
        assert span.name == "copy"
        assert span.attributes == {
            "tasks": 2, "job": executor.last_job_metrics.job,
        }

    def test_job_ids_keep_re_executions_apart(self):
        trace = RunTrace()
        executor = LocalExecutor(max_workers=2, trace=trace)
        executor.map_shards(_copy, [[1], [2]], name="copy")
        executor.map_shards(_copy, [[1], [2]], name="copy")
        jobs = {key[0] for key in trace.task_groups()}
        assert len(jobs) == 2
        assert trace.validate(executor.last_job_metrics) == []

    def test_queue_wait_is_reported_for_first_attempts(self):
        trace, _, _ = _traced_run()
        firsts = [r for r in trace.attempts if r.attempt == 1]
        assert firsts and all(r.queue_seconds >= 0.0 for r in firsts)

    def test_retries_and_backoff_are_visible(self):
        chaos = ChaosInjector([FaultRule(kind="crash", attempts=1)])
        trace, executor, _ = _traced_run(chaos=chaos)
        assert trace.validate(executor.last_job_metrics) == []
        failed = [r for r in trace.attempts if r.status == "injected"]
        assert len(failed) == 2                # one per partition
        assert all(r.chaos_kind == "crash" for r in failed)
        assert trace.retry_hot_spots()[0][2] == 1

    def test_failed_job_still_traces_every_attempt(self):
        chaos = ChaosInjector([FaultRule(kind="crash", attempts=2)])
        trace = RunTrace()
        executor = LocalExecutor(max_workers=1, max_task_retries=1,
                                 chaos=chaos, trace=trace)
        with pytest.raises(TaskFailedError):
            executor.map_shards(_copy, [[1]], name="doomed")
        records = trace.task_groups()[(1, "doomed", 0)]
        assert [r.attempt for r in records] == [1, 2]
        assert all(r.status == "injected" for r in records)
        assert trace.validate() == []

    def test_chaos_storm_traces_complete_across_stages(self):
        """Three engine calls under one storm, one trace: every call is
        its own job with its own node span, and each call's metrics
        cross-check against its share of the records."""
        chaos = ChaosInjector.storm(seed=5, probability=0.4, delay=0.002)
        trace = RunTrace("storm")
        context = EngineContext(parallelism=2, chaos=chaos, trace=trace)
        shards = [list(range(i, i + 5)) for i in range(0, 20, 5)]
        for stage in ("key_by", "group.map", "group"):
            shards = context.map_shards(_copy, shards, name=stage)
            assert trace.validate(context.last_job_metrics) == []
        assert sum(shards, []) == list(range(20))
        assert [s.name for s in trace.spans if s.kind == "node"] == \
            ["key_by", "group.map", "group"]
        assert {key[0] for key in trace.task_groups()} == {1, 2, 3}
        assert {r.status for r in trace.attempts} > {"ok"}


class TestValidate:
    def test_open_span_is_a_problem(self):
        trace = RunTrace()
        trace.begin_span("leaked")
        assert any("never closed" in p for p in trace.validate())

    def test_negative_duration_is_a_problem(self):
        trace = RunTrace()
        with trace.span("s") as span:
            pass
        span.ended = span.started - 1.0
        assert any("negative duration" in p for p in trace.validate())

    def test_escaping_child_is_a_problem(self):
        trace = RunTrace()
        with trace.span("outer") as outer:
            with trace.span("inner") as inner:
                pass
        inner.ended = outer.ended + 1.0
        assert any("escapes parent" in p for p in trace.validate())

    def test_non_consecutive_attempts_are_a_problem(self):
        trace, executor, _ = _traced_run()
        record = trace.attempts[0]
        trace.attempts[0] = TaskAttemptRecord(
            node_name=record.node_name, partition=record.partition,
            attempt=7, job=record.job, started=record.started,
            ended=record.ended, run_seconds=record.run_seconds,
        )
        assert any("not consecutive" in p for p in trace.validate())

    def test_unaccounted_gap_is_a_problem(self):
        trace = RunTrace()
        with trace.span("n", "node", job=0):
            pass
        base = trace.spans[0].started
        # A 10s hole between attempts that no backoff explains.
        trace.attempts = [
            TaskAttemptRecord(node_name="n", partition=0, attempt=1,
                              started=base, ended=base + 0.01,
                              run_seconds=0.01, status="error"),
            TaskAttemptRecord(node_name="n", partition=0, attempt=2,
                              started=base + 10.0, ended=base + 10.01,
                              run_seconds=0.01, status="ok"),
        ]
        assert any("account for" in p for p in trace.validate())

    def test_metrics_cross_check_catches_missing_task(self):
        trace, executor, _ = _traced_run()
        trace.attempts = [r for r in trace.attempts if r.partition != 1]
        problems = trace.validate(executor.last_job_metrics)
        assert any("has no records" in p for p in problems)

    def test_metrics_cross_check_catches_seconds_mismatch(self):
        trace, executor, _ = _traced_run()
        executor.last_job_metrics.tasks[0] = (
            executor.last_job_metrics.tasks[0].__class__(
                node_name="copy", partition=0, seconds=99.0, attempts=1,
            )
        )
        problems = trace.validate(executor.last_job_metrics)
        assert any("busy seconds" in p for p in problems)

    def test_assert_complete_raises_with_details(self):
        trace = RunTrace()
        trace.begin_span("leaked")
        with pytest.raises(AssertionError, match="never closed"):
            trace.assert_complete()


class TestSummaryViews:
    def test_stage_seconds_aggregates_node_and_stage_spans(self):
        trace, _, _ = _traced_run()
        with trace.span("write", "stage"):
            pass
        totals = trace.stage_seconds()
        assert set(totals) == {"copy", "write"}
        assert all(v >= 0.0 for v in totals.values())

    def test_critical_path_follows_slowest_chain(self):
        trace = RunTrace()
        with trace.span("root", "pipeline"):
            with trace.span("fast"):
                pass
            with trace.span("slow"):
                time.sleep(0.02)
        path = [s.name for s in trace.critical_path()]
        assert path == ["root", "slow"]

    def test_summary_mentions_the_headline_numbers(self):
        chaos = ChaosInjector([FaultRule(kind="crash", attempts=1)])
        trace, executor, _ = _traced_run(chaos=chaos)
        text = trace.summary()
        assert "critical path" in text
        assert "slowest stages" in text
        assert "retry hot spots" in text
        assert "copy" in text


class TestJsonlRoundTrip:
    def test_round_trip_preserves_spans_and_attempts(self, tmp_path):
        chaos = ChaosInjector.storm(seed=2, probability=0.5, delay=0.002)
        trace, executor, _ = _traced_run(chaos=chaos)
        path = trace.write_jsonl(tmp_path / "run.jsonl")
        loaded = RunTrace.load(path)
        assert loaded.name == trace.name
        assert len(loaded.spans) == len(trace.spans)
        assert len(loaded.attempts) == len(trace.attempts)
        assert loaded.validate() == []
        # Rebased timestamps: same durations, origin shifted to zero.
        for before, after in zip(trace.spans, loaded.spans):
            assert after.duration == pytest.approx(before.duration, abs=1e-6)
            assert after.attributes == before.attributes
        for before, after in zip(trace.attempts, loaded.attempts):
            assert after.status == before.status
            assert after.run_seconds == pytest.approx(before.run_seconds)
            assert after.chaos_kind == before.chaos_kind

    def test_load_rejects_unknown_line_types(self, tmp_path):
        target = tmp_path / "bad.jsonl"
        target.write_text('{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="mystery"):
            RunTrace.load(target)

    def test_summary_survives_the_round_trip(self, tmp_path):
        trace, _, _ = _traced_run()
        path = trace.write_jsonl(tmp_path / "run.jsonl")
        assert "critical path" in RunTrace.load(path).summary()
