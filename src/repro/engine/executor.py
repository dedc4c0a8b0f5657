"""Task execution for the shard-map engine.

:meth:`LocalExecutor.map_shards` runs ``fn(shard)`` once per shard, one
task each, on a process-wide shared thread pool and returns the
results in shard order.  What it keeps of Spark is the *task*
semantics the paper's production job relies on (Section V):

* **fault-tolerant task attempts**: a pluggable
  :class:`~repro.engine.retry.RetryPolicy` (bounded retries with
  deterministic exponential backoff and optional per-attempt
  timeouts) plus a seedable executor-level
  :class:`~repro.engine.chaos.ChaosInjector` that can crash, delay,
  duplicate, or drop task attempts, keyed by
  ``(name, partition, attempt)``,
* per-task metrics (cumulative busy time, attempts, failed attempts)
  mirroring the kind of accounting the paper reports for the
  production Spark job ("core CDI computation time is around 500
  seconds"),
* optional **run tracing**: attach a
  :class:`~repro.engine.trace.RunTrace` and every ``map_shards`` call
  becomes a node span while every task attempt — retries, backoffs,
  timeouts, chaos injections, speculative duplicates — becomes a
  :class:`~repro.engine.trace.TaskAttemptRecord`.

There is no plan DAG and no shuffle: the daily job has no wide
operation (grouping events by VM is an index into the sorted VM list),
so a map over column batches is the whole of what it asks of an
engine.  Task functions run in the caller's interpreter and may be
arbitrary closures.
"""

from __future__ import annotations

import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.engine.chaos import ChaosInjector, DroppedResult, InjectedFault
from repro.engine.retry import RetryPolicy
from repro.engine.trace import RunTrace, TaskAttemptRecord

#: Hook signature: ``(node_name, partition_index, attempt)``; raise to
#: make that task attempt fail.
FailureInjector = Callable[[str, int, int], None]


class TaskTimeoutError(RuntimeError):
    """One task attempt exceeded the policy's per-attempt timeout."""


class TaskFailedError(RuntimeError):
    """A task exhausted its retries.

    Carries structured context: the ``map_shards`` node name and the
    partition (shard index), the attempt count, and the original
    cause's type, message, and formatted traceback; the live exception
    is chained as ``__cause__``.
    """

    def __init__(self, message: str, *, node_name: str | None = None,
                 partition: int | None = None, attempts: int | None = None,
                 cause_type: str | None = None,
                 cause_message: str | None = None,
                 cause_traceback: str | None = None) -> None:
        super().__init__(message)
        self.node_name = node_name
        self.partition = partition
        self.attempts = attempts
        self.cause_type = cause_type
        self.cause_message = cause_message
        self.cause_traceback = cause_traceback


# The thread pool is shared process-wide, like long-lived Spark
# executors: spawning threads per job costs more than an entire small
# job.  The pool only ever grows (to the largest max_workers any
# executor asked for); a replaced pool is not shut down — its idle
# threads drain naturally at interpreter exit.
_thread_pool_lock = threading.Lock()
_thread_pool: ThreadPoolExecutor | None = None
_thread_pool_workers = 0


def _shared_thread_pool(max_workers: int) -> ThreadPoolExecutor:
    global _thread_pool, _thread_pool_workers
    with _thread_pool_lock:
        if _thread_pool is None or _thread_pool_workers < max_workers:
            _thread_pool = ThreadPoolExecutor(
                max_workers=max_workers, thread_name_prefix="repro-engine"
            )
            _thread_pool_workers = max_workers
        return _thread_pool


@dataclass(frozen=True, slots=True)
class TaskMetrics:
    """Accounting for one successful task.

    ``seconds`` is the task's *cumulative busy time*: the summed body
    runtime plus injected chaos delay across **all** attempts, failed
    ones included.  (It excludes backoff sleeps — the worker is idle —
    and chaos-``duplicate`` speculative executions, which are timed as
    their own :class:`~repro.engine.trace.TaskAttemptRecord`s.)  A
    retried task therefore reports every second it actually burned,
    not just its final attempt.
    """

    node_name: str
    partition: int
    seconds: float
    attempts: int


@dataclass(frozen=True, slots=True)
class TaskFailure:
    """Accounting for one *failed* task attempt.

    ``kind`` classifies the failure: ``"error"`` (the task body
    raised), ``"timeout"`` (per-attempt timeout), ``"injected"``
    (chaos crash), or ``"dropped"`` (chaos result loss).  ``fatal``
    marks the attempt that exhausted the retry budget.
    """

    node_name: str
    partition: int
    attempt: int
    kind: str
    error: str
    fatal: bool = False


@dataclass
class JobMetrics:
    """Aggregated accounting for one ``map_shards`` call.

    ``job`` is the executor-local sequence number of the call that
    produced these metrics; attempt records in a
    :class:`~repro.engine.trace.RunTrace` carry the same id, which is
    how a trace spanning many engine calls (e.g. one per checkpoint
    shard) keeps re-executions of identically named nodes apart.
    """

    tasks: list[TaskMetrics] = field(default_factory=list)
    failures: list[TaskFailure] = field(default_factory=list)
    job: int = 0

    @property
    def task_count(self) -> int:
        """Total number of successful tasks."""
        return len(self.tasks)

    @property
    def total_seconds(self) -> float:
        """Sum of cumulative task busy times (CPU-seconds analogue)."""
        return sum(t.seconds for t in self.tasks)

    @property
    def retried_tasks(self) -> int:
        """Successful tasks that needed more than one attempt."""
        return sum(1 for t in self.tasks if t.attempts > 1)

    @property
    def retry_attempts(self) -> int:
        """Total failed attempts that were given another try."""
        return sum(1 for f in self.failures if not f.fatal)

    @property
    def failed_tasks(self) -> int:
        """Tasks that exhausted their retry budget (job-fatal)."""
        return sum(1 for f in self.failures if f.fatal)

    @property
    def timed_out_tasks(self) -> int:
        """Distinct tasks with at least one timed-out attempt."""
        return len({
            (f.node_name, f.partition)
            for f in self.failures if f.kind == "timeout"
        })

    def by_node(self) -> dict[str, float]:
        """Busy seconds aggregated per node name."""
        totals: dict[str, float] = {}
        for task in self.tasks:
            totals[task.node_name] = totals.get(task.node_name, 0.0) + task.seconds
        return totals


# -- the per-task attempt loop -----------------------------------------------


def _call_with_timeout(fn: Callable[[Any], Any], shard: Any,
                       timeout: float | None) -> Any:
    """Run ``fn(shard)``, raising :class:`TaskTimeoutError` on overrun.

    With a timeout, the body runs on a dedicated daemon thread that is
    abandoned on overrun (Python cannot preempt arbitrary code); the
    executor then treats the attempt as failed and retries — the same
    semantics as a Spark driver giving up on a straggler task.
    """
    if timeout is None:
        return fn(shard)
    box: dict[str, Any] = {}

    def runner() -> None:
        try:
            box["result"] = fn(shard)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    worker = threading.Thread(
        target=runner, daemon=True, name="repro-task-attempt"
    )
    worker.start()
    worker.join(timeout)
    if worker.is_alive():
        raise TaskTimeoutError(
            f"attempt exceeded the {timeout}s per-task timeout"
        )
    if "error" in box:
        raise box["error"]
    return box["result"]


def _failure_kind(exc: BaseException) -> str:
    if isinstance(exc, TaskTimeoutError):
        return "timeout"
    if isinstance(exc, InjectedFault):
        return "injected"
    if isinstance(exc, DroppedResult):
        return "dropped"
    return "error"


def _run_speculative(
    job: int, name: str, partition: int, attempt: int,
    fn: Callable[[Any], Any], shard: Any, policy: RetryPolicy,
    records: list[TaskAttemptRecord],
) -> None:
    """Run a chaos-``duplicate`` speculative execution.

    The run is timed as its *own* attempt record (sharing the kept
    attempt's number, flagged ``speculative``) so its runtime never
    double-counts into the kept attempt's ``run_seconds`` — and
    therefore never inflates :attr:`TaskMetrics.seconds`.  An exception
    propagates unchanged: a failing task body fails its attempt exactly
    as it did before speculation was instrumented.
    """
    started = time.monotonic()
    try:
        _call_with_timeout(fn, shard, policy.timeout)
    except Exception as exc:
        ended = time.monotonic()
        records.append(TaskAttemptRecord(
            node_name=name, partition=partition, attempt=attempt, job=job,
            speculative=True, started=started, ended=ended,
            run_seconds=ended - started, status=_failure_kind(exc),
            error=f"{type(exc).__name__}: {exc}", chaos_kind="duplicate",
        ))
        raise
    ended = time.monotonic()
    records.append(TaskAttemptRecord(
        node_name=name, partition=partition, attempt=attempt, job=job,
        speculative=True, started=started, ended=ended,
        run_seconds=ended - started, status="ok", chaos_kind="duplicate",
    ))


def _run_attempts(
    job: int, name: str, partition: int, fn: Callable[[Any], Any],
    shard: Any, policy: RetryPolicy, chaos: ChaosInjector | None,
    failure_injector: FailureInjector | None, submitted: float,
) -> tuple[TaskMetrics | None, Any, list[TaskFailure],
           list[TaskAttemptRecord], BaseException | None]:
    """Run one task to success or retry exhaustion.

    The single attempt loop: chaos plan → injected delay → (injected
    crash | task body under timeout) → injected result loss, with
    backoff sleeps between attempts.  Returns ``(metrics, result,
    failed_attempts, attempt_records, final_error)`` where exactly one
    of ``metrics``/``final_error`` is set.

    ``submitted`` is the driver-side ``time.monotonic()`` at
    submission; the gap to attempt 1's start is the task's queue wait.
    The returned metrics' ``seconds`` is cumulative across attempts
    (body runtime + injected delay; backoff and speculative duplicate
    runs excluded), so retried tasks do not under-report.
    """
    failures: list[TaskFailure] = []
    records: list[TaskAttemptRecord] = []
    last_exc: BaseException | None = None
    busy_seconds = 0.0
    for attempt in range(1, policy.max_attempts + 1):
        started = time.monotonic()
        queue_seconds = max(0.0, started - submitted) if attempt == 1 else 0.0
        plan = None
        chaos_delay = 0.0
        run_seconds = 0.0
        try:
            plan = (chaos.plan(name, partition, attempt)
                    if chaos is not None else None)
            if failure_injector is not None:
                failure_injector(name, partition, attempt)
            if plan is not None:
                if plan.delay > 0.0:
                    time.sleep(plan.delay)
                    chaos_delay = plan.delay
                if plan.kind == "crash":
                    raise InjectedFault(
                        f"injected crash at {name!r} partition {partition} "
                        f"attempt {attempt}"
                    )
                if plan.kind == "duplicate":
                    # A speculative duplicate runs first; only the
                    # second execution's result is kept.  Pure tasks
                    # make this a no-op by definition.
                    _run_speculative(job, name, partition, attempt, fn,
                                     shard, policy, records)
            run_started = time.monotonic()
            try:
                result = _call_with_timeout(fn, shard, policy.timeout)
            finally:
                run_seconds = time.monotonic() - run_started
            if plan is not None and plan.kind == "drop":
                raise DroppedResult(
                    f"injected result loss at {name!r} partition "
                    f"{partition} attempt {attempt}"
                )
        except Exception as exc:  # noqa: BLE001 - retry any task error
            last_exc = exc
            fatal = not policy.should_retry(attempt)
            kind = _failure_kind(exc)
            failures.append(TaskFailure(
                node_name=name, partition=partition, attempt=attempt,
                kind=kind, error=f"{type(exc).__name__}: {exc}", fatal=fatal,
            ))
            ended = time.monotonic()
            backoff = (0.0 if fatal
                       else policy.delay(attempt, key=(name, partition)))
            records.append(TaskAttemptRecord(
                node_name=name, partition=partition, attempt=attempt,
                job=job, started=started, ended=ended,
                queue_seconds=queue_seconds, run_seconds=run_seconds,
                backoff_seconds=backoff, chaos_delay_seconds=chaos_delay,
                status=kind, error=f"{type(exc).__name__}: {exc}",
                chaos_kind=plan.kind if plan is not None else None,
            ))
            busy_seconds += run_seconds + chaos_delay
            if fatal:
                break
            if backoff > 0.0:
                time.sleep(backoff)
            continue
        ended = time.monotonic()
        records.append(TaskAttemptRecord(
            node_name=name, partition=partition, attempt=attempt, job=job,
            started=started, ended=ended, queue_seconds=queue_seconds,
            run_seconds=run_seconds, chaos_delay_seconds=chaos_delay,
            status="ok",
            chaos_kind=plan.kind if plan is not None else None,
        ))
        busy_seconds += run_seconds + chaos_delay
        metrics = TaskMetrics(
            node_name=name, partition=partition,
            seconds=busy_seconds, attempts=attempt,
        )
        return metrics, result, failures, records, None
    assert last_exc is not None
    return None, None, failures, records, last_exc


def _task_failed_error(name: str, partition: int, attempts: int,
                       cause: BaseException) -> TaskFailedError:
    cause_type = type(cause).__name__
    cause_traceback = "".join(traceback.format_exception(cause))
    return TaskFailedError(
        f"task {name!r} partition {partition} failed after "
        f"{attempts} attempts: {cause_type}: {cause}\n"
        f"-- original traceback --\n{cause_traceback}",
        node_name=name, partition=partition, attempts=attempts,
        cause_type=cause_type, cause_message=str(cause),
        cause_traceback=cause_traceback,
    )


class LocalExecutor:
    """Thread-pool executor for shard maps.

    Parameters
    ----------
    max_workers:
        Pool width (the "executor instances" of Section V).
    max_task_retries:
        Shorthand for ``retry_policy=RetryPolicy(max_retries=N)``; 2 by
        default, matching typical Spark ``task.maxFailures`` behaviour
        of retrying transient faults.  Ignored when ``retry_policy`` is
        given.
    retry_policy:
        Full fault-tolerance knob: retries, exponential backoff with
        deterministic jitter, per-attempt timeouts.
    chaos:
        Optional :class:`~repro.engine.chaos.ChaosInjector` evaluated
        around every task attempt — the deterministic, seedable fault
        source of the chaos test suite.
    failure_injector:
        Hook raised into each task attempt: an arbitrary (often
        closure-based) callable that shares state with the test, for
        failing *specific* ``(partition, attempt)`` pairs that a
        :class:`~repro.engine.chaos.FaultRule` attempt window cannot
        express.
    trace:
        Optional :class:`~repro.engine.trace.RunTrace` that collects a
        node span per ``map_shards`` call and per-attempt records for
        every task.  Also settable afterwards via the mutable ``trace``
        attribute (see :func:`~repro.engine.trace.executor_tracing`).
    """

    def __init__(self, max_workers: int = 4, *, max_task_retries: int = 2,
                 retry_policy: RetryPolicy | None = None,
                 chaos: ChaosInjector | None = None,
                 failure_injector: FailureInjector | None = None,
                 trace: RunTrace | None = None) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if max_task_retries < 0:
            raise ValueError("max_task_retries must be >= 0")
        self._max_workers = max_workers
        self._retry_policy = (
            retry_policy if retry_policy is not None
            else RetryPolicy(max_retries=max_task_retries)
        )
        self._chaos = chaos
        self._failure_injector = failure_injector
        self.trace = trace
        self._job_seq = 0
        self.last_job_metrics = JobMetrics()

    @property
    def retry_policy(self) -> RetryPolicy:
        """The active retry policy."""
        return self._retry_policy

    @property
    def chaos(self) -> ChaosInjector | None:
        """The active chaos injector, if any."""
        return self._chaos

    def map_shards(self, fn: Callable[[Any], Any], shards: Iterable[Any], *,
                   name: str) -> list[Any]:
        """Run ``fn(shard)`` as one task per shard; results in shard order.

        ``name`` is the node name chaos rules, failure records, and the
        trace key on; a task's partition is its shard's index.  When a
        trace is attached, the whole call runs inside one
        ``kind="node"`` span (stamped with the job id so repeated calls
        under one name stay distinguishable).  The first task to
        exhaust its retries raises :class:`TaskFailedError`.
        """
        self._job_seq += 1
        self.last_job_metrics = metrics = JobMetrics(job=self._job_seq)
        shards = list(shards)
        if not shards:
            return []
        trace = self.trace
        policy = self._retry_policy

        def run_task(partition: int, shard: Any, submitted: float) -> Any:
            task, result, failures, records, error = _run_attempts(
                metrics.job, name, partition, fn, shard, policy,
                self._chaos, self._failure_injector, submitted,
            )
            if trace is not None:
                trace.record_attempts(records)
            metrics.failures.extend(failures)
            if error is not None:
                raise _task_failed_error(
                    name, partition, policy.max_attempts, error
                ) from error
            assert task is not None
            metrics.tasks.append(task)
            return result

        span = None
        if trace is not None:
            span = trace.begin_span(name, "node", job=metrics.job,
                                    tasks=len(shards))
        try:
            pool = _shared_thread_pool(self._max_workers)
            submitted = time.monotonic()
            futures = [pool.submit(run_task, partition, shard, submitted)
                       for partition, shard in enumerate(shards)]
            return [f.result() for f in futures]
        finally:
            if span is not None:
                trace.end_span(span)
