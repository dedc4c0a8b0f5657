"""Executor-level fault injection for chaos testing.

Distinct from :mod:`repro.telemetry.faults` (which simulates *fleet*
faults — the data the pipeline measures), this module breaks the
*pipeline itself*: a deterministic, seedable injector that the
:class:`~repro.engine.executor.LocalExecutor` consults before and
after every task attempt, so tests can prove the daily job survives
the task-level failures a production Spark cluster sees routinely.

Four fault kinds cover the classic task failure modes:

* ``"crash"`` — the attempt raises :class:`InjectedFault` before the
  task body runs (a worker dying mid-task);
* ``"delay"`` — the attempt sleeps a configured time first (a
  straggler executor);
* ``"duplicate"`` — the task body runs twice and only the second
  result is kept (speculative / zombie re-execution; correct output
  requires tasks to be pure);
* ``"drop"`` — the task body runs but its result is discarded and the
  attempt fails with :class:`DroppedResult` (a lost result channel /
  fetch failure).

The injector is a frozen dataclass built from frozen
:class:`FaultRule` values with no mutable or closure state, so it
produces **identical decisions in every run**: each decision is a pure
function of ``(seed, rule, node_name, partition, attempt)`` via
:func:`~repro.engine.retry.stable_uniform`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Iterable, Sequence

from repro.engine.retry import stable_uniform

#: Supported injected fault kinds.
FAULT_KINDS = ("crash", "delay", "duplicate", "drop")


class InjectedFault(RuntimeError):
    """A chaos-injected task crash (retryable)."""


class DroppedResult(RuntimeError):
    """A chaos-injected loss of a completed task's result (retryable)."""


@dataclass(frozen=True, slots=True)
class FaultRule:
    """One injection rule, matched against every task attempt.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    node:
        Node name pattern (``fnmatch`` glob, e.g.
        ``"resolve_*"``); ``None`` matches every node.
    partition:
        Partition index to target; ``None`` matches every partition.
    attempts:
        Inject only on 1-based attempts ``<= attempts`` — ``1`` (the
        default) makes a fault transient (first attempt only), a large
        value makes it effectively permanent.
    probability:
        Chance the rule fires on a matching attempt.  Decided
        deterministically from the injector seed, so the same seed
        reproduces the same fault pattern in every run.
    delay:
        Sleep length in seconds (``kind="delay"`` only).
    """

    kind: str
    node: str | None = None
    partition: int | None = None
    attempts: int = 1
    probability: float = 1.0
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        if self.kind == "delay" and self.delay == 0.0:
            raise ValueError('kind="delay" requires a positive delay')

    def matches(self, node_name: str, partition: int, attempt: int) -> bool:
        """Static match (node/partition/attempt window)."""
        if attempt > self.attempts:
            return False
        if self.partition is not None and partition != self.partition:
            return False
        if self.node is not None and not fnmatchcase(node_name, self.node):
            return False
        return True


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """What the executor should do to one task attempt.

    ``delay`` seconds of injected sleep (possibly from several delay
    rules), then the single ``kind`` action (``None`` means run the
    task normally after the sleep).
    """

    delay: float = 0.0
    kind: str | None = None


@dataclass(frozen=True, slots=True)
class ChaosInjector:
    """Deterministic executor-level fault injector.

    ``rules`` are evaluated in order for every task attempt; all
    matching ``delay`` rules accumulate sleep time, and the first
    matching rule of any other kind decides the attempt's fate.
    """

    rules: tuple[FaultRule, ...]
    seed: int = 0

    def __init__(self, rules: Iterable[FaultRule], seed: int = 0) -> None:
        object.__setattr__(self, "rules", tuple(rules))
        object.__setattr__(self, "seed", int(seed))

    def _fires(self, index: int, rule: FaultRule, node_name: str,
               partition: int, attempt: int) -> bool:
        if rule.probability >= 1.0:
            return True
        if rule.probability <= 0.0:
            return False
        draw = stable_uniform(
            (self.seed, index, node_name, partition, attempt)
        )
        return draw < rule.probability

    def plan(self, node_name: str, partition: int,
             attempt: int) -> FaultPlan | None:
        """Decide the fault plan for one task attempt (or ``None``)."""
        delay = 0.0
        kind: str | None = None
        for index, rule in enumerate(self.rules):
            if not rule.matches(node_name, partition, attempt):
                continue
            if not self._fires(index, rule, node_name, partition, attempt):
                continue
            if rule.kind == "delay":
                delay += rule.delay
            elif kind is None:
                kind = rule.kind
        if delay == 0.0 and kind is None:
            return None
        return FaultPlan(delay=delay, kind=kind)

    @classmethod
    def storm(cls, seed: int = 0, *, probability: float = 0.2,
              delay: float = 0.005, attempts: int = 1,
              kinds: Sequence[str] = FAULT_KINDS,
              node: str | None = None) -> "ChaosInjector":
        """A mixed-fault storm: every kind fires with ``probability``.

        The workhorse of the differential chaos suite — one seed
        reproduces one complete storm pattern across every engine call
        of a job.
        """
        rules = [
            FaultRule(
                kind=kind, node=node, attempts=attempts,
                probability=probability,
                delay=delay if kind == "delay" else 0.0,
            )
            for kind in kinds
        ]
        return cls(rules, seed=seed)
