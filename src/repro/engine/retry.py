"""Retry policies for the task executor.

Task failures in the production daily job are routine, not
exceptional: Spark retries a failed task up to
``spark.task.maxFailures`` times, backing off between attempts so a
struggling executor is not immediately re-hammered.  This module
provides the equivalent knob for :class:`~repro.engine.executor.
LocalExecutor` — a pluggable :class:`RetryPolicy` with
exponential backoff, a delay cap, deterministic jitter, and an
optional per-attempt timeout.

Backoff schedules are **deterministic** (seeded, keyed by task) and
**monotone non-decreasing** by construction: the raw exponential
delay is jittered multiplicatively, then clamped through a running
maximum and the cap.  This keeps chaos tests reproducible — the same
seed always produces the same sleep sequence — while still spreading
retry storms across tasks (each task key draws an independent jitter
stream).  The draws come from :func:`stable_uniform`, which lives here
beside its two users: the jitter below and the fault decisions of
:mod:`repro.engine.chaos`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Hashable


def stable_hash(key: Any) -> int:
    """Deterministic hash of a task key.

    Python's built-in ``hash`` is randomized per process for strings,
    so a seeded storm or jitter stream keyed on a node name would
    change from run to run.  This hash is stable across processes and
    runs for the key types task keys are made of — strings, bytes,
    ints, bools, None, and tuples thereof — and falls back to ``hash``
    for anything else.
    """
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8", "surrogatepass"))
    if isinstance(key, (bytes, bytearray)):
        return zlib.crc32(key)
    if isinstance(key, bool) or key is None:
        return int(bool(key))
    if isinstance(key, int):
        return key
    if isinstance(key, tuple):
        acc = 0x345678
        for element in key:
            acc = (acc * 1000003) ^ stable_hash(element)
            acc &= 0xFFFFFFFFFFFFFFFF
        return acc
    return hash(key)


def stable_uniform(key: Any) -> float:
    """Deterministic pseudo-uniform draw in ``[0, 1)`` for ``key``.

    :func:`stable_hash` optimizes for speed and run-to-run stability,
    not bit diffusion — neighbouring integer keys map to neighbouring
    hashes, which would make probability draws fire all-or-nothing
    across partitions.  This runs the hash through a splitmix64-style
    finalizer so every key bit avalanches into the result, while
    staying just as stable across processes and runs (the property
    chaos injection and retry jitter rely on).
    """
    mixed = stable_hash(key) & 0xFFFFFFFFFFFFFFFF
    mixed = ((mixed ^ (mixed >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    mixed = ((mixed ^ (mixed >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    mixed ^= mixed >> 31
    return (mixed >> 32) / 2.0**32


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How the executor retries, paces, and bounds task attempts.

    Parameters
    ----------
    max_retries:
        Additional attempts after the first failure (Spark's
        ``task.maxFailures - 1``).  ``0`` disables retries.
    base_delay:
        Backoff before the first retry, in seconds.  The default of
        ``0.0`` keeps unit-test jobs instant; production-ish callers
        (the CLI) set a small positive base.
    multiplier:
        Exponential growth factor of the raw backoff.
    max_delay:
        Hard cap on any single backoff delay, in seconds.
    jitter:
        Fractional jitter: each raw delay is scaled by a deterministic
        factor in ``[1, 1 + jitter)``.  Monotonicity of the schedule is
        preserved regardless (see :meth:`schedule`).
    timeout:
        Per-attempt wall-clock timeout in seconds; ``None`` disables.
        A timed-out attempt counts as a failure and is retried.
    seed:
        Seed of the jitter stream (per task key).
    """

    max_retries: int = 2
    base_delay: float = 0.0
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.0
    timeout: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_delay < 0:
            raise ValueError(
                f"base_delay must be >= 0, got {self.base_delay}"
            )
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.max_delay < 0:
            raise ValueError(
                f"max_delay must be >= 0, got {self.max_delay}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(
                f"timeout must be > 0 when set, got {self.timeout}"
            )

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A policy that never retries (first failure is fatal)."""
        return cls(max_retries=0)

    @property
    def max_attempts(self) -> int:
        """Total attempts a task may take (first run + retries)."""
        return self.max_retries + 1

    def should_retry(self, attempt: int) -> bool:
        """Whether a failure on 1-based ``attempt`` gets another try."""
        return attempt < self.max_attempts

    def delay(self, attempt: int, key: Hashable = None) -> float:
        """Backoff before retry number ``attempt`` (1-based), seconds."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return self.schedule(attempt, key)[-1]

    def schedule(self, retries: int, key: Hashable = None) -> list[float]:
        """The first ``retries`` backoff delays for one task.

        Monotone non-decreasing and bounded by ``max_delay`` for every
        seed and key: each jittered exponential step is folded through
        a running maximum before the cap, so jitter can spread delays
        without ever shrinking them between consecutive retries.
        """
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        delays: list[float] = []
        previous = 0.0
        raw = self.base_delay
        for attempt in range(1, retries + 1):
            jittered = raw * (1.0 + self.jitter
                              * stable_uniform((self.seed, key, attempt)))
            previous = min(self.max_delay, max(previous, jittered))
            delays.append(previous)
            raw *= self.multiplier
        return delays

    def describe(self) -> str:
        """One-line human-readable summary (CLI / logs)."""
        timeout = "none" if self.timeout is None else f"{self.timeout}s"
        return (
            f"retries={self.max_retries} base={self.base_delay}s "
            f"x{self.multiplier} cap={self.max_delay}s "
            f"jitter={self.jitter} timeout={timeout}"
        )


def spark_like_policy(max_retries: int = 3, *,
                      timeout: float | None = None,
                      seed: int = 0) -> RetryPolicy:
    """The production-shaped default: 3 retries, 100ms..10s backoff.

    Mirrors typical ``spark.task.maxFailures=4`` deployments with a
    jittered exponential backoff; used by the CLI's daily runner.
    """
    return RetryPolicy(
        max_retries=max_retries, base_delay=0.1, multiplier=2.0,
        max_delay=10.0, jitter=0.25, timeout=timeout, seed=seed,
    )
