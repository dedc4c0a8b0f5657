"""Shard-parallel, generator-based fleet fault production.

A 100k-VM day cannot be sampled the way the scenario runners do it —
one :class:`~repro.telemetry.faults.FaultInjector` pass over the whole
fleet materializes every fault (and every derived event) at once.
This module produces the same kind of ground truth **per VM shard**:
the fleet is split into the exact contiguous shards the checkpointed
daily job uses, each shard gets its own independently-seeded injector,
and a generator yields one shard's faults at a time so the consumer
can ingest, compute, and release a shard before the next one exists.

Two properties make this usable for out-of-core pipelines:

* **Shard determinism** — a shard's faults depend only on
  ``(seed, shard index, shard targets, rates, window)``.  Generating
  shard ``k`` alone yields byte-identical faults to shard ``k`` of a
  full-fleet pass, which is what lets a resumed (or distributed) run
  regenerate just the shards it needs.
* **Split compatibility** — :func:`split_fleet` is the daily job's own
  contiguous balanced shard split and unit labels (``shard-0000``,
  ...; :mod:`repro.pipeline.checkpoint`), so events ingested per shard
  line up one-to-one with the VM shards that
  ``run_checkpointed(..., sharded_events=True)`` will compute.

Faults, not events, are yielded: turning a fault into a catalog event
(name, severity, duration attribute) is scenario policy, so callers
pass each shard's faults through e.g.
:func:`repro.scenarios.common.fault_to_period`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterator, Sequence

from repro.core.events import EventCategory
from repro.pipeline.checkpoint import shard_units, split_shards
from repro.telemetry.faults import FAULT_CATEGORY, Fault, FaultInjector, FaultKind, FaultRate


@dataclass(frozen=True, slots=True)
class FleetShard:
    """One contiguous VM shard of the fleet.

    ``unit`` matches the daily job's checkpoint shard labels, so a
    shard's events can be routed straight into the matching per-shard
    events partition.
    """

    index: int
    unit: str
    targets: tuple[str, ...]


def split_fleet(targets: Sequence[str], shards: int) -> list[FleetShard]:
    """Split ``targets`` into the checkpointed daily job's shards.

    :func:`~repro.pipeline.checkpoint.split_shards` decides the split
    (contiguous, balanced, never more shards than targets, at least one
    possibly-empty shard) and
    :func:`~repro.pipeline.checkpoint.shard_units` the labels.
    """
    parts = split_shards(targets, shards)
    units = shard_units(len(parts))
    return [
        FleetShard(index=index, unit=units[index], targets=tuple(part))
        for index, part in enumerate(parts)
    ]


def _shard_seed(seed: int, index: int) -> int:
    """Decorrelated per-shard seed (splitmix64 finalizer).

    Adjacent ``(seed, index)`` pairs must not produce adjacent RNG
    states, and the mix must be a pure function of its inputs so shard
    regeneration stays deterministic across runs and processes.
    """
    mask = (1 << 64) - 1
    z = (seed * 0x9E3779B97F4A7C15 + index + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


def shard_faults(shard: FleetShard, rates: Sequence[FaultRate],
                 start: float, end: float, *, seed: int = 0) -> list[Fault]:
    """Sample one shard's faults with its own decorrelated injector.

    A fresh :class:`FaultInjector` seeded from ``(seed, shard.index)``
    samples only this shard's targets, so the result is independent of
    every other shard — the whole point: any shard can be (re)generated
    in isolation, in any order, on any worker.
    """
    injector = FaultInjector(rates, seed=_shard_seed(seed, shard.index))
    return injector.sample(shard.targets, start, end)


def iter_fleet_faults(targets: Sequence[str], shards: int,
                      rates: Sequence[FaultRate], start: float, end: float,
                      *, seed: int = 0
                      ) -> Iterator[tuple[FleetShard, list[Fault]]]:
    """Generate ``(shard, faults)`` pairs one shard at a time.

    The generator holds one shard's faults at a time — consuming it
    with ingest-then-release keeps peak memory proportional to the
    largest shard, not the fleet.
    """
    for shard in split_fleet(targets, shards):
        yield shard, shard_faults(shard, rates, start, end, seed=seed)


# -- ground-truth labeled generation ------------------------------------------
#
# Closed-loop evaluation (the control layer's scorecard) needs to know
# which faults were deliberately injected and which are background: the
# detectors must find the injected incidents, and every fault that
# comes out of the generator therefore carries a provenance label.


@dataclass(frozen=True, slots=True)
class InjectedIncident:
    """One ground-truth incident deliberately injected into the fleet.

    An incident deterministically faults every (non-remediated) target
    in ``targets`` for ``seconds_per_day`` seconds on each day of
    ``[onset_day, onset_day + duration_days)``.  ``dimension`` /
    ``value`` record where the incident is concentrated in the fleet
    topology (e.g. ``cluster`` / the faulty cluster id) — the answer a
    root-cause localizer is scored against.

    ``pulses`` shapes *how* the day's damage is delivered: the default
    single pulse is one contiguous ``seconds_per_day`` outage, while
    ``pulses > 1`` splits the same total duration into that many equal
    slices, each starting ``pulse_interval`` seconds after the
    previous one.  Pulsed incidents model "brief but wide"
    interruptions — many distinct short occurrences whose summed
    downtime is small — the shape where a frequency KPI (AIR) and a
    duration-weighted KPI (CDI) disagree hardest.
    """

    incident_id: str
    kind: FaultKind
    targets: tuple[str, ...]
    onset_day: int
    duration_days: int
    seconds_per_day: float
    dimension: str = ""
    value: str = ""
    pulses: int = 1
    pulse_interval: float = 0.0

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError(f"incident {self.incident_id} has no targets")
        if self.onset_day < 0:
            raise ValueError(f"onset_day must be >= 0, got {self.onset_day}")
        if self.duration_days < 1:
            raise ValueError(
                f"duration_days must be >= 1, got {self.duration_days}"
            )
        if self.seconds_per_day <= 0:
            raise ValueError(
                f"seconds_per_day must be > 0, got {self.seconds_per_day}"
            )
        if self.pulses < 1:
            raise ValueError(f"pulses must be >= 1, got {self.pulses}")
        if self.pulses > 1:
            if self.pulse_interval <= self.seconds_per_day / self.pulses:
                raise ValueError(
                    "pulse_interval must exceed the per-pulse duration "
                    f"({self.seconds_per_day / self.pulses}), got "
                    f"{self.pulse_interval}"
                )

    @property
    def category(self) -> EventCategory:
        """Stability category the incident damages."""
        return FAULT_CATEGORY[self.kind]

    def active_on(self, day_index: int) -> bool:
        """Whether the incident is live on ``day_index``."""
        return self.onset_day <= day_index < self.onset_day + self.duration_days


@dataclass(frozen=True, slots=True)
class LabeledFault:
    """One generated fault plus its ground-truth provenance.

    ``incident_id`` names the :class:`InjectedIncident` the fault
    belongs to, or ``None`` for background (Poisson-process) faults.
    """

    fault: Fault
    incident_id: str | None = None

    @property
    def injected(self) -> bool:
        """Whether the fault came from a deliberate incident."""
        return self.incident_id is not None


def incident_faults(incident: InjectedIncident, *, start: float = 0.0,
                    excluded: AbstractSet[str] = frozenset()) -> list[Fault]:
    """One day's deterministic faults for one active incident.

    ``excluded`` lists targets whose incident damage has been
    remediated (e.g. the VM was migrated off the faulty cluster): they
    no longer produce the incident's faults, which is how an executed
    operation action feeds back into subsequent telemetry.

    A pulsed incident (``pulses > 1``) emits ``pulses`` faults per
    target, each ``seconds_per_day / pulses`` long and starting
    ``pulse_interval`` after the previous pulse, so the day's total
    injected duration per target equals ``seconds_per_day`` regardless
    of pulse count.
    """
    pulse_duration = incident.seconds_per_day / incident.pulses
    return [
        Fault(kind=incident.kind, target=target,
              start=start + pulse * incident.pulse_interval,
              duration=pulse_duration)
        for target in incident.targets if target not in excluded
        for pulse in range(incident.pulses)
    ]


def labeled_day_faults(targets: Sequence[str], rates: Sequence[FaultRate],
                       day_index: int, *, seed: int = 0, shards: int = 1,
                       incidents: Sequence[InjectedIncident] = (),
                       excluded: AbstractSet[str] = frozenset(),
                       day_seconds: float = 86400.0) -> list[LabeledFault]:
    """One fleet day of background + injected faults, all labeled.

    Background faults come from the shard-parallel generator with a
    per-day decorrelated seed (day ``d`` alone reproduces day ``d`` of
    any longer run); injected faults come from every incident active on
    ``day_index``, minus ``excluded`` (remediated) targets.  The result
    is sorted like :meth:`FaultInjector.sample` output so downstream
    ingestion is order-deterministic.
    """
    labeled: list[LabeledFault] = []
    day_seed = _shard_seed(seed, day_index)
    for _, faults in iter_fleet_faults(targets, shards, rates, 0.0,
                                       day_seconds, seed=day_seed):
        labeled.extend(LabeledFault(fault) for fault in faults)
    for incident in incidents:
        if not incident.active_on(day_index):
            continue
        labeled.extend(
            LabeledFault(fault, incident.incident_id)
            for fault in incident_faults(incident, excluded=excluded)
        )
    labeled.sort(key=lambda lf: (lf.fault.start, lf.fault.target,
                                 lf.fault.kind.value,
                                 lf.incident_id or ""))
    return labeled
