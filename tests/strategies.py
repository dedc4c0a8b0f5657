"""Shared event-stream generators for the whole test suite.

One place for every synthetic fleet-day: the seeded random generator
(previously copy-pasted into the fault-tolerance, out-of-core, and
fastpath suites), the topology-aware fault-injector day source
(previously in the serving conftest), and the hypothesis strategies
behind the streaming differential harness.

The hypothesis side generates :class:`StreamCase` values: a fleet day
of adversarially shaped events (shuffled, duplicated, null-duration,
unknown-name, boundary-straddling ``*_add``/``*_del`` pairs, orphan
``*_del``), an out-of-order *arrival* order whose per-record lag is
bounded strictly below the case's allowed lateness, and tick
boundaries splitting the arrivals.  The lag bound is the equivalence
precondition: when every record arrives less than ``lateness`` after
a newer-timestamped record, the tailer's watermark can never pass an
unseen record, so nothing is dropped and the admitted set equals the
full event set — which is what lets the differential tests demand
*byte* identity against a batch run over all the events.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from hypothesis import strategies as st

from repro.core.events import Event, Severity
from repro.core.indicator import ServicePeriod

DAY = 86400.0

#: Stateless names drawn by the generators.  ``nic_flap`` is *not* in
#: the default catalog — deliberately, so unknown-name handling (count
#: the row, produce no intervals) stays covered everywhere.
STATELESS_NAMES = ["vm_down", "slow_io", "vm_start_failed", "nic_flap"]

#: Known stateless names only (every one resolves to intervals).
KNOWN_STATELESS_NAMES = ["vm_down", "slow_io", "vm_start_failed"]

LEVELS = [Severity.WARNING, Severity.CRITICAL, Severity.FATAL]


def block_arrays(block) -> list:
    """Every array reachable from a stored ``ColumnBlock`` (a dictionary
    block's lazily decoded ``values`` is a cache, not storage)."""
    return [arr for arr in (block.codes, block.null_mask,
                            None if block.is_dictionary else block.values)
            if arr is not None]


def vm_name(index: int) -> str:
    """Canonical synthetic VM id (``vm-000`` style, sorts by index)."""
    return f"vm-{index:03d}"


def make_services(vm_count: int = 24, *,
                  day: float = DAY) -> dict[str, ServicePeriod]:
    """Full-day service periods for a ``vm_count``-VM fleet."""
    return {
        vm_name(index): ServicePeriod(0.0, day)
        for index in range(vm_count)
    }


def make_fleet_events(seed: int | random.Random, vm_count: int = 24,
                      events_per_vm: int = 3, *,
                      null_durations: bool = True, stateful: bool = True,
                      day: float = DAY) -> list[Event]:
    """Random fleet day with stateless, null-duration, and stateful
    events — the one seeded generator behind the fault-tolerance,
    out-of-core, fastpath, and streaming suites.

    ``seed`` may be an int or an already-seeded ``random.Random``.
    Each VM gets up to ``events_per_vm`` stateless events (30% with no
    explicit duration when ``null_durations``, falling back to the
    catalog window) and, when ``stateful``, a 50% chance of a
    ``ddos_blackhole_add`` — 30% of which stay open to exercise the
    horizon clip.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    events = []
    for index in range(vm_count):
        vm = vm_name(index)
        for _ in range(rng.randrange(events_per_vm + 1)):
            attributes = (
                {} if null_durations and rng.random() < 0.3
                else {"duration": rng.uniform(60.0, 7200.0)}
            )
            events.append(Event(
                name=rng.choice(STATELESS_NAMES),
                time=rng.uniform(0.0, day),
                target=vm, expire_interval=600.0,
                level=rng.choice(LEVELS), attributes=attributes,
            ))
        if stateful and rng.random() < 0.5:
            start = rng.uniform(0.0, day / 2)
            events.append(Event(
                name="ddos_blackhole_add", time=start, target=vm,
                expire_interval=3600.0, level=Severity.FATAL,
            ))
            if rng.random() < 0.7:  # some periods stay open → horizon
                events.append(Event(
                    name="ddos_blackhole_del",
                    time=start + rng.uniform(60.0, 7200.0), target=vm,
                    expire_interval=3600.0, level=Severity.FATAL,
                ))
    return events


def events_factory(vm_ids, catalog, seed):
    """Deterministic per-day event source (mirrors the CLI's dataset).

    The serving suite's day source: baseline fault-injector samples
    turned into catalog-typed events with measured durations.
    """
    from repro.scenarios.common import fault_to_period
    from repro.telemetry.faults import FaultInjector, baseline_rates

    def events_for_day(index: int, partition: str) -> list[Event]:
        injector = FaultInjector(baseline_rates(scale=20.0),
                                 seed=seed * 1000 + index)
        events = []
        for fault in injector.sample(vm_ids, 0.0, DAY):
            period = fault_to_period(fault, catalog)
            events.append(Event(
                name=period.name, time=period.end, target=period.target,
                expire_interval=600.0, level=period.level,
                attributes={"duration": period.duration},
            ))
        return events

    return events_for_day


@dataclass(frozen=True)
class StreamCase:
    """One adversarial streaming scenario: events, arrivals, ticks.

    ``arrival`` is the order records hit the log store (bounded-lag
    shuffle of ``events`` plus drawn duplicates); ``tick_sizes``
    partitions the arrivals into per-tick append batches (sizes sum to
    ``len(arrival)``); ``lateness`` is the tailer's allowed lateness,
    strictly greater than every arrival's lag so nothing is dropped.
    """

    vm_count: int
    lateness: float
    events: tuple[Event, ...]
    arrival: tuple[Event, ...]
    tick_sizes: tuple[int, ...]

    def services(self, *, day: float = DAY) -> dict[str, ServicePeriod]:
        """Service periods for the case's fleet."""
        return make_services(self.vm_count, day=day)

    def oracle_events(self) -> list[Event]:
        """Arrivals reordered to ``(time, arrival index)`` — exactly
        the order the tailer releases (and the state applies) them, so
        a batch job ingesting this list is the from-scratch oracle."""
        indexed = sorted(
            enumerate(self.arrival), key=lambda pair: (pair[1].time, pair[0])
        )
        return [event for _, event in indexed]

    def chunks(self) -> list[tuple[Event, ...]]:
        """The arrivals split into per-tick batches."""
        out = []
        offset = 0
        for size in self.tick_sizes:
            out.append(self.arrival[offset:offset + size])
            offset += size
        return out


@st.composite
def stream_events(draw, vm_count: int, max_events: int = 30,
                  day: float = DAY) -> list[Event]:
    """A fleet day biased toward resolution edge cases.

    Mixes known/unknown stateless names, null and boundary-straddling
    durations (an explicit duration larger than the timestamp starts
    the interval before the service period), stateful pairs whose
    ``*_del`` may straddle the day end or be missing entirely, and
    orphan ``*_del`` rows with no opening ``*_add``.
    """
    times = st.floats(min_value=0.0, max_value=day, allow_nan=False,
                      allow_infinity=False)
    vm_index = st.integers(min_value=0, max_value=vm_count - 1)
    events: list[Event] = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_events))):
        vm = vm_name(draw(vm_index))
        time = draw(times)
        kind = draw(st.sampled_from(
            ["stateless", "stateless", "stateless", "unknown",
             "pair", "open_add", "orphan_del"]
        ))
        if kind in ("stateless", "unknown"):
            name = (
                draw(st.sampled_from(KNOWN_STATELESS_NAMES))
                if kind == "stateless" else "nic_flap"
            )
            duration = draw(st.one_of(
                st.none(),
                st.floats(min_value=0.0, max_value=2 * day,
                          allow_nan=False, allow_infinity=False),
            ))
            attributes = {} if duration is None else {"duration": duration}
            events.append(Event(
                name=name, time=time, target=vm, expire_interval=600.0,
                level=draw(st.sampled_from(list(Severity))),
                attributes=attributes,
            ))
        elif kind == "orphan_del":
            events.append(Event(
                name="ddos_blackhole_del", time=time, target=vm,
                expire_interval=3600.0, level=Severity.FATAL,
            ))
        else:
            events.append(Event(
                name="ddos_blackhole_add", time=time, target=vm,
                expire_interval=3600.0, level=Severity.FATAL,
            ))
            if kind == "pair":
                # The close may land past the day end (horizon clip).
                delta = draw(st.floats(min_value=0.0, max_value=day,
                                       allow_nan=False,
                                       allow_infinity=False))
                events.append(Event(
                    name="ddos_blackhole_del", time=time + delta,
                    target=vm, expire_interval=3600.0,
                    level=Severity.FATAL,
                ))
    return events


@st.composite
def stream_cases(draw, max_vms: int = 6, max_events: int = 30,
                 max_ticks: int = 5, day: float = DAY) -> StreamCase:
    """Adversarial :class:`StreamCase` values (see the module doc).

    Arrival order sorts events by ``time + lag`` with per-record lag
    drawn from ``[0, 0.9 * lateness)``; duplicated events re-enter the
    draw as independent arrivals.  The lag bound guarantees the
    watermark never drops a record, making full-stream byte identity a
    fair demand.
    """
    vm_count = draw(st.integers(min_value=1, max_value=max_vms))
    lateness = draw(st.sampled_from([600.0, 3600.0, 14400.0]))
    events = draw(stream_events(vm_count, max_events=max_events, day=day))
    arrivals = list(events)
    if events:
        # Duplicates: the same event delivered more than once counts
        # twice on both sides (the stream has no dedup contract).
        for index in draw(st.lists(
            st.integers(min_value=0, max_value=len(events) - 1),
            max_size=4,
        )):
            arrivals.append(events[index])
    lags = [
        draw(st.floats(min_value=0.0, max_value=0.9 * lateness,
                       allow_nan=False, allow_infinity=False,
                       exclude_max=True))
        for _ in arrivals
    ]
    order = sorted(
        range(len(arrivals)),
        key=lambda index: (arrivals[index].time + lags[index], index),
    )
    arrival = tuple(arrivals[index] for index in order)
    tick_count = draw(st.integers(min_value=1, max_value=max_ticks))
    bounds = sorted(
        draw(st.integers(min_value=0, max_value=len(arrival)))
        for _ in range(tick_count - 1)
    )
    edges = [0, *bounds, len(arrival)]
    tick_sizes = tuple(
        edges[i + 1] - edges[i] for i in range(len(edges) - 1)
    )
    return StreamCase(
        vm_count=vm_count, lateness=lateness, events=tuple(events),
        arrival=arrival, tick_sizes=tick_sizes,
    )
