"""Equivalence suite for the batched fleet-CDI kernel and the job on it.

Three layers of guarantees:

* the grouped kernel (:func:`repro.core.fastpath.grouped_damage_integrals`)
  matches both reference implementations of Algorithm 1
  (:func:`~repro.core.indicator.damage_integral` and
  :func:`~repro.core.indicator.damage_integral_quantized`) to <= 1e-9
  absolute on randomized interval sets — overlaps, duplicate
  timestamps, zero weights, out-of-period clipping, empty groups;
* :class:`~repro.pipeline.daily.DailyCdiJob` produces byte-identical
  ``vm_cdi`` / ``event_cdi`` tables on the columnar path and the
  reference oracle, and reruns of the job produce identical tables.
"""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.events import Event, Severity, default_catalog
from repro.core.fastpath import (
    ResolverIndex,
    WeightTable,
    grouped_damage_integrals,
)
from repro.core.indicator import (
    ServicePeriod,
    WeightedInterval,
    damage_integral,
    damage_integral_quantized,
    damage_integral_with,
)
from repro.core.weights import expert_only_config
from repro.engine.dataset import EngineContext
from repro.engine.executor import TaskFailedError
from repro.pipeline.daily import DailyCdiJob
from repro.pipeline.tables import EVENT_CDI_TABLE, EVENTS_TABLE, VM_CDI_TABLE
from repro.storage.configdb import ConfigDB
from repro.storage.table import TableStore
from repro.streaming import IncrementalCdiState

from tests.strategies import make_fleet_events, stream_cases

DAY = 86400.0

#: Quantized weight pool (the realistic case: Formulas 1-3 produce a
#: small set of levels) plus awkward values: zero, full, subnormal
#: differences.
WEIGHT_POOLS = [
    [0.1, 0.3, 0.5, 0.8, 1.0],
    [0.0, 0.25, 0.25, 0.5, 1.0],
    [0.7],
    [0.5, np.nextafter(0.5, 1.0), 0.5000000000000001],
]


def random_group(rng: random.Random, pool: list[float], period: ServicePeriod,
                 max_intervals: int = 12) -> list[WeightedInterval]:
    """One group's interval set, biased toward edge cases."""
    intervals = []
    for _ in range(rng.randrange(max_intervals + 1)):
        kind = rng.random()
        if kind < 0.15:
            # Entirely outside the service period (clips away).
            start = period.end + rng.uniform(0.0, 500.0)
            end = start + rng.uniform(0.0, 100.0)
        elif kind < 0.3:
            # Straddles a period edge (partial clip).
            start = period.start - rng.uniform(0.0, 100.0)
            end = period.start + rng.uniform(0.0, 100.0)
        else:
            start = rng.uniform(period.start - 50.0, period.end)
            end = start + rng.uniform(0.0, (period.end - period.start) / 2)
        weight = rng.choice(pool)
        intervals.append(WeightedInterval(start, min(end, start + 1e6), weight))
    return intervals


def clipped_group_integrals(intervals, period, num_groups):
    """Clip ``(group, start, end, weight)`` tuples against ``period``
    (dropping what :func:`damage_integral` drops: empty and zero-weight
    intervals), then run the grouped kernel."""
    kept = [
        (group, max(start, period.start), min(end, period.end), weight)
        for group, start, end, weight in intervals
        if min(end, period.end) > max(start, period.start) and weight > 0.0
    ]
    gids, starts, ends, weights = (
        (list(column) for column in zip(*kept)) if kept else ([], [], [], [])
    )
    return grouped_damage_integrals(
        np.asarray(starts), np.asarray(ends), np.asarray(weights),
        np.asarray(gids, dtype=np.int64), num_groups,
    )


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_both_references_on_random_fleets(self, seed):
        rng = random.Random(seed)
        pool = WEIGHT_POOLS[seed % len(WEIGHT_POOLS)]
        period = ServicePeriod(0.0, 1000.0)
        num_groups = rng.randrange(1, 12)
        groups = [random_group(rng, pool, period) for _ in range(num_groups)]

        flat = [
            (gid, iv.start, iv.end, iv.weight)
            for gid, intervals in enumerate(groups)
            for iv in intervals
        ]
        rng.shuffle(flat)  # kernel must not rely on input order
        result = clipped_group_integrals(flat, period, num_groups)

        assert result.shape == (num_groups,)
        for gid, intervals in enumerate(groups):
            exact = damage_integral(intervals, period)
            quantized = damage_integral_quantized(intervals, period)
            assert math.isclose(result[gid], exact, abs_tol=1e-9), (
                f"group {gid}: kernel {result[gid]!r} != sweep {exact!r}"
            )
            assert math.isclose(result[gid], quantized, abs_tol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_continuous_weights(self, seed):
        """Not just quantized pools: arbitrary float weights."""
        rng = random.Random(1000 + seed)
        period = ServicePeriod(100.0, 900.0)
        intervals = [
            WeightedInterval(rng.uniform(0, 1000), rng.uniform(0, 1000) + 1000,
                             rng.random())
            for _ in range(30)
        ]
        result = clipped_group_integrals(
            [(0, iv.start, iv.end, iv.weight) for iv in intervals], period, 1
        )
        assert math.isclose(
            result[0], damage_integral(intervals, period), abs_tol=1e-9
        )

    def test_empty_input(self):
        result = grouped_damage_integrals(
            np.array([]), np.array([]), np.array([]),
            np.array([], dtype=np.int64), 4,
        )
        assert result.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_empty_groups_get_zero(self):
        period = ServicePeriod(0.0, 100.0)
        result = clipped_group_integrals([(2, 10.0, 20.0, 0.5)], period, 5)
        assert result.tolist() == [0.0, 0.0, 0.5 * 10.0, 0.0, 0.0]

    def test_groups_do_not_leak_into_each_other(self):
        """Same timestamps in two groups: unions must stay per-group."""
        period = ServicePeriod(0.0, 100.0)
        result = clipped_group_integrals(
            [(0, 0.0, 50.0, 0.4), (1, 0.0, 50.0, 0.8),
             (0, 25.0, 75.0, 0.4)],
            period, 2,
        )
        assert result[0] == pytest.approx(0.4 * 75.0)
        assert result[1] == pytest.approx(0.8 * 50.0)

    def test_duplicate_boundaries_and_zero_length(self):
        period = ServicePeriod(0.0, 10.0)
        intervals = [
            WeightedInterval(2.0, 2.0, 0.9),  # zero length
            WeightedInterval(2.0, 5.0, 0.5),
            WeightedInterval(2.0, 5.0, 0.7),  # identical span, higher weight
            WeightedInterval(5.0, 8.0, 0.2),  # shares a boundary
        ]
        result = clipped_group_integrals(
            [(0, iv.start, iv.end, iv.weight) for iv in intervals], period, 1
        )
        assert result[0] == pytest.approx(damage_integral(intervals, period))
        assert result[0] == pytest.approx(0.7 * 3 + 0.2 * 3)


class TestQuantizedRegression:
    """Hardening of ``damage_integral_quantized`` (satellite fix)."""

    def test_all_intervals_clip_out(self):
        period = ServicePeriod(0.0, 100.0)
        intervals = [
            WeightedInterval(200.0, 300.0, 0.5),
            WeightedInterval(-50.0, 0.0, 0.8),
        ]
        assert damage_integral_quantized(intervals, period) == 0.0

    def test_zero_weight_only(self):
        period = ServicePeriod(0.0, 100.0)
        assert damage_integral_quantized(
            [WeightedInterval(10.0, 20.0, 0.0)], period
        ) == 0.0

    def test_adjacent_float_weights_not_merged(self):
        """Weights one ulp apart are distinct levels, not one."""
        period = ServicePeriod(0.0, 100.0)
        low, high = 0.5, np.nextafter(0.5, 1.0)
        intervals = [
            WeightedInterval(0.0, 60.0, low),
            WeightedInterval(40.0, 100.0, high),
        ]
        exact = damage_integral(intervals, period)
        quantized = damage_integral_quantized(intervals, period)
        # Exactly the two-level decomposition — a merged level would
        # collapse both weights to one union and change the value.
        assert quantized == high * 60.0 + low * (100.0 - 60.0)
        assert quantized == pytest.approx(exact, abs=1e-9)


class TestOverlapSemanticsSweep:
    """The rewritten ``damage_integral_with`` active-set sweep must
    reproduce the naive per-segment rescan bit for bit."""

    @staticmethod
    def naive(intervals, period, combine):
        clipped = [
            (max(iv.start, period.start), min(iv.end, period.end), iv.weight)
            for iv in intervals
            if min(iv.end, period.end) > max(iv.start, period.start)
            and iv.weight > 0
        ]
        if not clipped:
            return 0.0
        boundaries = sorted({t for s, e, _ in clipped for t in (s, e)})
        total = 0.0
        for left, right in zip(boundaries, boundaries[1:]):
            active = [w for s, e, w in clipped if s <= left and e > left]
            if active:
                total += combine(active) * (right - left)
        return total

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("combine", [
        max,
        lambda ws: min(1.0, sum(ws)),
        lambda ws: sum(ws) / len(ws),
    ], ids=["max", "capped_sum", "mean"])
    def test_matches_naive_rescan(self, seed, combine):
        rng = random.Random(seed)
        period = ServicePeriod(0.0, 500.0)
        intervals = random_group(rng, [0.2, 0.4, 0.9], period,
                                 max_intervals=15)
        assert damage_integral_with(intervals, period, combine) == (
            self.naive(intervals, period, combine)
        )


class TestWeightResolution:
    def test_weight_table_matches_config_resolution(self):
        catalog = default_catalog()
        config = expert_only_config()
        table = WeightTable.from_config(catalog, config)
        for spec in catalog:
            for level in Severity:
                entry = table.lookup(spec.name, level)
                assert entry is not None
                assert entry[0] == config.resolve(spec.name, level,
                                                  spec.category)
        assert table.lookup("no_such_event", Severity.WARNING) is None

    def test_unknown_event_names_are_skipped(self):
        events = [
            Event(name=name, time=600.0, target="vm-a", expire_interval=600.0,
                  level=Severity.FATAL, attributes={"duration": 600.0})
            for name in ("vm_down", "not_in_catalog")
        ]
        for use_fastpath in (True, False):
            vm_rows, event_rows = run_job(
                events, {"vm-a": ServicePeriod(0.0, DAY)},
                use_fastpath=use_fastpath,
            )
            assert [r["event"] for r in event_rows] == ["vm_down"]
            assert vm_rows[0]["unavailability"] > 0.0


def run_job(events, services, *, use_fastpath=True):
    context = EngineContext(parallelism=4)
    job = DailyCdiJob(context, TableStore(), ConfigDB(), default_catalog(),
                      use_fastpath=use_fastpath)
    job.store_weights(expert_only_config())
    job.ingest_events(events, "d")
    job.run("d", services)
    return (
        job.tables.get(VM_CDI_TABLE).rows("d"),
        job.tables.get(EVENT_CDI_TABLE).rows("d"),
    )


class TestDailyJobEquivalence:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_fast_path_tables_byte_identical_to_reference(self, seed):
        rng = random.Random(seed)
        events = make_fleet_events(rng, vm_count=40, events_per_vm=4,
                                   null_durations=False, stateful=False)
        services = {f"vm-{i:03d}": ServicePeriod(0.0, DAY) for i in range(45)}
        fast = run_job(events, services, use_fastpath=True)
        reference = run_job(events, services, use_fastpath=False)
        # Byte-level identity, not approximate equality: same rows,
        # same order, same float bit patterns.
        assert json.dumps(fast) == json.dumps(reference)

    def test_reruns_produce_identical_tables(self):
        rng = random.Random(42)
        events = make_fleet_events(rng, vm_count=20, events_per_vm=4,
                                   null_durations=False)
        services = {f"vm-{i:03d}": ServicePeriod(0.0, DAY) for i in range(20)}
        first = run_job(events, services)
        again = run_job(events, services)
        assert json.dumps(first) == json.dumps(again)


class TestColumnarPathEquivalence:
    """The columnar scan path (typed column blocks → array-native
    resolution → :func:`fleet_cdi_columns_columnar`) must emit the same
    bytes as the reference sweep."""

    @pytest.mark.parametrize("seed", [1, 4])
    def test_columnar_with_stateful_events_matches_reference(self, seed):
        rng = random.Random(200 + seed)
        events = make_fleet_events(rng, vm_count=40, events_per_vm=4)
        services = {f"vm-{i:03d}": ServicePeriod(0.0, DAY) for i in range(45)}
        columnar = run_job(events, services)
        reference = run_job(events, services, use_fastpath=False)
        assert json.dumps(columnar) == json.dumps(reference)

    @pytest.mark.parametrize("use_fastpath", [True, False],
                             ids=["columnar", "reference"])
    def test_negative_duration_rejected(self, use_fastpath):
        services = {"vm-0": ServicePeriod(0.0, DAY)}
        bad = [Event(name="vm_down", time=100.0, target="vm-0",
                     expire_interval=600.0, level=Severity.FATAL,
                     attributes={"duration": -5.0})]
        # The columnar stage's error surfaces as the engine's
        # retry-exhausted failure, the oracle's (off the engine) bare;
        # both paths raise the same ValueError underneath.
        with pytest.raises((ValueError, TaskFailedError)) as exc_info:
            run_job(bad, services, use_fastpath=use_fastpath)
        assert isinstance(exc_info.value, TaskFailedError) == use_fastpath
        cause = exc_info.value.__cause__ if use_fastpath else exc_info.value
        assert isinstance(cause, ValueError)
        assert "negative duration -5.0 on event 'vm_down'" in str(cause)

    @pytest.mark.parametrize("name", ["vm_down", "ddos_blackhole_add"],
                             ids=["stateless", "stateful"])
    @pytest.mark.parametrize("path", ["columnar", "reference", "streaming"])
    def test_unknown_severity_level_rejected(self, path, name):
        """A level that is no ``Severity`` on an in-service row of a
        catalogued name is one typed error everywhere — never a silent
        skip, never a bare ``KeyError``; out of service it is ignored."""
        services = {"vm-0": ServicePeriod(0.0, DAY)}
        row = {"name": name, "time": 100.0, "target": "vm-0", "level": 9,
               "expire_interval": 600.0, "duration": None}
        elsewhere = dict(row, target="vm-not-in-service")
        catalog = default_catalog()
        if path == "streaming":
            weight_table = WeightTable.from_config(catalog,
                                                   expert_only_config())
            state = IncrementalCdiState(
                services, catalog, weight_table,
                ResolverIndex.build(catalog, weight_table),
            )
            assert state.apply(elsewhere) is False

            def run():
                state.apply(row)
        else:
            job = DailyCdiJob(EngineContext(parallelism=2), TableStore(),
                              ConfigDB(), catalog,
                              use_fastpath=path == "columnar")
            job.store_weights(expert_only_config())
            job.tables.get(EVENTS_TABLE).append([elsewhere], "d")
            assert job.run("d", services).event_count == 0

            def run():
                job.tables.get(EVENTS_TABLE).append([row], "d")
                job.run("d", services)
        with pytest.raises((ValueError, TaskFailedError)) as exc_info:
            run()
        error = exc_info.value
        if isinstance(error, TaskFailedError):  # raised inside a stage
            error = error.__cause__
        assert isinstance(error, ValueError)
        assert str(error) == f"unknown severity level 9 on event {name!r}"

    def test_columnar_empty_partition(self):
        services = {"vm-0": ServicePeriod(0.0, DAY)}
        vm_rows, event_rows = run_job([], services)
        assert event_rows == []
        assert vm_rows == [{
            "vm": "vm-0", "unavailability": 0.0, "performance": 0.0,
            "control_plane": 0.0, "service_time": DAY,
        }]


class TestHypothesisEquivalence:
    """Property form of the suite: hypothesis-generated adversarial
    fleet days (unknown names, null and boundary-straddling durations,
    orphan/open stateful pairs, duplicates) through both compute paths
    must agree byte-for-byte."""

    @given(case=stream_cases(max_vms=4, max_events=20, max_ticks=1))
    @settings(max_examples=15, deadline=None)
    def test_both_paths_byte_identical(self, case):
        services = case.services()
        events = case.oracle_events()
        columnar, reference = (
            json.dumps(run_job(events, services, use_fastpath=fast))
            for fast in (True, False)
        )
        assert columnar == reference
