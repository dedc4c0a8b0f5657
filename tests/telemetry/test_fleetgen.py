"""Tests for shard-parallel fleet fault generation."""

import pytest

from repro.pipeline.checkpoint import shard_units, split_shards
from repro.telemetry.faults import FaultKind, baseline_rates
from repro.telemetry.fleetgen import (
    InjectedIncident,
    incident_faults,
    iter_fleet_faults,
    labeled_day_faults,
    shard_faults,
    split_fleet,
)

DAY = 86400.0


class TestSplitFleet:
    def test_pins_pipeline_split(self):
        """The deliberate duplication of the checkpointed job's split
        must never drift: same shard contents, same unit labels."""
        targets = [f"vm-{i:03d}" for i in range(23)]
        for shards in (1, 2, 5, 8, 23, 40):
            fleet = split_fleet(targets, shards)
            expected = split_shards(targets, shards)
            assert [list(s.targets) for s in fleet] == [
                list(part) for part in expected
            ]
            assert [s.unit for s in fleet] == shard_units(len(expected))

    def test_contiguous_and_complete(self):
        targets = [f"vm-{i:03d}" for i in range(17)]
        fleet = split_fleet(targets, 5)
        flattened = [vm for shard in fleet for vm in shard.targets]
        assert flattened == targets
        assert [s.index for s in fleet] == list(range(5))

    def test_empty_fleet_single_shard(self):
        (shard,) = split_fleet([], 4)
        assert shard.targets == ()
        assert shard.unit == "shard-0000"

    def test_never_more_shards_than_targets(self):
        fleet = split_fleet(["a", "b"], 8)
        assert len(fleet) == 2

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError, match=">= 1"):
            split_fleet(["a"], 0)

    def test_unit_labels(self):
        units = [s.unit for s in split_fleet([str(i) for i in range(124)],
                                             124)]
        assert units[0] == "shard-0000"
        assert units[123] == "shard-0123"


class TestShardDeterminism:
    def targets(self, count=40):
        return [f"vm-{i:03d}" for i in range(count)]

    def rates(self):
        return baseline_rates(scale=50.0)

    def test_isolated_regeneration_matches_full_pass(self):
        """Generating shard k alone equals shard k of the full sweep —
        the property resume/distribution depends on."""
        full = {
            shard.unit: faults
            for shard, faults in iter_fleet_faults(
                self.targets(), 4, self.rates(), 0.0, DAY, seed=7
            )
        }
        for shard in split_fleet(self.targets(), 4):
            alone = shard_faults(shard, self.rates(), 0.0, DAY, seed=7)
            assert alone == full[shard.unit]

    def test_deterministic_across_calls(self):
        first = list(iter_fleet_faults(self.targets(), 4, self.rates(),
                                       0.0, DAY, seed=3))
        second = list(iter_fleet_faults(self.targets(), 4, self.rates(),
                                        0.0, DAY, seed=3))
        assert [(s.unit, f) for s, f in first] == [
            (s.unit, f) for s, f in second
        ]

    def test_seed_decorrelates_output(self):
        (shard,) = split_fleet(self.targets(8), 1)
        assert (shard_faults(shard, self.rates(), 0.0, DAY, seed=0)
                != shard_faults(shard, self.rates(), 0.0, DAY, seed=1))

    def test_shards_are_decorrelated(self):
        """Two shards with *identical* targets must not replay the same
        fault stream — the per-shard seed mixes the shard index."""
        same_targets = ("vm-000", "vm-001", "vm-002")
        from repro.telemetry.fleetgen import FleetShard
        first = FleetShard(index=0, unit="shard-0000",
                           targets=same_targets)
        second = FleetShard(index=1, unit="shard-0001",
                            targets=same_targets)
        assert (shard_faults(first, self.rates(), 0.0, DAY, seed=0)
                != shard_faults(second, self.rates(), 0.0, DAY, seed=0))

    def test_faults_stay_inside_shard_targets(self):
        for shard, faults in iter_fleet_faults(self.targets(), 4,
                                               self.rates(), 0.0, DAY):
            owned = set(shard.targets)
            assert all(fault.target in owned for fault in faults)

    def test_generator_yields_shards_in_order(self):
        units = [
            shard.unit
            for shard, _ in iter_fleet_faults(self.targets(), 6,
                                              self.rates(), 0.0, DAY)
        ]
        assert units == shard_units(6)


def make_incident(**overrides) -> InjectedIncident:
    spec = dict(
        incident_id="inc-a", kind=FaultKind.SLOW_IO,
        targets=("vm-000", "vm-001"), onset_day=2, duration_days=3,
        seconds_per_day=43200.0, dimension="cluster", value="c0",
    )
    spec.update(overrides)
    return InjectedIncident(**spec)


class TestInjectedIncident:
    def test_validation(self):
        with pytest.raises(ValueError, match="no targets"):
            make_incident(targets=())
        with pytest.raises(ValueError, match="onset_day"):
            make_incident(onset_day=-1)
        with pytest.raises(ValueError, match="duration_days"):
            make_incident(duration_days=0)
        with pytest.raises(ValueError, match="seconds_per_day"):
            make_incident(seconds_per_day=0.0)

    def test_active_window_is_half_open(self):
        incident = make_incident(onset_day=2, duration_days=3)
        assert not incident.active_on(1)
        assert incident.active_on(2)
        assert incident.active_on(4)
        assert not incident.active_on(5)

    def test_category_follows_fault_kind(self):
        assert (make_incident(kind=FaultKind.VM_DOWN).category.value
                == "unavailability")
        assert (make_incident(kind=FaultKind.SLOW_IO).category.value
                == "performance")

    def test_incident_faults_deterministic_and_excludable(self):
        incident = make_incident()
        faults = incident_faults(incident)
        assert [f.target for f in faults] == ["vm-000", "vm-001"]
        assert all(f.kind is FaultKind.SLOW_IO for f in faults)
        assert all(f.duration == 43200.0 for f in faults)
        remediated = incident_faults(incident, excluded={"vm-000"})
        assert [f.target for f in remediated] == ["vm-001"]


class TestLabeledDayFaults:
    def targets(self):
        return [f"vm-{i:03d}" for i in range(10)]

    def rates(self):
        return baseline_rates(scale=50.0)

    def day(self, day_index, **kwargs):
        return labeled_day_faults(self.targets(), self.rates(),
                                  day_index, seed=7, **kwargs)

    def test_background_days_are_deterministic_and_decorrelated(self):
        assert self.day(3) == self.day(3)
        assert self.day(3) != self.day(4)

    def test_background_faults_are_unlabeled(self):
        labeled = self.day(0)
        assert labeled
        assert all(lf.incident_id is None for lf in labeled)
        assert not any(lf.injected for lf in labeled)

    def test_incident_faults_carry_their_label(self):
        incident = make_incident(onset_day=2, duration_days=1)
        quiet = self.day(1, incidents=(incident,))
        assert all(lf.incident_id is None for lf in quiet)
        active = self.day(2, incidents=(incident,))
        injected = [lf for lf in active if lf.injected]
        assert {lf.incident_id for lf in injected} == {"inc-a"}
        assert sorted(lf.fault.target for lf in injected) == [
            "vm-000", "vm-001",
        ]

    def test_incident_does_not_perturb_background_draws(self):
        incident = make_incident(onset_day=2, duration_days=1)
        background = [lf for lf in self.day(2, incidents=(incident,))
                      if not lf.injected]
        assert background == self.day(2)

    def test_excluded_targets_skip_incident_not_background(self):
        incident = make_incident(onset_day=0, duration_days=5)
        labeled = self.day(0, incidents=(incident,),
                           excluded=frozenset({"vm-000"}))
        injected_targets = {lf.fault.target for lf in labeled
                           if lf.injected}
        assert injected_targets == {"vm-001"}
        background = [lf for lf in labeled if not lf.injected]
        assert background == self.day(0)
