"""Tests for the outage family and the AIR-vs-CDI faceoff study.

The family is deterministic per seed, so the tests pin hard facts:
scenario shapes, per-seed KPI verdicts, RCA localization accuracy,
and byte-identical serialization across reruns.
"""

import pytest

from repro.scenarios.faceoff import (
    FLAG_RATIO,
    faceoff_json,
    run_faceoff,
)
from repro.scenarios.outages import (
    BASELINE_DAYS,
    OutageScenario,
    family_names,
    outage_family,
)
from repro.telemetry.faults import FaultKind
from repro.telemetry.fleetgen import InjectedIncident, incident_faults


@pytest.fixture(scope="module")
def faceoff_seed0():
    return run_faceoff(0)


class TestFamilyShape:
    def test_member_names_and_order(self):
        assert family_names() == [
            "quiet", "hard-downtime", "nc-batch-outage",
            "performance-degradation", "control-plane-outage",
            "brief-but-wide",
        ]

    def test_deterministic_per_seed(self):
        a, b = outage_family(7), outage_family(7)
        assert [s.name for s in a] == [s.name for s in b]
        for x, y in zip(a, b):
            assert x.incidents == y.incidents
            assert x.vm_ids == y.vm_ids

    def test_fleet_layout(self):
        family = outage_family(0)
        assert len(family[0].vm_ids) == 36
        assert len(family[0].fleet.clusters) == 4

    def test_incidents_cluster_concentrated(self):
        for scenario in outage_family(0):
            for incident in scenario.incidents:
                assert incident.dimension == "cluster"
                cluster_of = scenario.fleet.cluster_of
                assert {cluster_of(vm).cluster_id
                        for vm in incident.targets} == {incident.value}

    def test_incident_misses_last_day_rejected(self):
        scenario = outage_family(0)[1]
        early = InjectedIncident(
            incident_id="early", kind=FaultKind.VM_DOWN,
            targets=scenario.incidents[0].targets,
            onset_day=0, duration_days=1, seconds_per_day=100.0,
        )
        with pytest.raises(ValueError):
            OutageScenario(
                name="bad", seed=0, fleet=scenario.fleet,
                rates=scenario.rates, incidents=(early,),
                description="", expect_air=True, expect_cdi=True,
                rca_scored=False,
            )


class TestPulsedIncidents:
    def test_pulse_fault_layout(self):
        incident = InjectedIncident(
            incident_id="p", kind=FaultKind.VM_DOWN, targets=("vm0",),
            onset_day=0, duration_days=1, seconds_per_day=24.0,
            pulses=12, pulse_interval=600.0,
        )
        faults = incident_faults(incident)
        assert len(faults) == 12
        assert all(f.duration == pytest.approx(2.0) for f in faults)
        assert [f.start for f in faults] == [600.0 * i for i in range(12)]
        # Total injected duration is independent of the pulse count.
        assert sum(f.duration for f in faults) == pytest.approx(24.0)

    def test_single_pulse_unchanged(self):
        incident = InjectedIncident(
            incident_id="s", kind=FaultKind.VM_DOWN, targets=("vm0",),
            onset_day=0, duration_days=1, seconds_per_day=300.0,
        )
        (fault,) = incident_faults(incident)
        assert fault.start == 0.0
        assert fault.duration == 300.0

    def test_overlapping_pulses_rejected(self):
        with pytest.raises(ValueError):
            InjectedIncident(
                incident_id="bad", kind=FaultKind.VM_DOWN,
                targets=("vm0",), onset_day=0, duration_days=1,
                seconds_per_day=1200.0, pulses=2, pulse_interval=300.0,
            )

    def test_zero_pulses_rejected(self):
        with pytest.raises(ValueError):
            InjectedIncident(
                incident_id="bad", kind=FaultKind.VM_DOWN,
                targets=("vm0",), onset_day=0, duration_days=1,
                seconds_per_day=100.0, pulses=0,
            )


class TestFaceoffSeed0:
    def test_every_scenario_matches_designed_verdict(self, faceoff_seed0):
        verdicts = {r["name"]: r["verdict"]
                    for r in faceoff_seed0["scenarios"]}
        assert verdicts == {
            "quiet": "both_quiet",
            "hard-downtime": "both_flag",
            "nc-batch-outage": "both_flag",
            "performance-degradation": "air_blind",
            "control-plane-outage": "air_blind",
            "brief-but-wide": "cdi_blind",
        }
        assert faceoff_seed0["summary"]["expectations_met"] is True

    def test_air_blind_divergence_present(self, faceoff_seed0):
        # The paper's thesis, quantified: at least one scenario where
        # AIR calls the fleet fine while CDI flags damage.
        assert faceoff_seed0["summary"]["air_blind_scenarios"]

    def test_rca_accuracy_pinned(self, faceoff_seed0):
        rca = faceoff_seed0["summary"]["rca"]
        assert rca["scored"] == 4
        assert rca["correct"] == 4
        assert rca["accuracy"] == 1.0

    def test_nc_batch_localizes_at_cluster(self, faceoff_seed0):
        record = next(r for r in faceoff_seed0["scenarios"]
                      if r["name"] == "nc-batch-outage")
        # Correlated failure of two NCs must localize at their shared
        # cluster (one value), not the two-value NC set.
        assert record["rca"]["dimension"] == "cluster"
        assert record["rca"]["values"] == record["rca"]["truth_values"]
        assert record["rca"]["correct"] is True

    def test_brief_but_wide_air_explodes_cdi_flat(self, faceoff_seed0):
        record = next(r for r in faceoff_seed0["scenarios"]
                      if r["name"] == "brief-but-wide")
        assert record["kpis"]["air"]["ratio"] > 10 * FLAG_RATIO
        assert record["kpis"]["cdi_unavailability"]["ratio"] < FLAG_RATIO

    def test_days_and_baseline_shape(self, faceoff_seed0):
        assert faceoff_seed0["days"] == BASELINE_DAYS + 1
        for record in faceoff_seed0["scenarios"]:
            assert len(record["kpis"]["air"]["daily"]) == BASELINE_DAYS + 1


class TestFaceoffDeterminism:
    def test_rerun_byte_identical(self, faceoff_seed0):
        assert faceoff_json(run_faceoff(0)) == faceoff_json(faceoff_seed0)
