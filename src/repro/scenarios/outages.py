"""Outage-shaped scenario family for the AIR-vs-CDI faceoff.

BSODiag-style correlated outages: each scenario concentrates one
incident shape on a spatially contiguous slice of the fleet topology
(a cluster, or a batch of NCs inside one cluster), rides on a seeded
background fault mix, and records the injected ground truth a
root-cause localizer is scored against — the same labeled-generation
machinery as :mod:`repro.control.scenario`, aimed at KPI comparison
instead of closed-loop control.

The family deliberately spans the shapes where a frequency KPI
(:mod:`repro.analytics.air`) and a duration-×-severity KPI (CDI)
agree and disagree:

* ``quiet`` — background only; both KPIs must stay flat.
* ``hard-downtime`` — one cluster down six hours; both KPIs spike.
* ``nc-batch-outage`` — two of one cluster's three NCs flap through
  repeated crash/recover cycles (the BSODiag batch-outage shape);
  both KPIs spike, and localization must land on the *cluster*, the
  spatial envelope of the correlated NC failures.
* ``performance-degradation`` — one cluster's cloud disks slow down;
  AIR counts nothing (no unavailability occurred), CDI's performance
  sub-metric spikes.
* ``control-plane-outage`` — one cluster's control API fails; AIR
  counts nothing, CDI's control-plane sub-metric spikes.
* ``brief-but-wide`` — two clusters take many ~2-second interruptions
  (pulsed incidents); AIR explodes while the summed downtime is too
  small to move CDI's unavailability sub-metric.

Every scenario is a pure function of its seed; the faceoff study
(:mod:`repro.scenarios.faceoff`) replays the family through the real
daily CDI job and serializes byte-identically across reruns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry.faults import FaultKind, FaultRate
from repro.telemetry.fleetgen import InjectedIncident
from repro.telemetry.topology import Fleet, build_fleet

#: Days before the incident day — the KPI baseline and RCA trailing
#: window.  The incident fires on day ``BASELINE_DAYS`` (the run's
#: last day).
BASELINE_DAYS = 7

#: Hours of damage the sustained incidents inflict per VM on the
#: incident day (six hours).
_SUSTAINED_SECONDS = 21600.0


@dataclass(frozen=True, slots=True)
class OutageScenario:
    """One deterministic outage-family member.

    ``expect_air`` / ``expect_cdi`` record the *designed* KPI verdicts
    (does AIR flag? does any CDI sub-metric flag?) and ``rca_scored``
    whether the scenario carries a localizable spatial ground truth —
    the faceoff study asserts its measurements against these
    expectations, and the CI gate pins them.
    """

    name: str
    seed: int
    fleet: Fleet
    rates: tuple[FaultRate, ...]
    incidents: tuple[InjectedIncident, ...]
    description: str
    expect_air: bool
    expect_cdi: bool
    rca_scored: bool
    days: int = BASELINE_DAYS + 1
    day_seconds: float = 86400.0

    def __post_init__(self) -> None:
        if self.days < 2:
            raise ValueError(f"days must be >= 2, got {self.days}")
        if self.day_seconds <= 0:
            raise ValueError(
                f"day_seconds must be > 0, got {self.day_seconds}"
            )
        for incident in self.incidents:
            if not incident.active_on(self.days - 1):
                raise ValueError(
                    f"incident {incident.incident_id} misses the "
                    f"incident day {self.days - 1}"
                )
            unknown = [t for t in incident.targets
                       if t not in self.fleet.vms]
            if unknown:
                raise ValueError(
                    f"incident {incident.incident_id} targets unknown "
                    f"VMs: {unknown[:3]}"
                )

    @property
    def vm_ids(self) -> list[str]:
        """All fleet VM ids, sorted (the canonical iteration order)."""
        return sorted(self.fleet.vms)


def _outage_fleet(seed: int) -> Fleet:
    """The family fleet: 2 regions × 2 clusters × 3 NCs × 3 VMs.

    36 VMs across 4 clusters of 9.  Three NCs per cluster make the
    batch-outage shape non-trivial (two of three NCs fail, so the NC
    dimension needs two values where the cluster dimension needs one);
    a single machine model keeps that dimension uninformative so every
    cluster-concentrated incident has exactly one correct localization.
    """
    return build_fleet(
        seed=seed, regions=2, azs_per_region=1, clusters_per_az=2,
        ncs_per_cluster=3, vms_per_nc=3, machine_models=("M1",),
    )


def _background_rates() -> tuple[FaultRate, ...]:
    """Background mix tuned for KPI contrast.

    Unavailability rates sit lower than the control-loop mix so a
    nine-VM hard outage (nine new interruptions) clears a 3× AIR
    baseline ratio — with the control mix's ~7 background
    interruptions/day the *occurrence count* of a six-hour outage
    would drown in background, which is itself a preview of AIR's
    insensitivity.  Performance and control-plane rates keep those
    curves alive for the CDI baselines.
    """
    return (
        FaultRate(FaultKind.VM_DOWN, 0.05, 120.0, 0.2),
        FaultRate(FaultKind.VM_HANG, 0.03, 100.0, 0.2),
        FaultRate(FaultKind.SLOW_IO, 0.40, 110.0, 0.2),
        FaultRate(FaultKind.PACKET_LOSS, 0.30, 90.0, 0.2),
        FaultRate(FaultKind.CONTROL_API_OUTAGE, 0.15, 100.0, 0.2),
        FaultRate(FaultKind.CONSOLE_OUTAGE, 0.10, 80.0, 0.2),
    )


def _cluster_vms(fleet: Fleet, cluster_id: str) -> tuple[str, ...]:
    """Sorted VM ids placed in one cluster."""
    return tuple(sorted(
        vm_id for vm_id in fleet.vms
        if fleet.cluster_of(vm_id).cluster_id == cluster_id
    ))


def _nc_batch_vms(fleet: Fleet, cluster_id: str,
                  ncs: int) -> tuple[str, ...]:
    """Sorted VM ids on the first ``ncs`` NCs of one cluster."""
    by_nc: dict[str, list[str]] = {}
    for vm_id in _cluster_vms(fleet, cluster_id):
        by_nc.setdefault(fleet.vms[vm_id].nc_id, []).append(vm_id)
    batch = sorted(by_nc)[:ncs]
    return tuple(vm for nc in batch for vm in sorted(by_nc[nc]))


def outage_family(seed: int = 0) -> tuple[OutageScenario, ...]:
    """The six-member outage family for one seed.

    Each member is an independent 8-day run (7 baseline days, incident
    on day 7) over the same fleet layout and background mix; only the
    injected incident differs.  See the module docstring for the
    shapes and the expected KPI verdicts.
    """
    fleet = _outage_fleet(seed)
    rates = _background_rates()
    clusters = sorted(fleet.clusters)
    day = BASELINE_DAYS

    def scenario(name: str, incidents: tuple[InjectedIncident, ...],
                 description: str, *, expect_air: bool, expect_cdi: bool,
                 rca_scored: bool) -> OutageScenario:
        return OutageScenario(
            name=name, seed=seed, fleet=fleet, rates=rates,
            incidents=incidents, description=description,
            expect_air=expect_air, expect_cdi=expect_cdi,
            rca_scored=rca_scored,
        )

    return (
        scenario(
            "quiet", (),
            "Background faults only — the null member both KPIs must "
            "stay quiet on.",
            expect_air=False, expect_cdi=False, rca_scored=False,
        ),
        scenario(
            "hard-downtime",
            (InjectedIncident(
                incident_id="out-hard", kind=FaultKind.VM_DOWN,
                targets=_cluster_vms(fleet, clusters[0]),
                onset_day=day, duration_days=1,
                seconds_per_day=_SUSTAINED_SECONDS,
                dimension="cluster", value=clusters[0],
            ),),
            "One cluster's nine VMs crash for six hours — the classic "
            "outage both KPIs agree on.",
            expect_air=True, expect_cdi=True, rca_scored=True,
        ),
        scenario(
            "nc-batch-outage",
            (InjectedIncident(
                incident_id="out-batch", kind=FaultKind.NC_DOWN,
                targets=_nc_batch_vms(fleet, clusters[1], 2),
                onset_day=day, duration_days=1,
                seconds_per_day=_SUSTAINED_SECONDS,
                dimension="cluster", value=clusters[1],
                pulses=3, pulse_interval=10800.0,
            ),),
            "Two of one cluster's three NCs flap through three "
            "crash/recover cycles (BSODiag batch-outage shape); "
            "localization must name the cluster, the spatial envelope "
            "of the correlated NC failures.",
            expect_air=True, expect_cdi=True, rca_scored=True,
        ),
        scenario(
            "performance-degradation",
            (InjectedIncident(
                incident_id="out-perf", kind=FaultKind.SLOW_IO,
                targets=_cluster_vms(fleet, clusters[2]),
                onset_day=day, duration_days=1,
                seconds_per_day=_SUSTAINED_SECONDS,
                dimension="cluster", value=clusters[2],
            ),),
            "One cluster's cloud disks run six hours over the latency "
            "threshold — zero interruptions, so AIR is blind while "
            "CDI's performance sub-metric spikes.",
            expect_air=False, expect_cdi=True, rca_scored=True,
        ),
        scenario(
            "control-plane-outage",
            (InjectedIncident(
                incident_id="out-control",
                kind=FaultKind.CONTROL_API_OUTAGE,
                targets=_cluster_vms(fleet, clusters[3]),
                onset_day=day, duration_days=1,
                seconds_per_day=_SUSTAINED_SECONDS,
                dimension="cluster", value=clusters[3],
            ),),
            "One cluster's control API fails for six hours — running "
            "VMs keep serving, so AIR is blind while CDI's "
            "control-plane sub-metric spikes.",
            expect_air=False, expect_cdi=True, rca_scored=True,
        ),
        scenario(
            "brief-but-wide",
            tuple(
                InjectedIncident(
                    incident_id=f"out-wide-{i}", kind=FaultKind.VM_DOWN,
                    targets=_cluster_vms(fleet, cluster_id),
                    onset_day=day, duration_days=1,
                    seconds_per_day=24.0, pulses=12,
                    pulse_interval=600.0,
                    dimension="cluster", value=cluster_id,
                )
                for i, cluster_id in enumerate(clusters[:2])
            ),
            "Two clusters take twelve two-second interruptions each "
            "(216 occurrences, 24 s total downtime per VM) — AIR "
            "explodes while CDI's unavailability sub-metric barely "
            "moves: frequency without damage.",
            expect_air=True, expect_cdi=False, rca_scored=False,
        ),
    )


def family_names(seed: int = 0) -> list[str]:
    """Scenario names of the family, in artifact order."""
    return [s.name for s in outage_family(seed)]
