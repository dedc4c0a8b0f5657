"""Fig. 8 / Case 5 scenario: homogeneous vs hybrid deployment.

The architectural transition of Case 5: dedicated and shared VMs move
from separate physical pools (homogeneous) onto shared hosts (hybrid).
An incompatibility between the hybrid architecture and certain
virtualization components *on one machine model* causes CPU contention
when core allocation ranges overlap (Fig. 7d).  The Performance
Indicators of both arms track until **day 13**, when the buggy model's
contention kicks in and the hybrid curve climbs; rollback starts
around day 21 and the curves converge again by **day 28**.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.events import default_catalog
from repro.engine.retry import stable_hash
from repro.scenarios.common import (
    default_weights,
    fleet_cdi,
    full_day_services,
    periods_by_vm,
)
from repro.telemetry.faults import (
    Fault,
    FaultInjector,
    FaultKind,
    FaultRate,
    baseline_rates,
)
from repro.telemetry.topology import DeploymentArch, build_fleet

DAY = 86400.0

#: The machine model whose virtualization stack is incompatible with
#: hybrid deployment (Case 5).
BUGGY_MODEL = "M2"


@dataclass(frozen=True, slots=True)
class ArchitectureDay:
    """Performance Indicators of both arms on one day."""

    day: int
    homogeneous: float
    hybrid: float


def simulate_architecture_comparison(
    *, days: int = 28, bug_onset: int = 13, rollback_start: int = 21,
    vms_per_arm: int = 128, seed: int = 0,
) -> list[ArchitectureDay]:
    """Daily Performance Indicator per arm over the transition window."""
    if not 0 < bug_onset <= rollback_start <= days:
        raise ValueError(
            f"need 0 < bug_onset <= rollback_start <= days, got "
            f"{bug_onset}/{rollback_start}/{days}"
        )
    homogeneous = build_fleet(
        seed=seed, regions=1, azs_per_region=1, clusters_per_az=2,
        ncs_per_cluster=8, vms_per_nc=max(1, vms_per_arm // 16),
        arch=DeploymentArch.HOMOGENEOUS,
    )
    hybrid = build_fleet(
        seed=seed + 1, regions=1, azs_per_region=1, clusters_per_az=2,
        ncs_per_cluster=8, vms_per_nc=max(1, vms_per_arm // 16),
        arch=DeploymentArch.HYBRID,
    )
    catalog = default_catalog()
    weights = default_weights()
    # Performance-only background so the comparison isolates CDI-P.
    background = [
        r for r in baseline_rates(scale=4.0)
        if r.kind in (FaultKind.SLOW_IO, FaultKind.PACKET_LOSS,
                      FaultKind.VCPU_CONTENTION)
    ]
    buggy_vms = sorted(
        vm_id for vm_id, vm in hybrid.vms.items()
        if hybrid.ncs[vm.nc_id].machine_model == BUGGY_MODEL
    )

    curve: list[ArchitectureDay] = []
    for day in range(1, days + 1):
        day_seed = seed * 10_000 + day
        values = {}
        for arm_name, fleet in (("homogeneous", homogeneous),
                                ("hybrid", hybrid)):
            vm_ids = sorted(fleet.vms)
            injector = FaultInjector(
                background, seed=day_seed + stable_hash(arm_name) % 97
            )
            faults = injector.sample(vm_ids, 0.0, DAY)
            if arm_name == "hybrid":
                faults += _contention_faults(
                    buggy_vms, day, bug_onset, rollback_start, days,
                    day_seed,
                )
            vm_periods = periods_by_vm(faults, catalog)
            report = fleet_cdi(vm_periods, full_day_services(vm_ids),
                               catalog=catalog, weights=weights)
            values[arm_name] = report.performance
        curve.append(ArchitectureDay(day=day,
                                     homogeneous=values["homogeneous"],
                                     hybrid=values["hybrid"]))
    return curve


def _contention_faults(buggy_vms: list[str], day: int, bug_onset: int,
                       rollback_start: int, days: int,
                       seed: int) -> list[Fault]:
    """Extra vCPU-contention faults on the incompatible model.

    Severity ramps up from onset, then decays during the staged
    rollback until the curves converge.
    """
    if day < bug_onset:
        return []
    if day < rollback_start:
        ramp = min(1.0, (day - bug_onset + 1) / 3.0)
    else:
        # Staged rollback: contention decays and is fully gone two days
        # before the end, so the curves have converged by the last day
        # (the paper's Day 28).
        converge_day = days - 1
        if day >= converge_day:
            return []
        span = max(1, converge_day - rollback_start)
        ramp = 0.6 * (converge_day - day) / span
    if ramp <= 0.0:
        return []
    rate = FaultRate(FaultKind.VCPU_CONTENTION, 8.0 * ramp, 1800.0)
    injector = FaultInjector([rate], seed=seed)
    return injector.sample(buggy_vms, 0.0, DAY)


def divergence_ratio(curve: list[ArchitectureDay],
                     day_range: tuple[int, int]) -> float:
    """Mean hybrid/homogeneous Performance Indicator ratio over days."""
    lo, hi = day_range
    selected = [d for d in curve if lo <= d.day <= hi]
    if not selected:
        raise ValueError(f"no days in range {day_range}")
    ratios = [
        d.hybrid / d.homogeneous if d.homogeneous > 0 else float("inf")
        for d in selected
    ]
    return sum(ratios) / len(ratios)
