"""Shared helpers for experiment scenarios.

Scenarios need to go from injected faults to CDI quickly at fleet
scale.  Rendering every fault through raw telemetry and the extractor
is realistic but expensive; since the extractor-recovery path is
validated end-to-end elsewhere (integration tests, the NIC example),
fleet-scale scenarios use the direct fault → event-period shortcut
here.  The shortcut preserves what the experiments measure: event
periods, weights, and the resulting CDI curves.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.core.events import EventCatalog, default_catalog
from repro.core.indicator import (
    CdiCalculator,
    CdiReport,
    ServicePeriod,
    aggregate_reports,
)
from repro.core.periods import EventPeriod
from repro.core.weights import WeightConfig, build_weight_config
from repro.telemetry.faults import Fault, FaultKind

#: Event name emitted by each fault kind (the extractor's output
#: vocabulary for that fault).
FAULT_EVENT_NAME: Mapping[FaultKind, str] = {
    FaultKind.VM_DOWN: "vm_down",
    FaultKind.VM_HANG: "vm_hang",
    FaultKind.NC_DOWN: "nc_down",
    FaultKind.DDOS_BLACKHOLE: "ddos_blackhole",
    FaultKind.SLOW_IO: "slow_io",
    FaultKind.PACKET_LOSS: "packet_loss",
    FaultKind.VCPU_CONTENTION: "vcpu_high",
    FaultKind.NIC_FLAPPING: "nic_flapping",
    FaultKind.GPU_DROP: "gpu_drop",
    FaultKind.CPU_FREQ_CAPPED: "cpu_freq_capped",
    FaultKind.ALLOCATION_BUG: "vm_allocation_failed",
    FaultKind.POWER_SENSOR_ZERO: "inspect_cpu_power_tdp",
    FaultKind.CONTROL_API_OUTAGE: "api_error",
    FaultKind.CONSOLE_OUTAGE: "console_unreachable",
}


def fault_to_period(fault: Fault,
                    catalog: EventCatalog) -> EventPeriod:
    """The event period a fault would be extracted as."""
    name = FAULT_EVENT_NAME[fault.kind]
    spec = catalog.get(name)
    return EventPeriod(
        name=name, target=fault.target,
        start=fault.start, end=fault.end,
        level=spec.default_level,
    )


def periods_by_vm(faults: Iterable[Fault],
                  catalog: EventCatalog) -> dict[str, list[EventPeriod]]:
    """Group fault-derived event periods per target VM."""
    result: dict[str, list[EventPeriod]] = {}
    for fault in faults:
        period = fault_to_period(fault, catalog)
        result.setdefault(period.target, []).append(period)
    return result


def default_weights(seed_ticket_counts: Mapping[str, int] | None = None
                    ) -> WeightConfig:
    """A weight configuration with plausible ticket-derived levels."""
    counts = dict(seed_ticket_counts or {
        "slow_io": 420, "packet_loss": 160, "vcpu_high": 310,
        "nic_flapping": 90, "gpu_drop": 380, "cpu_freq_capped": 60,
        "vm_allocation_failed": 240, "inspect_cpu_power_tdp": 30,
        "api_error": 350, "console_unreachable": 200,
        "vm_start_failed": 280, "vm_stop_failed": 120,
        "vm_resize_failed": 70, "vm_release_failed": 50,
        "monitoring_lost": 40,
    })
    return build_weight_config(counts, customer_levels=4)


def fleet_cdi(vm_periods: Mapping[str, Sequence[EventPeriod]],
              services: Mapping[str, ServicePeriod],
              *, catalog: EventCatalog | None = None,
              weights: WeightConfig | None = None) -> CdiReport:
    """Fleet CDI report from per-VM periods and service windows.

    VMs present in ``services`` but absent from ``vm_periods``
    contribute zero-damage service time (Formula 4 dilution).
    """
    catalog = catalog or default_catalog()
    weights = weights or default_weights()
    calculator = CdiCalculator(catalog, weights)
    reports = []
    for vm, service in services.items():
        periods = vm_periods.get(vm, [])
        reports.append(calculator.vm_report(periods, service))
    return aggregate_reports(reports)


def full_day_services(vm_ids: Iterable[str],
                      day_seconds: float = 86400.0
                      ) -> dict[str, ServicePeriod]:
    """Every VM in service for one whole day starting at t = 0."""
    return {vm: ServicePeriod(0.0, day_seconds) for vm in vm_ids}
