"""Synthetic metric time series with fault overlays.

The Data Collector (paper Section II-B) gathers fine-grained metrics
such as ``read_latency`` and per-core power.  This module generates
realistic series — daily seasonality plus noise — and overlays the
effects of injected faults so the extractor's threshold and
statistical detectors have true signals to find.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.engine.retry import stable_hash
from repro.telemetry.faults import Fault, FaultKind

#: Metric name conventions used by the extractor's expert rules.
READ_LATENCY = "read_latency"          # ms, cloud-disk read latency
PACKET_LOSS_RATE = "packet_loss_rate"  # fraction in [0, 1]
CPU_STEAL = "cpu_steal"                # fraction of stolen vCPU time
CPU_POWER = "cpu_power"                # watts per socket
CPU_FREQ = "cpu_freq"                  # GHz
HEARTBEAT = "heartbeat"                # 1 alive / 0 silent


@dataclass(frozen=True, slots=True)
class MetricSample:
    """One collected sample."""

    time: float
    target: str
    metric: str
    value: float


@dataclass(frozen=True, slots=True)
class SeriesSpec:
    """Shape of a healthy metric series.

    ``base`` is the mean level, ``daily_amplitude`` the seasonal swing
    (peaks in the evening, matching the business-peak narrative of
    Case 2), ``noise_sigma`` the Gaussian jitter.
    """

    metric: str
    base: float
    daily_amplitude: float
    noise_sigma: float
    floor: float = 0.0


DEFAULT_SPECS: dict[str, SeriesSpec] = {
    READ_LATENCY: SeriesSpec(READ_LATENCY, base=2.0, daily_amplitude=0.5,
                             noise_sigma=0.2),
    PACKET_LOSS_RATE: SeriesSpec(PACKET_LOSS_RATE, base=1e-4,
                                 daily_amplitude=5e-5, noise_sigma=5e-5),
    CPU_STEAL: SeriesSpec(CPU_STEAL, base=0.01, daily_amplitude=0.005,
                          noise_sigma=0.005),
    CPU_POWER: SeriesSpec(CPU_POWER, base=180.0, daily_amplitude=40.0,
                          noise_sigma=5.0),
    CPU_FREQ: SeriesSpec(CPU_FREQ, base=2.7, daily_amplitude=0.05,
                         noise_sigma=0.02),
    HEARTBEAT: SeriesSpec(HEARTBEAT, base=1.0, daily_amplitude=0.0,
                          noise_sigma=0.0),
}

SECONDS_PER_DAY = 86400.0


def healthy_series(spec: SeriesSpec, times: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """Seasonal + noise series sampled at ``times`` (seconds)."""
    phase = 2.0 * np.pi * (times % SECONDS_PER_DAY) / SECONDS_PER_DAY
    # Evening peak: shift the sine so the max lands around 20:00.
    seasonal = spec.daily_amplitude * np.sin(phase - 2.0 * np.pi * 14 / 24)
    noise = rng.normal(0.0, spec.noise_sigma, size=times.shape)
    return np.maximum(spec.floor, spec.base + seasonal + noise)


def _fault_mask(fault: Fault, times: np.ndarray) -> np.ndarray:
    return (times >= fault.start) & (times < max(fault.end, fault.start + 1e-9))


def apply_fault(values: np.ndarray, times: np.ndarray, fault: Fault,
                metric: str) -> np.ndarray:
    """Overlay one fault's effect on a healthy series (pure)."""
    out = values.copy()
    mask = _fault_mask(fault, times)
    if not mask.any():
        return out
    if metric == READ_LATENCY and fault.kind in (
        FaultKind.SLOW_IO, FaultKind.NIC_FLAPPING
    ):
        out[mask] = out[mask] * fault.params.get("latency_factor", 20.0)
    elif metric == PACKET_LOSS_RATE and fault.kind in (
        FaultKind.PACKET_LOSS, FaultKind.NIC_FLAPPING
    ):
        out[mask] = np.maximum(out[mask], fault.params.get("loss_rate", 0.05))
    elif metric == CPU_STEAL and fault.kind in (
        FaultKind.VCPU_CONTENTION, FaultKind.ALLOCATION_BUG
    ):
        out[mask] = np.maximum(out[mask], fault.params.get("steal", 0.30))
    elif metric == CPU_POWER and fault.kind is FaultKind.POWER_SENSOR_ZERO:
        out[mask] = 0.0
    elif metric == CPU_FREQ and fault.kind is FaultKind.CPU_FREQ_CAPPED:
        out[mask] = out[mask] * fault.params.get("freq_factor", 0.6)
    elif metric == HEARTBEAT and fault.kind in (
        FaultKind.VM_DOWN, FaultKind.VM_HANG, FaultKind.NC_DOWN
    ):
        out[mask] = 0.0
    return out


class MetricGenerator:
    """Renders per-target metric streams with fault overlays."""

    def __init__(self, seed: int = 0,
                 specs: dict[str, SeriesSpec] | None = None) -> None:
        self._seed = seed
        self._specs = dict(specs or DEFAULT_SPECS)

    def sample_times(self, start: float, end: float,
                     interval: float = 60.0) -> np.ndarray:
        """Regular sampling grid over ``[start, end)``."""
        if end <= start:
            raise ValueError(f"window reversed: [{start}, {end})")
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        return np.arange(start, end, interval)

    def series_for(self, target: str, metric: str, times: np.ndarray,
                   faults: Sequence[Fault] = ()) -> np.ndarray:
        """Full series of one metric on one target, faults applied."""
        spec = self._specs[metric]
        # Per-(target, metric) substream so regeneration is stable and
        # targets are independent.
        rng = np.random.default_rng(
            stable_hash((self._seed, target, metric)) % (2**32)
        )
        values = healthy_series(spec, times, rng)
        for fault in faults:
            if fault.target == target:
                values = apply_fault(values, times, fault, metric)
        return values

    def emit(self, targets: Iterable[str], metrics: Iterable[str],
             start: float, end: float, interval: float = 60.0,
             faults: Sequence[Fault] = ()) -> list[MetricSample]:
        """Materialize samples for the cross product of targets x metrics."""
        times = self.sample_times(start, end, interval)
        metric_list = list(metrics)
        samples: list[MetricSample] = []
        for target in targets:
            for metric in metric_list:
                values = self.series_for(target, metric, times, faults)
                samples.extend(
                    MetricSample(time=float(t), target=target, metric=metric,
                                 value=float(v))
                    for t, v in zip(times, values)
                )
        return samples
