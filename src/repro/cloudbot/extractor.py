"""Event Extractor: multi-modal raw data → unified events (Section II-C).

Three extraction families, mirroring the paper:

* **Expert rules** — threshold rules on metrics and regex rules on
  logs, manually formulated with high precision (the Fig. 1
  ``read_latency`` spike → ``slow_io`` and ``eth0 NIC Link is Down`` →
  ``nic_flapping`` transitions);
* **Statistic-based** — BacktrackSTL residuals fed into EVT (SPOT) to
  flag anomalies in metric series without a hand-set threshold;
* **Learned** — any model exposing ``predict_events`` (see
  :mod:`repro.cloudbot.predictor`) can be plugged in for hard problems
  like failure prediction.

Extraction is the complexity-reduction step: hundreds of TB of raw
data become GBs of interpretable events.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from repro.analytics.evt import Spot
from repro.analytics.stl import BacktrackStl
from repro.core.events import Event, Severity
from repro.telemetry.logs import LogLine
from repro.telemetry.metrics import MetricSample


@dataclass(frozen=True, slots=True)
class MetricThresholdRule:
    """Expert rule: emit an event when a metric crosses a threshold.

    ``direction`` is ``"above"`` or ``"below"``.  ``level_by_value``
    optionally maps sample values to severities — the paper notes that
    events with identical names may carry different levels depending on
    target conditions (Table II).
    """

    metric: str
    threshold: float
    event_name: str
    direction: str = "above"
    level: Severity = Severity.CRITICAL
    expire_interval: float = 600.0
    level_by_value: Callable[[float], Severity] | None = None

    def __post_init__(self) -> None:
        if self.direction not in ("above", "below"):
            raise ValueError(f"direction must be above/below, got {self.direction}")

    def triggered(self, value: float) -> bool:
        """Whether a sample value crosses the threshold."""
        if self.direction == "above":
            return value > self.threshold
        return value < self.threshold

    def extract(self, sample: MetricSample) -> Event | None:
        """Event for one sample, or ``None``."""
        if sample.metric != self.metric or not self.triggered(sample.value):
            return None
        level = self.level
        if self.level_by_value is not None:
            level = self.level_by_value(sample.value)
        return Event(
            name=self.event_name, time=sample.time, target=sample.target,
            expire_interval=self.expire_interval, level=level,
            attributes={"metric": self.metric, "value": sample.value},
        )


@dataclass(frozen=True, slots=True)
class LogRegexRule:
    """Expert rule: regex on a log line → event (Fig. 1)."""

    pattern: str
    event_name: str
    level: Severity = Severity.CRITICAL
    expire_interval: float = 600.0
    _compiled: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_compiled", re.compile(self.pattern))

    def extract(self, line: LogLine) -> Event | None:
        """Event for one log line, or ``None`` when it doesn't match."""
        if self._compiled.search(line.line) is None:
            return None
        return Event(
            name=self.event_name, time=line.time, target=line.target,
            expire_interval=self.expire_interval, level=self.level,
            attributes={"log": line.line},
        )


class StatisticalMetricExtractor:
    """STL + EVT anomaly extraction on one metric (Section II-C).

    The series is decomposed with :class:`BacktrackStl`; residuals from
    a calibration prefix fit a SPOT detector whose alerts become
    events.  This catches anomalies an expert threshold would miss
    (e.g. a latency regime change below the hard threshold).
    """

    def __init__(self, metric: str, event_name: str, *, period: int,
                 calibration: int = 200, q: float = 1e-4,
                 level: Severity = Severity.WARNING,
                 expire_interval: float = 600.0) -> None:
        if calibration < 10:
            raise ValueError("calibration must be >= 10 samples")
        self.metric = metric
        self.event_name = event_name
        self._period = period
        self._calibration = calibration
        self._q = q
        self._level = level
        self._expire_interval = expire_interval

    def extract_series(self, target: str, times: Sequence[float],
                       values: Sequence[float]) -> list[Event]:
        """Events for one target's full series of this metric."""
        if len(times) != len(values):
            raise ValueError("times and values must have equal length")
        if len(values) <= self._calibration:
            return []
        stl = BacktrackStl(period=self._period)
        residuals = stl.decompose(np.asarray(values, dtype=float)).residual
        head = np.abs(residuals[: self._calibration])
        if np.ptp(head) == 0.0:
            return []
        spot = Spot(q=self._q, level=0.98).fit(head)
        events: list[Event] = []
        for index in range(self._calibration, len(values)):
            alert = spot.step(float(abs(residuals[index])), index)
            if alert is not None:
                events.append(
                    Event(
                        name=self.event_name, time=float(times[index]),
                        target=target, expire_interval=self._expire_interval,
                        level=self._level,
                        attributes={"metric": self.metric,
                                    "residual": float(residuals[index])},
                    )
                )
        return events


class LearnedExtractor(Protocol):
    """Anything that can turn collected data into predicted events."""

    def predict_events(self, samples: Sequence[MetricSample]) -> list[Event]:
        """Predicted events from a window of metric samples."""
        ...


class EventExtractor:
    """The full extractor: expert + statistical + learned sources."""

    def __init__(self, *,
                 metric_rules: Sequence[MetricThresholdRule] = (),
                 log_rules: Sequence[LogRegexRule] = (),
                 statistical: Sequence[StatisticalMetricExtractor] = (),
                 learned: Sequence[LearnedExtractor] = ()) -> None:
        self._metric_rules = tuple(metric_rules)
        self._log_rules = tuple(log_rules)
        self._statistical = tuple(statistical)
        self._learned = tuple(learned)

    def extract_from_metrics(self, samples: Iterable[MetricSample]) -> list[Event]:
        """Expert threshold events from metric samples."""
        events = []
        for sample in samples:
            for rule in self._metric_rules:
                event = rule.extract(sample)
                if event is not None:
                    events.append(event)
        return events

    def extract_from_logs(self, lines: Iterable[LogLine]) -> list[Event]:
        """Expert regex events from log lines; non-matching lines drop."""
        events = []
        for line in lines:
            for rule in self._log_rules:
                event = rule.extract(line)
                if event is not None:
                    events.append(event)
        return events

    def extract_statistical(
        self, samples: Sequence[MetricSample]
    ) -> list[Event]:
        """Statistical (STL+EVT) events, grouped per target/metric."""
        grouped: dict[tuple[str, str], list[MetricSample]] = {}
        for sample in samples:
            grouped.setdefault((sample.target, sample.metric), []).append(sample)
        events: list[Event] = []
        for extractor in self._statistical:
            for (target, metric), group in grouped.items():
                if metric != extractor.metric:
                    continue
                group.sort(key=lambda s: s.time)
                events.extend(
                    extractor.extract_series(
                        target,
                        [s.time for s in group],
                        [s.value for s in group],
                    )
                )
        return events

    def extract_learned(self, samples: Sequence[MetricSample]) -> list[Event]:
        """Events predicted by learned models."""
        events = []
        for model in self._learned:
            events.extend(model.predict_events(samples))
        return events

    def extract_all(self, *, metrics: Sequence[MetricSample] = (),
                    logs: Sequence[LogLine] = ()) -> list[Event]:
        """Run every extraction family and return all events, sorted."""
        events = (
            self.extract_from_metrics(metrics)
            + self.extract_from_logs(logs)
            + self.extract_statistical(metrics)
            + self.extract_learned(metrics)
        )
        events.sort(key=lambda e: (e.time, e.target, e.name))
        return events


def default_metric_rules() -> list[MetricThresholdRule]:
    """The expert metric rules used throughout the examples.

    Thresholds sit well above the healthy ranges of
    :data:`repro.telemetry.metrics.DEFAULT_SPECS`.
    """
    from repro.telemetry import metrics as m

    def latency_level(value: float) -> Severity:
        return Severity.FATAL if value > 100.0 else Severity.CRITICAL

    return [
        MetricThresholdRule(m.READ_LATENCY, 10.0, "slow_io",
                            level_by_value=latency_level),
        MetricThresholdRule(m.PACKET_LOSS_RATE, 0.01, "packet_loss",
                            level=Severity.WARNING),
        MetricThresholdRule(m.CPU_STEAL, 0.10, "vcpu_high"),
        MetricThresholdRule(m.HEARTBEAT, 0.5, "vm_down",
                            direction="below", level=Severity.FATAL),
        MetricThresholdRule(m.CPU_FREQ, 2.0, "cpu_freq_capped",
                            direction="below", level=Severity.WARNING),
    ]


def default_log_rules() -> list[LogRegexRule]:
    """The expert log rules used throughout the examples (Fig. 1)."""
    return [
        LogRegexRule(r"NIC Link is Down", "nic_flapping"),
        LogRegexRule(r"guest panicked", "vm_down", level=Severity.FATAL),
        LogRegexRule(r"soft lockup", "vm_hang", level=Severity.FATAL),
        LogRegexRule(r"Machine Check Exception", "nc_down",
                     level=Severity.FATAL),
        LogRegexRule(r"GPU has fallen off the bus", "gpu_drop",
                     level=Severity.FATAL),
        LogRegexRule(r"blackhole route added", "ddos_blackhole_add",
                     level=Severity.FATAL),
        LogRegexRule(r"blackhole route removed", "ddos_blackhole_del",
                     level=Severity.INFO),
        LogRegexRule(r"authentication failed", "api_error"),
        LogRegexRule(r"login handler timeout", "console_unreachable"),
    ]
