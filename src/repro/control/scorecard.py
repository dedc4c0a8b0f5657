"""Closed-loop scorecard: how well did detect → act → evaluate do?

The controller's run is scored against the scenario's injected ground
truth (:class:`repro.telemetry.fleetgen.InjectedIncident`):

* **detection** — recall (injected incidents detected), precision
  (confirmed episodes that match an incident), and latency in days
  from fault onset to the confirmed detection;
* **localization** — whether the root cause the RCA pass produced
  names the incident's ground-truth dimension value;
* **action** — for every episode, the A/B verdict of the submitted
  action against its null arm and the realized CDI improvement
  (null-arm mean minus action-arm mean on the episode's sub-metric).

Everything here is plain data: no timestamps, no environment
fingerprints.  A scorecard serialized with :func:`scorecard_json` is
therefore byte-identical across reruns — the property the determinism
tests and the CI gate pin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True, slots=True)
class IncidentOutcome:
    """Ground-truth view: what happened to one injected incident."""

    incident_id: str
    category: str
    onset_day: int
    duration_days: int
    detected: bool
    detected_day: int | None = None
    latency_days: int | None = None
    episode_id: str | None = None
    rca_correct: bool | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation."""
        return {
            "incident_id": self.incident_id,
            "category": self.category,
            "onset_day": self.onset_day,
            "duration_days": self.duration_days,
            "detected": self.detected,
            "detected_day": self.detected_day,
            "latency_days": self.latency_days,
            "episode_id": self.episode_id,
            "rca_correct": self.rca_correct,
        }


@dataclass(frozen=True, slots=True)
class ActionOutcome:
    """Operational view: what one confirmed episode's action achieved.

    ``realized_improvement`` is ``null_mean - action_mean`` on the
    episode's sub-metric over the observation window: positive means
    the action left treated VMs with less damage than doing nothing.
    """

    episode_id: str
    category: str
    opened_day: int
    evaluation_day: int
    action: str
    matched_incident: str | None
    rca_dimension: str | None
    rca_values: tuple[str, ...]
    treated: int
    control: int
    executed: int
    discarded_conflict: int
    failed: int
    effective: bool
    omnibus_pvalue: float | None
    null_mean: float | None
    action_mean: float | None
    realized_improvement: float
    rolled_out: bool

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation."""
        return {
            "episode_id": self.episode_id,
            "category": self.category,
            "opened_day": self.opened_day,
            "evaluation_day": self.evaluation_day,
            "action": self.action,
            "matched_incident": self.matched_incident,
            "rca_dimension": self.rca_dimension,
            "rca_values": list(self.rca_values),
            "treated": self.treated,
            "control": self.control,
            "executed": self.executed,
            "discarded_conflict": self.discarded_conflict,
            "failed": self.failed,
            "effective": self.effective,
            "omnibus_pvalue": self.omnibus_pvalue,
            "null_mean": self.null_mean,
            "action_mean": self.action_mean,
            "realized_improvement": self.realized_improvement,
            "rolled_out": self.rolled_out,
        }


@dataclass(frozen=True, slots=True)
class Scorecard:
    """Full closed-loop run summary (ground truth vs controller)."""

    scenario: str
    seed: int
    days: int
    incidents: tuple[IncidentOutcome, ...]
    actions: tuple[ActionOutcome, ...]
    suppressed_detections: int

    @property
    def true_positives(self) -> int:
        """Episodes whose detection matches an injected incident."""
        return sum(1 for a in self.actions if a.matched_incident is not None)

    @property
    def false_positives(self) -> int:
        """Episodes confirmed where no injected incident was active."""
        return sum(1 for a in self.actions if a.matched_incident is None)

    @property
    def precision(self) -> float:
        """TP / confirmed episodes; vacuously 1.0 with no episodes."""
        if not self.actions:
            return 1.0
        return self.true_positives / len(self.actions)

    @property
    def recall(self) -> float:
        """Detected incidents / injected; vacuously 1.0 with none."""
        if not self.incidents:
            return 1.0
        detected = sum(1 for i in self.incidents if i.detected)
        return detected / len(self.incidents)

    @property
    def mean_latency_days(self) -> float | None:
        """Mean onset-to-detection latency over detected incidents."""
        latencies = [i.latency_days for i in self.incidents
                     if i.latency_days is not None]
        if not latencies:
            return None
        return sum(latencies) / len(latencies)

    @property
    def rca_accuracy(self) -> float | None:
        """Share of detected incidents localized to the right value."""
        verdicts = [i.rca_correct for i in self.incidents if i.detected]
        if not verdicts:
            return None
        return sum(1 for v in verdicts if v) / len(verdicts)

    @property
    def realized_improvement_total(self) -> float:
        """Summed null-minus-action CDI improvement over all episodes."""
        return sum(a.realized_improvement for a in self.actions)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation, derived metrics included."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "days": self.days,
            "incidents": [i.to_dict() for i in self.incidents],
            "actions": [a.to_dict() for a in self.actions],
            "suppressed_detections": self.suppressed_detections,
            "true_positives": self.true_positives,
            "false_positives": self.false_positives,
            "precision": self.precision,
            "recall": self.recall,
            "mean_latency_days": self.mean_latency_days,
            "rca_accuracy": self.rca_accuracy,
            "realized_improvement_total": self.realized_improvement_total,
        }


def scorecard_json(scorecard: Scorecard) -> str:
    """Canonical serialization: sorted keys, stable float repr.

    The byte-determinism contract (reruns produce the identical file) hangs on this being a pure function of the
    scorecard's values.
    """
    return json.dumps(scorecard.to_dict(), indent=2, sort_keys=True) + "\n"
