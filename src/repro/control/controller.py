"""The closed loop: detect → localize → act → evaluate, day by day.

Each simulated day, the controller

1. **generates** the fleet's labeled faults (background mix plus any
   active injected incidents, minus remediated VMs) and runs the real
   daily CDI job over the resulting events;
2. **detects** — the consensus detector
   (:meth:`~repro.analytics.detect.CdiCurveDetector.detect_consensus`,
   rolling K-Sigma *and* EVT agreeing on the direction) scans each
   sub-metric's daily fleet curve; a spike confirmed on the current
   day opens an *episode* unless one is already open for that
   category (the cooldown — repeat confirmations of an ongoing
   problem are suppressed, not double-acted);
3. **localizes** the new episode across topology dimensions with the
   Adtributor-style RCA over per-VM damage
   (:func:`~repro.analytics.rca.localize`);
4. **acts** — affected VMs are A/B-split between the category's
   operation action and a ``null_action`` comparison arm, and the
   whole day's actions go through the Operation Platform in one
   batch, so priorities order execution and
   :meth:`~repro.cloudbot.actions.Action.conflicts_with` discards
   double-treatment (the null arm is never disruptive and never
   discarded);
5. **feeds back** — an executed real action *remediates* its VM: from
   the next day on the VM stops producing injected-incident faults
   (background noise continues), which is the modeled effect the
   evaluation measures;
6. **evaluates** — after the observation window, each arm's per-VM
   daily CDI reports flow through the existing omnibus + post-hoc
   ladder (:func:`~repro.abtest.effectiveness.
   evaluate_rule_effectiveness`); an effective action is rolled out
   to the null arm.

The run returns a :class:`~repro.control.scorecard.Scorecard` pinning
detection latency, precision/recall against the injected ground
truth, RCA localization accuracy, and realized CDI improvement per
action.  Every quantity is a deterministic function of the scenario
seed; reruns serialize byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.abtest.effectiveness import (
    NULL_VARIANT,
    evaluate_rule_effectiveness,
)
from repro.abtest.experiment import AbExperiment, Variant
from repro.analytics.detect import CdiCurveDetector
from repro.analytics.rca import RootCause, localize, vm_damage_leaves
from repro.cloudbot.actions import Action, ActionType
from repro.cloudbot.platform import ExecutionStatus, OperationPlatform
from repro.control.scenario import ControlScenario
from repro.control.scorecard import ActionOutcome, IncidentOutcome, Scorecard
from repro.core.events import Event, EventCategory, default_catalog
from repro.core.indicator import CdiReport, ServicePeriod
from repro.engine.dataset import EngineContext
from repro.pipeline.backfill import day_partitions
from repro.pipeline.daily import DailyCdiJob
from repro.scenarios.common import default_weights, fault_to_period
from repro.storage.configdb import ConfigDB
from repro.storage.table import TableStore
from repro.telemetry.fleetgen import labeled_day_faults

#: Operation action submitted for each damaged sub-metric: move the VM
#: off its host when it is unreachable, reboot it in place when it is
#: degraded, repair the management agent when the control plane fails.
CATEGORY_ACTION: Mapping[EventCategory, ActionType] = {
    EventCategory.UNAVAILABILITY: ActionType.LIVE_MIGRATION,
    EventCategory.PERFORMANCE: ActionType.IN_PLACE_REBOOT,
    EventCategory.CONTROL_PLANE: ActionType.PROCESS_REPAIR,
}

#: Execution priorities: restoring availability outranks performance
#: and control-plane repairs; the null arm always yields.
ACTION_PRIORITY: Mapping[ActionType, int] = {
    ActionType.LIVE_MIGRATION: 10,
    ActionType.IN_PLACE_REBOOT: 5,
    ActionType.PROCESS_REPAIR: 5,
    ActionType.NULL_ACTION: 0,
}


@dataclass(frozen=True, slots=True)
class ControllerConfig:
    """Tunables of the closed loop (defaults match the seeded tests)."""

    window: int = 7           # rolling K-Sigma window (days)
    k: float = 4.0            # K-Sigma threshold
    calibration: int = 10     # EVT calibration prefix (days)
    q: float = 1e-4           # EVT tail quantile
    baseline_days: int = 7    # RCA trailing baseline window
    observation_days: int = 3  # post-action A/B observation window
    min_arm_size: int = 2     # below this, fall back to alternating
    alpha: float = 0.05       # significance level of the A/B ladder
    expire_interval: float = 600.0  # synthetic events' expire interval

    def __post_init__(self) -> None:
        if self.observation_days < 1:
            raise ValueError(
                f"observation_days must be >= 1, got {self.observation_days}"
            )
        if self.baseline_days < 2:
            raise ValueError(
                f"baseline_days must be >= 2, got {self.baseline_days}"
            )


@dataclass
class Episode:
    """One confirmed detection and everything the loop did about it."""

    episode_id: str
    category: EventCategory
    opened_day: int
    root_cause: RootCause | None
    matched_incident: str | None
    action_type: ActionType
    treated: tuple[str, ...]
    control: tuple[str, ...]
    experiment: AbExperiment
    evaluation_day: int
    executed: int = 0
    discarded_conflict: int = 0
    failed: int = 0
    outcome: ActionOutcome | None = None


def _report_of(row: Mapping[str, Any]) -> CdiReport:
    """A vm_cdi output row as a :class:`CdiReport`."""
    return CdiReport(
        unavailability=row["unavailability"],
        performance=row["performance"],
        control_plane=row["control_plane"],
        service_time=row["service_time"],
    )


class ClosedLoopController:
    """Runs one scenario through the full detect→act→evaluate loop."""

    def __init__(self, scenario: ControlScenario, *,
                 config: ControllerConfig | None = None,
                 context: EngineContext | None = None) -> None:
        self._scenario = scenario
        self._config = config or ControllerConfig()
        self._catalog = default_catalog()
        self._context = context or EngineContext(parallelism=2)
        self._job = DailyCdiJob(self._context, TableStore(), ConfigDB(),
                                self._catalog)
        self._job.store_weights(default_weights())
        self._platform = OperationPlatform(scenario.fleet)
        self._detector = CdiCurveDetector(
            window=self._config.window, k=self._config.k,
            calibration=self._config.calibration, q=self._config.q,
        )
        self._services = {
            vm: ServicePeriod(0.0, scenario.day_seconds)
            for vm in scenario.vm_ids
        }
        self._curves: dict[EventCategory, list[float]] = {
            category: [] for category in EventCategory
        }
        self._vm_rows: list[list[dict[str, Any]]] = []
        self._remediated: set[str] = set()
        self._episodes: list[Episode] = []
        self._open: dict[EventCategory, Episode] = {}
        self._suppressed = 0

    @property
    def platform(self) -> OperationPlatform:
        """The Operation Platform (audit log, placements, tickets)."""
        return self._platform

    @property
    def episodes(self) -> list[Episode]:
        """All episodes opened so far, in confirmation order."""
        return list(self._episodes)

    def curve(self, category: EventCategory) -> list[float]:
        """The daily fleet curve of one sub-metric, so far."""
        return list(self._curves[category])

    # -- the loop ----------------------------------------------------------

    def run(self) -> Scorecard:
        """Tick through every scenario day and score the run."""
        for day, partition in enumerate(day_partitions(self._scenario.days)):
            self._tick(day, partition)
        return self._scorecard()

    def _tick(self, day: int, partition: str) -> None:
        """One day: telemetry → CDI job → evaluate due → detect/act."""
        labeled = labeled_day_faults(
            self._scenario.vm_ids, self._scenario.rates, day,
            seed=self._scenario.seed,
            incidents=self._scenario.incidents,
            excluded=frozenset(self._remediated),
            day_seconds=self._scenario.day_seconds,
        )
        events = [self._fault_event(lf.fault) for lf in labeled]
        self._job.ingest_events(events, partition)
        result = self._job.run(partition, self._services)
        vm_rows, _ = self._job.output_rows(partition)
        self._vm_rows.append(vm_rows)
        for category in EventCategory:
            self._curves[category].append(
                result.fleet_report.sub_metric(category)
            )
        self._evaluate_due(day)
        self._detect_and_act(day)

    def _fault_event(self, fault: Any) -> Event:
        """A fault as the event the extractor would have produced."""
        period = fault_to_period(fault, self._catalog)
        return Event(
            name=period.name, time=period.end, target=period.target,
            expire_interval=self._config.expire_interval,
            level=period.level,
            attributes={"duration": period.duration},
        )

    # -- detection and action ------------------------------------------------

    def _detect_and_act(self, day: int) -> None:
        """Open episodes for today's confirmed spikes and act on them."""
        fresh: list[Episode] = []
        for category in EventCategory:
            detections = self._detector.detect_consensus(
                self._curves[category]
            )
            confirmed_today = [
                d for d in detections
                if d.index == day and d.direction == "spike"
            ]
            if not confirmed_today:
                continue
            if category in self._open:
                # Cooldown: the ongoing episode already owns this
                # category's anomaly — don't act twice on one problem.
                self._suppressed += 1
                continue
            fresh.append(self._prepare_episode(
                category, day, len(self._episodes) + len(fresh)
            ))
        if not fresh:
            return
        # One submission batch for the whole day: priorities order
        # execution across episodes and conflicting double-treatments
        # (two disruptive actions on one VM) are discarded, exactly as
        # the Operation Platform would in production.
        by_rule = {episode.episode_id: episode for episode in fresh}
        batch: list[Action] = []
        for episode in fresh:
            batch.extend(self._episode_actions(episode))
        for record in self._platform.submit(batch):
            episode = by_rule[record.action.source_rule]
            if record.action.type is ActionType.NULL_ACTION:
                continue
            if record.status is ExecutionStatus.EXECUTED:
                episode.executed += 1
                self._remediated.add(record.action.target)
            elif record.status is ExecutionStatus.DISCARDED_CONFLICT:
                episode.discarded_conflict += 1
            else:
                episode.failed += 1
        for episode in fresh:
            self._episodes.append(episode)
            self._open[episode.category] = episode

    def _prepare_episode(self, category: EventCategory, day: int,
                         index: int) -> Episode:
        """Localize a confirmed spike and A/B-split the affected VMs."""
        cause = self._localize(category, day)
        affected = self._affected_vms(cause)
        action_type = CATEGORY_ACTION[category]
        treated, control, experiment = self._assign_arms(
            action_type, affected, index
        )
        return Episode(
            episode_id=f"ep-{index:02d}",
            category=category,
            opened_day=day,
            root_cause=cause,
            matched_incident=self._match_incident(category, day),
            action_type=action_type,
            treated=treated,
            control=control,
            experiment=experiment,
            evaluation_day=day + self._config.observation_days,
        )

    def _localize(self, category: EventCategory,
                  day: int) -> RootCause | None:
        """RCA: today's per-VM damage vs the trailing baseline."""
        if day == 0:
            return None
        metric = category.value  # vm_cdi column names match categories
        start = max(0, day - self._config.baseline_days)
        expected: dict[str, list[float]] = {}
        for rows in self._vm_rows[start:day]:
            for row in rows:
                expected.setdefault(row["vm"], []).append(
                    row[metric] * row["service_time"]
                )
        actual = {
            row["vm"]: row[metric] * row["service_time"]
            for row in self._vm_rows[day]
        }
        return localize(vm_damage_leaves(
            expected, actual, self._scenario.fleet.dimensions_of
        ))

    def _affected_vms(self, cause: RootCause | None) -> list[str]:
        """VMs inside the localized scope, sorted.

        Without a localization the whole fleet is in scope.  VMs
        already remediated by an earlier episode are skipped (nothing
        left to fix there) unless that would empty the scope.
        """
        vm_ids = self._scenario.vm_ids
        if cause is None:
            affected = vm_ids
        else:
            values = set(cause.values)
            dimensions_of = self._scenario.fleet.dimensions_of
            affected = [
                vm for vm in vm_ids
                if dimensions_of(vm).get(cause.dimension) in values
            ]
        pending = [vm for vm in affected if vm not in self._remediated]
        return pending or affected

    def _assign_arms(
        self, action_type: ActionType, affected: list[str], index: int,
    ) -> tuple[tuple[str, ...], tuple[str, ...], AbExperiment]:
        """Seeded 50/50 split into action arm and null arm.

        The assignment seed derives from the scenario seed and episode
        index, so reruns reproduce identical arms.  If randomization
        leaves either arm below ``min_arm_size``, a deterministic
        alternating split replaces it — the A/B comparison must always
        have two populated arms.
        """
        label = action_type.label
        experiment = AbExperiment(
            rule_name=f"closed-loop/{label}",
            variants=(Variant(label, 0.5), Variant(NULL_VARIANT, 0.5)),
            seed=self._scenario.seed * 1009 + 31 * index + 7,
        )
        treated: list[str] = []
        control: list[str] = []
        for vm in affected:
            arm = experiment.assign(vm).name
            (treated if arm == label else control).append(vm)
        floor = self._config.min_arm_size
        if len(treated) < floor or len(control) < floor:
            treated, control = affected[0::2], affected[1::2]
        return tuple(treated), tuple(control), experiment

    def _episode_actions(self, episode: Episode) -> list[Action]:
        """The submission batch for one episode (action + null arms)."""
        actions = [
            Action(type=episode.action_type, target=vm,
                   priority=ACTION_PRIORITY[episode.action_type],
                   source_rule=episode.episode_id)
            for vm in episode.treated
        ]
        actions.extend(
            Action(type=ActionType.NULL_ACTION, target=vm,
                   priority=ACTION_PRIORITY[ActionType.NULL_ACTION],
                   source_rule=episode.episode_id)
            for vm in episode.control
        )
        return actions

    def _match_incident(self, category: EventCategory,
                        day: int) -> str | None:
        """Ground-truth incident active today in this category, if any."""
        for incident in self._scenario.incidents:
            if incident.category is category and incident.active_on(day):
                return incident.incident_id
        return None

    # -- evaluation ----------------------------------------------------------

    def _evaluate_due(self, day: int) -> None:
        """Close episodes whose observation window ended (or run did)."""
        last_day = day == self._scenario.days - 1
        for category in list(self._open):
            episode = self._open[category]
            if day >= episode.evaluation_day or last_day:
                self._evaluate(episode, day)
                del self._open[category]

    def _evaluate(self, episode: Episode, day: int) -> None:
        """A/B-evaluate one episode over its observation window.

        Each arm VM contributes one CDI report per observation day.
        The verdict comes from the existing omnibus + post-hoc ladder
        via :func:`evaluate_rule_effectiveness`; when the action beats
        the null arm it is rolled out to the null-arm VMs, closing the
        loop.  Episodes cut short by the run's end with fewer than
        three samples per arm are reported without statistics.
        """
        label = episode.action_type.label
        end = min(episode.opened_day + self._config.observation_days, day)
        for obs_day in range(episode.opened_day + 1, end + 1):
            rows = {row["vm"]: row for row in self._vm_rows[obs_day]}
            for vm in episode.treated:
                episode.experiment.record(vm, label, _report_of(rows[vm]))
            for vm in episode.control:
                episode.experiment.record(
                    vm, NULL_VARIANT, _report_of(rows[vm])
                )
        counts = episode.experiment.counts()
        effective = False
        pvalue: float | None = None
        null_mean: float | None = None
        action_mean: float | None = None
        if min(counts.values(), default=0) >= 3:
            results = evaluate_rule_effectiveness(
                episode.experiment, alpha=self._config.alpha
            )
            verdict = results[episode.category]
            effective = verdict.effective
            pvalue = verdict.omnibus_pvalue
            null_mean = verdict.null_mean
            action_mean = verdict.action_means[label]
        rolled_out = False
        if effective:
            rolled_out = self._roll_out(episode)
        improvement = (
            null_mean - action_mean
            if null_mean is not None and action_mean is not None else 0.0
        )
        episode.outcome = ActionOutcome(
            episode_id=episode.episode_id,
            category=episode.category.value,
            opened_day=episode.opened_day,
            evaluation_day=day,
            action=label,
            matched_incident=episode.matched_incident,
            rca_dimension=(episode.root_cause.dimension
                           if episode.root_cause else None),
            rca_values=(episode.root_cause.values
                        if episode.root_cause else ()),
            treated=len(episode.treated),
            control=len(episode.control),
            executed=episode.executed,
            discarded_conflict=episode.discarded_conflict,
            failed=episode.failed,
            effective=effective,
            omnibus_pvalue=pvalue,
            null_mean=null_mean,
            action_mean=action_mean,
            realized_improvement=improvement,
            rolled_out=rolled_out,
        )

    def _roll_out(self, episode: Episode) -> bool:
        """Apply the winning action to the null arm; True if any ran."""
        batch = [
            Action(type=episode.action_type, target=vm,
                   priority=ACTION_PRIORITY[episode.action_type],
                   source_rule=f"{episode.episode_id}/rollout")
            for vm in episode.control
        ]
        if not batch:
            return False
        executed = 0
        for record in self._platform.submit(batch):
            if record.status is ExecutionStatus.EXECUTED:
                executed += 1
                self._remediated.add(record.action.target)
        return executed > 0

    # -- scoring ---------------------------------------------------------------

    def _scorecard(self) -> Scorecard:
        """Score the finished run against the injected ground truth."""
        by_incident: dict[str, Episode] = {}
        for episode in self._episodes:
            incident_id = episode.matched_incident
            if incident_id is not None and incident_id not in by_incident:
                by_incident[incident_id] = episode
        incidents = []
        for incident in self._scenario.incidents:
            episode = by_incident.get(incident.incident_id)
            if episode is None:
                incidents.append(IncidentOutcome(
                    incident_id=incident.incident_id,
                    category=incident.category.value,
                    onset_day=incident.onset_day,
                    duration_days=incident.duration_days,
                    detected=False,
                ))
                continue
            cause = episode.root_cause
            rca_correct = (
                cause is not None
                and cause.dimension == incident.dimension
                and incident.value in cause.values
            )
            incidents.append(IncidentOutcome(
                incident_id=incident.incident_id,
                category=incident.category.value,
                onset_day=incident.onset_day,
                duration_days=incident.duration_days,
                detected=True,
                detected_day=episode.opened_day,
                latency_days=episode.opened_day - incident.onset_day,
                episode_id=episode.episode_id,
                rca_correct=rca_correct,
            ))
        actions = tuple(
            episode.outcome for episode in self._episodes
            if episode.outcome is not None
        )
        return Scorecard(
            scenario=self._scenario.name,
            seed=self._scenario.seed,
            days=self._scenario.days,
            incidents=tuple(incidents),
            actions=actions,
            suppressed_detections=self._suppressed,
        )
