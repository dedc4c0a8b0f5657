"""End-to-end tests of the closed detect→act→evaluate loop.

The seeded scenario injects one cluster-concentrated incident per
stability sub-metric (onsets 12/14/16); a correct controller detects
each on its onset day, localizes it to the right cluster, and its
action beats the null arm.  The quiet scenario must produce zero
episodes.  The scorecard assertions are hand-computed from the
scenario plan, not regression-recorded from a previous run — except
the seed-0 exact-value pins, which also document the expected output.
"""

import pytest

from repro.control import (
    ClosedLoopController,
    ControllerConfig,
    ControlScenario,
    quiet_scenario,
    scorecard_json,
    seeded_scenario,
)
from repro.core.events import EventCategory
from repro.telemetry.faults import FaultKind
from repro.telemetry.fleetgen import InjectedIncident

#: Category → operation action, as the controller should submit them.
EXPECTED_ACTION = {
    "unavailability": "live_migration",
    "performance": "in_place_reboot",
    "control_plane": "process_repair",
}


@pytest.fixture(scope="module")
def seeded_run(control_seed):
    controller = ClosedLoopController(seeded_scenario(control_seed))
    return controller, controller.run()


class TestConfigValidation:
    def test_rejects_zero_observation_days(self):
        with pytest.raises(ValueError, match="observation_days"):
            ControllerConfig(observation_days=0)

    def test_rejects_short_baseline(self):
        with pytest.raises(ValueError, match="baseline_days"):
            ControllerConfig(baseline_days=1)


class TestSeededRun:
    def test_every_incident_detected_on_onset_day(self, seeded_run):
        _, card = seeded_run
        assert card.recall == 1.0
        for inc in card.incidents:
            assert inc.detected
            assert inc.detected_day == inc.onset_day
            assert inc.latency_days == 0
        assert card.mean_latency_days == 0.0

    def test_no_false_positives(self, seeded_run):
        _, card = seeded_run
        assert card.precision == 1.0
        assert card.false_positives == 0
        assert card.true_positives == 3
        assert len(card.actions) == 3

    def test_each_category_gets_its_action(self, seeded_run):
        _, card = seeded_run
        assert {a.category: a.action for a in card.actions} == \
            EXPECTED_ACTION

    def test_rca_names_the_injected_cluster(self, control_seed,
                                            seeded_run):
        _, card = seeded_run
        assert card.rca_accuracy == 1.0
        truth = {i.incident_id: i.value
                 for i in seeded_scenario(control_seed).incidents}
        for action in card.actions:
            assert action.rca_dimension == "cluster"
            assert action.rca_values == (truth[action.matched_incident],)

    def test_actions_effective_and_rolled_out(self, seeded_run):
        _, card = seeded_run
        for action in card.actions:
            assert action.effective
            assert action.rolled_out
            assert action.omnibus_pvalue < 0.05
            assert action.failed == 0
            assert action.discarded_conflict == 0
            assert action.executed == action.treated
            # The improvement is the null-vs-action mean gap: the
            # incident damages ~half of every affected VM's day, so
            # the gap must be large (and exactly the difference).
            assert action.realized_improvement == pytest.approx(
                action.null_mean - action.action_mean
            )
            assert action.realized_improvement > 0.3

    def test_arms_cover_the_whole_cluster(self, seeded_run):
        controller, _ = seeded_run
        for episode in controller.episodes:
            assert len(episode.treated) + len(episode.control) == 8
            assert len(episode.treated) >= 2
            assert len(episode.control) >= 2
            assert not set(episode.treated) & set(episode.control)

    def test_remediation_feeds_back_into_the_curve(self, seeded_run):
        controller, _ = seeded_run
        curve = controller.curve(EventCategory.PERFORMANCE)
        # Onset spike on day 12; by day 16 the effective action has
        # been rolled out to the whole cluster, so the curve returns
        # to background level even though the incident is still "on".
        assert curve[12] > 5 * max(curve[:12])
        assert max(curve[16:]) < 0.5 * curve[12]

    def test_nothing_suppressed_or_pending(self, seeded_run):
        controller, card = seeded_run
        assert card.suppressed_detections == 0
        assert all(e.outcome is not None for e in controller.episodes)


class TestSeedZeroExactValues:
    """Pin the hand-checked seed-0 run (also what BENCH_control.json
    commits); other matrix seeds only exercise the structural tests."""

    @pytest.fixture(autouse=True)
    def only_seed_zero(self, control_seed):
        if control_seed != 0:
            pytest.skip("exact-value pins are for seed 0")

    def test_episode_shapes(self, seeded_run):
        _, card = seeded_run
        assert [(a.episode_id, a.opened_day, a.treated, a.control,
                 a.executed) for a in card.actions] == [
            ("ep-00", 12, 3, 5, 3),
            ("ep-01", 14, 4, 4, 4),
            ("ep-02", 16, 2, 6, 2),
        ]

    def test_realized_improvements(self, seeded_run):
        _, card = seeded_run
        improvements = [a.realized_improvement for a in card.actions]
        assert improvements == [
            pytest.approx(0.4365746470480598),
            pytest.approx(0.5000479498485232),
            pytest.approx(0.4374797577677209),
        ]
        assert card.realized_improvement_total == pytest.approx(
            1.3741023546643039
        )

    def test_null_arm_sees_the_incident(self, seeded_run):
        _, card = seeded_run
        # Each incident halts 43200 of 86400 s/day on untreated VMs:
        # the null-arm mean must sit near 0.5 damage, the treated arm
        # near the background (≈ 0).
        for action in card.actions:
            assert action.null_mean == pytest.approx(0.46, abs=0.05)
            assert action.action_mean < 0.01


class TestQuietRun:
    def test_no_actions_fire(self, control_seed):
        controller = ClosedLoopController(quiet_scenario(control_seed))
        card = controller.run()
        assert controller.episodes == []
        assert card.actions == ()
        assert card.incidents == ()
        assert card.false_positives == 0
        assert card.suppressed_detections == 0
        # Vacuous precision/recall: nothing injected, nothing claimed.
        assert card.precision == 1.0
        assert card.recall == 1.0


class TestDeterminism:
    def test_rerun_is_byte_identical(self, control_seed, seeded_run):
        _, first = seeded_run
        second = ClosedLoopController(
            seeded_scenario(control_seed)
        ).run()
        assert scorecard_json(second) == scorecard_json(first)


class TestConflictingEpisodes:
    """Two same-day incidents on one cluster force the day's batch to
    carry two disruptive action types for overlapping VMs: the
    higher-priority live migration must win and the reboot be
    discarded as a conflict — never silently double-treated."""

    def conflict_controller(self) -> ClosedLoopController:
        # Seed 1 is used because its A/B splits overlap (seed 0's
        # happen to be disjoint, which exercises nothing).
        base = seeded_scenario(1)
        cluster = sorted(base.fleet.clusters)[0]
        targets = tuple(sorted(
            vm for vm in base.fleet.vms
            if base.fleet.cluster_of(vm).cluster_id == cluster
        ))
        incidents = tuple(
            InjectedIncident(
                incident_id=incident_id, kind=kind, targets=targets,
                onset_day=14, duration_days=7, seconds_per_day=43200.0,
                dimension="cluster", value=cluster,
            )
            for incident_id, kind in (
                ("inc-down", FaultKind.VM_DOWN),
                ("inc-slow", FaultKind.SLOW_IO),
            )
        )
        scenario = ControlScenario(
            name="conflict", seed=1, days=21, fleet=base.fleet,
            rates=base.rates, incidents=incidents,
        )
        return ClosedLoopController(scenario)

    def test_lower_priority_action_discarded_on_overlap(self):
        controller = self.conflict_controller()
        card = controller.run()
        migration, reboot = controller.episodes
        assert migration.opened_day == reboot.opened_day == 14
        assert migration.category is EventCategory.UNAVAILABILITY
        assert reboot.category is EventCategory.PERFORMANCE
        overlap = set(migration.treated) & set(reboot.treated)
        assert overlap  # the scenario is only meaningful with overlap
        # Priority 10 migration executes everywhere; the priority 5
        # reboot is discarded exactly on the doubly-treated VMs.
        assert migration.discarded_conflict == 0
        assert migration.executed == len(migration.treated)
        assert reboot.discarded_conflict == len(overlap)
        assert reboot.executed == len(reboot.treated) - len(overlap)
        # Null-arm bookkeeping never conflicts.
        assert migration.failed == reboot.failed == 0
        assert card.recall == 1.0
        assert card.false_positives == 0
