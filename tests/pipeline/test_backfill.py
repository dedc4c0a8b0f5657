"""Unit tests for the multi-day backfill helper."""

import pytest

from repro.core.events import Event, EventCategory, Severity, default_catalog
from repro.core.indicator import ServicePeriod
from repro.engine.dataset import EngineContext
from repro.pipeline.backfill import day_partitions, run_days
from repro.pipeline.daily import DailyCdiJob
from repro.scenarios.common import default_weights
from repro.serving import QueryService
from repro.storage.configdb import ConfigDB
from repro.storage.table import TableStore

DAY = 86400.0


def make_job() -> DailyCdiJob:
    job = DailyCdiJob(EngineContext(parallelism=2), TableStore(),
                      ConfigDB(), default_catalog())
    job.store_weights(default_weights())
    return job


class TestDayPartitions:
    def test_labels(self):
        assert day_partitions(3) == ["day00", "day01", "day02"]

    def test_custom_prefix(self):
        assert day_partitions(2, prefix="2024-01-") == [
            "2024-01-00", "2024-01-01",
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            day_partitions(0)

    def test_width_grows_only_past_one_hundred_days(self):
        assert day_partitions(100)[-1] == "day99"
        labels = day_partitions(102)
        assert labels[0] == "day000" and labels[-1] == "day101"
        assert labels == sorted(labels)


class TestRunDays:
    def test_events_routed_per_day(self):
        job = make_job()
        services = {"vm-a": ServicePeriod(0.0, DAY)}

        def events_for_day(index, partition):
            if index == 2:
                # End timestamp late enough that the full measured
                # duration fits inside the service window.
                return [Event("vm_down", 10_000.0, "vm-a",
                              level=Severity.FATAL,
                              attributes={"duration": 8640.0})]
            return []

        result = run_days(job, events_for_day, services, days=4)
        curve = result.monitor.fleet_curve(EventCategory.UNAVAILABILITY)
        assert curve == [0.0, 0.0, pytest.approx(0.1), 0.0]
        assert [r.event_count for r in result.job_results] == [0, 0, 1, 0]

    def test_long_backfill_serves_days_in_chronological_order(self):
        """The serving layer orders and ranges days by label, so a run
        past 100 days must still label them in sortable form."""
        job = make_job()
        services = {
            f"vm-{i}": ServicePeriod(0.0, DAY) for i in range(4)
        }
        labels = run_days(job, lambda i, p: [], services,
                          days=102).partitions
        with QueryService(job.tables) as service:
            trend = service.trend("unavailability")
            assert [day for day, _ in trend] == list(labels)
            assert service.days()[-1] == labels[-1]
            across = service.fleet_range(labels[98], labels[101])
            assert [day for day, _ in across] == list(labels[98:])

    def test_default_monitor_created(self):
        job = make_job()
        result = run_days(job, lambda i, p: [],
                          {"vm-a": ServicePeriod(0.0, DAY)}, days=2)
        assert result.monitor.days == ["day00", "day01"]

    def test_partitions_match_results(self):
        job = make_job()
        result = run_days(job, lambda i, p: [],
                          {"vm-a": ServicePeriod(0.0, DAY)}, days=3,
                          prefix="d")
        assert result.partitions == ("d00", "d01", "d02")
        assert len(result.job_results) == 3
