"""Differential suite: serving answers vs direct recompute, byte-identical.

For both compute paths of the daily job (the reference oracle and the
columnar path) this builds a QueryService over the job's output
tables and checks every query kind against an *independent* oracle that
rescans ``table.rows(partition)`` and recomputes with the reference
primitives (:func:`fleet_report_from_rows`,
:func:`repro.core.indicator.aggregate`, ``sorted``).  Answers are
compared as ``json.dumps(..., sort_keys=True)`` strings — byte-identical,
no tolerance — and additionally across the two paths themselves.
"""

import json

import pytest

from repro.core.indicator import aggregate
from repro.pipeline.daily import fleet_report_from_rows
from repro.pipeline.tables import EVENT_CDI_TABLE, VM_CDI_TABLE
from repro.serving import (
    CategoryTrendQuery,
    EventSeriesQuery,
    FleetQuery,
    FleetRangeQuery,
    GroupByQuery,
    QueryService,
    TopEventsQuery,
    TopVmsQuery,
    VmQuery,
    to_jsonable,
)
from repro.serving.rollups import CATEGORIES

from tests.serving.conftest import DAYS, build_dataset

PATHS = {
    "reference": dict(use_fastpath=False),
    "columnar": dict(use_fastpath=True),
}


@pytest.fixture(scope="module", params=sorted(PATHS))
def path_dataset(request):
    """One compute path's dataset plus a single-store QueryService.

    ``path_services`` wraps this with the sharded variant so every
    differential check runs through both configurations.
    """
    job, fleet, _ = build_dataset(**PATHS[request.param])
    service = QueryService(job.tables, resolver=fleet.dimensions_of)
    sharded = QueryService(job.tables, resolver=fleet.dimensions_of,
                           shards=3, parallelism=2)
    return request.param, job, fleet, ShardedPair(service, sharded)


class ShardedPair:
    """Single-store + sharded services over the same tables.

    ``execute`` runs the query through both and asserts their wire
    answers are byte-identical before returning the single-store
    result, so every existing oracle comparison transparently also
    proves the sharded path.
    """

    def __init__(self, single, sharded):
        self.single = single
        self.sharded = sharded

    def execute(self, query):
        result = self.single.execute(query)
        single_wire = json.dumps(to_jsonable(query, result), sort_keys=True)
        sharded_wire = json.dumps(
            to_jsonable(query, self.sharded.execute(query)), sort_keys=True
        )
        assert sharded_wire == single_wire, \
            f"sharded path diverges on {query}"
        return result

    def days(self):
        assert self.sharded.days() == self.single.days()
        return self.single.days()


def report_dict(report):
    return {
        "unavailability": report.unavailability,
        "performance": report.performance,
        "control_plane": report.control_plane,
        "service_time": report.service_time,
    }


# --- oracles: direct recompute from the output-table rows ---------------------

def oracle_fleet(job, day):
    return report_dict(
        fleet_report_from_rows(job.tables.get(VM_CDI_TABLE).rows(day))
    )


def oracle_group_by(job, fleet, day, dimension):
    rows = job.tables.get(VM_CDI_TABLE).rows(day)
    values = sorted({
        fleet.dimensions_of(row["vm"])[dimension] for row in rows
    })
    return {
        value: report_dict(fleet_report_from_rows([
            row for row in rows
            if fleet.dimensions_of(row["vm"])[dimension] == value
        ]))
        for value in values
    }


def oracle_top_vms(job, day, category, k):
    rows = job.tables.get(VM_CDI_TABLE).rows(day)
    damaged = [(row["vm"], row[category]) for row in rows
               if row[category] > 0]
    damaged.sort(key=lambda pair: (-pair[1], pair[0]))
    return [{"vm": vm, "value": value} for vm, value in damaged[:k]]


def oracle_event_values(job, day):
    rows = job.tables.get(EVENT_CDI_TABLE).rows(day)
    return {
        name: aggregate([
            (row["service_time"], row["cdi"])
            for row in rows if row["event"] == name
        ])
        for name in sorted({row["event"] for row in rows})
    }


def oracle_top_events(job, day, k):
    values = oracle_event_values(job, day)
    ranked = sorted(values.items(), key=lambda pair: -pair[1])
    return [{"event": name, "value": value}
            for name, value in ranked[:k] if value > 0]


def serve(service, query):
    """One query's wire-format answer as a canonical JSON string."""
    return json.dumps(
        to_jsonable(query, service.execute(query)), sort_keys=True
    )


def canonical(payload):
    return json.dumps(payload, sort_keys=True)


class TestDifferential:
    def test_fleet_point_lookups(self, path_dataset):
        _, job, _, service = path_dataset
        for day in service.days():
            assert serve(service, FleetQuery(day)) == \
                canonical(oracle_fleet(job, day))

    def test_fleet_range(self, path_dataset):
        _, job, _, service = path_dataset
        expected = [
            {"day": day, **oracle_fleet(job, day)} for day in service.days()
        ]
        assert serve(service, FleetRangeQuery()) == canonical(expected)

    def test_category_trends(self, path_dataset):
        _, job, _, service = path_dataset
        for category in CATEGORIES:
            expected = [
                {"day": day, "value": oracle_fleet(job, day)[category]}
                for day in service.days()
            ]
            assert serve(service, CategoryTrendQuery(category)) == \
                canonical(expected)

    def test_group_bys(self, path_dataset):
        _, job, fleet, service = path_dataset
        for day in service.days():
            for dimension in ("region", "az", "cluster"):
                assert serve(service, GroupByQuery(day, dimension)) == \
                    canonical(oracle_group_by(job, fleet, day, dimension))

    def test_top_vms(self, path_dataset):
        _, job, _, service = path_dataset
        for day in service.days():
            for category in CATEGORIES:
                for k in (1, 3, 100):
                    assert serve(
                        service, TopVmsQuery(day, category, k)
                    ) == canonical(oracle_top_vms(job, day, category, k))

    def test_top_events(self, path_dataset):
        _, job, _, service = path_dataset
        for day in service.days():
            for k in (1, 5, 100):
                assert serve(service, TopEventsQuery(day, k)) == \
                    canonical(oracle_top_events(job, day, k))

    def test_event_series(self, path_dataset):
        _, job, _, service = path_dataset
        names = set()
        for day in service.days():
            names |= set(oracle_event_values(job, day))
        assert names, "fixture produced no events"
        for name in sorted(names):
            expected = [
                {"day": day,
                 "value": oracle_event_values(job, day).get(name, 0.0)}
                for day in service.days()
            ]
            assert serve(service, EventSeriesQuery(name)) == \
                canonical(expected)

    def test_vm_point_lookups(self, path_dataset):
        _, job, _, service = path_dataset
        day = service.days()[0]
        for row in job.tables.get(VM_CDI_TABLE).rows(day):
            assert serve(service, VmQuery(day, row["vm"])) == \
                canonical(dict(row))


class TestCrossPath:
    """Both compute paths answer every query identically."""

    @pytest.fixture(scope="class")
    def services(self):
        built = {}
        for name, flags in PATHS.items():
            job, fleet, _ = build_dataset(**flags)
            built[name] = QueryService(job.tables,
                                       resolver=fleet.dimensions_of)
        return built

    def test_all_kinds_agree(self, services):
        queries = [FleetRangeQuery(), TopEventsQuery("day01", 5),
                   GroupByQuery("day02", "az"),
                   TopVmsQuery("day00", "unavailability", 4)]
        queries += [CategoryTrendQuery(c) for c in CATEGORIES]
        reference = services["reference"]
        for query in queries:
            expected = serve(reference, query)
            assert serve(services["columnar"], query) == expected, \
                f"columnar diverges from reference on {query}"


class TestReportParity:
    """The service-backed daily report renders byte-identical text."""

    def test_render_from_service_matches_rows(self, path_dataset):
        from repro.pipeline.reports import (
            DailyReportInput,
            render_daily_report,
            render_daily_report_from_service,
        )
        _, job, fleet, pair = path_dataset
        service = pair.single
        for position, day in enumerate(service.days()):
            previous = None
            if position > 0:
                previous = job.tables.get(VM_CDI_TABLE).rows(
                    service.days()[position - 1]
                )
            from_rows = render_daily_report(
                DailyReportInput(
                    day=day,
                    vm_rows=job.tables.get(VM_CDI_TABLE).rows(day),
                    event_rows=job.tables.get(EVENT_CDI_TABLE).rows(day),
                    previous_vm_rows=previous,
                ),
                resolver=fleet.dimensions_of,
            )
            from_service = render_daily_report_from_service(service, day)
            assert from_service == from_rows
            from_sharded = render_daily_report_from_service(
                pair.sharded, day
            )
            assert from_sharded == from_rows


class TestShardedDuringBackfill:
    """Sharded answers stay correct while a live backfill races them."""

    def test_sharded_matches_single_and_oracle_under_race(self):
        import threading

        from repro.core.events import default_catalog
        from repro.pipeline.backfill import run_days

        from tests.serving.conftest import events_factory

        job, fleet, vm_services = build_dataset(days=2)
        single = QueryService(job.tables, resolver=fleet.dimensions_of)
        sharded = QueryService(job.tables, resolver=fleet.dimensions_of,
                               shards=3, parallelism=2)
        finished = ("day00", "day01")
        baseline = {}
        for day in finished:
            baseline[day] = {
                "fleet": serve(single, FleetQuery(day)),
                "top-events": serve(single, TopEventsQuery(day, 3)),
                "group-by": serve(single, GroupByQuery(day, "region")),
            }
            assert baseline[day]["fleet"] == \
                canonical(oracle_fleet(job, day))

        stop = threading.Event()
        violations: list = []

        def reader(day):
            while not stop.is_set():
                got = {
                    "fleet": serve(sharded, FleetQuery(day)),
                    "top-events": serve(sharded, TopEventsQuery(day, 3)),
                    "group-by": serve(sharded, GroupByQuery(day, "region")),
                }
                if got != baseline[day]:
                    violations.append((day, got))
                    return

        threads = [
            threading.Thread(target=reader, args=(day,))
            for day in finished for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        try:
            run_days(job, events_factory(sorted(fleet.vms),
                                         default_catalog(), 7),
                     vm_services, 3, prefix="ext")
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not violations, f"raced read diverged: {violations[:2]}"

        # Post-race: full differential over every kind, including the
        # freshly backfilled partitions and the cross-shard merges.
        for query in [FleetRangeQuery(),
                      *(CategoryTrendQuery(c) for c in CATEGORIES)]:
            assert serve(sharded, query) == serve(single, query)
        for day in sharded.days():
            assert serve(sharded, FleetQuery(day)) == \
                canonical(oracle_fleet(job, day))
            assert serve(sharded, TopEventsQuery(day, 5)) == \
                canonical(oracle_top_events(job, day, 5))
        sharded.close()
        single.close()


def test_dataset_spans_expected_days():
    job, _, _ = build_dataset()
    assert len(job.tables.get(VM_CDI_TABLE).partitions) == DAYS
