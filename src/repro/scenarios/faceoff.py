"""AIR-vs-CDI head-to-head over the outage scenario family.

The study replays every :mod:`repro.scenarios.outages` member through
the **real** daily CDI job — faults become catalog events, events are
ingested into the events table, and both KPIs read that one table:
CDI from the job's fleet report, AIR from
:func:`repro.analytics.air.air_from_rows` over the identical partition
rows.  Nothing is shared downstream of the event stream, so any
disagreement between the two KPIs is a property of the *metrics*, not
of the plumbing.

Per scenario the study measures, on the incident day against a
seven-day baseline:

* the AIR ratio (incident-day AIR / baseline mean) and whether it
  clears :data:`FLAG_RATIO`;
* the same ratio for each CDI sub-metric (unavailability,
  performance, control plane);
* a verdict classifying the (AIR flagged?, CDI flagged?) pair —
  ``air_blind`` is the paper's thesis made quantitative: CDI flags
  damage AIR calls a healthy fleet;
* for spatially concentrated incidents, Adtributor localization
  (:func:`repro.analytics.rca.localize`) over the per-VM CDI
  decomposition, scored against the injected cluster truth.

:func:`faceoff_json` serializes the result byte-deterministically
(sorted keys, fixed float formatting from pure-function arithmetic):
reruns produce identical bytes, which CI enforces with ``cmp``.
"""

from __future__ import annotations

import json
from typing import Any

from repro.analytics.air import air_from_rows
from repro.analytics.rca import localize, vm_damage_leaves
from repro.core.events import Event, EventCategory, default_catalog
from repro.core.indicator import ServicePeriod
from repro.engine.dataset import EngineContext
from repro.pipeline.backfill import day_partitions
from repro.pipeline.daily import DailyCdiJob
from repro.pipeline.tables import EVENTS_TABLE
from repro.scenarios.common import default_weights, fault_to_period
from repro.scenarios.outages import OutageScenario, outage_family
from repro.storage.configdb import ConfigDB
from repro.storage.table import TableStore
from repro.telemetry.fleetgen import labeled_day_faults

#: A KPI "flags" the incident day when its value reaches this multiple
#: of its seven-day baseline mean.  3× sits far above background
#: day-to-day noise (verified by the ``quiet`` member) yet far below
#: every designed spike.
FLAG_RATIO = 3.0

#: Guard against a zero baseline (a KPI that never fired in the
#: baseline week): the ratio is computed against at least this much.
_EPS = 1e-12

#: Expire interval stamped on synthetic events (matches the
#: closed-loop controller's telemetry rendering).
_EXPIRE_INTERVAL = 600.0

#: Sub-metric keys in artifact order, mapped to their category.
CDI_METRICS: tuple[tuple[str, EventCategory], ...] = (
    ("cdi_unavailability", EventCategory.UNAVAILABILITY),
    ("cdi_performance", EventCategory.PERFORMANCE),
    ("cdi_control_plane", EventCategory.CONTROL_PLANE),
)


def _kpi_stats(daily: list[float]) -> dict[str, Any]:
    """Baseline/incident/ratio/flag record for one KPI's daily curve."""
    baseline = daily[:-1]
    value = daily[-1]
    mean = sum(baseline) / len(baseline)
    ratio = value / max(mean, _EPS)
    return {
        "daily": daily,
        "baseline_mean": mean,
        "incident_value": value,
        "ratio": ratio,
        "flagged": ratio >= FLAG_RATIO,
    }


def _verdict(air_flagged: bool, cdi_flagged: bool) -> str:
    """Classify one scenario's (AIR, CDI) flag pair."""
    if air_flagged and cdi_flagged:
        return "both_flag"
    if not air_flagged and not cdi_flagged:
        return "both_quiet"
    if cdi_flagged:
        return "air_blind"
    return "cdi_blind"


def _score_rca(scenario: OutageScenario,
               vm_rows: list[list[dict[str, Any]]]) -> dict[str, Any]:
    """Localize the incident-day damage and score it against truth.

    Mirrors the closed-loop controller's RCA framing: per-VM damage is
    ``sub_metric × service_time``, expected comes from the seven
    baseline days, actual from the incident day, and the Adtributor
    localization is correct when it names the truth dimension and its
    values cover every injected cluster.
    """
    category = scenario.incidents[0].category
    metric = category.value
    expected: dict[str, list[float]] = {}
    for rows in vm_rows[:-1]:
        for row in rows:
            expected.setdefault(row["vm"], []).append(
                row[metric] * row["service_time"]
            )
    actual = {
        row["vm"]: row[metric] * row["service_time"]
        for row in vm_rows[-1]
    }
    cause = localize(vm_damage_leaves(
        expected, actual, scenario.fleet.dimensions_of
    ))
    truth_dimension = scenario.incidents[0].dimension
    truth_values = sorted({i.value for i in scenario.incidents})
    correct = (
        cause is not None
        and cause.dimension == truth_dimension
        and set(truth_values) <= set(cause.values)
    )
    return {
        "scored": True,
        "category": metric,
        "truth_dimension": truth_dimension,
        "truth_values": truth_values,
        "dimension": cause.dimension if cause else None,
        "values": sorted(cause.values) if cause else [],
        "explanatory_power": cause.explanatory_power if cause else 0.0,
        "correct": correct,
    }


def run_scenario(scenario: OutageScenario) -> dict[str, Any]:
    """Replay one family member through the daily job; measure KPIs.

    Every day's labeled faults are rendered as catalog events and
    ingested into a fresh job's events table; the day's CDI comes from
    the job's fleet report and the day's AIR from the same partition's
    raw rows.  The returned record is plain data, a pure function of
    ``scenario``.
    """
    catalog = default_catalog()
    job = DailyCdiJob(
        EngineContext(parallelism=2), TableStore(), ConfigDB(), catalog,
    )
    job.store_weights(default_weights())
    services = {
        vm: ServicePeriod(0.0, scenario.day_seconds)
        for vm in scenario.vm_ids
    }

    air_daily: list[float] = []
    interruptions_daily: list[int] = []
    cdi_daily: dict[str, list[float]] = {key: [] for key, _ in CDI_METRICS}
    vm_rows: list[list[dict[str, Any]]] = []
    for day, partition in enumerate(day_partitions(scenario.days)):
        labeled = labeled_day_faults(
            scenario.vm_ids, scenario.rates, day, seed=scenario.seed,
            incidents=scenario.incidents,
            day_seconds=scenario.day_seconds,
        )
        events = []
        for lf in labeled:
            period = fault_to_period(lf.fault, catalog)
            events.append(Event(
                name=period.name, time=period.end, target=period.target,
                expire_interval=_EXPIRE_INTERVAL, level=period.level,
                attributes={"duration": period.duration},
            ))
        job.ingest_events(events, partition)
        result = job.run(partition, services)
        for key, category in CDI_METRICS:
            cdi_daily[key].append(result.fleet_report.sub_metric(category))
        rows = job.tables.get(EVENTS_TABLE).rows(partition=partition)
        air_report = air_from_rows(rows, services, catalog)
        air_daily.append(air_report.air)
        interruptions_daily.append(air_report.interruptions)
        vm_rows.append(job.output_rows(partition)[0])

    kpis: dict[str, Any] = {"air": _kpi_stats(air_daily)}
    kpis["air"]["daily_interruptions"] = interruptions_daily
    for key, _ in CDI_METRICS:
        kpis[key] = _kpi_stats(cdi_daily[key])

    air_flagged = kpis["air"]["flagged"]
    cdi_flagged = any(kpis[key]["flagged"] for key, _ in CDI_METRICS)
    record: dict[str, Any] = {
        "name": scenario.name,
        "description": scenario.description,
        "expected": {"air": scenario.expect_air,
                     "cdi": scenario.expect_cdi},
        "kpis": kpis,
        "air_flagged": air_flagged,
        "cdi_flagged": cdi_flagged,
        "verdict": _verdict(air_flagged, cdi_flagged),
        "matches_expected": (air_flagged is scenario.expect_air
                             and cdi_flagged is scenario.expect_cdi),
        "rca": (_score_rca(scenario, vm_rows)
                if scenario.rca_scored else {"scored": False}),
    }
    return record


def run_faceoff(seed: int = 0) -> dict[str, Any]:
    """The full head-to-head study: every family member, one artifact.

    Returns the plain-data result :func:`faceoff_json` serializes —
    per-scenario KPI records plus a summary (scenario names per
    verdict, RCA localization accuracy over the scored members, and
    whether every scenario matched its designed expectation).
    """
    scenarios = outage_family(seed)
    records = [run_scenario(s) for s in scenarios]
    by_verdict: dict[str, list[str]] = {}
    for record in records:
        by_verdict.setdefault(record["verdict"], []).append(record["name"])
    scored = [r for r in records if r["rca"]["scored"]]
    correct = [r for r in scored if r["rca"]["correct"]]
    return {
        "schema_version": 1,
        "seed": seed,
        "days": scenarios[0].days,
        "flag_ratio": FLAG_RATIO,
        "fleet": {
            "vms": len(scenarios[0].vm_ids),
            "clusters": len(scenarios[0].fleet.clusters),
        },
        "scenarios": records,
        "summary": {
            "verdicts": {v: sorted(names)
                         for v, names in sorted(by_verdict.items())},
            "air_blind_scenarios": sorted(
                r["name"] for r in records if r["verdict"] == "air_blind"
            ),
            "cdi_blind_scenarios": sorted(
                r["name"] for r in records if r["verdict"] == "cdi_blind"
            ),
            "rca": {
                "scored": len(scored),
                "correct": len(correct),
                "accuracy": (len(correct) / len(scored)) if scored else 0.0,
            },
            "expectations_met": all(r["matches_expected"] for r in records),
        },
    }


def faceoff_json(result: dict[str, Any]) -> str:
    """Canonical byte-deterministic serialization of a faceoff result."""
    return json.dumps(result, indent=2, sort_keys=True) + "\n"
