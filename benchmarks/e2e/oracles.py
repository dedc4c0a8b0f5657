"""Untimed correctness oracles, one per workload.

Each returns a list of problems (empty = correct).  They take plain
data — rows, responses, scorecards — so ``test_harness.py`` can tamper
with an answer and watch the oracle trip.  Every oracle recomputes from
the inputs or from the output tables by a path the run under test did
not take: the reference Algorithm 1 sweep, a from-scratch batch job, a
cold ``QueryService``, or plain Python loops over rows.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping, Sequence

CATEGORIES = ("unavailability", "performance", "control_plane")


def canonical(value: Any) -> str:
    """The byte-for-byte comparison form the repo's differentials use."""
    return json.dumps(value, sort_keys=True)


def digest(value: Any) -> str:
    """Short digest of a JSON-able value, for run-to-run comparison."""
    return hashlib.sha256(canonical(value).encode()).hexdigest()[:16]


def output_rows(tables: Any, partition: str) -> list[list[dict[str, Any]]]:
    """``[vm_cdi rows, event_cdi rows]`` of one partition."""
    from repro.pipeline.tables import EVENT_CDI_TABLE, VM_CDI_TABLE

    return [tables.get(VM_CDI_TABLE).rows(partition=partition),
            tables.get(EVENT_CDI_TABLE).rows(partition=partition)]


def _new_job(**options: Any) -> Any:
    from repro.core.events import default_catalog
    from repro.engine.dataset import EngineContext
    from repro.pipeline.daily import DailyCdiJob
    from repro.scenarios.common import default_weights
    from repro.storage.configdb import ConfigDB
    from repro.storage.table import TableStore

    job = DailyCdiJob(EngineContext(parallelism=2, backend="thread"),
                      TableStore(), ConfigDB(), default_catalog(), **options)
    job.store_weights(default_weights())
    return job


def reference_vm_rows(events: Sequence[Any],
                      services: Mapping[str, Any]) -> list[dict[str, Any]]:
    """``vm_cdi`` rows by the paper's Algorithm 1 executed literally
    (``repro.core.indicator`` through the job's reference path)."""
    job = _new_job(use_fastpath=False)
    job.ingest_events(events, "oracle")
    job.run("oracle", services)
    return job.output_rows("oracle")[0]


def _report_dict(report: Any) -> dict[str, float]:
    return {name: getattr(report, name)
            for name in (*CATEGORIES, "service_time")}


def expected_cold_answer(payload: Mapping[str, Any],
                         vm_rows: Sequence[Mapping[str, Any]],
                         event_rows: Sequence[Mapping[str, Any]]) -> Any:
    """One query's ``result`` recomputed with loops over the table rows."""
    from repro.pipeline.daily import fleet_report_from_columns

    kind = payload["kind"]
    if kind == "fleet":
        columns = {name: [row[name] for row in vm_rows]
                   for name in (*CATEGORIES, "service_time")}
        return _report_dict(fleet_report_from_columns(columns))
    if kind == "vm":
        return next((dict(row) for row in vm_rows
                     if row["vm"] == payload["vm"]), None)
    if kind == "top-vms":
        category = payload["category"]
        ranked = sorted(
            ((row[category], row["vm"]) for row in vm_rows
             if row[category] > 0),
            key=lambda pair: (-pair[0], pair[1]),
        )
        return [{"vm": vm, "value": value}
                for value, vm in ranked[:payload["k"]]]
    if kind == "top-events":
        numerator: dict[str, float] = {}
        denominator: dict[str, float] = {}
        for row in event_rows:
            name = row["event"]
            numerator[name] = (numerator.get(name, 0.0)
                               + row["service_time"] * row["cdi"])
            denominator[name] = (denominator.get(name, 0.0)
                                 + row["service_time"])
        totals = {
            name: (numerator[name] / denominator[name]
                   if denominator[name] else 0.0)
            for name in sorted(numerator)
        }
        ranked = sorted(totals.items(), key=lambda pair: -pair[1])
        return [{"event": name, "value": value}
                for name, value in ranked[:payload["k"]] if value > 0]
    raise ValueError(f"no row oracle for query kind {kind!r}")


def check_batch_day(*, ingested: int, vm_count: int, result: Any,
                    vm_rows: Sequence[Mapping[str, Any]],
                    event_rows: Sequence[Mapping[str, Any]],
                    cold: Sequence[tuple[Mapping[str, Any],
                                         Mapping[str, Any]]],
                    sample_events: Sequence[Any],
                    sample_services: Mapping[str, Any]) -> list[str]:
    """Counts, cold answers vs the output table, sampled VMs vs Algorithm 1."""
    problems = []
    if result.event_count != ingested:
        problems.append(
            f"job counted {result.event_count} events, {ingested} ingested")
    if result.vm_count != vm_count or len(vm_rows) != vm_count:
        problems.append(
            f"vm_cdi has {len(vm_rows)} rows / job says {result.vm_count}, "
            f"fleet has {vm_count}")
    for payload, response in cold:
        expected = {"ok": True, "kind": payload["kind"],
                    "result": expected_cold_answer(payload, vm_rows,
                                                   event_rows)}
        if canonical(response) != canonical(expected):
            problems.append(f"cold {payload['kind']} answer differs from "
                            "the output table")
    produced = {row["vm"]: row for row in vm_rows}
    for row in reference_vm_rows(sample_events, sample_services):
        if canonical(produced.get(row["vm"])) != canonical(row):
            problems.append(f"vm_cdi row of {row['vm']} differs from "
                            "Algorithm 1")
    return problems


def check_stream_day(*, streamed: Any, arrival: Sequence[Any],
                     services: Mapping[str, Any], partition: str,
                     late_dropped: int) -> list[str]:
    """Published tables byte-equal a from-scratch batch job over the
    same events (in the tailer's release order); nothing dropped."""
    problems = []
    if late_dropped:
        problems.append(f"{late_dropped} records dropped as late")
    ordered = [event for _, event in sorted(
        enumerate(arrival), key=lambda pair: (pair[1].time, pair[0]))]
    job = _new_job()
    job.ingest_events(ordered, partition)
    job.run(partition, services)
    if canonical(streamed) != canonical(output_rows(job.tables, partition)):
        problems.append("streamed tables differ from the batch recompute")
    return problems


#: Lowest panel-mean recall and precision a closed loop may reach.  The
#: detectors are statistical: about 1 seeded scenario in 100 misses one
#: of its three incidents or flags a quiet day, so "1.0 on every seed"
#: is not a property the controller has; a broken loop reads near 0.
CONTROL_FLOOR = 0.9


def check_control(cards: Sequence[Any],
                  reference_json: Mapping[int, str]) -> list[str]:
    """The panel found its incidents and flagged little else; every
    scorecard listed in ``reference_json`` (index → ``scorecard_json`` of
    an independent serial rerun of that scenario) is byte-equal to it."""
    from repro.control import scorecard_json

    problems = []
    for name in ("recall", "precision"):
        mean = sum(getattr(card, name) for card in cards) / len(cards)
        if mean < CONTROL_FLOOR:
            problems.append(f"panel mean {name} {mean:.3f} is below "
                            f"{CONTROL_FLOOR}")
    problems.extend(
        f"scenario {index}: scorecard differs from its serial rerun"
        for index, reference in sorted(reference_json.items())
        if scorecard_json(cards[index]) != reference)
    return problems


SHED_KINDS = ("unavailable", "overloaded", "rate_limited")


def expected_line(service: Any, payload: Mapping[str, Any]) -> bytes:
    """The wire bytes a correct server sends for ``payload``."""
    from repro.serving import run_query

    return (canonical(run_query(service, payload)) + "\n").encode()


def classify_response(raw: bytes, expected: bytes) -> str:
    """``ok`` / ``shed`` (typed refusal) / ``wrong`` for one response."""
    if raw == expected:
        return "ok"
    try:
        response = json.loads(raw)
    except ValueError:
        return "wrong"
    if (isinstance(response, dict) and response.get("ok") is False
            and response.get("error", {}).get("kind") in SHED_KINDS):
        return "shed"
    return "wrong"
