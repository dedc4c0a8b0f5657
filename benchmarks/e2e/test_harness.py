"""The harness checks itself: ``python3 -m pytest benchmarks/e2e -q``.

Outside tier-1's ``testpaths`` on purpose — these tests start the
benchmark's subprocesses (at ``--smoke`` size) and take about a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PARTITION = "day00"
E2E_NAMES = [name for name, *_ in metrics.END_TO_END]
LAYER_NAMES = [name for name, *_ in metrics.PER_LAYER]


# -- the contract file ---------------------------------------------------------------


def test_benchmark_json_is_the_metric_vocabulary():
    contract = run.benchmark_json()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["workloads"] == [
        {"name": name, "why": why} for name, why in workloads.WORKLOADS.items()]
    assert contract["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in metrics.END_TO_END]
    assert contract["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in metrics.PER_LAYER]
    assert "setup_s" in E2E_NAMES
    assert all(len(entry["why"]) <= 200 for entry in contract["workloads"])


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and ``paths`` the command
    exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "serve_hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


# -- every workload, smoke size, traced ------------------------------------------------


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def smoke(request, tmp_path_factory):
    """One traced smoke run of one workload: (name, stdout, out dir)."""
    out = tmp_path_factory.mktemp(request.param)
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", request.param,
         "--smoke", "--seed", "5", "--trace", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    return request.param, done.stdout, out


def test_smoke_prints_every_per_layer_metric_with_its_unit(smoke):
    _, stdout, _ = smoke
    last = json.loads(stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert list(last["metrics"]) == LAYER_NAMES
    for name, entry in last["metrics"].items():
        assert entry["unit"] == metrics.PER_LAYER_UNITS[name]
        assert isinstance(entry["value"], (int, float))


def test_smoke_result_has_every_end_to_end_metric_and_conditions(smoke):
    workload, stdout, out = smoke
    document = json.loads((out / "result.json").read_text())
    assert document["claim"] is None
    for key in ("python", "numpy", "nproc", "cpu_model", "platform",
                "git_sha", "git_dirty", "seed", "sizes", "repeats"):
        assert key in document["conditions"]
    result = document["workloads"][workload]
    assert list(result["end_to_end"]) == E2E_NAMES
    for name, entry in result["end_to_end"].items():
        assert entry["unit"] == metrics.END_TO_END_UNITS[name]
        assert entry["value"] > 0, f"{name} must never be 0"
        assert name in stdout
    assert result["end_to_end"]["ok_ops_ratio"]["value"] == 1.0
    layers = result["per_layer"]
    assert layers["failed_ops_ratio"]["value"] == 0.0
    assert layers["trace.attributed_ratio"]["value"] >= 0.9
    assert layers["trace.overhead_ratio"]["value"] > 0


def test_smoke_span_files_are_closed_trees(smoke):
    _, _, out = smoke
    files = sorted(out.glob("spans-*.ndjson"))
    assert files, "a traced run writes one span file per traced repetition"
    for path in files:
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records:
            assert record["layer"] == record["name"].split(".", 1)[0]
        tree = [[r["id"], r["parent"], r["name"], r["start"], r["end"],
                 r["thread"], r["tag"]] for r in records]
        assert spans.validate(tree) == []


def test_smoke_leaves_no_scratch_behind(smoke):
    work = HERE / ".work"
    assert not work.exists() or not any(work.iterdir())


def test_contract_line_without_tracing_is_the_end_to_end_metrics():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "stream_day",
         "--smoke", "--seed", "6", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert list(last["metrics"]) == E2E_NAMES
    assert all(entry["value"] > 0 for entry in last["metrics"].values())


# -- oracles trip on a tampered answer ---------------------------------------------------


@pytest.fixture(scope="module")
def small_day():
    """A 60-VM day computed in-process, as plain data for the oracles."""
    from repro.core.events import default_catalog
    from repro.scenarios.common import full_day_services
    from repro.serving import QueryService, run_query

    ids = workloads.vm_ids(60)
    events = [event for _, shard_events in workloads.iter_shard_events(
        ids, 2, 11, default_catalog(), workloads.Stopwatch())
        for event in shard_events]
    services = full_day_services(ids, workloads.DAY)
    job = oracles._new_job()
    ingested = job.ingest_events(events, PARTITION)
    result = job.run(PARTITION, services)
    vm_rows, event_rows = oracles.output_rows(job.tables, PARTITION)
    payloads = [
        {"kind": "fleet", "day": PARTITION},
        {"kind": "top-vms", "day": PARTITION, "category": "performance",
         "k": 5},
        {"kind": "top-events", "day": PARTITION, "k": 5},
        {"kind": "vm", "day": PARTITION, "vm": ids[7]},
    ]
    with QueryService(job.tables) as service:
        cold = [(payload, run_query(service, payload)) for payload in payloads]
    return types.SimpleNamespace(
        events=events, services=services, ingested=ingested, result=result,
        vm_rows=vm_rows, event_rows=event_rows, cold=cold, ids=ids)


def batch_problems(day, **changed):
    arguments = dict(
        ingested=day.ingested, vm_count=len(day.ids), result=day.result,
        vm_rows=day.vm_rows, event_rows=day.event_rows, cold=day.cold,
        sample_events=day.events, sample_services=day.services)
    arguments.update(changed)
    return oracles.check_batch_day(**arguments)


def test_batch_oracle_passes_the_untouched_day(small_day):
    assert small_day.ingested > 0
    assert batch_problems(small_day) == []


def test_batch_oracle_trips_on_a_tampered_row(small_day):
    rows = copy.deepcopy(small_day.vm_rows)
    victim = max(rows, key=lambda row: row["performance"])
    victim["performance"] += 1e-9
    problems = batch_problems(small_day, vm_rows=rows)
    assert any("Algorithm 1" in problem and victim["vm"] in problem
               for problem in problems)
    assert any("cold fleet answer" in problem for problem in problems)


def test_batch_oracle_trips_on_a_tampered_answer_and_count(small_day):
    cold = copy.deepcopy(small_day.cold)
    cold[1][1]["result"] = cold[1][1]["result"][:-1]
    assert batch_problems(small_day, cold=cold) == [
        "cold top-vms answer differs from the output table"]
    assert any("ingested" in problem for problem in batch_problems(
        small_day, ingested=small_day.ingested + 1))


def test_stream_oracle_trips_on_a_tampered_table_and_on_late_drops(small_day):
    arrival = workloads.stream_arrival(small_day.events, 1800.0, seed=4)
    assert sorted(e.time for e in arrival) == sorted(
        e.time for e in small_day.events)
    streamed = [small_day.vm_rows, small_day.event_rows]

    def check(tables, late_dropped=0):
        return oracles.check_stream_day(
            streamed=tables, arrival=arrival, services=small_day.services,
            partition=PARTITION, late_dropped=late_dropped)

    assert check(streamed) == []
    assert check(streamed, late_dropped=2) == ["2 records dropped as late"]
    tampered = copy.deepcopy(streamed)
    tampered[1][0]["cdi"] += 1e-9
    assert check(tampered) == [
        "streamed tables differ from the batch recompute"]


def test_serve_oracle_classifies_ok_shed_and_wrong():
    expected = b'{"kind": "fleet", "ok": true, "result": {"x": 1.0}}\n'
    assert oracles.classify_response(expected, expected) == "ok"
    assert oracles.classify_response(
        expected.replace(b"1.0", b"1.5"), expected) == "wrong"
    assert oracles.classify_response(b"not json\n", expected) == "wrong"
    shed = json.dumps({"ok": False, "error": {"kind": "overloaded"}})
    assert oracles.classify_response(shed.encode(), expected) == "shed"
    refused = json.dumps({"ok": False, "error": {"kind": "bad_request"}})
    assert oracles.classify_response(refused.encode(), expected) == "wrong"


def test_control_oracle_trips_on_a_blind_loop_and_a_changed_scorecard():
    from repro.control import (
        ClosedLoopController,
        scorecard_json,
        seeded_scenario,
    )

    good = types.SimpleNamespace(recall=1.0, precision=1.0)
    missed = types.SimpleNamespace(recall=2 / 3, precision=2 / 3)
    blind = types.SimpleNamespace(recall=0.0, precision=1.0)
    assert oracles.check_control([good] * 23 + [missed], {}) == []
    assert len(oracles.check_control([good, blind], {})) == 1

    card = ClosedLoopController(seeded_scenario(0, days=21)).run()
    same = scorecard_json(card)
    assert oracles.check_control([card], {0: same}) == []
    assert oracles.check_control([card], {0: same.replace("1", "2", 1)}) == [
        "scenario 0: scorecard differs from its serial rerun"]


# -- tracing from outside ----------------------------------------------------------------


def leftover_wrappers() -> list[str]:
    """Every span wrapper reachable from a loaded ``repro`` module."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if spans.is_wrapped(value):
                found.append(f"{module_name}.{attr}")
            elif isinstance(value, type):
                found.extend(f"{module_name}.{attr}.{name}"
                             for name, member in vars(value).items()
                             if spans.is_wrapped(member))
            elif isinstance(value, types.SimpleNamespace):
                found.append(f"{module_name}.{attr} (stand-in namespace)")
    return found


def test_wrappers_record_a_valid_tree_and_are_fully_removed(small_day):
    import layers
    import repro.serving.listener as listener
    from repro.pipeline.daily import DailyCdiJob
    from repro.serving import QueryService, run_query

    assert leftover_wrappers() == []
    recorder = spans.Recorder()
    engine = layers.install(recorder)
    try:
        assert spans.is_wrapped(DailyCdiJob.run)
        assert len(leftover_wrappers()) > 20
        started = time.perf_counter()
        job = oracles._new_job()
        job.ingest_events(small_day.events, PARTITION)
        job.run(PARTITION, small_day.services)
        with QueryService(job.tables) as service:
            run_query(service, {"kind": "fleet", "day": PARTITION})
        ended = time.perf_counter()
    finally:
        recorder.remove()
    assert leftover_wrappers() == []
    assert listener.json is json
    assert not spans.is_wrapped(DailyCdiJob.run)

    assert spans.validate(recorder.spans) == []
    summary = spans.Summary(recorder.spans, [(started, ended)])
    for name in ("pipeline.ingest", "pipeline.run", "storage.scan",
                 "core.kernel", "storage.overwrite", "serving.execute",
                 "serving.rollup"):
        assert summary.count.get(name, 0) >= 1, name
    assert summary.self_seconds("pipeline.run") < summary.seconds(
        "pipeline.run")
    assert engine.metrics()["engine.tasks"] >= 1
    # Untouched outputs: tracing changes no answer.
    assert oracles.canonical(oracles.output_rows(job.tables, PARTITION)) == \
        oracles.canonical([small_day.vm_rows, small_day.event_rows])


def test_self_time_subtracts_the_union_of_children():
    #          id parent name   start end thread tag
    tree = [[1, None, "a.outer", 0.0, 10.0, 1, None],
            [2, 1, "b.left", 1.0, 5.0, 2, None],
            [3, 1, "b.right", 3.0, 7.0, 3, None],
            [4, 2, "c.leaf", 2.0, 3.0, 2, None]]
    assert spans.validate(tree) == []
    summary = spans.Summary(tree, [(0.0, 10.0)])
    assert summary.self_seconds("a.outer") == pytest.approx(4.0)
    assert summary.self_seconds("b.left") == pytest.approx(3.0)
    assert summary.seconds("b.right") == pytest.approx(4.0)
    assert summary.attributed_ratio == pytest.approx(1.0)
    assert summary.self_by_layer() == pytest.approx(
        {"b": 7.0, "a": 4.0, "c": 1.0})
    assert summary.with_children("b.left") == (1, pytest.approx(4.0))


def test_validate_reports_unclosed_and_leaking_spans():
    problems = spans.validate([
        [1, None, "a.outer", 0.0, 1.0, 1, None],
        [2, 1, "a.leak", 0.5, 1.5, 1, None],
        [3, 1, "a.open", 0.6, None, 1, None],
        [4, 9, "a.orphan", 0.1, 0.2, 1, None],
    ])
    assert len(problems) == 3


# -- compare -----------------------------------------------------------------------------


def entry(values):
    q1, median, q3 = metrics.quartiles(values)
    return {"value": median, "q1": q1, "q3": q3, "values": values}


def test_judge_ok_worse_unresolved():
    base = entry([100.0, 101.0, 99.0, 100.5, 99.5])
    assert run.judge(base, entry([104.0, 105.0, 103.0, 104.5, 103.5]),
                     "lower", 0.10) == "ok"
    assert run.judge(base, entry([114.0, 115.0, 113.0, 114.5, 113.5]),
                     "lower", 0.10) == "worse"
    assert run.judge(base, entry([114.0, 115.0, 113.0, 114.5, 113.5]),
                     "higher", 0.10) == "ok"
    noisy = entry([80.0, 130.0, 100.0, 120.0, 90.0])
    assert run.judge(base, noisy, "lower", 0.10) == "unresolved"
    # Wider than the bound, but every run of B beats every run of A.
    assert run.judge(noisy, entry([50.0, 51.0, 49.0, 50.5, 49.5]),
                     "lower", 0.10) == "ok"


def test_compare_exits_nonzero_only_on_worse(tmp_path, capsys):
    def document(throughput):
        end_to_end = {name: entry([1.0] * 5) for name in E2E_NAMES}
        end_to_end["throughput_per_s"] = entry(throughput)
        return {"workloads": {"batch_day": {"end_to_end": end_to_end}}}

    fast = tmp_path / "a.json"
    slow = tmp_path / "b.json"
    fast.write_text(json.dumps(document([100.0, 101.0, 99.0, 100.5, 99.5])))
    slow.write_text(json.dumps(document([80.0, 81.0, 79.0, 80.5, 79.5])))
    assert run.main(["compare", str(fast), str(fast)]) == 0
    assert run.main(["compare", str(slow), str(fast)]) == 0
    assert run.main(["compare", str(fast), str(slow)]) == 1
    printed = capsys.readouterr().out
    assert "worse" in printed and "base A" in printed
    assert printed.count("batch_day") == 3 * len(E2E_NAMES)
