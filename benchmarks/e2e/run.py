"""One end-to-end benchmark of the whole CDI platform path.

    python3 benchmarks/e2e/run.py --seed N [--workload W] [--repeats R]
                                  [--seconds S] [--traced] [--smoke]
                                  [--out DIR]
    python3 benchmarks/e2e/run.py compare A.json B.json

Without ``--workload`` all six workloads run (a *run set*): every named
metric is printed with its unit, the oracles run, the result document
goes to ``--out`` and one line is appended to ``history.jsonl``.  With
``--workload`` one workload runs and the last stdout line is the JSON
object the benchmark contract asks for (``--trace 0`` end-to-end
metrics, ``--trace 1`` per-layer metrics).

Every repetition of a workload is a fresh subprocess (``child.py``);
end-to-end metrics are medians over the untraced repetitions.  A traced
run interleaves traced and untraced repetitions so that the tracing
overhead is measured in the same minute as the layer numbers.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import workloads  # noqa: E402

HISTORY = HERE / "history.jsonl"
DEFAULT_REPEATS = 5
SMOKE_REPEATS = 3
SMOKE_PHASE_S = 0.5


def benchmark_json() -> dict[str, Any]:
    """The repo-root contract file (bounds, ``run_seconds``)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- measurement conditions --------------------------------------------------------


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def conditions(args: argparse.Namespace) -> dict[str, Any]:
    """Where and how this run was measured (SPEC-RG: a metric counts
    only with its measurement conditions stated)."""
    import numpy

    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    status = _git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": args.seed,
        "mode": "smoke" if args.smoke else "full",
        "repeats": args.repeats,
        "seconds": args.seconds,
        "sizes": workloads.sizes(args.smoke),
    }


# -- running repetitions ---------------------------------------------------------


def run_child(workload: str, seed: int, work_dir: Path, *, smoke: bool,
              traced: bool, oracle: bool,
              spans_out: Path | None) -> dict[str, Any]:
    """One repetition of an in-process workload in a fresh interpreter."""
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--work-dir", str(work_dir)]
    for flag, on in (("--smoke", smoke), ("--traced", traced),
                     ("--oracle", oracle)):
        if on:
            command.append(flag)
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} repetition exited {done.returncode}")
    out = json.loads(done.stdout.splitlines()[-1])
    out["failed"] = len(out["problems"])
    return out


def trace_plan(repeats: int, traced: bool) -> list[bool]:
    """Which repetitions are traced: none, or every other one starting
    with the first (T U T U T), so both kinds see the same machine."""
    return [traced and index % 2 == 0 for index in range(repeats)]


def run_workload(workload: str, args: argparse.Namespace,
                 work_dir: Path) -> dict[str, Any]:
    """All repetitions of one workload, aggregated."""
    cfg = workloads.workload_sizes(workload, args.smoke)
    out_dir = Path(args.out) if args.out else None
    serve = workload in workloads.SERVE_WORKLOADS
    if serve:
        import loadgen

        oracle = loadgen.ServeOracle(workload, cfg, args.seed)
        lines = workloads.encode_lines(oracle.payloads)
        streams = workloads.connection_streams(
            workload, len(lines), cfg["connections"], args.seed,
            length=max(20_000, len(lines)))
        phase_s = (SMOKE_PHASE_S if args.smoke
                   else args.seconds / args.repeats)
        affinity = os.sched_getaffinity(0)
        pinning = loadgen.cpu_split()

    reps: list[dict[str, Any]] = []
    plan = trace_plan(args.repeats, args.traced)
    # Repetitions go on past the plan until ``--seconds`` are measured; a
    # traced run's untraced repetitions only price the tracing, so it
    # stops at the plan.
    fixed = serve or args.smoke or args.traced
    limit = len(plan) if fixed else 2 * len(plan)
    index = 0
    while index < limit:
        traced = plan[index % len(plan)]
        spans_out = (out_dir / f"spans-{workload}-rep{index}.ndjson"
                     if traced and out_dir else None)
        if serve:
            rep = loadgen.serve_repetition(
                workload, cfg, args.seed, work_dir, smoke=args.smoke,
                traced=traced, phase_s=phase_s, oracle=oracle, lines=lines,
                streams=streams, spans_out=spans_out, pinning=pinning)
        else:
            rep = run_child(workload, args.seed, work_dir, smoke=args.smoke,
                            traced=traced, oracle=index == 0,
                            spans_out=spans_out)
        rep["traced"] = traced
        reps.append(rep)
        index += 1
        measured = sum(r["timed_s"] for r in reps if not r["traced"])
        if index >= len(plan) and measured >= args.seconds:
            break
    if serve:
        oracle.close()
        os.sched_setaffinity(0, affinity)
    return aggregate(workload, reps)


def end_to_end_of(rep: dict[str, Any]) -> dict[str, float]:
    """One repetition's end-to-end metrics (all but the ops ratio)."""
    return {
        "setup_s": rep["setup_s"],
        "throughput_per_s": rep["work_units"] / rep["timed_s"],
        "latency_p50_ms": rep["latency_p50_ms"],
        "latency_tail_ms": rep["latency_tail_ms"],
        "peak_rss_mb": rep["peak_rss_mb"],
        "cpu_s_per_kop": rep["cpu_s"] / (rep["work_units"] / 1000.0),
    }


def aggregate(workload: str, reps: list[dict[str, Any]]) -> dict[str, Any]:
    """Medians over repetitions, the failure count, the layer numbers."""
    problems = [problem for rep in reps for problem in rep["problems"]]
    digests = {rep["digest"] for rep in reps if "digest" in rep}
    extra_failed = 0
    if len(digests) > 1:
        problems.append("outputs differ between repetitions of one seed")
        extra_failed = 1
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps) + extra_failed
    failed_ratio = min(1.0, failed / attempted)

    untraced = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    per_rep = [end_to_end_of(rep) for rep in untraced]
    end_to_end = {}
    for name, unit, _, _ in metrics.END_TO_END:
        values = ([1.0 - failed_ratio] if name == "ok_ops_ratio"
                  else [rep[name] for rep in per_rep])
        q1, median, q3 = metrics.quartiles(values)
        end_to_end[name] = {"value": median, "unit": unit, "q1": q1,
                            "q3": q3, "values": values}
    result = {
        "why": workloads.WORKLOADS[workload],
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "repetitions": len(reps), "traced_repetitions": len(traced),
        "latency_samples": untraced[0]["latency_samples"],
        "sizes": reps[0]["sizes"],
        "digest": sorted(digests)[0] if digests else None,
        "setup_breakdown": {
            key: statistics.median(rep["setup_breakdown"][key]
                                   for rep in reps)
            for key in reps[0]["setup_breakdown"]
        },
        "end_to_end": end_to_end,
    }
    if traced:
        layer_values: dict[str, list[float]] = {}
        for rep in traced:
            for name, value in {**rep["layers"],
                                **rep.get("counters", {})}.items():
                layer_values.setdefault(name, []).append(value)
        layers = {name: statistics.median(values)
                  for name, values in layer_values.items()}
        layers["trace.overhead_ratio"] = (
            statistics.median(end_to_end_of(rep)["throughput_per_s"]
                              for rep in traced)
            / end_to_end["throughput_per_s"]["value"])
        layers["failed_ops_ratio"] = failed_ratio
        result["per_layer"] = metrics.with_units(layers,
                                                 metrics.PER_LAYER_UNITS)
        result["trace"] = traced[-1]["trace"]
    return result


# -- reporting ---------------------------------------------------------------------


def print_workload(workload: str, result: dict[str, Any]) -> None:
    """Every metric by name with its unit, human-readable."""
    print(f"\n== {workload}: {result['repetitions']} repetitions "
          f"({result['traced_repetitions']} traced), sizes "
          f"{result['sizes']}, digest {result['digest']}")
    for name, entry in result["end_to_end"].items():
        note = (f"  ({result['latency_samples']} samples)"
                if name.startswith("latency") else "")
        print(f"  {name:<22} {entry['value']:>14.6g} {entry['unit']:<6}"
              f" [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}]{note}")
    print(f"  {'failed_ops_ratio':<22} "
          f"{result['failed'] / result['attempted']:>14.6g} ratio  "
          f"({result['failed']} of {result['attempted']})")
    for key, seconds in result["setup_breakdown"].items():
        print(f"  setup: {key:<27} {seconds:>10.4f} s")
    for problem in result["problems"]:
        print(f"  ORACLE: {problem}")
    if "per_layer" in result:
        for name, entry in result["per_layer"].items():
            if entry["value"]:
                print(f"  layer {name:<36} {entry['value']:>14.6g} "
                      f"{entry['unit']}")
        shares = result["trace"]["self_by_span"]
        total = sum(shares.values()) or 1.0
        top = ", ".join(f"{name} {seconds / total:.0%}"
                        for name, seconds in list(shares.items())[:5])
        print(f"  self time by span: {top}")


def gap_owners(results: dict[str, dict[str, Any]]) -> list[str]:
    """Name the layer that owns each of the two ROADMAP gaps."""
    lines = []
    batch = results.get("batch_day")
    if batch and "per_layer" in batch:
        layers = batch["per_layer"]
        kernel_s = layers["core.kernel_s"]["value"]
        kernel_rate = (layers["core.kernel_events"]["value"] / kernel_s
                       if kernel_s else float("nan"))
        rate = batch["end_to_end"]["throughput_per_s"]["value"]
        owner, seconds = next(iter(batch["trace"]["self_by_span"].items()))
        total = sum(batch["trace"]["self_by_span"].values())
        lines.append(
            f"kernel-vs-fleet gap: kernel {kernel_rate:,.0f} events/s vs "
            f"batch_day {rate:,.0f} events/s ({kernel_rate / rate:.1f}x, "
            f"base batch_day); owner layer: {owner} "
            f"({seconds / total:.0%} of the timed region's self time)")
    wide = results.get("serve_wide")
    if wide and "per_layer" in wide:
        layers = wide["per_layer"]
        respond = layers["serving.respond_us"]["value"]
        wire = layers["serving.wire_us"]["value"]
        owner = ("serving.wire (socket + event loop + executor hand-off)"
                 if wire >= respond else "serving.respond (respond_line)")
        lines.append(
            f"in-process-vs-TCP gap: respond_line p50 {respond:.0f} us vs "
            f"round trip p50 {respond + wire:.0f} us "
            f"({(respond + wire) / respond:.1f}x, base respond_line) on "
            f"serve_wide; owner layer: {owner}")
    return lines


def contract_line(result: dict[str, Any], trace: bool) -> str:
    """The benchmark contract's final stdout line."""
    entries = result["per_layer"] if trace else result["end_to_end"]
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in entries.items()},
    })


def append_history(document: dict[str, Any]) -> None:
    """One line per run set: the perf trajectory as a file."""
    cond = document["conditions"]
    line = {
        "ts": document["ts"],
        **{key: cond[key] for key in (
            "git_sha", "git_dirty", "seed", "python", "numpy", "nproc",
            "cpu_model", "platform", "repeats", "seconds")},
        "traced": document["traced"], "claim": None,
        "medians": {
            workload: {name: entry["value"]
                       for name, entry in result["end_to_end"].items()}
            for workload, result in document["workloads"].items()
        },
    }
    with HISTORY.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


# -- compare -----------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """A (base) against B, one row per workload × end-to-end metric."""
    bounds = {entry["name"]: (entry["better"], entry["bound"])
              for entry in benchmark_json()["end_to_end"]}
    doc_a = json.loads(Path(path_a).read_text())
    doc_b = json.loads(Path(path_b).read_text())
    print(f"{'workload':<14}{'metric':<18}{'A median [q1, q3]':<34}"
          f"{'B median [q1, q3]':<34}{'B/A':>8}  verdict")
    worse = 0
    for workload, result_a in doc_a["workloads"].items():
        result_b = doc_b["workloads"].get(workload)
        if result_b is None:
            continue
        for name, (better, bound) in bounds.items():
            a, b = result_a["end_to_end"][name], result_b["end_to_end"][name]
            verdict = judge(a, b, better, bound)
            worse += verdict == "worse"
            print(f"{workload:<14}{name:<18}{cell(a):<34}{cell(b):<34}"
                  f"{b['value'] / a['value']:>8.3f}  {verdict}")
    print(f"ratios are B/A with base A = {path_a}; a bound is the share of "
          "A's median by which B may be worse")
    return 1 if worse else 0


def cell(entry: dict[str, Any]) -> str:
    """``median [q1, q3]`` of one metric entry."""
    return f"{entry['value']:.5g} [{entry['q1']:.5g}, {entry['q3']:.5g}]"


def judge(a: dict[str, Any], b: dict[str, Any], better: str,
          bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    spread = max((entry["q3"] - entry["q1"]) / entry["value"]
                 for entry in (a, b))
    if spread > bound:
        b_all_better = (max(sign * v for v in b["values"])
                        < min(sign * v for v in a["values"]))
        return "ok" if b_all_better else "unresolved"
    excess = sign * (b["value"] - a["value"]) / a["value"]
    return "worse" if excess > bound else "ok"


# -- entry -------------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per workload run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--repeats", type=int,
                        help=f"repetitions per workload (default "
                             f"{DEFAULT_REPEATS}, smoke {SMOKE_REPEATS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="directory for the result document "
                                      "and the span files")
    args = parser.parse_args(argv)
    args.traced = bool(args.trace)
    if args.repeats is None:
        args.repeats = SMOKE_REPEATS if args.smoke else DEFAULT_REPEATS
    if args.repeats < 2 and args.traced:
        parser.error("a traced run needs --repeats >= 2")
    if args.seconds is None:
        args.seconds = (0.0 if args.smoke
                        else float(benchmark_json()["run_seconds"]))
    return args


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 1
    args = parse_args(argv)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    work_dir = HERE / ".work" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = {}
    try:
        for workload in names:
            results[workload] = run_workload(workload, args, work_dir)
            print_workload(workload, results[workload])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    document = {
        "ts": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "claim": None, "traced": args.traced,
        "conditions": conditions(args), "workloads": results,
    }
    print("\nconditions: " + json.dumps(document["conditions"]))
    for line in gap_owners(results):
        print(line)
    if args.out:
        path = Path(args.out) / "result.json"
        path.write_text(json.dumps(document, indent=1) + "\n")
        print(f"result document: {path}")
    correct = all(result["correct"] for result in results.values())
    if args.workload:
        print(contract_line(results[args.workload], args.traced))
    else:
        if not args.smoke:
            append_history(document)
        print(json.dumps({"correct": correct, "workloads": {
            workload: {name: entry["value"]
                       for name, entry in result["end_to_end"].items()}
            for workload, result in results.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
