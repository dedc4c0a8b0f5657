"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
prints the corresponding rows/series, so ``pytest benchmarks/
--benchmark-only -s`` doubles as the experiment reproduction run.
Simulation benchmarks use ``benchmark.pedantic`` with a single round:
the timing is reported for completeness, but the artifact is the
printed table.

The environment knobs every bench script honours are parsed here, in
one place, so CI and local runs configure them identically:

* ``REPRO_BENCH_VM_COUNT`` — fleet size (:func:`bench_vm_count`);
* ``REPRO_BENCH_FLEET_VM_COUNTS`` — comma-separated scaling-curve
  points (:func:`bench_vm_counts`);
* ``REPRO_BENCH_DAYS`` — backfill length (:func:`bench_days`);
* ``REPRO_BENCH_RESULT_PATH`` / ``REPRO_BENCH_SERVING_RESULT_PATH`` /
  ... — JSON artifact destinations (:func:`bench_result_path`);
* ``REPRO_BENCH_CLIENTS`` — concurrent closed-loop clients for the
  serving load benchmark (:func:`bench_clients`);
* ``REPRO_BENCH_DURATION_S`` — measurement window per load phase in
  seconds (:func:`bench_duration_s`);
* ``REPRO_CHAOS_SEED`` — pins the chaos-test seed matrix to one seed
  (:func:`chaos_seed`).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Mapping, Sequence

#: The repository root (where committed ``BENCH_*.json`` artifacts live).
REPO_ROOT = Path(__file__).resolve().parent.parent


def env_int(name: str, default: int) -> int:
    """Integer env knob with a default."""
    return int(os.environ.get(name, str(default)))


def bench_vm_count(default: int) -> int:
    """Fleet size for one-fleet benches (``REPRO_BENCH_VM_COUNT``)."""
    return env_int("REPRO_BENCH_VM_COUNT", default)


def bench_vm_counts(default: Sequence[int]) -> list[int]:
    """Scaling-curve VM counts (``REPRO_BENCH_FLEET_VM_COUNTS``).

    The knob is a comma-separated list, e.g. ``1000,10000,100000``.
    """
    raw = os.environ.get("REPRO_BENCH_FLEET_VM_COUNTS")
    if raw is None:
        return list(default)
    return [int(part) for part in raw.split(",") if part.strip()]


def bench_days(default: int) -> int:
    """Backfill length in days (``REPRO_BENCH_DAYS``)."""
    return env_int("REPRO_BENCH_DAYS", default)


def bench_clients(default: int) -> int:
    """Concurrent closed-loop clients (``REPRO_BENCH_CLIENTS``)."""
    return env_int("REPRO_BENCH_CLIENTS", default)


def bench_duration_s(default: float) -> float:
    """Seconds per load-measurement phase (``REPRO_BENCH_DURATION_S``)."""
    return float(os.environ.get("REPRO_BENCH_DURATION_S", str(default)))


def bench_result_path(filename: str,
                      env: str = "REPRO_BENCH_RESULT_PATH") -> Path:
    """Where a bench writes its JSON artifact.

    Defaults to ``filename`` at the repo root (the committed artifact);
    the ``env`` variable redirects it (CI smoke runs write elsewhere so
    the committed numbers are never clobbered by a scaled-down run).
    """
    return Path(os.environ.get(env) or REPO_ROOT / filename)


def chaos_seed() -> int | None:
    """Pinned chaos seed (``REPRO_CHAOS_SEED``), or ``None`` for the
    full seed matrix."""
    raw = os.environ.get("REPRO_CHAOS_SEED")
    return None if raw is None else int(raw)


def print_table(title: str, headers: Sequence[str],
                rows: Sequence[Sequence[object]]) -> None:
    """Render one reproduced table to stdout."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def print_series(title: str, series: Mapping[str, Sequence[float]],
                 index_name: str = "day") -> None:
    """Render aligned numeric series (a figure's data) to stdout."""
    names = list(series)
    length = max(len(s) for s in series.values())
    rows = []
    for i in range(length):
        row = [i + 1]
        for name in names:
            values = series[name]
            row.append(f"{values[i]:.5f}" if i < len(values) else "")
        rows.append(row)
    print_table(title, [index_name] + names, rows)


def run_once(benchmark, fn, *args, **kwargs):
    """Run a scenario exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
