"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
prints the corresponding rows/series, so ``pytest benchmarks/
--benchmark-only -s`` doubles as the experiment reproduction run.
Simulation benchmarks use ``benchmark.pedantic`` with a single round:
the timing is reported for completeness, but the artifact is the
printed table.  Speed is measured in one place only, ``benchmarks/e2e/``
(see its README).
"""

from __future__ import annotations

from typing import Mapping, Sequence


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
