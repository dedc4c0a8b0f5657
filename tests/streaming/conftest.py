"""Shared plumbing for the streaming differential suites.

The two sides of every differential assertion live here: a streaming
runner (append arrivals chunk by chunk, tick, flush, read the
published tables) and the batch oracle (a plain ``DailyCdiJob`` over
the same events), both reduced to canonical JSON bytes.
"""

from __future__ import annotations

import json
import random

from repro.core.events import Event, default_catalog
from repro.core.weights import expert_only_config
from repro.engine.dataset import EngineContext
from repro.pipeline.daily import WEIGHTS_CONFIG_KEY, DailyCdiJob
from repro.pipeline.tables import EVENT_CDI_TABLE, VM_CDI_TABLE
from repro.storage.configdb import ConfigDB
from repro.storage.logstore import LogStore
from repro.storage.table import TableStore
from repro.streaming import (
    StreamCheckpoint,
    StreamingCdiPipeline,
    event_record,
)

PARTITION = "stream-day"

#: ``use_fastpath`` of the two batch jobs every differential assertion
#: covers: the columnar production path and the reference oracle.
ALL_PATHS = [True, False]


class SimulatedKill(BaseException):
    """Not an ``Exception``: no handler may swallow the chaos kill."""


class KillingStreamCheckpoint(StreamCheckpoint):
    """A stream checkpoint that dies on its n-th save — before the
    bytes hit disk (crash before checkpoint) or after (crash between
    checkpoint and publish)."""

    def __init__(self, path, *, kill_at: int, site: str) -> None:
        super().__init__(path)
        self._kill_at = kill_at
        self._site = site
        self._saves = 0

    def save(self, snapshot) -> None:
        self._saves += 1
        if self._site == "before" and self._saves == self._kill_at:
            raise SimulatedKill(f"kill before save #{self._saves}")
        super().save(snapshot)
        if self._site == "after" and self._saves == self._kill_at:
            raise SimulatedKill(f"kill after save #{self._saves}")


def make_config_db() -> ConfigDB:
    """A config DB holding the shared expert weight configuration."""
    config = ConfigDB()
    config.put(WEIGHTS_CONFIG_KEY, expert_only_config().to_dict())
    return config


def make_pipeline(log_store: LogStore, services, *,
                  allowed_lateness: float = 600.0, max_buffer: int = 4096,
                  checkpoint=None, tables: TableStore | None = None,
                  rule_engine=None) -> StreamingCdiPipeline:
    """A streaming pipeline wired to fresh output tables and weights."""
    return StreamingCdiPipeline(
        log_store, tables if tables is not None else TableStore(),
        make_config_db(), default_catalog(), services, PARTITION,
        allowed_lateness=allowed_lateness, max_buffer=max_buffer,
        checkpoint=checkpoint, rule_engine=rule_engine,
    )


def published_bytes(tables: TableStore) -> bytes:
    """Canonical JSON of the published vm/event CDI tables."""
    return json.dumps([
        tables.get(VM_CDI_TABLE).rows(partition=PARTITION),
        tables.get(EVENT_CDI_TABLE).rows(partition=PARTITION),
    ], sort_keys=True).encode()


def decoded(snapshot) -> list[dict[str, list]]:
    """A state's typed ``snapshot_columns()`` as plain value lists —
    the comparison form: how a string column is dictionary-encoded is
    not part of its value."""
    return [{name: block.to_pylist() for name, block in columns.items()}
            for columns in snapshot]


def batch_bytes(events: list[Event], services, *,
                use_fastpath: bool = True) -> bytes:
    """The from-scratch batch oracle over ``events``, as bytes."""
    job = DailyCdiJob(EngineContext(parallelism=2), TableStore(),
                      ConfigDB(), default_catalog(),
                      use_fastpath=use_fastpath)
    job.store_weights(expert_only_config())
    job.ingest_events(events, PARTITION)
    job.run(PARTITION, services)
    return published_bytes(job.tables)


def append_events(store: LogStore, events) -> None:
    """Ship events through the log store as pre-extracted records."""
    for event in events:
        store.append(event.time, **event_record(event))


def bounded_lag_arrival(events: list[Event], lateness: float,
                        rng: random.Random) -> list[Event]:
    """Arrival order with per-record lag strictly below ``lateness``.

    The deterministic counterpart of the hypothesis strategy's shuffle:
    sorting by ``time + lag`` with ``lag < lateness`` guarantees the
    tailer's watermark never drops a record (see ``tests.strategies``).
    """
    lags = [rng.uniform(0.0, 0.9 * lateness) for _ in events]
    order = sorted(range(len(events)),
                   key=lambda i: (events[i].time + lags[i], i))
    return [events[i] for i in order]


def oracle_order(arrival: list[Event]) -> list[Event]:
    """Arrivals reordered to ``(time, arrival index)`` — the exact
    sequence the tailer releases them in (its release-order theorem),
    so a batch job over this list is the fair from-scratch oracle."""
    indexed = sorted(enumerate(arrival),
                     key=lambda pair: (pair[1].time, pair[0]))
    return [event for _, event in indexed]


def chunked(arrival: list[Event], chunks: int) -> list[list[Event]]:
    """Split arrivals into ``chunks`` contiguous per-tick batches."""
    if chunks <= 1:
        return [list(arrival)]
    size = max(1, len(arrival) // chunks)
    out = [list(arrival[i:i + size])
           for i in range(0, len(arrival), size)]
    while len(out) > chunks:
        out[-2].extend(out[-1])
        del out[-1]
    return out


def run_stream(arrival: list[Event], services, *,
               allowed_lateness: float = 600.0, chunks: int = 4,
               checkpoint=None, max_buffer: int = 4096):
    """Drive a whole stream: per-chunk append + tick, then flush.

    Returns ``(pipeline, tables, ticks)`` with the published output
    left in ``tables``.
    """
    store = LogStore()
    tables = TableStore()
    pipeline = make_pipeline(
        store, services, allowed_lateness=allowed_lateness,
        max_buffer=max_buffer, checkpoint=checkpoint, tables=tables,
    )
    ticks = []
    for chunk in chunked(arrival, chunks):
        append_events(store, chunk)
        ticks.append(pipeline.tick())
    ticks.append(pipeline.flush())
    return pipeline, tables, ticks
