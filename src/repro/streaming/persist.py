"""Durable stream checkpoints as an append-only sealed record log.

One regular file holds everything a crashed streaming loop needs to
resume exactly: the tailer cursor + watermark + counters, the ordered
log of every applied events-table row (replayed through a fresh
:class:`~repro.streaming.state.IncrementalCdiState` on resume), and
the reordering buffer's pending records.  The file is a
:class:`~repro.storage.recordlog.RecordLog`, like the batch job
checkpoints: a full ``snapshot`` record written atomically (temp +
fsync + rename), then one fsynced ``tick`` record per save carrying the
cursor fields, the rows applied *since the previous save*, and the
(bounded) reordering buffer — a tick's checkpoint costs that tick, not
the day so far.  A kill mid-append leaves a torn last record that the
next load ignores and the next save truncates: the stream resumes from
the previous tick, as if the save had never started.

The snapshot's ``fingerprint`` ties the checkpoint to its stream's
inputs (partition, services, weight-config version, lateness);
resuming against a different stream raises instead of silently
merging state.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.pipeline.tables import events_schema
from repro.storage.logstore import LogEntry
from repro.storage.recordlog import RecordLog

_CURSOR_FIELDS = ("last_seq", "watermark", "ticks", "consumed",
                  "late_dropped", "ignored")
_ROWS_SCHEMA = events_schema()


@dataclass(frozen=True, slots=True)
class StreamSnapshot:
    """Everything one resumable point-in-time of the stream holds."""

    fingerprint: str
    last_seq: int
    watermark: float | None
    ticks: int
    consumed: int
    late_dropped: int
    ignored: int
    rows: list[dict[str, Any]]
    buffer: list[tuple[int, LogEntry]]


class StreamCheckpoint:
    """Save/load of :class:`StreamSnapshot` at one path (single writer).

    The first :meth:`save` of an object that has not :meth:`load`-ed the
    file replaces it with a full snapshot — also how a log is
    compacted; every later save appends the delta.
    """

    def __init__(self, path: str | Path) -> None:
        self._log = RecordLog(path)
        self._fingerprint: str | None = None
        self._persisted = 0  # rows of the row log already in the file

    @property
    def path(self) -> Path:
        """The checkpoint file location."""
        return self._log.path

    def exists(self) -> bool:
        """Whether a checkpoint file is present."""
        return self.path.exists()

    def save(self, snapshot: StreamSnapshot) -> None:
        """Durably record the snapshot (one fsync).

        ``snapshot.rows`` is an append-only log: the rows past what the
        file holds are appended; a snapshot that does not extend the
        file (first save, another stream's fingerprint, a shorter row
        log) rewrites it atomically instead.
        """
        extends = (snapshot.fingerprint == self._fingerprint
                   and len(snapshot.rows) >= self._persisted)
        fresh = snapshot.rows[self._persisted if extends else 0:]
        record = {
            "kind": "tick" if extends else "snapshot",
            **{name: getattr(snapshot, name) for name in _CURSOR_FIELDS},
            "rows": _ROWS_SCHEMA.validated_lists({
                name: [row.get(name) for row in fresh]
                for name in _ROWS_SCHEMA.names
            }),
            "buffer": [
                [seq, entry.time, dict(entry.fields)]
                for seq, entry in snapshot.buffer
            ],
        }
        if extends:
            self._log.append(record)
        else:
            self._log.create({**record, "fingerprint": snapshot.fingerprint})
            self._fingerprint = snapshot.fingerprint
        self._persisted = len(snapshot.rows)

    def load(self) -> StreamSnapshot | None:
        """Replay the latest intact state, or ``None`` if no file exists.

        A file that does not start with an intact snapshot record — a
        damaged header, or a checkpoint in the chunked table-store
        format written before the log existed — raises ``ValueError``:
        stream state is never silently discarded.
        """
        if not self.exists():
            return None
        records = self._log.replay()
        if not records or records[0].get("kind") != "snapshot":
            raise ValueError(
                f"unsupported stream checkpoint format in {self.path}: "
                "expected a sealed record log starting with a snapshot "
                "record (pre-log chunked table-store checkpoints cannot "
                "be resumed)"
            )
        try:
            columns: dict[str, list] = {n: [] for n in _ROWS_SCHEMA.names}
            for record in records:
                delta = _ROWS_SCHEMA.validated_lists(record["rows"])
                for name, values in delta.items():
                    columns[name].extend(values)
            last = records[-1]
            snapshot = StreamSnapshot(
                fingerprint=str(records[0]["fingerprint"]),
                **{name: last[name] for name in _CURSOR_FIELDS},
                rows=[dict(zip(columns, values))
                      for values in zip(*columns.values())],
                buffer=[
                    (int(seq), LogEntry(time=float(time), fields=fields))
                    for seq, time, fields in last["buffer"]
                ],
            )
        except (KeyError, TypeError) as error:
            raise ValueError(
                f"malformed record in stream checkpoint {self.path}: "
                f"{error!r}"
            ) from None
        self._fingerprint = snapshot.fingerprint
        self._persisted = len(snapshot.rows)
        return snapshot
