"""Checkpoint/resume for the daily CDI job.

The production daily job (Section V) runs on a Spark cluster where a
driver restart mid-job is routine; rerunning the whole fleet from
scratch would blow the daily deadline.  This module gives the
reproduction the same property: the job computes in **VM shards**
(contiguous ranges of the sorted VM list) and appends every finished
shard's output columns to a log of sealed records
(:class:`~repro.storage.recordlog.RecordLog`).  A shard record *is* its
manifest row, so a shard is never marked complete without its data, and
saving shard *n* costs shard *n*, not shards ``0..n``.  A killed job
resumed with the same inputs recomputes only the unfinished shards and
produces byte-identical output tables, because the fleet kernel's
per-VM results are exact per group and therefore independent of which
other VMs share a sweep.

One checkpoint file corresponds to one ``(job, day-partition)`` run.
Its identity is a **fingerprint** over everything that affects the
output (day partition, VM list with service bounds, weight-config
version, shard count, compute path); a resume against a mismatched
fingerprint — or a file that is not a checkpoint log, such as the
whole-file JSON checkpoints of earlier versions — starts over rather
than mixing incompatible shards.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.pipeline.tables import event_cdi_schema, vm_cdi_schema
from repro.storage.recordlog import RecordLog
from repro.storage.schema import Schema


def shard_units(count: int) -> list[str]:
    """Stable shard unit labels: shard-0000, shard-0001, ..."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return [f"shard-{index:04d}" for index in range(count)]


def split_shards(items: Sequence[str], shards: int) -> list[list[str]]:
    """Split a sorted VM list into contiguous balanced shards.

    Contiguity is what makes shard-order concatenation reproduce the
    globally sorted output order byte for byte.  Shards never exceed
    the item count (no empty shards).
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    parts = min(shards, len(items)) or 1
    base, extra = divmod(len(items), parts)
    out: list[list[str]] = []
    cursor = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        out.append(list(items[cursor:cursor + size]))
        cursor += size
    return out


def job_fingerprint(partition: str, services: Mapping[str, Any],
                    weights_version: int, shards: int,
                    compute_path: str) -> str:
    """Digest of everything that determines the job's output.

    ``services`` values must expose ``start``/``end`` (the
    :class:`~repro.core.indicator.ServicePeriod` protocol).
    """
    payload = json.dumps({
        "partition": partition,
        "services": [
            (vm, services[vm].start, services[vm].end)
            for vm in sorted(services)
        ],
        "weights_version": weights_version,
        "shards": shards,
        "compute_path": compute_path,
    }, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()




class JobCheckpoint:
    """Durable shard progress + staged outputs for one daily-job run.

    One regular file at ``path``: a ``begin`` record (fingerprint,
    partition; written atomically), one ``shard`` record per completed
    unit (``event_count`` and both staged column sets, schema-validated
    when recorded and again when replayed) and a closing ``finalized``
    record, each appended and fsynced.  The object is the file's single
    writer: once opened it mirrors the file and is never re-read.
    """

    def __init__(self, path: str | Path,
                 vm_schema: Schema | None = None,
                 event_schema: Schema | None = None) -> None:
        self._log = RecordLog(path)
        self._vm_schema = vm_schema or vm_cdi_schema()
        self._event_schema = event_schema or event_cdi_schema()
        self._mirror(None)

    def _mirror(self, fingerprint: str | None) -> None:
        """Reset the in-memory mirror to an empty run (``None``: closed)."""
        self._fingerprint = fingerprint
        self._finalized = False
        #: unit → (event_count, vm column lists, event column lists)
        self._shards: dict[str, tuple[int, dict[str, list],
                                      dict[str, list]]] = {}

    @property
    def path(self) -> Path:
        """Location of the checkpoint file."""
        return self._log.path

    # -- lifecycle -----------------------------------------------------------

    def load(self) -> bool:
        """Replay the file up to its last intact record; ``False`` when
        there is nothing to resume (no file, or one that does not start
        with an intact ``begin`` record)."""
        records = self._log.replay()
        self._mirror(None)
        if not records or records[0].get("kind") != "begin":
            return False
        try:
            for record in records[1:]:
                if record["kind"] == "shard":
                    self._shards[record["unit"]] = (
                        int(record["event_count"]),
                        self._vm_schema.validated_lists(record["vm"]),
                        self._event_schema.validated_lists(record["event"]),
                    )
                elif record["kind"] == "finalized":
                    self._finalized = True
                else:
                    raise ValueError(
                        f"unknown record kind {record['kind']!r} in "
                        f"checkpoint {self.path}"
                    )
            self._fingerprint = str(records[0]["fingerprint"])
        except (KeyError, TypeError) as error:
            raise ValueError(
                f"malformed record in checkpoint {self.path}: {error!r}"
            ) from None
        return True

    def begin(self, fingerprint: str, partition: str) -> None:
        """Start a fresh run, atomically replacing any previous file."""
        self._log.create({
            "kind": "begin", "fingerprint": fingerprint,
            "partition": partition,
        })
        self._mirror(fingerprint)

    def ensure(self, fingerprint: str, partition: str, *,
               resume: bool = True) -> set[str]:
        """Open (resuming when possible) and return completed units.

        Resumes only when a checkpoint log exists, ``resume`` is on,
        and the stored fingerprint matches; any mismatch — different
        services, weights version, shard count, or compute path — and
        any file that is not a checkpoint log starts a fresh run.  A
        checkpoint already opened through this object is not re-read.
        """
        if (resume and (self._fingerprint is not None or self.load())
                and self._fingerprint == fingerprint):
            return set(self._shards)
        self.begin(fingerprint, partition)
        return set()

    def discard(self) -> None:
        """Delete the checkpoint file (cleanup after a finished run)."""
        self._log.discard()
        self._mirror(None)

    def _require_open(self) -> None:
        if self._fingerprint is None:
            raise RuntimeError(
                "checkpoint not opened — call load(), begin(), or ensure()"
            )

    # -- metadata ------------------------------------------------------------

    def fingerprint(self) -> str | None:
        """The stored run fingerprint."""
        self._require_open()
        return self._fingerprint

    def is_finalized(self) -> bool:
        """Whether every shard completed and the outputs were merged."""
        self._require_open()
        return self._finalized

    def mark_finalized(self) -> None:
        """Record that the merged outputs were written successfully."""
        self._require_open()
        if not self._finalized:
            self._log.append({"kind": "finalized"})
            self._finalized = True

    # -- shard progress ------------------------------------------------------

    def completed_units(self) -> dict[str, int]:
        """Completed shard units mapped to their ``event_count``."""
        self._require_open()
        return {unit: self._shards[unit][0] for unit in sorted(self._shards)}

    def record_shard(self, unit: str, vm_columns: Mapping[str, Sequence],
                     event_columns: Mapping[str, Sequence],
                     event_count: int) -> None:
        """Validate and durably append one shard's output columns —
        one sealed record, so the shard is complete on disk exactly
        when its data is."""
        self._require_open()
        vm = self._vm_schema.validated_lists(vm_columns)
        event = self._event_schema.validated_lists(event_columns)
        self._log.append({
            "kind": "shard", "unit": unit, "event_count": event_count,
            "vm": vm, "event": event,
        })
        self._shards[unit] = (event_count, vm, event)

    def staged_columns(self, unit: str) -> tuple[dict[str, list],
                                                 dict[str, list]]:
        """One shard's staged ``(vm, event)`` output columns."""
        self._require_open()
        return self._shards[unit][1:]

    def merged_columns(self, units: Sequence[str]) -> tuple[dict[str, list],
                                                            dict[str, list]]:
        """Concatenate staged columns across ``units`` in order.

        With contiguous VM shards, unit-order concatenation reproduces
        the canonical global output order exactly.
        """
        staged = [self.staged_columns(unit) for unit in units]
        return tuple(
            {name: list(chain.from_iterable(part[side][name]
                                            for part in staged))
             for name in schema.names}
            for side, schema in enumerate((self._vm_schema,
                                           self._event_schema))
        )
