"""Spill-to-disk append buffers: the out-of-core side of the table store.

The paper's ingest runs at MaxCompute scale — a day of fleet events for
>1M servers never fits one process image — so event staging needs a
table whose memory does not grow with the day.  :class:`SpillTable` is
a drop-in :class:`~repro.storage.table.Table` whose partitions
(:class:`SpillPartition`) flush their in-memory column buffers to a
JSONL **spool** file once the buffered bytes cross a threshold.  Reads
transparently concatenate the spilled chunks with the in-memory tail,
preserving append order, so results are identical to a plain table —
only peak memory changes.

The spool is process-private scratch, not a durable format: it is
written and read back by the same partition object, deleted when that
partition is dropped, overwritten or closed, and deliberately
*unsealed* — no fsync, no CRC — because sealing would put an fsync on
the ingest path.  Anything that must survive a restart goes through
the sealed record log (:mod:`repro.storage.recordlog`) instead.  A
spool line that does not read back as the chunk that was written still
raises a ``ValueError`` naming the file, never a half-loaded partition.

Dictionary-encoded string columns spill as ``int32`` code lists plus a
per-chunk dictionary, so neither spilling nor reading back materializes
per-row strings.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.storage.columns import ColumnBlock, ColumnarPartition
from repro.storage.schema import Schema
from repro.storage.table import Table

#: Default in-memory buffer size (bytes) before a partition spills.
DEFAULT_SPILL_BYTES = 32 << 20


class _RecordReader:
    """Reads one JSONL record at a byte offset of a spool file.

    Opens per call — a spilled partition is read back at most a handful
    of times, and a shared handle would need locking across threads.
    """

    __slots__ = ("path",)

    def __init__(self, path: Path) -> None:
        self.path = path

    def record(self, offset: int, kind: str) -> dict[str, Any]:
        """Parse the record at ``offset``; verify its ``record`` kind."""
        with open(self.path, encoding="utf-8") as handle:
            handle.seek(offset)
            line = handle.readline()
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"corrupt {kind} record at byte {offset} of {self.path}: "
                f"{error}"
            ) from None
        found = payload.get("record") if isinstance(payload, dict) else None
        if found != kind:
            raise ValueError(
                f"expected a {kind} record at byte {offset} of {self.path}, "
                f"found {found!r}"
            )
        return payload


def _chunk_column(chunk: Mapping[str, Any], name: str,
                  path: Path) -> list[Any]:
    columns = chunk.get("columns")
    if not isinstance(columns, dict) or name not in columns:
        raise ValueError(
            f"chunk record in {path} is missing column {name!r}"
        )
    return columns[name]


def _approx_row_bytes(row: Mapping[str, Any]) -> int:
    """Rough per-row memory footprint used by the spill threshold.

    The threshold bounds order-of-magnitude growth, not exact heap
    bytes, so a cheap estimate (fixed cost per scalar, length-scaled
    for strings) sampled once per append batch is enough.
    """
    total = 0
    for value in row.values():
        if isinstance(value, str):
            total += 56 + len(value)
        else:
            total += 32
    return total


class SpillPartition(ColumnarPartition):
    """A partition that spills its buffers to a spool file under pressure.

    Appends land in the usual in-memory column buffers; once the
    estimated buffered bytes cross ``spill_bytes`` the whole in-memory
    state is flushed as one self-contained chunk record (codes plus an
    inline dictionary for dictionary-encoded columns) appended to the
    spool file.  Reads concatenate the spilled chunks, in append order,
    with the in-memory tail — callers observe a plain partition.
    """

    __slots__ = ("_spool_path", "_spill_bytes", "_chunk_offsets",
                 "_spilled_rows", "_buffered_bytes")

    def __init__(self, schema: Schema, spool_path: Path,
                 spill_bytes: int) -> None:
        super().__init__(schema.names,
                         {c.name: c.dtype for c in schema.columns})
        self._spool_path = Path(spool_path)
        self._spill_bytes = int(spill_bytes)
        self._chunk_offsets: list[int] = []
        self._spilled_rows = 0
        self._buffered_bytes = 0

    def __len__(self) -> int:
        return self._spilled_rows + self._length

    @property
    def spilled_rows(self) -> int:
        """Rows currently resident in the spool file (introspection)."""
        return self._spilled_rows

    @property
    def spool_path(self) -> Path:
        """The partition's spool file path (exists only after a spill)."""
        return self._spool_path

    def extend_rows(self, rows: Sequence[Mapping[str, Any]]) -> None:
        """Append validated rows, spilling if the buffer crosses the cap."""
        super().extend_rows(rows)
        if rows:
            self._buffered_bytes += _approx_row_bytes(rows[0]) * len(rows)
        self._maybe_spill()

    def extend_blocks(self, blocks: Mapping[str, ColumnBlock],
                      length: int) -> None:
        """Append sealed blocks, spilling if the buffer crosses the cap."""
        super().extend_blocks(blocks, length)
        for block in blocks.values():
            if block.codes is not None:
                self._buffered_bytes += block.codes.nbytes
            elif block.values.dtype == object:
                self._buffered_bytes += 64 * len(block)
            else:
                self._buffered_bytes += block.values.nbytes
        self._maybe_spill()

    def _maybe_spill(self) -> None:
        if self._buffered_bytes >= self._spill_bytes and self._length:
            self._spill()

    def _spill(self) -> None:
        """Flush the entire in-memory state as one spool chunk record."""
        rows = self._length
        columns: dict[str, list[Any]] = {}
        dictionaries: dict[str, list[str]] = {}
        for name in self._names:
            block = ColumnarPartition.block(self, name)
            if block.codes is not None:
                columns[name] = block.codes.tolist()
                dictionaries[name] = list(block.dictionary)
            else:
                columns[name] = block.to_pylist()
        self._spool_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self._spool_path, "a", encoding="utf-8") as handle:
            self._chunk_offsets.append(handle.tell())
            handle.write(json.dumps({
                "record": "chunk", "rows": rows, "columns": columns,
                "dictionaries": dictionaries,
            }))
            handle.write("\n")
        self._spilled_rows += rows
        self._sealed = {}
        self._buffers = {name: [] for name in self._names}
        self._length = 0
        self._buffered_bytes = 0

    def _spool_chunks(self) -> list[dict[str, Any]]:
        reader = _RecordReader(self._spool_path)
        return [
            reader.record(offset, "chunk") for offset in self._chunk_offsets
        ]

    def _chunk_block(self, chunk: Mapping[str, Any],
                     name: str) -> ColumnBlock:
        values = _chunk_column(chunk, name, self._spool_path)
        dictionary = chunk.get("dictionaries", {}).get(name)
        if dictionary is not None:
            return ColumnBlock.from_codes(
                np.asarray(values, dtype=np.int32), dictionary
            )
        # Spool chunks hold this process's own validated writes, so the
        # blocks reseal without a second schema pass.
        return ColumnBlock.build(self._dtypes[name], values)

    def block(self, name: str) -> ColumnBlock:
        """One column: spilled chunks + in-memory tail, append order."""
        return self.blocks([name])[name]

    def blocks(self, names: Sequence[str] | None = None
               ) -> dict[str, ColumnBlock]:
        """Requested columns, reading the spool file once for all of them."""
        wanted = tuple(self._names if names is None else names)
        memory = {
            name: ColumnarPartition.block(self, name) for name in wanted
        }
        if not self._chunk_offsets:
            return memory
        chunks = self._spool_chunks()
        return {
            name: ColumnBlock.concat(
                [self._chunk_block(chunk, name) for chunk in chunks]
                + [memory[name]]
            )
            for name in wanted
        }

    def close(self) -> None:
        """Delete the spool file (dropped/overwritten partitions)."""
        self._spool_path.unlink(missing_ok=True)
        self._chunk_offsets = []
        self._spilled_rows = 0


class SpillTable(Table):
    """A :class:`Table` whose partitions spill to disk under pressure.

    ``spool_dir`` receives one spool file per partition object;
    dropping or overwriting a partition deletes its spool file.  The
    daily pipeline's fleet-scale event staging uses this to ingest a
    100k-VM day in bounded memory.
    """

    def __init__(self, name: str, schema: Schema, *,
                 spool_dir: str | Path,
                 spill_bytes: int = DEFAULT_SPILL_BYTES) -> None:
        super().__init__(name, schema)
        self._spool_dir = Path(spool_dir)
        self._spill_bytes = int(spill_bytes)
        self._spool_seq = 0

    def _new_partition(self) -> SpillPartition:
        self._spool_seq += 1
        spool = self._spool_dir / (
            f"{self.name}-{self._spool_seq:06d}.spool.jsonl"
        )
        return SpillPartition(self.schema, spool, self._spill_bytes)

    def _close_spool(self, partition: str) -> None:
        stored = self._partitions.get(partition)
        if isinstance(stored, SpillPartition):
            stored.close()

    def overwrite_partition(self, rows: Any, partition: str) -> int:
        """Replace one partition, deleting the old spool file."""
        self._close_spool(partition)
        return super().overwrite_partition(rows, partition)

    def overwrite_partition_columns(self, columns: Any,
                                    partition: str) -> int:
        """Columnar overwrite, deleting the old spool file."""
        self._close_spool(partition)
        return super().overwrite_partition_columns(columns, partition)

    def drop_partition(self, partition: str) -> None:
        """Drop one partition and its spool file."""
        self._close_spool(partition)
        super().drop_partition(partition)

    def close(self) -> None:
        """Delete every partition's spool file."""
        for partition in list(self._partitions):
            self._close_spool(partition)
