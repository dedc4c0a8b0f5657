"""Out-of-core table storage: the chunked v3 layout + spill buffers.

The paper's ingest runs at MaxCompute scale — a day of fleet events for
>1M servers never fits one process image — so the store needs two
out-of-core primitives that the whole-file v2 JSON layout cannot give:

* **Chunked v3 files** (:func:`save_table_store_chunked` /
  :func:`load_table_store_chunked`): a JSONL stream — header line,
  per-partition records carrying the partition's string dictionaries,
  fixed-row-count chunk records with the column data, and a footer line
  holding a byte-offset index.  Loading reads *only* the header and
  footer; each partition is attached as a
  :class:`LazyChunkPartition` that seeks straight to its chunk records
  the first time a column is touched, so ``Table._load_blocks`` streams
  a partition block-by-block instead of deserializing the whole store.
  A missing or corrupt footer (a crash mid-write, a truncated copy) is
  detected up front and reported — never silently loaded.

* **Spill-to-disk append buffers** (:class:`SpillTable` /
  :class:`SpillPartition`): a drop-in :class:`~repro.storage.table.Table`
  whose partitions flush their in-memory column buffers to a JSONL
  spool file once the buffered bytes cross a threshold.  Reads
  transparently concatenate the spilled chunks with the in-memory
  tail, preserving append order, so results are identical to a plain
  table — only peak memory changes.

Dictionary-encoded string columns persist as ``int32`` code lists plus
a per-partition dictionary (v3) or per-chunk dictionaries (spool), so
neither writing nor lazy loading materializes per-row strings.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.storage.columns import ColumnBlock, ColumnarPartition
from repro.storage.recordlog import atomic_writer
from repro.storage.schema import (
    Column,
    Schema,
    SchemaError,
    schema_from_dict,
    schema_to_dict,
)
from repro.storage.table import Table, TableStore

#: Envelope marker shared by every table-store layout.
STORE_FORMAT = "repro-table-store"
#: Version number of the chunked JSONL layout.
CHUNKED_VERSION = 3
#: Default rows per chunk record written by the v3 writer.
DEFAULT_CHUNK_ROWS = 8192
#: Default in-memory buffer size (bytes) before a partition spills.
DEFAULT_SPILL_BYTES = 32 << 20


# -- v3 writer ---------------------------------------------------------------


def save_table_store_chunked(store: TableStore, path: str | Path, *,
                             chunk_rows: int = DEFAULT_CHUNK_ROWS,
                             atomic: bool = False) -> None:
    """Serialize a table store to the chunked v3 JSONL layout.

    Output is deterministic (tables/partitions in sorted order, columns
    in schema order).  ``atomic=True`` writes through
    :func:`~repro.storage.recordlog.atomic_writer`, so a crash mid-save
    can never leave a half-written file under the target name.
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    writer = (atomic_writer(path) if atomic
              else open(path, "w", encoding="utf-8"))
    with writer as handle:
        _write_chunked_stream(store, handle, chunk_rows)


def _write_chunked_stream(store: TableStore, handle: Any,
                          chunk_rows: int) -> None:
    """Emit header, partition/chunk records, and the offset footer."""
    header = {
        "format": STORE_FORMAT,
        "version": CHUNKED_VERSION,
        "layout": "chunked",
        "tables": {
            name: {"schema": schema_to_dict(store.get(name).schema)}
            for name in store.names()
        },
    }
    handle.write(json.dumps(header))
    handle.write("\n")
    index: dict[str, dict[str, Any]] = {}
    for name in store.names():
        table = store.get(name)
        table_index = index[name] = {}
        for partition in table.partitions:
            blocks = table.columns(partition)
            rows = table.count(partition)
            dictionaries = {
                column: list(block.dictionary)
                for column, block in blocks.items()
                if block.codes is not None
            }
            offset = handle.tell()
            handle.write(json.dumps({
                "record": "partition", "table": name, "partition": partition,
                "rows": rows, "dictionaries": dictionaries,
            }))
            handle.write("\n")
            chunk_offsets: list[int] = []
            for start in range(0, rows, chunk_rows):
                stop = min(start + chunk_rows, rows)
                piece = {
                    column: block[start:stop] for column, block in blocks.items()
                }
                chunk_offsets.append(handle.tell())
                handle.write(json.dumps({
                    "record": "chunk", "table": name, "partition": partition,
                    "rows": stop - start,
                    "columns": {
                        column: (block.codes.tolist()
                                 if block.codes is not None
                                 else block.to_pylist())
                        for column, block in piece.items()
                    },
                }))
                handle.write("\n")
            table_index[partition] = {
                "offset": offset, "rows": rows, "chunks": chunk_offsets,
            }
    handle.write(json.dumps({"record": "footer", "index": index}))
    handle.write("\n")


# -- v3 reader ---------------------------------------------------------------


class _RecordReader:
    """Reads one JSONL record at a byte offset of a v3 file.

    Opens per call — lazy partitions materialize at most a handful of
    times, and a shared handle would need locking across threads.
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
        if payload.get("record") != kind:
            raise ValueError(
                f"expected a {kind} record at byte {offset} of {self.path}, "
                f"found {payload.get('record')!r}"
            )
        return payload


def _read_footer(path: Path) -> dict[str, Any]:
    """Locate and parse the footer line by scanning backward.

    The footer is the integrity seal of a v3 file: the writer emits it
    last, so a truncated or partially-copied file has none — that case
    raises instead of loading whatever chunk records survived.
    """
    block_size = 1 << 16
    with open(path, "rb") as handle:
        handle.seek(0, os.SEEK_END)
        end = handle.tell()
        if end == 0:
            raise ValueError(f"empty chunked table store {path}")
        buffer = b""
        cursor = end
        while cursor > 0:
            step = min(block_size, cursor)
            cursor -= step
            handle.seek(cursor)
            buffer = handle.read(step) + buffer
            stripped = buffer.rstrip(b"\n")
            if b"\n" in stripped or cursor == 0:
                break
    if not buffer.endswith(b"\n"):
        raise ValueError(
            f"chunked table store {path} is truncated (no trailing newline "
            f"after the footer)"
        )
    last_line = buffer.rstrip(b"\n").rsplit(b"\n", 1)[-1]
    try:
        footer = json.loads(last_line)
    except json.JSONDecodeError:
        footer = None
    if not isinstance(footer, dict) or footer.get("record") != "footer":
        raise ValueError(
            f"chunked table store {path} is truncated or corrupt: the last "
            f"line is not a footer record"
        )
    return footer


class LazyChunkPartition(ColumnarPartition):
    """A partition whose column blocks load from chunk records on demand.

    Row count comes from the footer index, so ``len()`` and partition
    pruning work without touching the data.  The first access to a
    column batch-loads every *requested* pending column in one pass
    over the partition's chunk records (the JSON parse dominates, so
    per-column passes would multiply it); loaded blocks are cached as
    ordinary sealed blocks.  Writes force full materialization first —
    an appended-to partition behaves exactly like an in-memory one.
    """

    __slots__ = ("_schema", "_reader", "_part_offset", "_chunk_offsets",
                 "_pending", "_dictionaries")

    def __init__(self, schema: Schema, reader: _RecordReader,
                 rows: int, part_offset: int,
                 chunk_offsets: Sequence[int]) -> None:
        super().__init__(schema.names,
                         {c.name: c.dtype for c in schema.columns})
        self._length = rows
        self._schema = schema
        self._reader = reader
        self._part_offset = part_offset
        self._chunk_offsets = tuple(chunk_offsets)
        self._pending = set(schema.names)
        self._dictionaries: dict[str, list[str]] | None = None

    def _materialize(self, names: Sequence[str]) -> None:
        wanted = [name for name in names if name in self._pending]
        if not wanted:
            return
        if self._dictionaries is None:
            record = self._reader.record(self._part_offset, "partition")
            dictionaries = record.get("dictionaries", {})
            if not isinstance(dictionaries, dict):
                raise ValueError(
                    f"partition record at byte {self._part_offset} of "
                    f"{self._reader.path} has malformed dictionaries"
                )
            self._dictionaries = dictionaries
        chunks = [
            self._reader.record(offset, "chunk")
            for offset in self._chunk_offsets
        ]
        for name in wanted:
            column = self._schema.column(name)
            dictionary = self._dictionaries.get(name)
            if dictionary is not None:
                block = _dictionary_block_from_chunks(
                    column, chunks, dictionary, self._reader.path
                )
            else:
                values = [
                    value
                    for chunk in chunks
                    for value in _chunk_column(chunk, name, self._reader.path)
                ]
                block = column.validate_block(values)
            if len(block) != self._length:
                raise ValueError(
                    f"column {name!r} holds {len(block)} rows but the "
                    f"footer declares {self._length} in {self._reader.path}"
                )
            self._sealed[name] = block
            self._pending.discard(name)

    def block(self, name: str) -> ColumnBlock:
        """Sealed block of one column, loading it from disk if pending."""
        self._materialize([name])
        return super().block(name)

    def blocks(self, names: Sequence[str] | None = None
               ) -> dict[str, ColumnBlock]:
        """Sealed blocks for ``names``, batch-loading pending columns."""
        self._materialize(self._names if names is None else names)
        return super().blocks(names)

    def extend_rows(self, rows: Sequence[Mapping[str, Any]]) -> None:
        """Append rows (materializes every column first)."""
        self._materialize(self._names)
        super().extend_rows(rows)

    def extend_blocks(self, blocks: Mapping[str, ColumnBlock],
                      length: int) -> None:
        """Append sealed blocks (materializes every column first)."""
        self._materialize(self._names)
        super().extend_blocks(blocks, length)


def _chunk_column(chunk: Mapping[str, Any], name: str,
                  path: Path) -> list[Any]:
    columns = chunk.get("columns")
    if not isinstance(columns, dict) or name not in columns:
        raise ValueError(
            f"chunk record in {path} is missing column {name!r}"
        )
    return columns[name]


def _dictionary_block_from_chunks(column: Column,
                                  chunks: Sequence[Mapping[str, Any]],
                                  dictionary: Sequence[Any],
                                  path: Path) -> ColumnBlock:
    """Validate and seal a dictionary column from per-chunk code lists."""
    if not all(isinstance(entry, str) for entry in dictionary):
        raise SchemaError(
            f"column {column.name!r} has non-string dictionary entries "
            f"in {path}"
        )
    parts = [
        np.asarray(_chunk_column(chunk, column.name, path), dtype=np.int32)
        for chunk in chunks
    ]
    codes = (np.concatenate(parts) if parts
             else np.empty(0, dtype=np.int32))
    if len(codes):
        low, high = int(codes.min()), int(codes.max())
        if high >= len(dictionary) or low < -1:
            raise ValueError(
                f"column {column.name!r} has codes outside its dictionary "
                f"(range [{low}, {high}], dictionary size "
                f"{len(dictionary)}) in {path}"
            )
        if low < 0 and not column.nullable:
            raise SchemaError(
                f"column {column.name!r} is not nullable"
            )
    return ColumnBlock.from_codes(codes, dictionary)


def load_table_store_chunked(path: str | Path) -> TableStore:
    """Open a v3 chunked file as a lazily-loading table store.

    Reads only the header and footer; every partition is attached as a
    :class:`LazyChunkPartition` holding byte offsets into the file.
    Raises ``ValueError`` for truncated or corrupt files (missing
    footer, bad chunk records) instead of silently loading partial
    data.
    """
    target = Path(path)
    with open(target, encoding="utf-8") as handle:
        first = handle.readline()
    try:
        header = json.loads(first)
    except json.JSONDecodeError:
        raise ValueError(
            f"{target} is not a chunked table store (unparseable header)"
        ) from None
    if header.get("format") != STORE_FORMAT:
        raise ValueError(
            f"unknown table-store format {header.get('format')!r} in {target}"
        )
    if header.get("version") != CHUNKED_VERSION:
        raise ValueError(
            f"unsupported table-store version {header.get('version')!r} in "
            f"{target} (expected {CHUNKED_VERSION})"
        )
    footer = _read_footer(target)
    index = footer.get("index", {})
    reader = _RecordReader(target)
    store = TableStore()
    for name, table_data in header.get("tables", {}).items():
        schema = schema_from_dict(table_data["schema"])
        table = store.create(name, schema)
        for partition, entry in index.get(name, {}).items():
            table.attach_partition(partition, LazyChunkPartition(
                schema, reader, int(entry["rows"]), int(entry["offset"]),
                entry["chunks"],
            ))
    return store


# -- spill-to-disk append buffers --------------------------------------------


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

    __slots__ = ("_schema", "_spool_path", "_spill_bytes", "_chunk_offsets",
                 "_spilled_rows", "_buffered_bytes")

    def __init__(self, schema: Schema, spool_path: Path,
                 spill_bytes: int) -> None:
        super().__init__(schema.names,
                         {c.name: c.dtype for c in schema.columns})
        self._schema = schema
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
