"""MaxCompute-like table store.

The production deployment (paper Fig. 4) synchronizes events into a
MaxCompute table for long-term storage, and the daily Spark job writes
two result tables back (per-VM indicators and event-level CDI).  This
module provides the equivalent: schema-validated, partitioned,
append-only tables with predicate scans.

Storage is **columnar**: each partition holds typed column blocks
(:mod:`repro.storage.columns`) — numpy arrays for numeric columns with
validity masks for nullables, object arrays for strings.  The
row-oriented API (:meth:`Table.append`, :meth:`Table.scan`,
:meth:`Table.rows`) is preserved on top of the blocks for existing
callers, while the columnar read path (:meth:`Table.columns`,
:meth:`Table.column_batches`) hands vectorized consumers zero-copy
column arrays with partition and column pruning.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.storage.columns import (
    ColumnBatch,
    ColumnBlock,
    ColumnPredicate,
    ColumnarPartition,
    slice_batches,
)
from repro.storage.schema import Schema, SchemaError

#: Partition key value used for rows appended without a partition.
DEFAULT_PARTITION = "default"


class TableNotFoundError(KeyError):
    """Requested table does not exist in the store."""


class _LazyColumns:
    """Read-only name → :class:`ColumnBlock` view handed to predicates.

    Columns seal lazily through the owning table's block loader, so a
    predicate only pays for (and only counts as touching) the columns
    it actually reads.
    """

    def __init__(self, loader: Callable[[Sequence[str]], Mapping[str, ColumnBlock]]) -> None:
        self._loader = loader
        self._cache: dict[str, ColumnBlock] = {}

    def __getitem__(self, name: str) -> ColumnBlock:
        block = self._cache.get(name)
        if block is None:
            block = self._loader([name])[name]
            self._cache[name] = block
        return block


class Table:
    """One append-only partitioned table.

    Partitions model MaxCompute's ``ds=YYYYMMDD`` date partitions: the
    daily pipeline writes each day into its own partition and scans are
    typically partition-pruned.
    """

    def __init__(self, name: str, schema: Schema) -> None:
        self.name = name
        self.schema = schema
        self._dtypes = {c.name: c.dtype for c in schema.columns}
        self._partitions: dict[str, ColumnarPartition] = {}
        self._generation = 0
        self._partition_generations: dict[str, int] = {}
        self._generation_lock = threading.Lock()

    def _new_partition(self) -> ColumnarPartition:
        return ColumnarPartition(self.schema.names, self._dtypes)

    # -- write generations -----------------------------------------------------

    @property
    def generation(self) -> int:
        """Monotonic write counter, bumped **after** every table mutation.

        Readers that snapshot ``generation`` *before* reading data can
        stamp derived results with it and later detect staleness: a
        concurrent writer mutates data first and bumps the counter
        second, so a stamp can only ever be *older* than the data it
        was computed from — never newer.  The serving layer's caches
        (:mod:`repro.serving`) are built on this protocol.
        """
        return self._generation

    def partition_generation(self, partition: str) -> int:
        """Generation of the last write that touched ``partition``.

        ``0`` means the partition has never been written (which is also
        its state after creation of the table).  Dropping a partition
        counts as touching it, so cached per-partition results are
        invalidated by drops too.
        """
        return self._partition_generations.get(partition, 0)

    def partition_generations(self, partitions: Sequence[str]) -> tuple[int, ...]:
        """Atomic snapshot of several partitions' generations.

        Taken under the generation lock, so the returned tuple is one
        consistent point in the write history — no writer can bump one
        of the requested partitions halfway through the snapshot.  The
        serving layer's cross-shard merge protocol validates multi-
        partition reads against two such snapshots.
        """
        with self._generation_lock:
            return tuple(
                self._partition_generations.get(p, 0) for p in partitions
            )

    def _bump_generation(self, partition: str) -> None:
        """Record a completed mutation of ``partition`` (call *last*)."""
        with self._generation_lock:
            self._generation += 1
            self._partition_generations[partition] = self._generation

    # -- writes ----------------------------------------------------------------

    def append(self, rows: Iterable[Mapping[str, Any]],
               partition: str = DEFAULT_PARTITION) -> int:
        """Validate and append rows into ``partition``; returns row count.

        Validation is all-or-nothing: a schema violation in any row
        aborts the whole append, leaving the table unchanged.  An empty
        append is a no-op — it does not create the partition.
        """
        validated = self.schema.validate_rows(rows)
        if not validated:
            return 0
        stored = self._partitions.get(partition)
        if stored is None:
            stored = self._partitions[partition] = self._new_partition()
        stored.extend_rows(validated)
        self._bump_generation(partition)
        return len(validated)

    def append_columns(self, columns: Mapping[str, Sequence[Any]],
                       partition: str = DEFAULT_PARTITION) -> int:
        """Columnar write path: validate and append whole columns.

        Validation is vectorized per column
        (:meth:`~repro.storage.schema.Schema.validate_columns`) and
        all-or-nothing like :meth:`append`; zero-row appends are a
        no-op.
        """
        blocks, length = self.schema.validate_columns(columns)
        if length == 0:
            return 0
        stored = self._partitions.get(partition)
        if stored is None:
            stored = self._partitions[partition] = self._new_partition()
        stored.extend_blocks(blocks, length)
        self._bump_generation(partition)
        return length

    def overwrite_partition(self, rows: Iterable[Mapping[str, Any]],
                            partition: str) -> int:
        """Replace the contents of one partition (idempotent daily write)."""
        validated = self.schema.validate_rows(rows)
        replacement = self._new_partition()
        replacement.extend_rows(validated)
        self._partitions[partition] = replacement
        self._bump_generation(partition)
        return len(validated)

    def overwrite_partition_columns(self, columns: Mapping[str, Sequence[Any]],
                                    partition: str) -> int:
        """Columnar :meth:`overwrite_partition` (keeps empty partitions)."""
        blocks, length = self.schema.validate_columns(columns)
        replacement = self._new_partition()
        replacement.extend_blocks(blocks, length)
        self._partitions[partition] = replacement
        self._bump_generation(partition)
        return length

    def drop_partition(self, partition: str) -> None:
        """Remove one partition; missing partitions are a no-op."""
        if self._partitions.pop(partition, None) is not None:
            self._bump_generation(partition)

    # -- reads -----------------------------------------------------------------

    @property
    def partitions(self) -> list[str]:
        """Existing partition keys, sorted."""
        return sorted(self._partitions)

    def _load_blocks(self, partition: str,
                     names: Sequence[str]) -> dict[str, ColumnBlock]:
        """Seal and return the requested blocks of one partition.

        Every block access — row scans included — funnels through this
        method, so subclasses can instrument it to verify partition and
        column pruning (no other partition's blocks are ever touched by
        a pruned read).
        """
        return self._partitions[partition].blocks(names)

    def scan(self, predicate: Callable[[Mapping[str, Any]], bool] | None = None,
             partition: str | None = None) -> Iterator[dict[str, Any]]:
        """Iterate rows, optionally pruned to one partition and filtered.

        Rows are reconstructed from the column blocks, so every yielded
        dict is a fresh object the caller may keep.
        """
        if partition is not None:
            keys = [partition] if partition in self._partitions else []
        else:
            keys = self.partitions
        names = self.schema.names
        for key in keys:
            blocks = self._load_blocks(key, names)
            columns = [blocks[name].to_pylist() for name in names]
            for values in zip(*columns):
                row = dict(zip(names, values))
                if predicate is None or predicate(row):
                    yield row

    def rows(self, partition: str | None = None) -> list[dict[str, Any]]:
        """All rows (of a partition) as a list."""
        return list(self.scan(partition=partition))

    def count(self, partition: str | None = None) -> int:
        """Row count, optionally for one partition."""
        if partition is not None:
            stored = self._partitions.get(partition)
            return 0 if stored is None else len(stored)
        return sum(len(stored) for stored in self._partitions.values())

    # -- columnar reads --------------------------------------------------------

    def columns(self, partition: str | None = None,
                names: Sequence[str] | None = None, *,
                predicate: ColumnPredicate | None = None
                ) -> dict[str, ColumnBlock]:
        """Typed column blocks with partition, column, and row pruning.

        ``partition`` selects one partition (``None`` concatenates all
        partitions in sorted order); ``names`` prunes to the requested
        columns (``None`` means every schema column); ``predicate``
        receives a lazy name → :class:`ColumnBlock` mapping and returns
        a boolean row mask used to filter the returned columns.

        Without a predicate, single-partition reads are **zero-copy**:
        the returned blocks alias the sealed storage arrays (which are
        read-only).  Predicate filtering and multi-partition reads
        materialize new arrays.
        """
        for name in names or ():
            if name not in self.schema:
                raise SchemaError(f"unknown column {name!r}")
        wanted = tuple(self.schema.names if names is None else names)
        if partition is not None:
            if partition not in self._partitions:
                return {
                    name: ColumnBlock.empty(self._dtypes[name])
                    for name in wanted
                }
            return self._columns_of(partition, wanted, predicate)
        parts = [
            self._columns_of(key, wanted, predicate)
            for key in self.partitions
        ]
        if not parts:
            return {
                name: ColumnBlock.empty(self._dtypes[name]) for name in wanted
            }
        if len(parts) == 1:
            return parts[0]
        return {
            name: ColumnBlock.concat([part[name] for part in parts])
            for name in wanted
        }

    def _columns_of(self, partition: str, names: Sequence[str],
                    predicate: ColumnPredicate | None
                    ) -> dict[str, ColumnBlock]:
        if predicate is None:
            return self._load_blocks(partition, names)
        lazy = _LazyColumns(lambda cols: self._load_blocks(partition, cols))
        mask = np.asarray(predicate(lazy), dtype=bool)
        expected = len(self._partitions[partition])
        if mask.shape != (expected,):
            raise ValueError(
                f"predicate mask has shape {mask.shape}, "
                f"expected ({expected},)"
            )
        blocks = self._load_blocks(partition, names)
        return {
            name: self._apply_mask(block, mask)
            for name, block in blocks.items()
        }

    @staticmethod
    def _apply_mask(block: ColumnBlock, mask: np.ndarray) -> ColumnBlock:
        """Filter one block by a boolean row mask.

        Dictionary-encoded blocks filter in code space so predicates
        never force a string decode.
        """
        null_mask = (block.null_mask[mask]
                     if block.null_mask is not None else None)
        if block.codes is not None:
            return ColumnBlock(None, null_mask, codes=block.codes[mask],
                               dictionary=block.dictionary)
        return ColumnBlock(block.values[mask], null_mask)

    def column_batches(self, partition: str | None = None,
                       names: Sequence[str] | None = None, *,
                       predicate: ColumnPredicate | None = None,
                       batches: int = 1) -> list[ColumnBatch]:
        """Split a columnar read into balanced row-range batches.

        What the daily job hands the engine, one batch per task: each
        :class:`~repro.storage.columns.ColumnBatch` is a zero-copy
        slice of the (pruned, optionally filtered) column blocks.
        """
        blocks = self.columns(partition, names, predicate=predicate)
        length = len(next(iter(blocks.values()))) if blocks else 0
        return slice_batches(blocks, length, batches)


class TableStore:
    """A named collection of tables (the "MaxCompute project")."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def create(self, name: str, schema: Schema, *,
               if_not_exists: bool = False) -> Table:
        """Create a table; re-creating raises unless ``if_not_exists``."""
        existing = self._tables.get(name)
        if existing is not None:
            if if_not_exists:
                return existing
            raise SchemaError(f"table {name!r} already exists")
        table = Table(name, schema)
        self._tables[name] = table
        return table

    def add(self, table: Table, *, if_not_exists: bool = False) -> Table:
        """Register an existing :class:`Table` (or subclass) instance."""
        existing = self._tables.get(table.name)
        if existing is not None:
            if if_not_exists:
                return existing
            raise SchemaError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        return table

    def get(self, name: str) -> Table:
        """Fetch a table; raises :class:`TableNotFoundError` if absent."""
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFoundError(name) from None

    def drop(self, name: str) -> None:
        """Drop a table; missing tables are a no-op."""
        self._tables.pop(name, None)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def names(self) -> list[str]:
        """All table names, sorted."""
        return sorted(self._tables)
