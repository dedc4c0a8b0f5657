"""Storage substrates (paper Fig. 4 stand-ins).

* :class:`LogStore` — SLS-like hot event store with time-range queries.
* :class:`Table` / :class:`TableStore` — MaxCompute-like partitioned
  tables with schema validation.
* :class:`ConfigDB` — MySQL-like versioned configuration store.
* :class:`SpillTable` — a table whose partitions spill to a scratch
  spool file under memory pressure (out-of-core ingest).
* :class:`RecordLog` — append-only file of self-sealed records, the
  durable primitive under both checkpoints.

Two things ever reach disk: the record log (durable — sealed, fsynced,
created atomically) and the spool (process-private scratch — unsealed,
deleted with its partition).  There is no whole-store file format.
"""

from repro.storage.columns import (
    ColumnBatch,
    ColumnBlock,
    ColumnarPartition,
)
from repro.storage.configdb import (
    ConfigDB,
    ConfigNotFoundError,
    ConfigRecord,
    StaleVersionError,
)
from repro.storage.logstore import LogEntry, LogStore
from repro.storage.recordlog import RecordLog
from repro.storage.schema import Column, Schema, SchemaError
from repro.storage.spill import SpillPartition, SpillTable
from repro.storage.table import (
    DEFAULT_PARTITION,
    Table,
    TableNotFoundError,
    TableStore,
)

__all__ = [
    "DEFAULT_PARTITION",
    "Column",
    "ColumnBatch",
    "ColumnBlock",
    "ColumnarPartition",
    "ConfigDB",
    "ConfigNotFoundError",
    "ConfigRecord",
    "LogEntry",
    "LogStore",
    "RecordLog",
    "Schema",
    "SchemaError",
    "SpillPartition",
    "SpillTable",
    "StaleVersionError",
    "Table",
    "TableNotFoundError",
    "TableStore",
]
