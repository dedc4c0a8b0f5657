"""Storage substrates (paper Fig. 4 stand-ins).

* :class:`LogStore` — SLS-like hot event store with time-range queries.
* :class:`Table` / :class:`TableStore` — MaxCompute-like partitioned
  tables with schema validation.
* :class:`ConfigDB` — MySQL-like versioned configuration store.
* :mod:`repro.storage.chunked` — out-of-core chunked v3 files and
  spill-to-disk tables for fleet-scale stores.
* :class:`RecordLog` — append-only file of self-sealed records, the
  durable primitive under both checkpoints.
"""

from repro.storage.chunked import (
    LazyChunkPartition,
    SpillPartition,
    SpillTable,
    load_table_store_chunked,
    save_table_store_chunked,
)

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
from repro.storage.persistence import (
    load_config_db,
    load_table_store,
    save_config_db,
    save_table_store,
    snapshot_table,
)
from repro.storage.recordlog import RecordLog
from repro.storage.schema import Column, Schema, SchemaError
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
    "LazyChunkPartition",
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
    "load_config_db",
    "load_table_store",
    "load_table_store_chunked",
    "save_config_db",
    "save_table_store",
    "save_table_store_chunked",
    "snapshot_table",
]
