"""JSON persistence for the storage substrates.

The production stores are durable services; these helpers give the
stand-ins the same property so a daily pipeline can survive process
restarts (and so experiments can checkpoint their tables).  Schemas
are serialized alongside the data; unknown dtypes are rejected rather
than silently coerced.

Three on-disk layouts exist for table stores:

* **v1 (legacy, row-major)** — one JSON object per table with
  ``partitions`` as lists of row dicts.  Read-only: the loader migrates
  such files, nothing writes them any more.
* **v2 (columnar)** — an envelope
  ``{"format": "repro-table-store", "version": 2, ...}`` whose
  partitions store column-major value lists (``null`` for masked
  slots), mirroring the in-memory typed column blocks.  Loading goes
  through the vectorized columnar schema validation.
* **v3 (chunked)** — an offset-indexed JSONL stream
  (:mod:`repro.storage.chunked`, ``layout="chunked"``) whose
  partitions load lazily chunk-by-chunk; the out-of-core format for
  fleet-scale stores.

:func:`load_table_store` auto-detects the layout, so existing files
keep loading after each migration.

Job and stream *checkpoints* are not table-store files but append-only
sealed record logs (:mod:`repro.storage.recordlog`): a save costs the
new shard or tick, not a rewrite of the history.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.storage.chunked import (
    CHUNKED_VERSION,
    DEFAULT_CHUNK_ROWS,
    STORE_FORMAT,
    load_table_store_chunked,
    save_table_store_chunked,
)
from repro.storage.configdb import ConfigDB
from repro.storage.recordlog import atomic_writer
from repro.storage.schema import schema_from_dict, schema_to_dict
from repro.storage.table import Table, TableStore

#: Version of the single-file columnar layout.
COLUMNAR_VERSION = 2


def _columnar_partition_payload(table: Table, partition: str) -> dict[str, Any]:
    blocks = table.columns(partition)
    return {
        "rows": table.count(partition),
        "columns": {
            name: block.to_pylist() for name, block in blocks.items()
        },
    }


def save_table_store(store: TableStore, path: str | Path, *,
                     layout: str = "columnar", atomic: bool = False,
                     chunk_rows: int = DEFAULT_CHUNK_ROWS) -> None:
    """Serialize every table (schema + partitions) to one JSON file.

    ``layout="columnar"`` (default) writes the versioned column-major
    format; ``layout="chunked"`` writes the offset-indexed v3 JSONL
    stream (``chunk_rows`` rows per chunk record) that loads lazily.
    ``atomic=True`` writes through a
    temp file + fsync + rename so a kill mid-save cannot corrupt an
    existing file.  Output is deterministic: tables and partitions are
    emitted in sorted order, so saving an unchanged store reproduces
    the file byte for byte.
    """
    if layout == "chunked":
        save_table_store_chunked(store, path, chunk_rows=chunk_rows,
                                 atomic=atomic)
        return
    if layout != "columnar":
        raise ValueError(f"unknown table-store layout {layout!r}")
    tables: dict[str, Any] = {}
    for name in store.names():
        table = store.get(name)
        tables[name] = {
            "schema": schema_to_dict(table.schema),
            "partitions": {
                partition: _columnar_partition_payload(table, partition)
                for partition in table.partitions
            },
        }
    writer = (atomic_writer(path) if atomic
              else open(path, "w", encoding="utf-8"))
    with writer as handle:
        handle.write(json.dumps({
            "format": STORE_FORMAT,
            "version": COLUMNAR_VERSION,
            "layout": "columnar",
            "tables": tables,
        }))


def _load_columnar_store(payload: dict[str, Any],
                         path: str | Path) -> TableStore:
    version = payload.get("version")
    if version != COLUMNAR_VERSION:
        raise ValueError(
            f"unsupported table-store version {version!r} in {path} "
            f"(expected {COLUMNAR_VERSION})"
        )
    store = TableStore()
    for name, table_data in payload["tables"].items():
        schema = schema_from_dict(table_data["schema"])
        table = store.create(name, schema)
        for partition, part_data in table_data["partitions"].items():
            columns = part_data["columns"]
            rows = part_data.get("rows")
            loaded = table.overwrite_partition_columns(columns, partition)
            if rows is not None and loaded != rows:
                raise ValueError(
                    f"partition {partition!r} of table {name!r} declares "
                    f"{rows} rows but holds {loaded} in {path}"
                )
    return store


def load_table_store(path: str | Path) -> TableStore:
    """Inverse of :func:`save_table_store`; data is re-validated.

    Auto-detects the layout: chunked v3 files open lazily through
    :func:`~repro.storage.chunked.load_table_store_chunked`, versioned
    columnar envelopes (v2) load through the vectorized column
    validation, and legacy row-major files (v1) through the row
    validators.  Empty partitions survive every layout.
    """
    target = Path(path)
    # v2/v1 files are one JSON line, v3 files put their envelope on the
    # first line — so one readline classifies every layout we write
    # without reading a fleet-scale file whole.
    with open(target, encoding="utf-8") as handle:
        first = handle.readline()
    try:
        payload = json.loads(first)
    except json.JSONDecodeError:
        payload = json.loads(target.read_text())
    if isinstance(payload, dict) and isinstance(payload.get("format"), str):
        if payload["format"] != STORE_FORMAT:
            raise ValueError(
                f"unknown table-store format {payload['format']!r} in {path}"
            )
        if payload.get("version") == CHUNKED_VERSION:
            return load_table_store_chunked(target)
        return _load_columnar_store(payload, path)
    store = TableStore()
    for name, table_data in payload.items():
        schema = schema_from_dict(table_data["schema"])
        table = store.create(name, schema)
        for partition, rows in table_data["partitions"].items():
            table.overwrite_partition(rows, partition)
    return store


def save_config_db(db: ConfigDB, path: str | Path) -> None:
    """Serialize every key's full version history to one JSON file."""
    payload = {
        key: [
            {"version": record.version, "value": record.value}
            for record in db.history(key)
        ]
        for key in db.keys()
    }
    Path(path).write_text(json.dumps(payload))


def load_config_db(path: str | Path) -> ConfigDB:
    """Inverse of :func:`save_config_db`, preserving version numbers."""
    payload = json.loads(Path(path).read_text())
    db = ConfigDB()
    for key, records in payload.items():
        ordered = sorted(records, key=lambda r: r["version"])
        for expected_version, record in enumerate(ordered, start=1):
            if record["version"] != expected_version:
                raise ValueError(
                    f"config {key!r} has non-contiguous versions in {path}"
                )
            db.put(key, record["value"])
    return db


def snapshot_table(table: Table, path: str | Path,
                   partition: str | None = None) -> int:
    """Dump one table (or one partition) as a JSON list of rows."""
    rows = table.rows(partition=partition)
    Path(path).write_text(json.dumps(rows))
    return len(rows)
