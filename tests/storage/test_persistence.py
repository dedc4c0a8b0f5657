"""Tests for JSON persistence of the storage substrates."""

import json

import pytest

from repro.storage.configdb import ConfigDB
from repro.storage.persistence import (
    load_config_db,
    load_table_store,
    save_config_db,
    save_table_store,
    snapshot_table,
)
from repro.storage.schema import Column, Schema
from repro.storage.table import TableStore


def make_store() -> TableStore:
    store = TableStore()
    table = store.create("vm_cdi", Schema([
        Column("vm", str), Column("cdi", float),
        Column("note", str, nullable=True),
    ]))
    table.append([{"vm": "a", "cdi": 0.1}], partition="d1")
    table.append([{"vm": "b", "cdi": 0.2, "note": "x"}], partition="d2")
    store.create("empty", Schema([Column("k", int)]))
    return store


#: :func:`make_store` in the v1 row-major layout, byte for byte what the
#: retired ``layout="rows"`` writer produced.  Nothing writes v1 any
#: more; the loader still migrates it.
LEGACY_V1_STORE = {
    "empty": {
        "schema": [{"name": "k", "dtype": "int", "nullable": False}],
        "partitions": {},
    },
    "vm_cdi": {
        "schema": [
            {"name": "vm", "dtype": "str", "nullable": False},
            {"name": "cdi", "dtype": "float", "nullable": False},
            {"name": "note", "dtype": "str", "nullable": True},
        ],
        "partitions": {
            "d1": [{"vm": "a", "cdi": 0.1, "note": None}],
            "d2": [{"vm": "b", "cdi": 0.2, "note": "x"}],
        },
    },
}


class TestTableStorePersistence:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "store.json"
        original = make_store()
        save_table_store(original, path)
        restored = load_table_store(path)
        assert restored.names() == original.names()
        table = restored.get("vm_cdi")
        assert table.partitions == ["d1", "d2"]
        assert table.rows(partition="d1") == [
            {"vm": "a", "cdi": 0.1, "note": None}
        ]
        assert table.schema.names == ("vm", "cdi", "note")
        assert table.schema.column("note").nullable

    def test_empty_table_preserved(self, tmp_path):
        path = tmp_path / "store.json"
        save_table_store(make_store(), path)
        restored = load_table_store(path)
        assert restored.get("empty").count() == 0

    def test_restored_rows_revalidated(self, tmp_path):
        path = tmp_path / "store.json"
        save_table_store(make_store(), path)
        payload = json.loads(path.read_text())
        columns = payload["tables"]["vm_cdi"]["partitions"]["d1"]["columns"]
        columns["cdi"][0] = "corrupted"
        path.write_text(json.dumps(payload))
        with pytest.raises(Exception):
            load_table_store(path)

    def test_columnar_envelope_on_disk(self, tmp_path):
        path = tmp_path / "store.json"
        save_table_store(make_store(), path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-table-store"
        assert payload["version"] == 2
        assert payload["layout"] == "columnar"
        part = payload["tables"]["vm_cdi"]["partitions"]["d1"]
        assert part["rows"] == 1
        assert part["columns"] == {
            "vm": ["a"], "cdi": [0.1], "note": [None],
        }

    def test_legacy_rows_layout_roundtrip(self, tmp_path):
        """v1 row-major files keep loading into the columnar store
        byte-for-byte."""
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(LEGACY_V1_STORE))
        restored = load_table_store(legacy)
        assert restored.get("vm_cdi").rows(partition="d1") == [
            {"vm": "a", "cdi": 0.1, "note": None}
        ]
        # Migration: legacy load → columnar save → reload is lossless.
        migrated = tmp_path / "migrated.json"
        save_table_store(restored, migrated)
        assert json.loads(migrated.read_text())["version"] == 2
        final = load_table_store(migrated)
        for name in ("vm_cdi", "empty"):
            assert final.get(name).rows() == restored.get(name).rows()
        assert final.get("vm_cdi").schema.column("note").nullable

    def test_empty_partition_survives_both_layouts(self, tmp_path):
        store = TableStore()
        table = store.create("t", Schema([Column("k", int)]))
        table.overwrite_partition([], partition="empty_day")
        table.append([{"k": 1}], partition="full_day")
        columnar = tmp_path / "columnar.json"
        save_table_store(store, columnar)
        legacy = tmp_path / "rows.json"
        legacy.write_text(json.dumps({"t": {
            "schema": [{"name": "k", "dtype": "int", "nullable": False}],
            "partitions": {"empty_day": [], "full_day": [{"k": 1}]},
        }}))
        for path in (columnar, legacy):
            restored = load_table_store(path)
            assert restored.get("t").partitions == ["empty_day", "full_day"]
            assert restored.get("t").count("empty_day") == 0

    def test_nullable_column_roundtrip(self, tmp_path):
        store = TableStore()
        table = store.create("t", Schema([
            Column("k", int), Column("note", str, nullable=True),
        ]))
        table.append([
            {"k": 1, "note": None}, {"k": 2, "note": "x"}, {"k": 3},
        ])
        path = tmp_path / "store.json"
        save_table_store(store, path)
        restored = load_table_store(path)
        assert restored.get("t").rows() == [
            {"k": 1, "note": None}, {"k": 2, "note": "x"},
            {"k": 3, "note": None},
        ]

    def test_unknown_layout_rejected(self, tmp_path):
        for layout in ("parquet", "rows"):      # v1 is read-only now
            with pytest.raises(ValueError,
                               match="unknown table-store layout"):
                save_table_store(make_store(), tmp_path / "x.json",
                                 layout=layout)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "store.json"
        save_table_store(make_store(), path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported table-store version"):
            load_table_store(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text(json.dumps({"format": "other-store", "tables": {}}))
        with pytest.raises(ValueError, match="unknown table-store format"):
            load_table_store(path)

    def test_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "store.json"
        save_table_store(make_store(), path)
        payload = json.loads(path.read_text())
        payload["tables"]["vm_cdi"]["partitions"]["d1"]["rows"] = 7
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="declares 7 rows"):
            load_table_store(path)

    def test_snapshot_table(self, tmp_path):
        path = tmp_path / "snap.json"
        store = make_store()
        count = snapshot_table(store.get("vm_cdi"), path)
        assert count == 2
        assert len(json.loads(path.read_text())) == 2

    def test_snapshot_one_partition(self, tmp_path):
        path = tmp_path / "snap.json"
        store = make_store()
        assert snapshot_table(store.get("vm_cdi"), path, partition="d1") == 1


class TestConfigDbPersistence:
    def test_roundtrip_with_history(self, tmp_path):
        path = tmp_path / "config.json"
        db = ConfigDB()
        db.put("weights", {"v": 1})
        db.put("weights", {"v": 2})
        db.put("other", [1, 2, 3])
        save_config_db(db, path)
        restored = load_config_db(path)
        assert restored.get("weights").version == 2
        assert restored.get("weights", version=1).value == {"v": 1}
        assert restored.get("other").value == [1, 2, 3]

    def test_non_contiguous_versions_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "k": [{"version": 1, "value": 1}, {"version": 3, "value": 2}]
        }))
        with pytest.raises(ValueError, match="non-contiguous"):
            load_config_db(path)

    def test_empty_db(self, tmp_path):
        path = tmp_path / "config.json"
        save_config_db(ConfigDB(), path)
        assert load_config_db(path).keys() == []


class TestLayoutMigration:
    """Satellite: v1 → v2 → v3 migrations round-trip losslessly."""

    def rows_of(self, store):
        return {
            name: {
                partition: store.get(name).rows(partition=partition)
                for partition in store.get(name).partitions
            }
            for name in store.names()
        }

    def test_v1_to_v2_to_v3_round_trip(self, tmp_path):
        original = make_store()
        expected = self.rows_of(original)

        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps(LEGACY_V1_STORE))
        from_v1 = load_table_store(v1)
        assert self.rows_of(from_v1) == expected

        v2 = tmp_path / "v2.json"
        save_table_store(from_v1, v2)
        assert json.loads(v2.read_text())["version"] == 2
        from_v2 = load_table_store(v2)
        assert self.rows_of(from_v2) == expected

        v3 = tmp_path / "v3.jsonl"
        save_table_store(from_v2, v3, layout="chunked")
        first = json.loads(v3.read_text().splitlines()[0])
        assert first["version"] == 3
        from_v3 = load_table_store(v3)
        assert self.rows_of(from_v3) == expected
        assert from_v3.get("vm_cdi").schema.column("note").nullable

        # And back down: a lazily-loaded v3 store still writes v2.
        back = tmp_path / "back.json"
        save_table_store(from_v3, back)
        assert self.rows_of(load_table_store(back)) == expected

    def test_every_layout_loads_identically(self, tmp_path):
        expected = self.rows_of(make_store())
        legacy = tmp_path / "rows.json"
        legacy.write_text(json.dumps(LEGACY_V1_STORE))
        assert self.rows_of(load_table_store(legacy)) == expected
        for layout in ("columnar", "chunked"):
            path = tmp_path / f"{layout}.json"
            save_table_store(make_store(), path, layout=layout)
            assert self.rows_of(load_table_store(path)) == expected


class TestAtomicWrites:
    def test_atomic_columnar_save(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text("stale bytes")
        save_table_store(make_store(), path, atomic=True)
        assert not (tmp_path / "store.json.tmp").exists()
        assert load_table_store(path).names() == make_store().names()

    def test_non_atomic_is_default(self, tmp_path):
        path = tmp_path / "store.json"
        save_table_store(make_store(), path)
        assert not (tmp_path / "store.json.tmp").exists()
