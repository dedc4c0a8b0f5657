"""Tests for spill-to-disk tables and their scratch spool files."""

import json

import pytest

from repro.storage.schema import Column, Schema
from repro.storage.spill import SpillTable
from repro.storage.table import Table


def sample_schema() -> Schema:
    return Schema([
        Column("vm", str), Column("cdi", float),
        Column("note", str, nullable=True), Column("n", int),
    ])


def sample_rows(count: int, offset: int = 0) -> list[dict]:
    return [
        {
            "vm": f"vm-{(offset + i) % 5}",
            "cdi": (offset + i) / 7.0,
            "note": None if i % 3 == 0 else f"note-{i % 4}",
            "n": offset + i,
        }
        for i in range(count)
    ]


class TestSpillTable:
    def fill(self, table: Table, batches: int = 6, batch_rows: int = 8):
        for batch in range(batches):
            table.append(sample_rows(batch_rows, offset=batch * batch_rows),
                         partition="d1")

    def test_matches_plain_table(self, tmp_path):
        plain = Table("t", sample_schema())
        spill = SpillTable("t", sample_schema(), spool_dir=tmp_path,
                           spill_bytes=512)
        self.fill(plain)
        self.fill(spill)
        part = spill._partitions["d1"]
        assert part.spilled_rows > 0  # pressure actually spilled
        assert part.spool_path.exists()
        assert spill.count("d1") == plain.count("d1")
        assert spill.rows(partition="d1") == plain.rows(partition="d1")
        columns = spill.columns("d1")
        for name, block in plain.columns("d1").items():
            assert columns[name].to_pylist() == block.to_pylist()

    def test_spilled_dictionary_columns_roundtrip(self, tmp_path):
        spill = SpillTable("t", sample_schema(), spool_dir=tmp_path,
                           spill_bytes=256)
        self.fill(spill)
        block = spill.columns("d1")["vm"]
        assert block.is_dictionary
        assert block.to_pylist() == [
            row["vm"] for row in spill.rows(partition="d1")
        ]

    def test_below_threshold_never_spills(self, tmp_path):
        spill = SpillTable("t", sample_schema(), spool_dir=tmp_path,
                           spill_bytes=1 << 20)
        spill.append(sample_rows(4), partition="d1")
        part = spill._partitions["d1"]
        assert part.spilled_rows == 0
        assert not part.spool_path.exists()

    def test_drop_partition_removes_spool(self, tmp_path):
        spill = SpillTable("t", sample_schema(), spool_dir=tmp_path,
                           spill_bytes=256)
        self.fill(spill)
        spool = spill._partitions["d1"].spool_path
        assert spool.exists()
        spill.drop_partition("d1")
        assert not spool.exists()

    def test_overwrite_partition_resets_spool(self, tmp_path):
        spill = SpillTable("t", sample_schema(), spool_dir=tmp_path,
                           spill_bytes=256)
        self.fill(spill)
        old_spool = spill._partitions["d1"].spool_path
        spill.overwrite_partition(sample_rows(2), partition="d1")
        assert not old_spool.exists()
        assert spill.count("d1") == 2

    def test_close_removes_every_spool(self, tmp_path):
        spill = SpillTable("t", sample_schema(), spool_dir=tmp_path,
                           spill_bytes=256)
        self.fill(spill)
        spill.append(sample_rows(40), partition="d2")
        spill.close()
        assert not list(tmp_path.glob("*.spool.jsonl"))

    def test_chunks_with_different_dictionaries_read_back(self, tmp_path):
        """Every spill seals its own dictionary; reads remap them into
        one without disturbing values, nulls or append order."""
        plain = Table("t", sample_schema())
        spill = SpillTable("t", sample_schema(), spool_dir=tmp_path,
                           spill_bytes=400)  # 3 rows spill, 1 does not
        batches = [
            [("a", None), ("b", "x"), ("a", "x")],
            [("c", "y"), ("a", None), ("c", "x")],
            [("z", "w")],  # stays in memory: a third dictionary
        ]
        n = 0
        for batch in batches:
            rows = [
                {"vm": vm, "cdi": (n + i) / 3.0, "note": note, "n": n + i}
                for i, (vm, note) in enumerate(batch)
            ]
            n += len(rows)
            plain.append(rows, partition="d1")
            spill.append(rows, partition="d1")
        part = spill._partitions["d1"]
        assert part.spilled_rows == 6 and len(part) == 7
        chunks = [json.loads(line)
                  for line in part.spool_path.read_text().splitlines()]
        assert [chunk["dictionaries"]["vm"] for chunk in chunks] == [
            ["a", "b"], ["c", "a"],
        ]
        assert spill.rows(partition="d1") == plain.rows(partition="d1")
        columns = spill.columns("d1")
        for name, block in plain.columns("d1").items():
            assert columns[name].to_pylist() == block.to_pylist()
        assert columns["vm"].is_dictionary and columns["note"].is_dictionary


class TestSpoolDamage:
    """A spool line that is not the chunk that was written raises a
    ``ValueError`` naming the file — the read never returns part of a
    partition, and nothing half-read is cached."""

    @pytest.fixture
    def spilled(self, tmp_path):
        plain = Table("t", sample_schema())
        spill = SpillTable("t", sample_schema(), spool_dir=tmp_path,
                           spill_bytes=256)
        for batch in range(6):
            rows = sample_rows(8, offset=batch * 8)
            plain.append(rows, partition="d1")
            spill.append(rows, partition="d1")
        part = spill._partitions["d1"]
        assert len(part._chunk_offsets) > 1  # damage hits one of several
        return plain, spill, part.spool_path

    def damage(self, spool, old: bytes, new: bytes) -> bytes:
        """Same-length mutation, so every recorded offset stays valid."""
        assert len(old) == len(new)
        intact = spool.read_bytes()
        assert old in intact
        spool.write_bytes(intact.replace(old, new, 1))
        return intact

    def test_garbled_line_raises(self, spilled):
        plain, spill, spool = spilled
        intact = self.damage(spool, b'{"record"', b'#"record"')
        with pytest.raises(ValueError, match="corrupt chunk record") as error:
            spill.rows(partition="d1")
        assert str(spool) in str(error.value)
        with pytest.raises(ValueError, match="corrupt chunk record"):
            spill.columns("d1", ["n"])
        spool.write_bytes(intact)
        assert spill.rows(partition="d1") == plain.rows(partition="d1")

    def test_wrong_record_kind_at_offset_raises(self, spilled):
        _, spill, spool = spilled
        self.damage(spool, b'"record": "chunk"', b'"record": "chonk"')
        with pytest.raises(ValueError,
                           match="expected a chunk record") as error:
            spill.rows(partition="d1")
        assert str(spool) in str(error.value)
        assert "'chonk'" in str(error.value)

    def test_line_that_is_not_an_object_raises(self, spilled):
        _, spill, spool = spilled
        first, rest = spool.read_bytes().split(b"\n", 1)
        spool.write_bytes(b"7".ljust(len(first)) + b"\n" + rest)
        with pytest.raises(ValueError,
                           match="expected a chunk record") as error:
            spill.rows(partition="d1")
        assert str(spool) in str(error.value)

    def test_chunk_missing_requested_column_raises(self, spilled):
        plain, spill, spool = spilled
        self.damage(spool, b'"cdi": [', b'"cdx": [')
        with pytest.raises(ValueError,
                           match="missing column 'cdi'") as error:
            spill.columns("d1", ["cdi"])
        assert str(spool) in str(error.value)
        with pytest.raises(ValueError, match="missing column 'cdi'"):
            spill.rows(partition="d1")
        # Column pruning holds: a read that never asks for it is whole.
        assert (spill.columns("d1", ["n"])["n"].to_pylist()
                == plain.columns("d1", ["n"])["n"].to_pylist())
