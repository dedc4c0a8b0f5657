"""Tests for the MaxCompute-like table store."""

import numpy as np
import pytest

from repro.storage.columns import ColumnBlock
from repro.storage.schema import Column, Schema, SchemaError
from repro.storage.table import Table, TableNotFoundError, TableStore

from tests.strategies import block_arrays


def make_table() -> Table:
    schema = Schema([Column("vm", str), Column("value", float)])
    return Table("indicators", schema)


class TestTable:
    def test_append_and_scan(self):
        table = make_table()
        assert table.append([{"vm": "a", "value": 0.1}]) == 1
        assert table.rows() == [{"vm": "a", "value": 0.1}]

    def test_append_validates_all_or_nothing(self):
        table = make_table()
        with pytest.raises(SchemaError):
            table.append([{"vm": "a", "value": 0.1}, {"vm": "b"}])
        assert table.count() == 0

    def test_partitioned_writes(self):
        table = make_table()
        table.append([{"vm": "a", "value": 0.1}], partition="20240101")
        table.append([{"vm": "b", "value": 0.2}], partition="20240102")
        assert table.partitions == ["20240101", "20240102"]
        assert table.count(partition="20240101") == 1
        assert [r["vm"] for r in table.scan(partition="20240102")] == ["b"]

    def test_overwrite_partition_is_idempotent(self):
        table = make_table()
        table.append([{"vm": "a", "value": 0.1}], partition="d")
        table.overwrite_partition([{"vm": "b", "value": 0.5}], partition="d")
        table.overwrite_partition([{"vm": "b", "value": 0.5}], partition="d")
        assert table.rows(partition="d") == [{"vm": "b", "value": 0.5}]

    def test_drop_partition(self):
        table = make_table()
        table.append([{"vm": "a", "value": 0.1}], partition="d")
        table.drop_partition("d")
        table.drop_partition("missing")  # no-op
        assert table.count() == 0

    def test_scan_with_predicate(self):
        table = make_table()
        table.append([{"vm": "a", "value": 0.1}, {"vm": "b", "value": 0.9}])
        hot = list(table.scan(lambda r: r["value"] > 0.5))
        assert [r["vm"] for r in hot] == ["b"]

    def test_scan_returns_copies(self):
        table = make_table()
        table.append([{"vm": "a", "value": 0.1}])
        row = next(table.scan())
        row["value"] = 999.0
        assert table.rows()[0]["value"] == 0.1

    def test_scan_missing_partition_is_empty(self):
        assert list(make_table().scan(partition="nope")) == []

    def test_empty_append_is_a_noop(self):
        """Regression: an empty append must not create a phantom
        partition (``setdefault`` used to)."""
        table = make_table()
        assert table.append([], partition="ghost") == 0
        assert table.partitions == []
        assert table.append_columns({}, partition="ghost") == 0
        assert table.partitions == []

    def test_overwrite_keeps_empty_partition(self):
        table = make_table()
        table.overwrite_partition([], partition="d")
        assert table.partitions == ["d"]
        assert table.rows(partition="d") == []


class TestColumnarReads:
    def make_table(self) -> Table:
        schema = Schema([
            Column("vm", str), Column("value", float),
            Column("note", str, nullable=True),
        ])
        table = Table("t", schema)
        table.append([
            {"vm": "a", "value": 0.1},
            {"vm": "b", "value": 0.9, "note": "hot"},
        ], partition="p1")
        table.append([{"vm": "c", "value": 0.5}], partition="p2")
        return table

    def test_columns_single_partition(self):
        blocks = self.make_table().columns("p1")
        assert blocks["vm"].to_pylist() == ["a", "b"]
        assert blocks["value"].values.dtype == np.float64
        assert blocks["note"].to_pylist() == [None, "hot"]

    def test_columns_all_partitions_concat_sorted(self):
        blocks = self.make_table().columns()
        assert blocks["vm"].to_pylist() == ["a", "b", "c"]

    def test_column_pruning(self):
        blocks = self.make_table().columns("p1", ["value"])
        assert list(blocks) == ["value"]

    def test_unknown_column_rejected(self):
        with pytest.raises(SchemaError, match="unknown column"):
            self.make_table().columns("p1", ["nope"])

    def test_missing_partition_returns_empty_blocks(self):
        blocks = self.make_table().columns("nope", ["value"])
        assert len(blocks["value"]) == 0
        assert blocks["value"].values.dtype == np.float64

    def test_zero_copy_single_partition(self):
        table = self.make_table()
        blocks = table.columns("p1", ["value"])
        again = table.columns("p1", ["value"])
        assert blocks["value"] is again["value"]

    def test_predicate_filters_rows(self):
        table = self.make_table()
        blocks = table.columns(
            "p1", ["vm"], predicate=lambda c: np.asarray(c["value"]) > 0.5
        )
        assert blocks["vm"].to_pylist() == ["b"]

    def test_predicate_bad_mask_shape_rejected(self):
        table = self.make_table()
        with pytest.raises(ValueError, match="mask has shape"):
            table.columns("p1", predicate=lambda c: np.array([True]))

    def test_column_batches_balanced(self):
        table = make_table()
        table.append([{"vm": f"v{i}", "value": float(i)} for i in range(7)])
        batches = table.column_batches(batches=3)
        assert [len(b) for b in batches] == [3, 2, 2]
        flattened = [
            vm for batch in batches for vm in batch.column("vm").to_pylist()
        ]
        assert flattened == [f"v{i}" for i in range(7)]

    def test_column_batches_pass_pruning_and_predicate_through(self):
        table = make_table()
        table.append([{"vm": f"v{i}", "value": float(i)} for i in range(10)])
        pruned = table.column_batches(names=["value"], batches=2)
        assert all(batch.names == ("value",) for batch in pruned)
        assert [v for batch in pruned
                for v in batch.values("value").tolist()] == \
            [float(i) for i in range(10)]
        (batch,) = table.column_batches(
            names=["vm"],
            predicate=lambda c: np.asarray(c["value"]) >= 8.0,
        )
        assert batch.column("vm").to_pylist() == ["v8", "v9"]

    def test_column_batches_missing_partition_yields_empty_batches(self):
        """Never zero batches: the daily job maps one task per batch and
        an eventless day must still produce its (empty) bundle."""
        table = self.make_table()
        (only,) = table.column_batches("nope")
        assert len(only) == 0 and only.names == ("vm", "value", "note")
        assert [len(b) for b in table.column_batches("nope", batches=3)] == \
            [0, 0, 0]

    def test_row_and_column_reads_agree(self):
        table = self.make_table()
        rows = table.rows()
        blocks = table.columns()
        rebuilt = [
            dict(zip(blocks, values))
            for values in zip(*(blocks[n].to_pylist() for n in blocks))
        ]
        assert rebuilt == rows


class TestTypedPublish:
    """``overwrite_partition_columns`` with typed columns: the same
    validate → replace → bump-generation protocol as lists, sealed at
    the boundary."""

    def make_table(self) -> Table:
        table = Table("t", Schema([
            Column("vm", str), Column("event", str), Column("value", float),
            Column("note", str, nullable=True),
        ]))
        table.overwrite_partition_columns({
            "vm": ["a", "b"], "event": ["x", "y"], "value": [0.1, 0.2],
        }, "p")
        return table

    def typed(self) -> dict:
        return {
            "vm": np.array(["a", "b", "c"], dtype=object),
            "event": ColumnBlock.from_codes(
                np.array([1, 0, 1], dtype=np.int32), ["y", "x"]),
            "value": np.array([0.5, float("nan"), 0.25]),
            "note": ColumnBlock.build(str, [None, "hot", None]),
        }

    def test_typed_publish_equals_list_publish(self):
        typed, listed = self.make_table(), self.make_table()
        columns = self.typed()
        before = typed.generation
        assert typed.overwrite_partition_columns(columns, "p") == 3
        assert listed.overwrite_partition_columns({
            "vm": ["a", "b", "c"], "event": ["x", "y", "x"],
            "value": [0.5, float("nan"), 0.25], "note": [None, "hot", None],
        }, "p") == 3
        assert repr(typed.rows("p")) == repr(listed.rows("p"))  # NaN-safe
        assert typed.generation == listed.generation == before + 1
        assert typed.partition_generation("p") == before + 1

    @pytest.mark.parametrize("column, bad, message", [
        ("value", np.array([1, 2, 3], dtype=np.int64), "expects float, got"),
        ("value", np.array([0.1, 0.2, 0.3], dtype=object), "expects float, got"),
        ("value", ColumnBlock.build(float, [0.1, None, 0.3]), "not nullable"),
        ("event", ColumnBlock(None, codes=np.array([0, 1, 0], dtype=np.int32),
                              dictionary=("x", 7)), "expects str, got"),
        ("event", ColumnBlock(None, codes=np.array([0, 2, 0], dtype=np.int32),
                              dictionary=("x", "y")), "expects str, got"),
        ("event", ColumnBlock.from_codes([0, -1, 0], ["x"]), "not nullable"),
        ("value", np.array([0.1, 0.2]), "ragged"),
        ("bogus", np.array([0.1, 0.2, 0.3]), "unknown columns"),
    ])
    def test_rejected_typed_publish_leaves_the_table_untouched(
            self, column, bad, message):
        table = self.make_table()
        held = table.columns("p")
        rows, generation = table.rows("p"), table.generation
        with pytest.raises(SchemaError, match=message):
            table.overwrite_partition_columns(
                {**self.typed(), column: bad}, "p")
        assert table.rows("p") == rows
        assert table.generation == generation
        assert table.partition_generation("p") == generation
        assert all(table.columns("p")[name] is held[name] for name in held)

    def test_stored_blocks_are_sealed_and_alias_nothing_the_caller_holds(self):
        """The boundary property: whatever was handed in — writeable
        arrays, views, blocks over views — every stored array is
        read-only and mutating the caller's side changes nothing."""
        table = self.make_table()
        values = np.array([9.0, 0.5, 0.75, 0.25, 9.0])
        codes = np.array([1, 0, 1], dtype=np.int32)
        names = np.array(["a", "b", "c"], dtype=object)
        dictionary = ["y", "x"]
        table.overwrite_partition_columns({
            "vm": names,
            "event": ColumnBlock(None, codes=codes[:], dictionary=dictionary),
            "value": ColumnBlock(values[1:4]),
        }, "p")
        expected = table.rows("p")
        values[:] = -1.0
        codes[:] = 0
        names[:] = "zzz"
        dictionary[:] = ["q", "q"]
        assert table.rows("p") == expected == [
            {"vm": "a", "event": "x", "value": 0.5, "note": None},
            {"vm": "b", "event": "y", "value": 0.75, "note": None},
            {"vm": "c", "event": "x", "value": 0.25, "note": None},
        ]
        for block in table.columns("p").values():
            for arr in block_arrays(block):
                assert not arr.flags.writeable
                assert not any(np.shares_memory(arr, mine)
                               for mine in (values, codes, names))

    def test_empty_typed_publish_keeps_the_partition(self):
        table = self.make_table()
        assert table.overwrite_partition_columns({
            "vm": np.empty(0, dtype=object),
            "event": ColumnBlock.from_codes([], []),
            "value": np.empty(0),
        }, "p") == 0
        assert table.partitions == ["p"]
        assert table.rows("p") == []


class _CountingTable(Table):
    """Instrumented table recording every block access."""

    def __init__(self, name, schema):
        super().__init__(name, schema)
        self.loads: list[tuple[str, tuple[str, ...]]] = []

    def _load_blocks(self, partition, names):
        self.loads.append((partition, tuple(names)))
        return super()._load_blocks(partition, names)


class TestPredicatePushdownPruning:
    """Satellite: pruned reads must never touch other partitions'
    blocks, and column pruning must never materialize other columns."""

    def make_counting_table(self) -> _CountingTable:
        schema = Schema([Column("vm", str), Column("value", float)])
        table = _CountingTable("t", schema)
        for partition in ("p1", "p2", "p3"):
            table.append(
                [{"vm": f"{partition}-vm", "value": 0.5}], partition
            )
        table.loads.clear()
        return table

    def test_partition_pruned_read_touches_one_partition(self):
        table = self.make_counting_table()
        table.columns("p2", ["value"])
        assert {partition for partition, _ in table.loads} == {"p2"}

    def test_column_pruned_read_touches_requested_columns_only(self):
        table = self.make_counting_table()
        table.columns("p1", ["value"])
        assert all(names == ("value",) for _, names in table.loads)

    def test_predicate_pushdown_stays_partition_pruned(self):
        table = self.make_counting_table()
        table.columns(
            "p3", ["vm"], predicate=lambda c: np.asarray(c["value"]) > 0.0
        )
        touched = {partition for partition, _ in table.loads}
        assert touched == {"p3"}
        # The predicate lazily loaded "value", the result "vm" — but
        # never any column of another partition.
        loaded_columns = {n for _, names in table.loads for n in names}
        assert loaded_columns == {"vm", "value"}

    def test_column_batches_partition_pruned(self):
        table = self.make_counting_table()
        table.column_batches("p1", ["value"], batches=4)
        assert {partition for partition, _ in table.loads} == {"p1"}

    def test_counting_table_registers_in_store(self):
        table = self.make_counting_table()
        store = TableStore()
        assert store.add(table) is table
        assert store.get("t") is table
        with pytest.raises(SchemaError, match="already exists"):
            store.add(table)
        assert store.add(table, if_not_exists=True) is table


class TestTableStore:
    def test_create_and_get(self):
        store = TableStore()
        schema = Schema([Column("x", int)])
        table = store.create("t", schema)
        assert store.get("t") is table
        assert "t" in store
        assert store.names() == ["t"]

    def test_duplicate_create_rejected(self):
        store = TableStore()
        schema = Schema([Column("x", int)])
        store.create("t", schema)
        with pytest.raises(SchemaError, match="already exists"):
            store.create("t", schema)

    def test_if_not_exists_returns_existing(self):
        store = TableStore()
        schema = Schema([Column("x", int)])
        first = store.create("t", schema)
        second = store.create("t", schema, if_not_exists=True)
        assert first is second

    def test_missing_table_raises(self):
        with pytest.raises(TableNotFoundError):
            TableStore().get("nope")

    def test_drop(self):
        store = TableStore()
        store.create("t", Schema([Column("x", int)]))
        store.drop("t")
        store.drop("t")  # no-op
        assert "t" not in store
