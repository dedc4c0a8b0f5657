"""Tests for row schemas."""

import numpy as np
import pytest

from repro.storage.columns import ColumnBlock
from repro.storage.schema import Column, Schema, SchemaError


def make_schema() -> Schema:
    return Schema([
        Column("vm", str),
        Column("cdi", float),
        Column("count", int),
        Column("note", str, nullable=True),
    ])


class TestColumn:
    def test_accepts_matching_type(self):
        assert Column("x", int).validate(3) == 3

    def test_int_widens_to_float(self):
        assert Column("x", float).validate(3) == 3.0
        assert isinstance(Column("x", float).validate(3), float)

    def test_bool_is_not_int(self):
        with pytest.raises(SchemaError):
            Column("x", int).validate(True)

    def test_bool_is_not_float(self):
        with pytest.raises(SchemaError):
            Column("x", float).validate(True)

    def test_wrong_type_rejected(self):
        with pytest.raises(SchemaError, match="expects str"):
            Column("x", str).validate(3)

    def test_null_handling(self):
        assert Column("x", str, nullable=True).validate(None) is None
        with pytest.raises(SchemaError, match="not nullable"):
            Column("x", str).validate(None)


class TestSchema:
    def test_valid_row_normalized(self):
        schema = make_schema()
        row = schema.validate_row({"vm": "vm-1", "cdi": 0.1, "count": 2})
        assert row == {"vm": "vm-1", "cdi": 0.1, "count": 2, "note": None}

    def test_missing_required_column(self):
        with pytest.raises(SchemaError, match="missing required"):
            make_schema().validate_row({"vm": "vm-1", "count": 2})

    def test_unknown_column_rejected(self):
        with pytest.raises(SchemaError, match="unknown columns"):
            make_schema().validate_row(
                {"vm": "a", "cdi": 0.1, "count": 1, "bogus": 1}
            )

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema([Column("a", int), Column("a", str)])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_names_and_lookup(self):
        schema = make_schema()
        assert schema.names == ("vm", "cdi", "count", "note")
        assert "cdi" in schema
        assert schema.column("cdi").dtype is float
        with pytest.raises(KeyError):
            schema.column("nope")


class TestColumnarValidation:
    """Vectorized per-column validation must keep per-cell semantics."""

    def test_validate_block_seals_typed_array(self):
        block = Column("x", float).validate_block([0.1, 0.2])
        assert block.to_pylist() == [0.1, 0.2]

    def test_validate_block_widens_ints(self):
        block = Column("x", float).validate_block([1, 2.5])
        assert block.to_pylist() == [1.0, 2.5]
        assert all(isinstance(v, float) for v in block.to_pylist())

    def test_validate_block_rejects_bool_for_numeric(self):
        with pytest.raises(SchemaError, match="got bool"):
            Column("x", int).validate_block([1, True])
        with pytest.raises(SchemaError, match="got bool"):
            Column("x", float).validate_block([0.5, True])

    def test_validate_block_nullability(self):
        block = Column("x", str, nullable=True).validate_block(["a", None])
        assert block.to_pylist() == ["a", None]
        with pytest.raises(SchemaError, match="not nullable"):
            Column("x", str).validate_block(["a", None])

    def test_validate_block_rejects_wrong_type(self):
        with pytest.raises(SchemaError, match="expects str"):
            Column("x", str).validate_block(["a", 3])

    def test_validate_columns_roundtrip(self):
        blocks, length = make_schema().validate_columns({
            "vm": ["a", "b"], "cdi": [0.1, 1], "count": [1, 2],
        })
        assert length == 2
        assert blocks["cdi"].to_pylist() == [0.1, 1.0]
        assert blocks["note"].to_pylist() == [None, None]

    def test_validate_columns_ragged_rejected(self):
        with pytest.raises(SchemaError, match="ragged"):
            make_schema().validate_columns({
                "vm": ["a"], "cdi": [0.1, 0.2], "count": [1],
            })

    def test_validate_columns_unknown_rejected(self):
        with pytest.raises(SchemaError, match="unknown columns"):
            make_schema().validate_columns({"bogus": [1]})

    def test_validate_columns_missing_required_rejected(self):
        with pytest.raises(SchemaError, match="missing required"):
            make_schema().validate_columns({"vm": ["a"]})

    def test_validate_columns_zero_rows_is_fine(self):
        blocks, length = make_schema().validate_columns({})
        assert length == 0
        assert all(len(block) == 0 for block in blocks.values())


def codes_block(codes, dictionary, null_mask=None) -> ColumnBlock:
    """A dictionary block built by hand — no ``from_codes`` help, so a
    malformed one reaches the validator as written."""
    return ColumnBlock(None, null_mask,
                       codes=np.array(codes, dtype=np.int32),
                       dictionary=dictionary)


class TestTypedValidation:
    """The typed arm of ``validate_block``: a ``ColumnBlock`` or numpy
    array is checked in array space — same contract, no per-cell pass."""

    def test_admits_matching_dtype_arrays(self):
        block = Column("x", float).validate_block(np.array([0.1, 0.2]))
        assert block.to_pylist() == [0.1, 0.2]
        assert Column("n", int).validate_block(
            np.array([1, 2], dtype=np.int64)).to_pylist() == [1, 2]
        assert Column("b", bool).validate_block(
            np.array([True, False])).to_pylist() == [True, False]

    def test_admits_what_the_list_arm_admits(self):
        """NaN is a float; an empty column is a column."""
        typed = Column("x", float).validate_block(np.array([np.nan, 1.0]))
        listed = Column("x", float).validate_block([float("nan"), 1.0])
        assert np.array_equal(typed.values, listed.values, equal_nan=True)
        for dtype, empty in ((float, np.empty(0)),
                             (str, np.empty(0, dtype=object)),
                             (str, codes_block([], ()))):
            assert Column("x", dtype).validate_block(empty).to_pylist() == []

    def test_no_widening_in_array_space(self):
        with pytest.raises(SchemaError, match=r"expects float, got .* int64\[2\]"):
            Column("x", float).validate_block(np.array([1, 2], dtype=np.int64))
        with pytest.raises(SchemaError, match=r"expects float, got .* object"):
            Column("x", float).validate_block(
                np.array([0.1, 0.2], dtype=object))
        with pytest.raises(SchemaError, match=r"expects float, got .* float32"):
            Column("x", float).validate_block(
                np.array([0.1], dtype=np.float32))
        with pytest.raises(SchemaError, match="expects float, got .* codes"):
            Column("x", float).validate_block(codes_block([0], ("a",)))

    def test_object_strings_checked_by_type(self):
        names = np.array(["a", "b"], dtype=object)
        assert Column("s", str).validate_block(names).to_pylist() == ["a", "b"]
        with pytest.raises(SchemaError, match="expects str, got"):
            Column("s", str).validate_block(np.array(["a", 3], dtype=object))
        with pytest.raises(SchemaError, match="expects str, got"):
            Column("s", str, nullable=True).validate_block(
                np.array(["a", None], dtype=object))  # a null needs a mask

    def test_null_mask_only_where_nullable(self):
        masked = ColumnBlock.build(float, [1.0, None])
        assert Column("x", float, nullable=True).validate_block(
            masked).to_pylist() == [1.0, None]
        with pytest.raises(SchemaError, match="not nullable"):
            Column("x", float).validate_block(masked)
        unset = ColumnBlock(np.array([1.0, 2.0]), np.zeros(2, dtype=np.bool_))
        assert Column("x", float).validate_block(unset).to_pylist() == [1.0, 2.0]
        with pytest.raises(SchemaError, match="not nullable"):
            Column("s", str).validate_block(ColumnBlock.build(str, ["a", None]))
        assert Column("s", str, nullable=True).validate_block(
            ColumnBlock.build(str, ["a", None])).to_pylist() == ["a", None]

    def test_dictionary_must_hold_only_str(self):
        with pytest.raises(SchemaError, match="codes block over 2 names"):
            Column("s", str).validate_block(codes_block([0, 1], ("a", 3)))

    @pytest.mark.parametrize("codes", [[0, 2], [0, -2]])
    def test_dictionary_codes_must_be_in_range(self, codes):
        with pytest.raises(SchemaError, match="expects str, got .* codes block"):
            Column("s", str, nullable=True).validate_block(
                codes_block(codes, ("a", "b")))

    def test_null_code_needs_its_mask_bit_and_a_nullable_column(self):
        with pytest.raises(SchemaError, match="expects str, got .* codes block"):
            Column("s", str, nullable=True).validate_block(
                codes_block([0, -1], ("a",)))  # -1 with no mask
        with pytest.raises(SchemaError, match="expects str, got .* codes block"):
            Column("s", str, nullable=True).validate_block(codes_block(
                [0, 0], ("a",), np.array([False, True])))  # mask with no -1
        masked = codes_block([0, -1], ("a",), np.array([False, True]))
        assert Column("s", str, nullable=True).validate_block(
            masked).to_pylist() == ["a", None]
        with pytest.raises(SchemaError, match="not nullable"):
            Column("s", str).validate_block(masked)

    def test_codes_must_be_int32(self):
        wide = ColumnBlock(None, codes=np.array([0], dtype=np.int64),
                           dictionary=("a",))
        with pytest.raises(SchemaError, match=r"int64\[1\] codes block"):
            Column("s", str).validate_block(wide)

    def test_block_must_be_one_column(self):
        with pytest.raises(SchemaError, match=r"float64\[2, 2\] array"):
            Column("x", float).validate_block(np.zeros((2, 2)))
        with pytest.raises(SchemaError, match="malformed"):
            Column("x", float, nullable=True).validate_block(
                ColumnBlock(np.zeros(3), np.zeros(2, dtype=np.bool_)))

    def test_ragged_and_unknown_typed_columns_rejected(self):
        schema = make_schema()
        with pytest.raises(SchemaError, match="ragged"):
            schema.validate_columns({
                "vm": np.array(["a"], dtype=object),
                "cdi": np.array([0.1, 0.2]),
                "count": np.array([1], dtype=np.int64),
            })
        with pytest.raises(SchemaError, match="unknown columns"):
            schema.validate_columns({"bogus": np.array([1.0])})

    def test_typed_and_list_columns_mix(self):
        blocks, length = make_schema().validate_columns({
            "vm": ColumnBlock.build(str, ["a", "b"]),
            "cdi": np.array([0.1, 1.0]), "count": [1, 2],
        })
        assert length == 2
        assert {name: block.to_pylist() for name, block in blocks.items()} == {
            "vm": ["a", "b"], "cdi": [0.1, 1.0], "count": [1, 2],
            "note": [None, None],
        }

    def test_admitted_array_never_aliases_the_callers(self):
        """A writeable array is still the caller's: copied, and the
        caller's stays writeable.  A read-only one is adopted as is."""
        mine = np.array([0.1, 0.2])
        block = Column("x", float).validate_block(mine)
        mine[0] = 9.0
        assert block.to_pylist() == [0.1, 0.2]
        assert not block.values.flags.writeable
        frozen = np.array([0.3])
        frozen.flags.writeable = False
        assert Column("x", float).validate_block(frozen).values is frozen
