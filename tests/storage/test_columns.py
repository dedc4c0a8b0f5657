"""Tests for the typed column blocks under the table store."""

import numpy as np
import pytest

from repro.storage.columns import (
    ColumnBatch,
    ColumnBlock,
    ColumnarPartition,
    factorize_block,
    slice_batches,
    try_dictionary_encode,
)


class TestColumnBlock:
    def test_build_float(self):
        block = ColumnBlock.build(float, [1.5, 2.5, -0.25])
        assert block.values.dtype == np.float64
        assert block.null_mask is None
        assert block.to_pylist() == [1.5, 2.5, -0.25]

    def test_build_with_nulls(self):
        block = ColumnBlock.build(float, [1.0, None, 3.0])
        assert block.null_mask is not None
        assert block.null_mask.tolist() == [False, True, False]
        # Masked slot carries a fill value in the typed array...
        assert block.values.tolist() == [1.0, 0.0, 3.0]
        # ...but the logical view restores the null.
        assert block.to_pylist() == [1.0, None, 3.0]

    def test_str_stays_object(self):
        block = ColumnBlock.build(str, ["a", None, "c"])
        assert block.values.dtype == object
        assert block.to_pylist() == ["a", None, "c"]

    def test_bool_block(self):
        block = ColumnBlock.build(bool, [True, False, True])
        assert block.values.dtype == np.bool_
        assert block.to_pylist() == [True, False, True]

    def test_int_roundtrips_exactly(self):
        values = [0, -1, 2**62, -(2**62)]
        block = ColumnBlock.build(int, values)
        assert block.values.dtype == np.int64
        assert block.to_pylist() == values

    def test_int_overflow_falls_back_to_object(self):
        huge = 2**100
        block = ColumnBlock.build(int, [1, huge])
        assert block.values.dtype == object
        assert block.to_pylist() == [1, huge]

    def test_sealed_arrays_are_read_only(self):
        block = ColumnBlock.build(float, [1.0, None])
        with pytest.raises(ValueError):
            block.values[0] = 9.0
        with pytest.raises(ValueError):
            block.null_mask[0] = True

    def test_block_over_a_writeable_view_does_not_alias_it(self):
        """Regression: a view used to stay writeable and alias its
        buffer — writing ``buf[3]`` changed the sealed block."""
        buf = np.arange(8, dtype=np.float64)
        block = ColumnBlock(buf[2:5])
        buf[3] = 99.0
        assert block.to_pylist() == [2.0, 3.0, 4.0]
        assert not block.values.flags.writeable
        assert not np.shares_memory(block.values, buf)

    def test_block_over_a_read_only_view_of_a_live_buffer_copies(self):
        buf = np.arange(8, dtype=np.int32)
        window = buf[:3]
        window.flags.writeable = False
        block = ColumnBlock.from_codes(window, ["a", "b", "c"])
        buf[0] = 2
        assert block.to_pylist() == ["a", "b", "c"]

    def test_dictionary_is_sealed_to_a_tuple(self):
        names = ["a", "b"]
        block = ColumnBlock(None, codes=np.array([0, 1], dtype=np.int32),
                            dictionary=names)
        names[0] = "z"
        assert block.to_pylist() == ["a", "b"]

    def test_slice_is_zero_copy(self):
        block = ColumnBlock.build(float, [1.0, 2.0, 3.0, 4.0])
        window = block[1:3]
        assert window.to_pylist() == [2.0, 3.0]
        assert window.values.base is not None

    def test_concat(self):
        merged = ColumnBlock.concat([
            ColumnBlock.build(float, [1.0, None]),
            ColumnBlock.build(float, [3.0]),
        ])
        assert merged.to_pylist() == [1.0, None, 3.0]

    def test_concat_mixed_object_and_typed(self):
        merged = ColumnBlock.concat([
            ColumnBlock.build(int, [1, 2]),
            ColumnBlock.build(int, [2**100]),
        ])
        assert merged.values.dtype == object
        assert merged.to_pylist() == [1, 2, 2**100]

    def test_empty(self):
        block = ColumnBlock.empty(int)
        assert len(block) == 0
        assert block.values.dtype == np.int64

    def test_all_null(self):
        block = ColumnBlock.all_null(str, 3)
        assert block.to_pylist() == [None, None, None]


class TestColumnarPartition:
    def make(self):
        return ColumnarPartition(("vm", "value"), {"vm": str, "value": float})

    def test_rows_roundtrip(self):
        part = self.make()
        part.extend_rows([{"vm": "a", "value": 0.1}, {"vm": "b", "value": 0.2}])
        assert len(part) == 2
        assert list(part.iter_rows()) == [
            {"vm": "a", "value": 0.1}, {"vm": "b", "value": 0.2},
        ]

    def test_block_cached_until_next_write(self):
        part = self.make()
        part.extend_rows([{"vm": "a", "value": 0.1}])
        first = part.block("value")
        assert part.block("value") is first
        part.extend_rows([{"vm": "b", "value": 0.2}])
        resealed = part.block("value")
        assert resealed is not first
        assert resealed.to_pylist() == [0.1, 0.2]

    def test_extend_blocks_adopts_sealed_arrays(self):
        part = self.make()
        blocks = {
            "vm": ColumnBlock.build(str, ["a"]),
            "value": ColumnBlock.build(float, [0.5]),
        }
        part.extend_blocks(blocks, 1)
        # No buffered tail → the sealed block is adopted, not copied.
        assert part.block("value") is blocks["value"]


class TestSliceBatches:
    def test_balanced_split(self):
        blocks = {"x": ColumnBlock.build(int, list(range(10)))}
        batches = slice_batches(blocks, 10, 3)
        assert [len(b) for b in batches] == [4, 3, 3]
        assert [b.values("x").tolist() for b in batches] == [
            [0, 1, 2, 3], [4, 5, 6], [7, 8, 9],
        ]

    def test_empty_input_still_yields_batches(self):
        blocks = {"x": ColumnBlock.empty(int)}
        batches = slice_batches(blocks, 0, 4)
        assert len(batches) == 4
        assert all(len(b) == 0 for b in batches)

    def test_rejects_zero_batches(self):
        with pytest.raises(ValueError, match=">= 1"):
            slice_batches({}, 0, 0)

    def test_batch_row_view(self):
        blocks = {
            "vm": ColumnBlock.build(str, ["a", "b"]),
            "value": ColumnBlock.build(float, [0.1, None]),
        }
        (batch,) = slice_batches(blocks, 2, 1)
        assert isinstance(batch, ColumnBatch)
        assert batch.names == ("vm", "value")
        assert list(batch.rows()) == [
            {"vm": "a", "value": 0.1}, {"vm": "b", "value": None},
        ]


class TestDictionaryEncoding:
    def test_build_str_dictionary_encodes(self):
        values = ["a", "b", "a", "a", "b"] * 4
        block = ColumnBlock.build(str, values)
        assert block.is_dictionary
        assert block.dictionary == ("a", "b")  # first-occurrence order
        assert block.codes.dtype == np.int32
        assert block.to_pylist() == values

    def test_nullable_dictionary_roundtrip(self):
        values = ["x", None, "y", "x", None] * 4
        block = ColumnBlock.build(str, values)
        assert block.is_dictionary
        assert block.null_mask is not None
        assert block.codes.tolist().count(-1) == 8
        assert block.to_pylist() == values

    def test_high_cardinality_stays_plain(self):
        # 64 distinct values in 64 rows exceeds max(16, n // 2).
        block = ColumnBlock.build(str, [f"v{i:02d}" for i in range(64)])
        assert not block.is_dictionary
        assert block.codes is None

    def test_try_encode_respects_limit(self):
        assert try_dictionary_encode(["a", "b", "c"], limit=2) is None
        encoded = try_dictionary_encode(["a", "b", "a"], limit=2)
        assert encoded is not None
        codes, dictionary = encoded
        assert codes.tolist() == [0, 1, 0]
        assert dictionary == ("a", "b")

    def test_from_codes_derives_null_mask(self):
        block = ColumnBlock.from_codes(
            np.array([0, -1, 1], dtype=np.int32), ("a", "b")
        )
        assert block.null_mask is not None
        assert block.null_mask.tolist() == [False, True, False]
        assert block.to_pylist() == ["a", None, "b"]

    def test_slice_stays_in_code_space(self):
        block = ColumnBlock.build(str, ["a", "b", "a", "c"] * 4)
        window = block[1:3]
        assert window.is_dictionary
        assert window.dictionary == block.dictionary
        assert window.codes.base is not None  # zero-copy
        assert window.to_pylist() == ["b", "a"]

    def test_concat_merges_dictionaries(self):
        merged = ColumnBlock.concat([
            ColumnBlock.build(str, ["a", "b", "a", "b"]),
            ColumnBlock.build(str, ["b", "c", None, "b"]),
        ])
        assert merged.is_dictionary
        assert merged.to_pylist() == [
            "a", "b", "a", "b", "b", "c", None, "b",
        ]
        assert set(merged.dictionary) == {"a", "b", "c"}

    def test_concat_identical_dictionaries_skips_remap(self):
        left = ColumnBlock.build(str, ["a", "b", "a", "b"])
        right = ColumnBlock.build(str, ["b", "a", "b", "a"])
        merged = ColumnBlock.concat([left, right])
        assert merged.dictionary == left.dictionary
        assert merged.to_pylist() == list("abab" "baba")

    def test_decoded_values_match_codes(self):
        block = ColumnBlock.build(str, ["b", None, "a"] * 8)
        decoded = block.values
        assert decoded.dtype == object
        assert decoded.tolist() == block.to_pylist()


class TestFactorizeBlock:
    def assert_matches_np_unique(self, block, raw):
        uniq, inverse = factorize_block(block)
        ref_uniq, ref_inverse = np.unique(
            np.array(raw, dtype=object), return_inverse=True
        )
        assert uniq.tolist() == ref_uniq.tolist()
        assert inverse.tolist() == ref_inverse.tolist()

    def test_dictionary_block_matches_np_unique(self):
        raw = ["b", "a", "c", "a", "b"] * 4
        self.assert_matches_np_unique(ColumnBlock.build(str, raw), raw)

    def test_plain_block_matches_np_unique(self):
        raw = [f"v{i:02d}" for i in range(40)]  # too wide to encode
        block = ColumnBlock.build(str, raw)
        assert not block.is_dictionary
        self.assert_matches_np_unique(block, raw)

    def test_sliced_block_excludes_absent_entries(self):
        # The slice shares the parent's full dictionary; entries not
        # present in the slice must not leak into the unique set.
        block = ColumnBlock.build(str, ["a", "b", "c", "a"] * 4)
        window = block[0:2]  # only "a", "b"
        self.assert_matches_np_unique(window, ["a", "b"])

    def test_single_name_block(self):
        raw = ["only"] * 12
        self.assert_matches_np_unique(ColumnBlock.build(str, raw), raw)
