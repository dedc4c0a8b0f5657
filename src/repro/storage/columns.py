"""Typed column blocks — the columnar storage layer under :class:`Table`.

The production store of the paper (MaxCompute, Fig. 4) is columnar:
the daily Spark job reads a handful of numeric columns out of millions
of rows, so row-major ``list[dict]`` partitions waste both memory and
the vectorized kernel's time on per-row materialization.  This module
provides the building blocks the table store keeps per partition:

* :class:`ColumnBlock` — one sealed, typed column: a numpy array
  (``int64``/``float64``/``bool_`` for numerics, ``object`` for
  strings) plus an optional validity mask for nullable columns;
* :class:`ColumnarPartition` — one partition as a set of column
  blocks with per-column append buffers, so appends stay O(1) and
  sealing to numpy is lazy and cached per column (column pruning never
  materializes unrequested columns);
* :class:`ColumnBatch` — a zero-copy row-range slice over sealed
  blocks, the element type of the engine's column-batch scan source.

String columns are **dictionary-encoded** when it pays off: sealing a
string column whose distinct-value count stays low (event names,
categories, service/VM targets — the paper's hot string columns)
stores ``int32`` codes plus a small dictionary instead of an object
array, decoded lazily only when a consumer actually asks for Python
strings.  Slices and same-dictionary concatenations stay in code
space, and :func:`factorize_block` turns the daily job's ``np.unique``
factorization into a dictionary sort plus an integer gather.

Values round-trip exactly: ``float`` → ``float64`` → ``float`` is
bit-identical, ints outside the ``int64`` range fall back to an
``object`` block instead of overflowing, and nulls are represented by
a boolean mask (``True`` = null) with a zero fill in the typed array
(code ``-1`` in dictionary blocks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

#: Python dtype → numpy dtype of the typed value array.
NUMPY_DTYPES: Mapping[type, Any] = {
    int: np.int64,
    float: np.float64,
    bool: np.bool_,
    str: object,
}

#: Fill value written into masked (null) slots of the typed array.
_FILL_VALUES: Mapping[type, Any] = {int: 0, float: 0.0, bool: False, str: None}


def _object_array(values: Sequence[Any]) -> np.ndarray:
    """Build a 1-D object array without numpy guessing at shapes."""
    arr = np.empty(len(values), dtype=object)
    if len(values):
        arr[:] = values
    return arr


def _sealed(arr: np.ndarray | None) -> np.ndarray | None:
    """``arr`` read-only and aliasing nothing writeable: an owner is
    frozen in place (its builder hands it over), a live view is copied."""
    if arr is not None and (arr.flags.writeable or (
            isinstance(arr.base, np.ndarray) and arr.base.flags.writeable)):
        arr = arr if arr.base is None else arr.copy()
        arr.flags.writeable = False
    return arr


def try_dictionary_encode(
    values: Sequence[Any], *, limit: int | None = None
) -> tuple[np.ndarray, tuple[str, ...]] | None:
    """Factorize a string column into ``(int32 codes, dictionary)``.

    Nulls encode as code ``-1``.  The dictionary preserves first-
    occurrence order.  Returns ``None`` when the distinct-value count
    exceeds ``limit`` (default ``max(16, n // 2)``): a near-unique
    column (e.g. VM ids in a one-row-per-VM table) would pay the
    encoding cost without any compression or factorization win, so it
    stays a plain object array.  The decision is a pure function of
    the values, keeping sealed layouts deterministic.
    """
    n = len(values)
    if limit is None:
        limit = max(16, n // 2)
    code_of: dict[str, int] = {}
    codes = np.empty(n, dtype=np.int32)
    get = code_of.get
    for i, value in enumerate(values):
        if value is None:
            codes[i] = -1
            continue
        code = get(value)
        if code is None:
            code = len(code_of)
            if code >= limit:
                return None
            code_of[value] = code
        codes[i] = code
    return codes, tuple(code_of)


class ColumnBlock:
    """One sealed typed column: values array + optional null mask.

    ``values`` holds the typed data (masked slots carry a fill value);
    ``null_mask`` is a parallel boolean array with ``True`` where the
    logical value is null, or ``None`` for columns without nulls.
    Sealed arrays are read-only and alias nothing writeable (see
    :func:`_sealed`): readers get zero-copy views of the store that
    nothing a writer still holds can change.

    Dictionary-encoded string blocks store ``codes`` (``int32``, with
    ``-1`` at null slots) plus a ``dictionary`` tuple instead of a
    materialized object array; ``values`` then decodes lazily on first
    access, so code-aware consumers (slicing, concatenation,
    :func:`factorize_block`, the spill writer) never pay
    for Python string materialization.
    """

    __slots__ = ("_values", "null_mask", "_pylist", "codes", "dictionary")

    def __init__(self, values: np.ndarray | None,
                 null_mask: np.ndarray | None = None, *,
                 codes: np.ndarray | None = None,
                 dictionary: Sequence[str] | None = None) -> None:
        if values is None and codes is None:
            raise ValueError("a block needs values or codes")
        self._values = _sealed(values)
        self.null_mask = _sealed(null_mask)
        self.codes = _sealed(codes)
        self.dictionary = None if dictionary is None else tuple(dictionary)
        self._pylist: list[Any] | None = None

    @property
    def values(self) -> np.ndarray:
        """Typed value array; dictionary blocks decode lazily (cached)."""
        arr = self._values
        if arr is None:
            dictionary = self.dictionary
            arr = _object_array([
                None if code < 0 else dictionary[code]
                for code in self.codes.tolist()
            ])
            arr.flags.writeable = False
            self._values = arr
        return arr

    @property
    def is_dictionary(self) -> bool:
        """Whether the block carries dictionary codes."""
        return self.codes is not None

    def __len__(self) -> int:
        if self._values is not None:
            return len(self._values)
        return len(self.codes)

    def __array__(self, dtype: Any = None) -> np.ndarray:  # numpy interop
        return np.asarray(self.values, dtype=dtype)

    def __getitem__(self, item: slice) -> "ColumnBlock":
        """Zero-copy row-range slice (used by :class:`ColumnBatch`).

        Dictionary blocks slice in code space — the (shared) dictionary
        is never copied and no strings are decoded.
        """
        mask = self.null_mask[item] if self.null_mask is not None else None
        if self.codes is not None:
            return ColumnBlock(None, mask, codes=self.codes[item],
                               dictionary=self.dictionary)
        return ColumnBlock(self._values[item], mask)

    @classmethod
    def from_codes(cls, codes: np.ndarray, dictionary: Sequence[str],
                   null_mask: np.ndarray | None = None) -> "ColumnBlock":
        """Seal a dictionary-encoded string column from codes.

        ``codes`` must be ``int32``-compatible with ``-1`` marking
        nulls; ``null_mask`` is derived from the negative codes when
        not supplied.
        """
        codes = np.ascontiguousarray(codes, dtype=np.int32)
        if null_mask is None and len(codes) and codes.min() < 0:
            null_mask = codes < 0
        return cls(None, null_mask, codes=codes, dictionary=dictionary)

    @classmethod
    def build(cls, dtype: type, values: Sequence[Any]) -> "ColumnBlock":
        """Seal already-validated python values into a typed block.

        ``values`` must contain only ``dtype`` instances (plus ``None``
        for nullable columns) — exactly what the schema validators
        produce.  Ints that overflow ``int64`` demote the block to an
        ``object`` array rather than corrupting values.  String
        columns dictionary-encode adaptively (see
        :func:`try_dictionary_encode`).
        """
        has_null = any(v is None for v in values)
        mask: np.ndarray | None = None
        filled: Sequence[Any] = values
        if has_null:
            mask = np.fromiter((v is None for v in values), dtype=np.bool_,
                               count=len(values))
            fill = _FILL_VALUES[dtype]
            filled = [fill if v is None else v for v in values]
        if dtype is str:
            encoded = try_dictionary_encode(values)
            if encoded is not None:
                codes, dictionary = encoded
                return cls(None, mask, codes=codes, dictionary=dictionary)
            arr = _object_array(list(values))
            return cls(arr, mask)
        try:
            arr = np.array(filled, dtype=NUMPY_DTYPES[dtype])
        except OverflowError:
            arr = _object_array(list(filled))
        return cls(arr, mask)

    @classmethod
    def empty(cls, dtype: type) -> "ColumnBlock":
        """A zero-row block of the right dtype."""
        return cls.build(dtype, [])

    @classmethod
    def all_null(cls, dtype: type, length: int) -> "ColumnBlock":
        """A block of ``length`` nulls (missing nullable column)."""
        return cls.build(dtype, [None] * length)

    @classmethod
    def concat(cls, blocks: Sequence["ColumnBlock"]) -> "ColumnBlock":
        """Concatenate blocks of one column into a single block.

        All-dictionary inputs concatenate in code space: dictionaries
        merge in first-occurrence order and codes are remapped with an
        integer gather, never decoding a string.
        """
        if len(blocks) == 1:
            return blocks[0]
        if all(b.codes is not None for b in blocks):
            return cls._concat_dictionary(blocks)
        if any(b.values.dtype == object for b in blocks):
            values = np.concatenate([
                b.values if b.values.dtype == object
                else _object_array(b.values.tolist())
                for b in blocks
            ])
        else:
            values = np.concatenate([b.values for b in blocks])
        if any(b.null_mask is not None for b in blocks):
            mask = np.concatenate([
                b.null_mask if b.null_mask is not None
                else np.zeros(len(b), dtype=np.bool_)
                for b in blocks
            ])
        else:
            mask = None
        return cls(values, mask)

    @classmethod
    def _concat_dictionary(cls, blocks: Sequence["ColumnBlock"]
                           ) -> "ColumnBlock":
        """Concatenate dictionary blocks without decoding strings."""
        merged: dict[str, int] = {}
        remapped: list[np.ndarray] = []
        for block in blocks:
            dictionary = block.dictionary
            # One extra slot so the null code (-1) remaps to itself via
            # python's negative indexing.
            remap = np.empty(len(dictionary) + 1, dtype=np.int32)
            remap[-1] = -1
            identical = True
            for i, value in enumerate(dictionary):
                code = merged.setdefault(value, len(merged))
                remap[i] = code
                identical = identical and code == i
            remapped.append(block.codes if identical else remap[block.codes])
        codes = np.concatenate(remapped) if remapped else np.empty(
            0, dtype=np.int32)
        if any(b.null_mask is not None for b in blocks):
            mask = np.concatenate([
                b.null_mask if b.null_mask is not None
                else np.zeros(len(b), dtype=np.bool_)
                for b in blocks
            ])
        else:
            mask = None
        return cls(None, mask, codes=codes, dictionary=tuple(merged))

    def to_pylist(self) -> list[Any]:
        """Logical values as native python objects (``None`` for nulls).

        Cached per block; callers must treat the list as read-only.
        Dictionary blocks decode straight from codes without sealing an
        intermediate object array.
        """
        cached = self._pylist
        if cached is None:
            if self._values is None:
                dictionary = self.dictionary
                cached = [
                    None if code < 0 else dictionary[code]
                    for code in self.codes.tolist()
                ]
            else:
                cached = self.values.tolist()
                if self.null_mask is not None and self.null_mask.any():
                    cached = [
                        None if null else value
                        for value, null in zip(cached, self.null_mask.tolist())
                    ]
            self._pylist = cached
        return cached


class ColumnarPartition:
    """One table partition stored column-major.

    Writes land in per-column python append buffers; reads seal each
    requested column into a cached :class:`ColumnBlock` (numpy array +
    null mask).  Sealing is per column, so pruned reads never pay for
    columns they do not touch, and re-appending after a read only
    re-seals the appended tail (the sealed prefix is concatenated, not
    rebuilt element by element).
    """

    __slots__ = ("_names", "_dtypes", "_sealed", "_buffers", "_length")

    def __init__(self, names: Sequence[str], dtypes: Mapping[str, type]) -> None:
        self._names = tuple(names)
        self._dtypes = dict(dtypes)
        self._sealed: dict[str, ColumnBlock] = {}
        self._buffers: dict[str, list[Any]] = {name: [] for name in self._names}
        self._length = 0

    def __len__(self) -> int:
        return self._length

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def extend_rows(self, rows: Sequence[Mapping[str, Any]]) -> None:
        """Transpose validated rows into the per-column buffers."""
        for name, buffer in self._buffers.items():
            buffer.extend([row[name] for row in rows])
        self._length += len(rows)

    def extend_blocks(self, blocks: Mapping[str, ColumnBlock],
                      length: int) -> None:
        """Append pre-validated column blocks (columnar write path).

        Columns with no buffered tail adopt or concatenate the sealed
        arrays directly — the persistence loader and columnar writers
        never round-trip through python lists.
        """
        for name in self._names:
            block = blocks[name]
            buffer = self._buffers[name]
            if buffer:
                buffer.extend(block.to_pylist())
                continue
            sealed = self._sealed.get(name)
            self._sealed[name] = (
                block if sealed is None else ColumnBlock.concat([sealed, block])
            )
        self._length += length

    def block(self, name: str) -> ColumnBlock:
        """Sealed typed block of one column (cached until next write)."""
        sealed = self._sealed.get(name)
        buffer = self._buffers[name]
        if sealed is not None and not buffer:
            return sealed
        tail = ColumnBlock.build(self._dtypes[name], buffer)
        sealed = tail if sealed is None else ColumnBlock.concat([sealed, tail])
        self._sealed[name] = sealed
        self._buffers[name] = []
        return sealed

    def blocks(self, names: Sequence[str] | None = None
               ) -> dict[str, ColumnBlock]:
        """Sealed blocks for ``names`` (all columns when ``None``)."""
        return {name: self.block(name)
                for name in (self._names if names is None else names)}

    def iter_rows(self) -> Iterator[dict[str, Any]]:
        """Reconstruct row dicts (the compatibility read path)."""
        names = self._names
        columns = [self.block(name).to_pylist() for name in names]
        for values in zip(*columns):
            yield dict(zip(names, values))


@dataclass(frozen=True)
class ColumnBatch:
    """A row-range of sealed column blocks — the engine's scan element.

    Batches are zero-copy views over the partition's sealed arrays.
    """

    columns: Mapping[str, ColumnBlock]
    length: int

    def __len__(self) -> int:
        return self.length

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def column(self, name: str) -> ColumnBlock:
        """Block of one column; raises ``KeyError`` for pruned names."""
        return self.columns[name]

    def values(self, name: str) -> np.ndarray:
        """Typed value array of one column (fill values at nulls)."""
        return self.columns[name].values

    def rows(self) -> Iterator[dict[str, Any]]:
        """Row-dict view of the batch (slow path / debugging aid)."""
        names = tuple(self.columns)
        columns = [self.columns[name].to_pylist() for name in names]
        for values in zip(*columns):
            yield dict(zip(names, values))


def slice_batches(blocks: Mapping[str, ColumnBlock], length: int,
                  batches: int) -> list[ColumnBatch]:
    """Split sealed blocks into balanced contiguous zero-copy batches.

    The first ``extra`` batches get ``base + 1`` rows.  Returns at least
    one (possibly empty) batch.
    """
    if batches < 1:
        raise ValueError(f"batches must be >= 1, got {batches}")
    base, extra = divmod(length, batches)
    out: list[ColumnBatch] = []
    cursor = 0
    for index in range(batches):
        size = base + (1 if index < extra else 0)
        window = slice(cursor, cursor + size)
        out.append(ColumnBatch(
            columns={name: block[window] for name, block in blocks.items()},
            length=size,
        ))
        cursor += size
    return out


def factorize_block(block: ColumnBlock) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)``, dictionary-aware.

    For a dictionary block without nulls this never compares a Python
    string per row: only the *present* codes are sorted (a sliced block
    shares its parent's full dictionary, so absent entries must not
    leak into the unique set) and the inverse is an integer gather.
    The result is element-identical to calling ``np.unique`` on the
    decoded values — the byte-identity contract of the compute paths
    rests on that equivalence, which the differential tests pin down.
    Plain blocks (and nullable ones) fall back to ``np.unique``.
    """
    codes = block.codes
    if codes is None or (block.null_mask is not None
                         and block.null_mask.any()):
        return np.unique(block.values, return_inverse=True)
    dict_arr = _object_array(block.dictionary)
    present = np.unique(codes)
    sub = dict_arr[present]
    order = np.argsort(sub)
    uniq = sub[order]
    rank = np.empty(len(dict_arr), dtype=np.intp)
    rank[present[order]] = np.arange(len(present), dtype=np.intp)
    return uniq, rank[codes]


#: A columnar predicate: receives a read-only mapping of column name →
#: :class:`ColumnBlock` and returns a boolean row mask.
ColumnPredicate = Callable[[Mapping[str, ColumnBlock]], np.ndarray]
