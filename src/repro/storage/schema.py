"""Row schemas shared by the storage substrates.

A :class:`Schema` validates dict rows against typed, optionally
nullable columns — the minimum structure needed to make the
MaxCompute-like table store (and the daily pipeline that writes to it)
fail loudly on malformed rows instead of corrupting downstream CDI
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.storage.columns import NUMPY_DTYPES, ColumnBlock


class SchemaError(ValueError):
    """A row does not conform to its table schema."""


#: Exact value types each declared dtype admits (``set(map(type, ...))``
#: membership).  ``bool`` is deliberately absent from the numeric sets —
#: the per-cell validator rejects bools for int/float columns, and
#: ``type(True) is bool`` keeps that exact semantics batch-side.
_ALLOWED_TYPES: Mapping[type, frozenset[type]] = {
    str: frozenset({str}),
    int: frozenset({int}),
    float: frozenset({float, int}),  # SQL-style int → float widening
    bool: frozenset({bool}),
}


@dataclass(frozen=True, slots=True)
class Column:
    """One typed column.

    ``dtype`` is a Python type (``str``, ``int``, ``float``, ``bool``);
    ints are accepted where floats are declared, mirroring common SQL
    widening.
    """

    name: str
    dtype: type
    nullable: bool = False

    def validate(self, value: Any) -> Any:
        """Return the (possibly widened) value or raise SchemaError."""
        if value is None:
            if self.nullable:
                return None
            raise SchemaError(f"column {self.name!r} is not nullable")
        if self.dtype is float and isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        if self.dtype is not bool and isinstance(value, bool):
            raise SchemaError(
                f"column {self.name!r} expects {self.dtype.__name__}, got bool"
            )
        if not isinstance(value, self.dtype):
            raise SchemaError(
                f"column {self.name!r} expects {self.dtype.__name__}, "
                f"got {type(value).__name__} ({value!r})"
            )
        return value

    def validate_block(self, values: Sequence[Any]) -> ColumnBlock:
        """Vectorized columnar validation: one column, all rows at once.

        Instead of dispatching :meth:`validate` per cell, the batch is
        checked with a single ``set(map(type, values))`` pass (a C-level
        loop): if every value's exact type is admissible the whole
        column seals straight into a typed :class:`ColumnBlock`.  Any
        unexpected type falls back to the per-cell validator, so error
        messages and subclass-widening semantics are identical to the
        row path.  A :class:`ColumnBlock` or numpy array is checked in
        array space instead (:meth:`_validate_typed`).
        """
        if isinstance(values, (ColumnBlock, np.ndarray)):
            return self._validate_typed(values)
        kinds = set(map(type, values))
        has_null = type(None) in kinds
        if has_null:
            if not self.nullable:
                raise SchemaError(f"column {self.name!r} is not nullable")
            kinds.discard(type(None))
        if not kinds <= _ALLOWED_TYPES[self.dtype]:
            # Exotic types (violations, or subclasses like numpy
            # scalars): per-cell validation raises the canonical
            # SchemaError, or normalizes values we can then seal.
            values = [self.validate(value) for value in values]
        elif self.dtype is float and int in kinds:
            values = [
                value if value is None else float(value) for value in values
            ]
        return ColumnBlock.build(self.dtype, values)

    def _validate_typed(self, values: ColumnBlock | np.ndarray) -> ColumnBlock:
        """Admit an already-typed column by its arrays, or raise.

        The array dtype must *equal* the column's numpy dtype (no
        widening; strings: an object array of ``str``, or ``int32``
        codes in range of an all-``str`` dictionary, ``-1`` exactly at
        the masked slots); mask bits only where nullable.  A bare array
        is copied unless already read-only; blocks are sealed as built.
        """
        block = values if isinstance(values, ColumnBlock) else ColumnBlock(
            values.copy() if values.flags.writeable else values)
        codes, mask = block.codes, block.null_mask
        data = block.values if codes is None else codes
        if mask is None:
            mask = np.zeros(data.shape, dtype=np.bool_)
        ok = (data.ndim == 1 and mask.dtype == np.bool_
              and mask.shape == data.shape)
        if codes is None:
            ok = ok and data.dtype == NUMPY_DTYPES[self.dtype] and (
                data.dtype != object
                or set(map(type, data[~mask].tolist())) <= {str})
        else:
            ok = (ok and self.dtype is str and codes.dtype == np.int32
                  and set(map(type, block.dictionary)) <= {str}
                  and np.array_equal(codes < 0, mask)
                  and (not len(codes) or -1 <= codes.min()
                       <= codes.max() < len(block.dictionary)))
        if not ok:
            raise SchemaError(
                f"column {self.name!r} expects {self.dtype.__name__}, got a "
                f"mistyped or malformed {data.dtype}{list(data.shape)} "
                + ("array" if codes is None else
                   f"codes block over {len(block.dictionary)} names"))
        if mask.any() and not self.nullable:
            raise SchemaError(f"column {self.name!r} is not nullable")
        return block


class Schema:
    """An ordered set of columns with row validation."""

    def __init__(self, columns: Iterable[Column]) -> None:
        self.columns: tuple[Column, ...] = tuple(columns)
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        if not names:
            raise SchemaError("schema must have at least one column")
        self._by_name = {c.name: c for c in self.columns}
        self._names_set = frozenset(names)
        self._batch_validator = _batch_validator_for(self.columns)

    @property
    def names(self) -> tuple[str, ...]:
        """Column names in declaration order."""
        return tuple(c.name for c in self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def column(self, name: str) -> Column:
        """Column by name; raises ``KeyError`` for unknown names."""
        return self._by_name[name]

    def validate_row(self, row: Mapping[str, Any]) -> dict[str, Any]:
        """Validate and normalize one row.

        Missing nullable columns become ``None``; missing non-nullable
        columns and unknown keys raise :class:`SchemaError`.
        """
        unknown = set(row) - set(self._by_name)
        if unknown:
            raise SchemaError(f"unknown columns {sorted(unknown)}")
        normalized: dict[str, Any] = {}
        for column in self.columns:
            if column.name in row:
                normalized[column.name] = column.validate(row[column.name])
            elif column.nullable:
                normalized[column.name] = None
            else:
                raise SchemaError(f"missing required column {column.name!r}")
        return normalized

    def validate_rows(
        self, rows: Iterable[Mapping[str, Any]]
    ) -> list[dict[str, Any]]:
        """Validate a batch of rows — same semantics as :meth:`validate_row`.

        Rows whose key set matches the schema exactly and whose values
        already have the declared types (the overwhelmingly common case
        for pipeline-produced rows) take a compiled fast path; everything
        else — missing nullable columns, int→float widening, actual
        violations — falls back to :meth:`validate_row` row by row, so
        error behavior is identical.
        """
        return self._batch_validator(rows, self.validate_row)

    def validate_columns(
        self, columns: Mapping[str, Sequence[Any]]
    ) -> tuple[dict[str, ColumnBlock], int]:
        """Columnar counterpart of :meth:`validate_rows`.

        ``columns`` maps column names to equal-length value sequences —
        lists, blocks or arrays — checked per column (dtype and
        nullability over the whole vector, see
        :meth:`Column.validate_block`), not per cell.  Missing nullable
        columns become all-null blocks; missing required columns,
        unknown names, and ragged lengths raise :class:`SchemaError`.
        Returns the sealed typed blocks plus the row count.
        """
        unknown = set(columns) - set(self._by_name)
        if unknown:
            raise SchemaError(f"unknown columns {sorted(unknown)}")
        lengths = {name: len(values) for name, values in columns.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaError(f"ragged column lengths: {lengths}")
        length = next(iter(lengths.values()), 0)
        blocks: dict[str, ColumnBlock] = {}
        for column in self.columns:
            if column.name in columns:
                blocks[column.name] = column.validate_block(
                    columns[column.name]
                )
            elif column.nullable or length == 0:
                # Zero-row appends have no rows to violate the schema,
                # matching ``validate_rows([])``.
                blocks[column.name] = ColumnBlock.all_null(
                    column.dtype, length
                )
            else:
                raise SchemaError(
                    f"missing required column {column.name!r}"
                )
        return blocks, length

    def validated_lists(self, columns: Mapping[str, Sequence[Any]]
                        ) -> dict[str, list]:
        """:meth:`validate_columns`, as plain (widened) value lists —
        the JSON-ready form checkpoint records carry."""
        blocks, _ = self.validate_columns(columns)
        return {name: block.to_pylist() for name, block in blocks.items()}


#: Compiled validators memoized by column signature: the pipeline
#: creates the same schemas (events, vm_cdi, event_cdi, ...) once per
#: job, and ``exec``-compiling the loop each time would dominate job
#: setup for short runs.
_validator_cache: dict[tuple[Column, ...], Any] = {}


def _batch_validator_for(columns: tuple[Column, ...]):
    validator = _validator_cache.get(columns)
    if validator is None:
        validator = _compile_batch_validator(columns)
        _validator_cache[columns] = validator
    return validator


def _compile_batch_validator(columns: tuple[Column, ...]):
    """Compile a schema-specialized batch validation loop.

    Fleet-scale writes validate millions of rows; a generic per-column
    loop spends most of its time on interpreter dispatch.  Like
    ``dataclasses``/``namedtuple``, we generate the loop source once
    per schema so the common case — exact keys, exact types — is a
    single ``if`` of inlined ``type(...) is ...`` checks followed by a
    C-level dict copy.  ``len(row) == n`` plus successful lookup of all
    ``n`` distinct column names implies the key sets match exactly; any
    other shape (or a ``KeyError``) falls back to ``slow`` (the
    per-row validator), which re-raises proper :class:`SchemaError`\\ s.
    """
    check = " and ".join(
        f"type(row[{column.name!r}]) is _dtype{i}"
        for i, column in enumerate(columns)
    )
    source = (
        "def _validate_batch(rows, slow, _dict=dict):\n"
        "    out = []\n"
        "    append = out.append\n"
        "    for row in rows:\n"
        f"        if len(row) == {len(columns)}:\n"
        "            try:\n"
        f"                if {check}:\n"
        "                    append(_dict(row))\n"
        "                    continue\n"
        "            except KeyError:\n"
        "                pass\n"
        "        append(slow(row))\n"
        "    return out\n"
    )
    namespace: dict[str, Any] = {
        f"_dtype{i}": column.dtype for i, column in enumerate(columns)
    }
    exec(source, namespace)
    return namespace["_validate_batch"]
