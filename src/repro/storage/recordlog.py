"""Durable single-file primitives: atomic replace and the sealed record log.

:class:`RecordLog` is what both checkpoints are: **one regular file**
of self-sealed records, where a save appends one record and costs that
record, not the history (a whole file rewritten per mutation costs
bytes quadratic in the shard or tick count).  A record is one line::

    <length: 8 hex> <crc32: 8 hex> <JSON object, compact>\n

Length and CRC are over the JSON bytes, so every record carries its own
seal and no footer or side manifest exists to fall out of step with the
data.  The first record is written through :func:`atomic_writer` (temp
file + fsync + rename) — also how a log is compacted: replace it with a
new one-record log.  Every later record is appended and fsynced.
:meth:`RecordLog.replay` returns the intact prefix — it stops at the
first record that is torn (a kill mid-append) or fails its seal (bit
rot) — and the next append truncates the file back to that point, so
every record boundary is a safe kill point.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterator, Mapping

#: ``<length> <crc32> `` — exactly eight lowercase hex digits each.
_SEAL = re.compile(rb"([0-9a-f]{8}) ([0-9a-f]{8}) ")


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[IO[bytes]]:
    """Open a same-directory temp file (binary) that replaces ``path`` on success.

    Fsynced before ``os.replace`` (else the rename can publish a name
    whose data blocks are still unflushed), so a reader or a process
    killed mid-write sees the old file or the complete new one.
    """
    target = Path(path)
    scratch = target.with_name(target.name + ".tmp")
    with open(scratch, "wb") as handle:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(scratch, target)


def seal(record: Mapping[str, Any]) -> bytes:
    """One record as its sealed line."""
    body = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return b"%08x %08x %b\n" % (len(body), zlib.crc32(body), body)


def unseal(data: bytes) -> tuple[list[dict[str, Any]], int]:
    """The intact records at the front of ``data`` and where they end.

    Stops — without raising — at the first record whose seal, length,
    terminator or JSON does not check out.
    """
    records: list[dict[str, Any]] = []
    offset = 0
    while True:
        header = _SEAL.match(data, offset)
        if header is None:
            break
        end = header.end() + int(header[1], 16)
        body = data[header.end():end]
        if data[end:end + 1] != b"\n" or zlib.crc32(body) != int(header[2], 16):
            break
        try:
            record = json.loads(body)
        except ValueError:
            break
        if not isinstance(record, dict):
            break
        records.append(record)
        offset = end + 1
    return records, offset


class RecordLog:
    """An append-only file of sealed records at ``path`` (single
    writer: appends go to the end of the prefix it wrote or replayed)."""

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self._end = 0

    @property
    def path(self) -> Path:
        """The log file location."""
        return self._path

    def create(self, record: Mapping[str, Any]) -> None:
        """Atomically replace the file with a log holding ``record``."""
        self._path.parent.mkdir(parents=True, exist_ok=True)
        data = seal(record)
        with atomic_writer(self._path) as handle:
            handle.write(data)
        self._end = len(data)

    def append(self, record: Mapping[str, Any]) -> None:
        """Append one record and fsync it, first cutting off anything
        past the intact prefix (a torn tail :meth:`replay` stopped at)."""
        data = seal(record)
        with open(self._path, "r+b") as handle:
            handle.truncate(self._end)
            handle.seek(self._end)
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        self._end += len(data)

    def replay(self) -> list[dict[str, Any]]:
        """Every intact record in order; ``[]`` for an absent file."""
        try:
            with open(self._path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return []
        records, self._end = unseal(data)
        return records

    def discard(self) -> None:
        """Delete the file and any temp file a killed create left."""
        self._path.unlink(missing_ok=True)
        self._path.with_name(self._path.name + ".tmp").unlink(missing_ok=True)
