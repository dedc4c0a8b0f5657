"""SLS-like time-indexed event/log store.

CloudBot stores original event data in the Simple Log Service for
rapid searching (paper Fig. 4).  This stand-in keeps entries sorted by
timestamp, supports time-range queries with field filters, and
enforces a retention horizon like a real hot store.

Two read protocols coexist:

* **time-range queries** (:meth:`LogStore.query`) for analytical
  scans — snapshot semantics, mutation-detected (see below);
* **cursor tailing** (:meth:`LogStore.appended_after`) for streaming
  consumers — every append is stamped with a monotonically increasing
  sequence number, so a tailer that remembers the last sequence it
  consumed reads each record exactly once regardless of how far out
  of timestamp order it arrived; an arrival-order index beside the
  time-sorted lists makes a poll cost the records it returns.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One stored entry: a timestamp plus arbitrary fields."""

    time: float
    fields: Mapping[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        """Field accessor with default."""
        return self.fields.get(key, default)


class LogStore:
    """Append-mostly store with binary-searched time-range queries.

    ``retention`` bounds how far back entries are kept; calling
    :meth:`expire` (or appending, which expires opportunistically)
    drops entries older than ``latest - retention``.
    """

    def __init__(self, retention: float = 7 * 24 * 3600.0) -> None:
        if retention <= 0:
            raise ValueError(f"retention must be positive, got {retention}")
        self._retention = retention
        self._times: list[float] = []
        self._entries: list[LogEntry] = []
        self._seqs: list[int] = []
        # The same entries as ``(seq, entry)`` in arrival (= seq) order.
        self._arrivals: list[tuple[int, LogEntry]] = []
        self._next_seq = 0
        self._mutations = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def latest_time(self) -> float | None:
        """Timestamp of the newest entry, if any."""
        return self._times[-1] if self._times else None

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recent append (``-1`` if none).

        Sequence numbers are assigned in *arrival* order, independent
        of entry timestamps — the cursor space of
        :meth:`appended_after`.
        """
        return self._next_seq - 1

    @property
    def mutation_count(self) -> int:
        """Monotonic counter bumped by every append and every expiry.

        Live :meth:`query` iterators snapshot this counter and raise if
        it moves — the pinned iteration semantics (see :meth:`query`).
        """
        return self._mutations

    def append(self, time: float, **fields: Any) -> LogEntry:
        """Insert one entry (out-of-order arrivals are supported)."""
        entry = LogEntry(time=time, fields=dict(fields))
        index = bisect.bisect_right(self._times, time)
        self._times.insert(index, time)
        self._entries.insert(index, entry)
        self._seqs.insert(index, self._next_seq)
        self._arrivals.append((self._next_seq, entry))
        self._next_seq += 1
        self._mutations += 1
        self._expire_before(self._times[-1] - self._retention)
        return entry

    def extend(self, rows: Iterable[tuple[float, Mapping[str, Any]]]) -> int:
        """Bulk insert of ``(time, fields)`` pairs; returns the count."""
        count = 0
        for time, fields in rows:
            self.append(time, **fields)
            count += 1
        return count

    def query(self, start: float, end: float,
              predicate: Callable[[LogEntry], bool] | None = None,
              **field_filters: Any) -> Iterator[LogEntry]:
        """Entries with ``start <= time < end`` matching all filters.

        ``field_filters`` are equality constraints on entry fields;
        ``predicate`` is an arbitrary extra filter.  This is a true
        streaming iterator: entries are yielded straight out of the
        index range, never copied into an intermediate list, so a
        fleet-scale range scan holds one entry at a time.

        **Pinned mutation semantics**: records appended (or expired)
        after iteration starts are *not* surfaced — instead, any
        mutation of the store while the iterator is live raises
        ``RuntimeError`` at the next step (like mutating a dict
        mid-iteration, but detected deterministically instead of being
        undefined).  Callers that need to consume concurrently with
        appends — the streaming tailer — must use the cursor protocol
        (:meth:`appended_after`), which materializes its batch and is
        therefore immune to subsequent appends.
        """
        if end < start:
            raise ValueError(f"query range reversed: [{start}, {end})")
        mutations_at_start = self._mutations
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        entries = self._entries
        for index in range(lo, hi):
            if self._mutations != mutations_at_start:
                raise RuntimeError(
                    "log store mutated during query iteration; exhaust the "
                    "iterator before appending/expiring, or tail with "
                    "appended_after()"
                )
            entry = entries[index]
            if field_filters and any(
                entry.get(key) != value for key, value in field_filters.items()
            ):
                continue
            if predicate is not None and not predicate(entry):
                continue
            yield entry

    def appended_after(self, seq: int) -> list[tuple[int, LogEntry]]:
        """Entries appended after sequence ``seq``, in arrival order.

        The streaming cursor protocol: each returned pair is
        ``(sequence, entry)`` with ``sequence > seq``, sorted by
        sequence (= arrival order), so a consumer that persists the
        last sequence it processed reads every surviving record exactly
        once — including records whose *timestamps* lie arbitrarily far
        in the past.  Entries that fell off the retention horizon
        before being tailed are gone (their sequences are skipped,
        which the monotonic cursor tolerates).  The batch is
        materialized, so subsequent appends cannot invalidate it.
        """
        return self._arrivals[
            bisect.bisect_right(self._arrivals, seq, key=itemgetter(0)):
        ]

    def count(self, start: float, end: float, **field_filters: Any) -> int:
        """Number of matching entries in the range."""
        return sum(1 for _ in self.query(start, end, **field_filters))

    def expire(self, now: float) -> int:
        """Drop entries older than ``now - retention``; returns count."""
        return self._expire_before(now - self._retention)

    def _expire_before(self, cutoff: float) -> int:
        index = bisect.bisect_left(self._times, cutoff)
        if index == 0:
            return 0
        # In arrival (= seq) order the expired end at the newest expired seq.
        expired = set(self._seqs[:index])
        head = bisect.bisect_right(
            self._arrivals, max(expired), key=itemgetter(0))
        self._arrivals[:head] = [
            pair for pair in self._arrivals[:head] if pair[0] not in expired
        ]
        del self._times[:index]
        del self._entries[:index]
        del self._seqs[:index]
        self._mutations += 1
        return index
