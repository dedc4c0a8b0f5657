"""Tests for the SLS-like log store."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.logstore import LogEntry, LogStore


class TestLogStore:
    def test_append_and_query_range(self):
        store = LogStore()
        store.append(10.0, name="slow_io", target="vm-1")
        store.append(20.0, name="vm_down", target="vm-2")
        store.append(30.0, name="slow_io", target="vm-1")
        hits = list(store.query(10.0, 30.0))
        assert [e.time for e in hits] == [10.0, 20.0]

    def test_query_end_exclusive_start_inclusive(self):
        store = LogStore()
        store.append(10.0, name="a")
        hits_in = list(store.query(10.0, 10.1))
        hits_out = list(store.query(9.0, 10.0))
        assert len(hits_in) == 1
        assert len(hits_out) == 0

    def test_field_filters(self):
        store = LogStore()
        store.append(1.0, name="slow_io", target="vm-1")
        store.append(2.0, name="slow_io", target="vm-2")
        hits = list(store.query(0.0, 10.0, target="vm-2"))
        assert len(hits) == 1
        assert hits[0].get("target") == "vm-2"

    def test_predicate_filter(self):
        store = LogStore()
        store.append(1.0, level=3)
        store.append(2.0, level=1)
        hits = list(store.query(0.0, 10.0, predicate=lambda e: e.get("level") > 2))
        assert [e.time for e in hits] == [1.0]

    def test_out_of_order_appends_sorted(self):
        store = LogStore()
        store.append(30.0, name="c")
        store.append(10.0, name="a")
        store.append(20.0, name="b")
        assert [e.get("name") for e in store.query(0.0, 100.0)] == ["a", "b", "c"]

    def test_count(self):
        store = LogStore()
        for t in range(5):
            store.append(float(t), name="x")
        assert store.count(1.0, 4.0) == 3

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError):
            list(LogStore().query(5.0, 1.0))

    def test_retention_expires_old_entries(self):
        store = LogStore(retention=100.0)
        store.append(0.0, name="old")
        store.append(50.0, name="mid")
        store.append(200.0, name="new")  # cutoff 100: drops t=0, t=50
        assert len(store) == 1
        assert store.latest_time == 200.0

    def test_explicit_expire(self):
        store = LogStore(retention=10.0)
        store.append(0.0, name="old")
        assert store.expire(now=100.0) == 1
        assert len(store) == 0

    def test_invalid_retention(self):
        with pytest.raises(ValueError):
            LogStore(retention=0.0)

    def test_extend_rows(self):
        store = LogStore()
        count = store.extend(rows=[(1.0, {"name": "a"}), (2.0, {"name": "b"})])
        assert count == 2
        assert len(store) == 2

    def test_extend_positional_rows_are_stored(self):
        """Regression: the first positional parameter used to be an
        ``entries`` the body never read — the call returned 0 and
        stored nothing."""
        store = LogStore()
        store.append(0.5, name="first")
        count = store.extend([(1.0, {"name": "a"}), (2.0, {"name": "b"})])
        assert count == 2
        assert len(store) == 3
        assert [seq for seq, _ in store.appended_after(0)] == [1, 2]
        assert store.last_seq == 2


class TestLogEntry:
    def test_get_default(self):
        entry = LogEntry(time=1.0, fields={"a": 1})
        assert entry.get("a") == 1
        assert entry.get("b", "dflt") == "dflt"


class TestPinnedQueryMutation:
    """Documented-and-raise mutation semantics: a live ``query``
    iterator detects any store mutation deterministically instead of
    silently surfacing (or skipping) concurrent appends."""

    def test_append_during_iteration_raises(self):
        store = LogStore()
        store.append(10.0, name="a")
        store.append(20.0, name="b")
        it = store.query(0.0, 100.0)
        next(it)
        store.append(30.0, name="c")
        with pytest.raises(RuntimeError, match="mutated during query"):
            next(it)

    def test_expire_during_iteration_raises(self):
        store = LogStore()
        store.append(10.0, name="a")
        store.append(20.0, name="b")
        it = store.query(0.0, 100.0)
        next(it)
        store.expire(store._retention + 15.0)  # drops the first entry
        with pytest.raises(RuntimeError, match="mutated during query"):
            next(it)

    def test_exhausted_iterator_then_append_is_fine(self):
        store = LogStore()
        store.append(10.0, name="a")
        hits = list(store.query(0.0, 100.0))
        assert len(hits) == 1
        store.append(20.0, name="b")  # no live iterator → no error
        assert [e.time for e in store.query(0.0, 100.0)] == [10.0, 20.0]

    def test_error_message_points_to_cursor_protocol(self):
        store = LogStore()
        store.append(10.0, name="a")
        store.append(20.0, name="b")
        it = store.query(0.0, 100.0)
        next(it)  # the snapshot is taken lazily, at the first step
        store.append(30.0, name="c")
        with pytest.raises(RuntimeError, match="appended_after"):
            next(it)

    def test_mutation_count_bumps_on_append_and_expire(self):
        store = LogStore(retention=100.0)
        base = store.mutation_count
        store.append(10.0, name="a")
        assert store.mutation_count == base + 1
        store.append(500.0, name="b")  # append + opportunistic expiry
        assert store.mutation_count == base + 3


class TestCursorProtocol:
    """``appended_after``: the tailer-facing read path is materialized
    and arrival-ordered, so it coexists with appends by design."""

    def test_arrival_order_independent_of_timestamps(self):
        store = LogStore()
        store.append(30.0, n=0)
        store.append(10.0, n=1)  # sorts before in time, after in seq
        store.append(20.0, n=2)
        batch = store.appended_after(-1)
        assert [entry.get("n") for _, entry in batch] == [0, 1, 2]
        assert [seq for seq, _ in batch] == [0, 1, 2]

    def test_exactly_once_with_cursor(self):
        store = LogStore()
        store.append(10.0, n=0)
        store.append(20.0, n=1)
        first = store.appended_after(-1)
        cursor = first[-1][0]
        assert store.appended_after(cursor) == []
        store.append(5.0, n=2)  # older timestamp, newer arrival
        fresh = store.appended_after(cursor)
        assert [entry.get("n") for _, entry in fresh] == [2]

    def test_batch_is_immune_to_later_appends(self):
        store = LogStore()
        store.append(10.0, n=0)
        batch = store.appended_after(-1)
        store.append(20.0, n=1)
        assert len(batch) == 1  # materialized, not a live view

    def test_expired_sequences_are_skipped(self):
        store = LogStore(retention=100.0)
        store.append(10.0, n=0)
        store.append(20.0, n=1)
        store.append(500.0, n=2)  # expires seqs 0 and 1
        batch = store.appended_after(-1)
        assert [seq for seq, _ in batch] == [2]

    def test_last_seq_tracks_arrivals_not_survivors(self):
        store = LogStore(retention=100.0)
        assert store.last_seq == -1
        store.append(10.0, n=0)
        store.append(500.0, n=1)  # expires seq 0
        assert store.last_seq == 1
        assert len(store) == 1


def appended_after_by_definition(store: LogStore, seq: int):
    """The cursor read as first written: filter the whole store on
    ``seq > cursor``, sort by seq."""
    fresh = [(entry_seq, entry)
             for entry_seq, entry in zip(store._seqs, store._entries)
             if entry_seq > seq]
    fresh.sort(key=lambda pair: pair[0])
    return fresh


#: One step of a store's life: append at a (possibly much older)
#: timestamp, force an expiry, or poll from some cursor.
_steps = st.lists(st.one_of(
    st.tuples(st.just("append"), st.floats(0.0, 400.0)),
    st.tuples(st.just("expire"), st.floats(0.0, 600.0)),
    st.tuples(st.just("poll"), st.integers(-3, 40)),
), max_size=40)


class TestCursorIndex:
    """The arrival-order index behind ``appended_after``: same answers
    as the full scan it replaced, at the cost of the records returned."""

    @given(steps=_steps, retention=st.sampled_from([50.0, 150.0, 1e6]))
    @settings(max_examples=200, deadline=None)
    def test_equals_filter_and_sort_over_the_whole_store(self, steps,
                                                          retention):
        store = LogStore(retention=retention)
        cursor = -1
        for kind, value in steps:
            if kind == "append":
                store.append(value, n=store.last_seq + 1)
            elif kind == "expire":
                store.expire(value)
            else:  # cursors below -1, at, and beyond last_seq included
                assert store.appended_after(value) == \
                    appended_after_by_definition(store, value)
            # A tailer's own poll: everything since its cursor, once.
            fresh = store.appended_after(cursor)
            assert fresh == appended_after_by_definition(store, cursor)
            if fresh:
                cursor = fresh[-1][0]
            assert len(store._arrivals) == len(store)
        assert store.appended_after(store.last_seq) == []
        assert store.appended_after(store.last_seq + 5) == []

    def test_late_old_record_expiring_mid_index(self):
        """An entry that arrived late but is the oldest by timestamp
        leaves the *middle* of the arrival index when it expires."""
        store = LogStore(retention=100.0)
        store.append(150.0, n=0)
        store.append(60.0, n=1)   # late arrival, oldest timestamp
        store.append(170.0, n=2)
        store.append(165.0, n=3)  # cutoff 70: drops seq 1 only
        assert [seq for seq, _ in store.appended_after(-1)] == [0, 2, 3]
        assert store.appended_after(0) == appended_after_by_definition(store, 0)

    def test_poll_cost_does_not_grow_with_the_store(self):
        """Coarse scaling guard: 200 polls of 5 new records cost about
        the same over 50,000 stored entries as over 500 (the full scan
        this replaced read ~100x)."""
        def polls(size: int) -> float:
            store = LogStore()
            for index in range(size):
                store.append(float(index), n=index)
            cursor = store.last_seq
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                for _ in range(200):
                    for _ in range(5):
                        store.append(float(size), n=0)
                    cursor = store.appended_after(cursor)[-1][0]
                best = min(best, time.perf_counter() - start)
            return best

        small, large = polls(500), polls(50_000)
        assert large < 5 * small, (small, large)
