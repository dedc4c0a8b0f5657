"""Checkpoint durability: round-trips, deltas, corruption, fingerprints.

:class:`~repro.streaming.persist.StreamCheckpoint` must reproduce a
snapshot exactly (cursor, watermark, row log, buffered records) from
its record log, append only the new rows on every save after the
first, refuse files it cannot read loudly, and tie each checkpoint to
its stream's fingerprint so cross-stream resume raises instead of
merging state.  (The torn-tail and byte-flip matrices live in
``tests/integration/test_checkpoint_log.py``.)
"""

from __future__ import annotations

import pytest

from repro.storage.logstore import LogEntry, LogStore
from repro.storage.recordlog import seal, unseal
from repro.streaming import StreamCheckpoint, StreamSnapshot

from tests.strategies import make_services
from tests.streaming.conftest import make_pipeline


def sample_snapshot(**overrides) -> StreamSnapshot:
    base = dict(
        fingerprint="f" * 64,
        last_seq=41,
        watermark=1234.5,
        ticks=3,
        consumed=50,
        late_dropped=2,
        ignored=1,
        rows=[{
            "name": "vm_down", "time": 100.0, "target": "vm-000",
            "level": 3, "duration": 300.0, "expire_interval": 600.0,
        }],
        buffer=[
            (7, LogEntry(time=90.0, fields={"event": "slow_io",
                                            "target": "vm-001"})),
            (9, LogEntry(time=95.0, fields={"line": "oops"})),
        ],
    )
    base.update(overrides)
    return StreamSnapshot(**base)


class TestRoundTrip:
    def test_full_snapshot_round_trips(self, tmp_path):
        checkpoint = StreamCheckpoint(tmp_path / "s.ck")
        snapshot = sample_snapshot()
        checkpoint.save(snapshot)
        assert checkpoint.exists()
        assert checkpoint.load() == snapshot

    def test_none_watermark_and_empty_collections(self, tmp_path):
        checkpoint = StreamCheckpoint(tmp_path / "s.ck")
        snapshot = sample_snapshot(watermark=None, rows=[], buffer=[])
        checkpoint.save(snapshot)
        assert checkpoint.load() == snapshot

    def test_save_overwrites_previous_snapshot(self, tmp_path):
        checkpoint = StreamCheckpoint(tmp_path / "s.ck")
        checkpoint.save(sample_snapshot(ticks=1))
        checkpoint.save(sample_snapshot(ticks=2))
        loaded = checkpoint.load()
        assert loaded is not None and loaded.ticks == 2

    def test_missing_file_loads_none(self, tmp_path):
        checkpoint = StreamCheckpoint(tmp_path / "never-written.ck")
        assert not checkpoint.exists()
        assert checkpoint.load() is None

    def test_parent_directories_created(self, tmp_path):
        checkpoint = StreamCheckpoint(tmp_path / "a" / "b" / "s.ck")
        checkpoint.save(sample_snapshot())
        assert checkpoint.load() is not None


def event_row(index: int) -> dict:
    return {
        "name": "slow_io", "time": 100.0 + index,
        "target": f"vm-{index % 3:03d}", "level": 2,
        "expire_interval": 600.0, "duration": None,
    }


class TestDeltaAppend:
    """A save after the first appends one tick record holding only the
    rows past what the file already has."""

    def test_later_saves_append_only_new_rows(self, tmp_path):
        checkpoint = StreamCheckpoint(tmp_path / "s.ck")
        rows = [event_row(i) for i in range(3)]
        checkpoint.save(sample_snapshot(rows=rows, ticks=1))
        first = checkpoint.path.read_bytes()
        rows += [event_row(i) for i in range(3, 5)]
        snapshot = sample_snapshot(rows=rows, ticks=2, buffer=[])
        checkpoint.save(snapshot)
        data = checkpoint.path.read_bytes()
        assert data.startswith(first)  # the history was not rewritten
        records, end = unseal(data)
        assert end == len(data)
        assert [r["kind"] for r in records] == ["snapshot", "tick"]
        assert records[1]["rows"]["time"] == [103.0, 104.0]
        assert "fingerprint" not in records[1]
        assert StreamCheckpoint(checkpoint.path).load() == snapshot

    def test_loaded_checkpoint_appends(self, tmp_path):
        path = tmp_path / "s.ck"
        rows = [event_row(i) for i in range(2)]
        StreamCheckpoint(path).save(sample_snapshot(rows=rows))
        before = path.read_bytes()
        resumed = StreamCheckpoint(path)
        assert resumed.load() is not None
        rows = rows + [event_row(2)]
        resumed.save(sample_snapshot(rows=rows, ticks=4))
        assert path.read_bytes().startswith(before)
        assert len(unseal(path.read_bytes())[0]) == 2
        assert StreamCheckpoint(path).load() == sample_snapshot(
            rows=rows, ticks=4
        )

    def test_unloaded_checkpoint_replaces_the_file(self, tmp_path):
        """A fresh object never trusts bytes it has not read: its first
        save is a full snapshot (the compaction path)."""
        path = tmp_path / "s.ck"
        writer = StreamCheckpoint(path)
        rows = [event_row(i) for i in range(4)]
        for count in range(1, 5):
            writer.save(sample_snapshot(rows=rows[:count], ticks=count))
        assert len(unseal(path.read_bytes())[0]) == 4
        final = sample_snapshot(rows=rows, ticks=4)
        StreamCheckpoint(path).save(final)
        records, _ = unseal(path.read_bytes())
        assert [r["kind"] for r in records] == ["snapshot"]
        assert StreamCheckpoint(path).load() == final
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.ck"]

    @pytest.mark.parametrize("change", [
        {"rows": []},                # a shorter row log
        {"fingerprint": "e" * 64},   # another stream
    ])
    def test_non_extending_snapshot_rewrites(self, tmp_path, change):
        checkpoint = StreamCheckpoint(tmp_path / "s.ck")
        checkpoint.save(sample_snapshot())
        checkpoint.save(sample_snapshot(ticks=4))
        replaced = sample_snapshot(ticks=5, **change)
        checkpoint.save(replaced)
        records, _ = unseal(checkpoint.path.read_bytes())
        assert [r["kind"] for r in records] == ["snapshot"]
        assert checkpoint.load() == replaced

    def test_rows_are_schema_validated_on_save(self, tmp_path):
        checkpoint = StreamCheckpoint(tmp_path / "s.ck")
        bad = dict(event_row(0), level="high")
        with pytest.raises(ValueError, match="level"):
            checkpoint.save(sample_snapshot(rows=[bad]))
        assert not checkpoint.exists()


#: A stream checkpoint exactly as the pre-log writer left it (v3
#: chunked table store: one row, one buffered record).
PRE_LOG_V3_CHECKPOINT = (
    '{"format": "repro-table-store", "version": 3, "layout": "chunked",'
    ' "tables": {"stream_buffer": {"schema": [{"name": "seq", "dtype": '
    '"int", "nullable": false}, {"name": "time", "dtype": "float", "nul'
    'lable": false}, {"name": "fields", "dtype": "str", "nullable": fal'
    'se}]}, "stream_cursor": {"schema": [{"name": "fingerprint", "dtype'
    '": "str", "nullable": false}, {"name": "last_seq", "dtype": "int",'
    ' "nullable": false}, {"name": "watermark", "dtype": "float", "null'
    'able": true}, {"name": "ticks", "dtype": "int", "nullable": false}'
    ', {"name": "consumed", "dtype": "int", "nullable": false}, {"name"'
    ': "late_dropped", "dtype": "int", "nullable": false}, {"name": "ig'
    'nored", "dtype": "int", "nullable": false}]}, "stream_rows": {"sch'
    'ema": [{"name": "name", "dtype": "str", "nullable": false}, {"name'
    '": "time", "dtype": "float", "nullable": false}, {"name": "target"'
    ', "dtype": "str", "nullable": false}, {"name": "level", "dtype": "'
    'int", "nullable": false}, {"name": "expire_interval", "dtype": "fl'
    'oat", "nullable": false}, {"name": "duration", "dtype": "float", "'
    'nullable": true}]}}}\n'
    '{"record": "partition", "table": "stream_buffer", "partition": "st'
    'ate", "rows": 1, "dictionaries": {"fields": ["{\\"event\\": \\"slow_i'
    'o\\", \\"target\\": \\"vm-001\\"}"]}}\n'
    '{"record": "chunk", "table": "stream_buffer", "partition": "state"'
    ', "rows": 1, "columns": {"seq": [7], "time": [90.0], "fields": [0]'
    '}}\n'
    '{"record": "partition", "table": "stream_cursor", "partition": "st'
    'ate", "rows": 1, "dictionaries": {"fingerprint": ["fffffffffffffff'
    'fffffffffffffffffffffffffffffffffffffffffffffffff"]}}\n'
    '{"record": "chunk", "table": "stream_cursor", "partition": "state"'
    ', "rows": 1, "columns": {"fingerprint": [0], "last_seq": [41], "wa'
    'termark": [1234.5], "ticks": [3], "consumed": [50], "late_dropped"'
    ': [2], "ignored": [1]}}\n'
    '{"record": "partition", "table": "stream_rows", "partition": "stat'
    'e", "rows": 1, "dictionaries": {"name": ["vm_down"], "target": ["v'
    'm-000"]}}\n'
    '{"record": "chunk", "table": "stream_rows", "partition": "state", '
    '"rows": 1, "columns": {"name": [0], "time": [100.0], "target": [0]'
    ', "level": [3], "expire_interval": [600.0], "duration": [300.0]}}\n'
    '{"record": "footer", "index": {"stream_buffer": {"state": {"offset'
    '": 1077, "rows": 1, "chunks": [1242]}}, "stream_cursor": {"state":'
    ' {"offset": 1377, "rows": 1, "chunks": [1563]}}, "stream_rows": {"'
    'state": {"offset": 1785, "rows": 1, "chunks": [1927]}}}}\n'
)


class TestUnreadableFiles:
    """Stream state is never silently discarded: a file that is there
    but cannot be replayed raises a typed error."""

    def test_pre_log_chunked_checkpoint_is_unsupported(self, tmp_path):
        path = tmp_path / "old.ck"
        path.write_text(PRE_LOG_V3_CHECKPOINT)
        with pytest.raises(ValueError,
                           match="unsupported stream checkpoint format"):
            StreamCheckpoint(path).load()
        pipeline = make_pipeline(LogStore(), make_services(2),
                                 checkpoint=StreamCheckpoint(path))
        with pytest.raises(ValueError,
                           match="unsupported stream checkpoint format"):
            pipeline.resume()
        assert path.read_text() == PRE_LOG_V3_CHECKPOINT  # left untouched

    def test_empty_file_is_unsupported(self, tmp_path):
        path = tmp_path / "empty.ck"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="unsupported"):
            StreamCheckpoint(path).load()

    def test_job_checkpoint_log_is_not_a_stream_checkpoint(self, tmp_path):
        path = tmp_path / "job.ck"
        path.write_bytes(seal({"kind": "begin", "fingerprint": "f",
                               "partition": "d0"}))
        with pytest.raises(ValueError, match="unsupported"):
            StreamCheckpoint(path).load()

    @pytest.mark.parametrize("records", [
        [{"kind": "snapshot"}],                               # no fields
        [{"kind": "snapshot", "fingerprint": "f", "rows": 3}],  # bad rows
    ])
    def test_sealed_but_malformed_record_raises(self, tmp_path, records):
        path = tmp_path / "bad.ck"
        path.write_bytes(b"".join(seal(r) for r in records))
        with pytest.raises(ValueError, match="malformed record"):
            StreamCheckpoint(path).load()

    def test_foreign_record_after_the_snapshot_raises(self, tmp_path):
        checkpoint = StreamCheckpoint(tmp_path / "s.ck")
        checkpoint.save(sample_snapshot())
        with open(checkpoint.path, "ab") as handle:
            handle.write(seal({"kind": "mystery"}))
        with pytest.raises(ValueError, match="malformed record"):
            StreamCheckpoint(checkpoint.path).load()


class TestFingerprint:
    def test_resume_from_foreign_stream_raises(self, tmp_path):
        """A checkpoint written under one lateness must not resume a
        pipeline configured with another (different fingerprint)."""
        services = make_services(2)
        checkpoint = StreamCheckpoint(tmp_path / "s.ck")
        store = LogStore()
        store.append(100.0, event="vm_down", target="vm-000",
                     duration=60.0)
        writer = make_pipeline(store, services, allowed_lateness=600.0,
                               checkpoint=checkpoint)
        writer.tick()
        reader = make_pipeline(LogStore(), services,
                               allowed_lateness=3600.0,
                               checkpoint=checkpoint)
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            reader.resume()

    def test_fingerprint_distinguishes_services(self, tmp_path):
        services = make_services(2)
        checkpoint = StreamCheckpoint(tmp_path / "s.ck")
        writer = make_pipeline(LogStore(), services,
                               checkpoint=checkpoint)
        writer.tick()
        reader = make_pipeline(LogStore(), make_services(3),
                               checkpoint=checkpoint)
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            reader.resume()

    def test_same_configuration_resumes(self, tmp_path):
        services = make_services(2)
        checkpoint = StreamCheckpoint(tmp_path / "s.ck")
        writer = make_pipeline(LogStore(), services,
                               checkpoint=checkpoint)
        writer.tick()
        reader = make_pipeline(LogStore(), services,
                               checkpoint=checkpoint)
        assert reader.resume() is True
        assert reader.fingerprint == writer.fingerprint
