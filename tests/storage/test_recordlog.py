"""The sealed record log: seal format, replay, torn tails, atomic create.

:mod:`repro.storage.recordlog` is the one durable primitive both
checkpoints are built on, so its contract is pinned here in isolation:
a record round-trips exactly, replay returns the intact prefix and
never raises on damaged bytes, an append after a torn tail produces a
clean file, and ``create`` replaces atomically without leaving a temp
file behind.
"""

from __future__ import annotations

import json
import os
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import recordlog
from repro.storage.recordlog import RecordLog, atomic_writer, seal, unseal

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**53, 2**53)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
records_st = st.lists(
    st.dictionaries(st.text(max_size=6), json_values, max_size=4),
    min_size=1, max_size=5,
)


class TestSeal:
    def test_line_layout(self):
        line = seal({"kind": "begin", "n": 1})
        body = b'{"kind":"begin","n":1}'
        assert line == b"%08x %08x %b\n" % (len(body), zlib.crc32(body), body)

    def test_non_ascii_and_newlines_stay_on_one_line(self):
        record = {"text": "naïve\nline break", "vm": "虚拟机"}
        line = seal(record)
        assert line.count(b"\n") == 1 and line.endswith(b"\n")
        assert unseal(line) == ([record], len(line))

    @given(records=records_st)
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, records):
        data = b"".join(seal(record) for record in records)
        assert unseal(data) == (records, len(data))

    def test_empty_input(self):
        assert unseal(b"") == ([], 0)

    @pytest.mark.parametrize("damage", [
        lambda line: line[:-1],                       # no terminator
        lambda line: line[:-1] + b" ",                # wrong terminator
        lambda line: b"-" + line[1:],                 # signed length
        lambda line: line[:8].upper() + line[8:],     # not lowercase hex
        lambda line: line[:8] + b"_" + line[9:],      # separator damaged
        lambda line: line[:9] + b"00000000" + line[17:],  # wrong crc
        lambda line: b"0000ffff" + line[8:],          # length past the end
    ])
    def test_damaged_record_ends_the_prefix(self, damage):
        good = seal({"kind": "a"})
        line = seal({"kind": "b", "pad": "x" * 40})
        assert unseal(good + damage(line)) == ([{"kind": "a"}], len(good))

    def test_sealed_non_object_is_not_a_record(self):
        body = b"[1,2]"
        line = b"%08x %08x %b\n" % (len(body), zlib.crc32(body), body)
        assert unseal(line) == ([], 0)

    def test_sealed_non_json_is_not_a_record(self):
        body = b"{not json"
        line = b"%08x %08x %b\n" % (len(body), zlib.crc32(body), body)
        assert unseal(line) == ([], 0)


class TestRecordLog:
    def test_create_append_replay(self, tmp_path):
        log = RecordLog(tmp_path / "deep" / "er" / "x.log")
        log.create({"kind": "begin"})
        log.append({"kind": "shard", "n": 1})
        log.append({"kind": "shard", "n": 2})
        assert RecordLog(log.path).replay() == [
            {"kind": "begin"}, {"kind": "shard", "n": 1},
            {"kind": "shard", "n": 2},
        ]
        assert [p.name for p in log.path.parent.iterdir()] == ["x.log"]

    def test_absent_file_replays_empty(self, tmp_path):
        assert RecordLog(tmp_path / "none.log").replay() == []

    def test_create_replaces_an_existing_log(self, tmp_path):
        log = RecordLog(tmp_path / "x.log")
        log.create({"kind": "begin", "run": 1})
        log.append({"kind": "shard"})
        log.create({"kind": "begin", "run": 2})
        assert log.replay() == [{"kind": "begin", "run": 2}]
        log.append({"kind": "shard", "run": 2})
        assert len(log.replay()) == 2

    def test_append_fsyncs_once_per_record(self, tmp_path, monkeypatch):
        synced = []
        real = os.fsync
        monkeypatch.setattr(recordlog.os, "fsync",
                            lambda fd: (synced.append(fd), real(fd))[1])
        log = RecordLog(tmp_path / "x.log")
        log.create({"kind": "begin"})
        assert len(synced) == 1
        log.append({"kind": "shard"})
        assert len(synced) == 2

    def test_torn_tail_is_ignored_then_truncated(self, tmp_path):
        path = tmp_path / "x.log"
        log = RecordLog(path)
        log.create({"kind": "begin"})
        log.append({"kind": "shard", "n": 1})
        intact = path.read_bytes()
        torn = seal({"kind": "shard", "n": 2})
        for cut in range(len(torn)):
            path.write_bytes(intact + torn[:cut])
            reader = RecordLog(path)
            assert reader.replay() == [
                {"kind": "begin"}, {"kind": "shard", "n": 1}
            ]
            reader.append({"kind": "shard", "n": 3})
            assert path.read_bytes() == intact + seal(
                {"kind": "shard", "n": 3}
            )

    def test_discard_removes_file_and_stale_temp(self, tmp_path):
        log = RecordLog(tmp_path / "x.log")
        log.create({"kind": "begin"})
        (tmp_path / "x.log.tmp").write_bytes(b"left by a killed create")
        log.discard()
        assert list(tmp_path.iterdir()) == []
        log.discard()  # idempotent


class TestAtomicWriter:
    def test_replaces_target_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "t.json"
        target.write_text("old")
        with atomic_writer(target) as handle:
            handle.write(json.dumps({"new": True}).encode())
            assert target.read_text() == "old"  # not visible until close
        assert json.loads(target.read_text()) == {"new": True}
        assert [p.name for p in tmp_path.iterdir()] == ["t.json"]

    def test_failure_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "t.bin"
        target.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_writer(target) as handle:
                handle.write(b"half")
                raise RuntimeError("killed mid-write")
        assert target.read_bytes() == b"old"
