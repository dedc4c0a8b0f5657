"""Both checkpoints over hostile bytes: torn tails, flipped bytes, old files.

``JobCheckpoint`` and ``StreamCheckpoint`` are append-only logs of
sealed records (:mod:`repro.storage.recordlog`).  The claims proven
here are the ones a crash or a bad disk tests:

* **Torn tail** — cut the file at *every byte offset* of its last
  record: load yields exactly the state as of the previous record, and
  redoing the lost save produces the very bytes of the uninterrupted
  run.
* **Byte flip** — flip any byte anywhere: load yields the state as of
  some earlier record, or reports the file as not resumable (job) /
  raises ``ValueError`` (stream) when the first record is hit.  Never
  a half-applied record, never another exception type.
* **Save sequences** — after any sequence of stream saves with a
  growing row log, arbitrary buffers and reopen points, load equals
  the last snapshot saved.
* **Pre-log files** — a whole-file JSON job checkpoint is "not
  resumable" (the run starts over); a chunked-store stream checkpoint
  raises (see ``tests/streaming/test_persist.py``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.checkpoint import JobCheckpoint
from repro.storage.logstore import LogEntry
from repro.storage.recordlog import seal, unseal
from repro.streaming import StreamCheckpoint, StreamSnapshot

PARTITION = "d0"
FINGERPRINT = "f" * 64


# -- the two subjects, reduced to (steps, state) ------------------------------


def shard_args(index: int):
    vms = [f"vm-{index:02d}-{j}" for j in range(index + 1)]
    vm_columns = {
        "vm": vms,
        "unavailability": [0.125 * index] * len(vms),
        "performance": [0.5] * len(vms),
        "control_plane": [0.0] * len(vms),
        "service_time": [86400.0] * len(vms),
    }
    event_columns = {
        "vm": vms, "event": ["slow_io"] * len(vms),
        "cdi": [0.5] * len(vms), "service_time": [86400.0] * len(vms),
    }
    return f"shard-{index:04d}", vm_columns, event_columns, 10 + index


#: One step per record of a complete job checkpoint, in file order.
JOB_STEPS = [
    lambda ck: ck.begin(FINGERPRINT, PARTITION),
    lambda ck: ck.record_shard(*shard_args(0)),
    lambda ck: ck.record_shard(*shard_args(1)),
    lambda ck: ck.record_shard(*shard_args(2)),
    lambda ck: ck.mark_finalized(),
]


def job_state(checkpoint: JobCheckpoint):
    units = checkpoint.completed_units()
    return (checkpoint.fingerprint(), units, checkpoint.is_finalized(),
            checkpoint.merged_columns(list(units)))


def stream_snapshot(tick: int) -> StreamSnapshot:
    """The stream's state after ``tick`` ticks (row log grows by two)."""
    return StreamSnapshot(
        fingerprint=FINGERPRINT, last_seq=10 * tick - 1,
        watermark=None if tick == 1 else 50.0 * tick, ticks=tick,
        consumed=10 * tick, late_dropped=tick // 2, ignored=tick % 2,
        rows=[{
            "name": "vm_down", "time": 100.0 + i, "target": f"vm-{i:03d}",
            "level": 3, "expire_interval": 600.0,
            "duration": None if i % 2 else 30.0 * i,
        } for i in range(2 * tick)],
        buffer=[(10 * tick + i,
                 LogEntry(time=200.0 + i, fields={"event": "slow_io",
                                                  "target": f"vm-{i:03d}"}))
                for i in range(tick % 3)],
    )


STREAM_TICKS = [1, 2, 3, 4]


def written(tmp_path, subject: str):
    """Write the full file step by step.

    Returns ``(path, boundaries, states)``: the byte offset after each
    record and the loaded state as of each record.
    """
    path = tmp_path / f"{subject}.ck"
    boundaries, states = [], []
    if subject == "job":
        writer = JobCheckpoint(path)
        for step in JOB_STEPS:
            step(writer)
            boundaries.append(path.stat().st_size)
            states.append(job_state(writer))
    else:
        writer = StreamCheckpoint(path)
        for tick in STREAM_TICKS:
            writer.save(stream_snapshot(tick))
            boundaries.append(path.stat().st_size)
            states.append(stream_snapshot(tick))
    assert unseal(path.read_bytes())[1] == boundaries[-1]
    return path, boundaries, states


def load_state(path, subject: str):
    """The loaded state, ``None`` for "not resumable"; ValueError is the
    stream's way of saying the same and is mapped to ``None`` too."""
    if subject == "job":
        checkpoint = JobCheckpoint(path)
        return job_state(checkpoint) if checkpoint.load() else None
    try:
        return StreamCheckpoint(path).load()
    except ValueError as error:
        assert "unsupported stream checkpoint format" in str(error)
        return None


def redo(path, subject: str, record: int) -> None:
    """Resume from ``path`` and redo the save that wrote ``record``."""
    if subject == "job":
        checkpoint = JobCheckpoint(path)
        assert checkpoint.load()
        JOB_STEPS[record](checkpoint)
    else:
        checkpoint = StreamCheckpoint(path)
        assert checkpoint.load() is not None
        checkpoint.save(stream_snapshot(STREAM_TICKS[record]))


# -- (a) torn tail at every byte offset -----------------------------------------


@pytest.mark.parametrize("subject", ["job", "stream"])
class TestTornTail:
    def test_every_offset_of_every_later_record(self, tmp_path, subject):
        path, boundaries, states = written(tmp_path, subject)
        clean = path.read_bytes()
        for record in range(1, len(boundaries)):
            start, end = boundaries[record - 1], boundaries[record]
            for cut in range(start, end):
                path.write_bytes(clean[:cut])
                assert load_state(path, subject) == states[record - 1], \
                    f"record {record} cut at byte {cut - start}"
                redo(path, subject, record)
                # The torn bytes were cut off before the append: the
                # file is the uninterrupted run's, byte for byte.
                assert path.read_bytes() == clean[:end]
                assert load_state(path, subject) == states[record]

    def test_torn_first_record_is_not_resumable(self, tmp_path, subject):
        path, boundaries, states = written(tmp_path, subject)
        clean = path.read_bytes()
        for cut in range(boundaries[0]):
            path.write_bytes(clean[:cut])
            assert load_state(path, subject) is None
        # Starting over on top of the wreck yields a clean first record.
        if subject == "job":
            assert JobCheckpoint(path).ensure(FINGERPRINT, PARTITION) == set()
        else:
            StreamCheckpoint(path).save(stream_snapshot(STREAM_TICKS[0]))
        assert path.read_bytes() == clean[:boundaries[0]]
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


# -- (b) a flipped byte anywhere --------------------------------------------------


@pytest.mark.parametrize("subject", ["job", "stream"])
class TestByteFlip:
    @given(position=st.floats(min_value=0.0, max_value=1.0,
                              exclude_max=True),
           mask=st.integers(min_value=1, max_value=255))
    @settings(max_examples=150, deadline=None)
    def test_flip_loads_a_prefix_or_is_not_resumable(
            self, tmp_path_factory, subject, position, mask):
        tmp_path = tmp_path_factory.mktemp("flip")
        path, boundaries, states = written(tmp_path, subject)
        data = bytearray(path.read_bytes())
        index = int(position * len(data))
        data[index] ^= mask
        path.write_bytes(bytes(data))
        # The record holding the flipped byte, and everything after
        # it, is gone; everything before it is intact.
        hit = next(i for i, end in enumerate(boundaries) if index < end)
        expected = states[hit - 1] if hit else None
        assert load_state(path, subject) == expected
        if hit:
            redo(path, subject, hit)
            assert load_state(path, subject) == states[hit]


# -- (c) any sequence of stream saves ---------------------------------------------


fields_st = st.dictionaries(
    st.text(min_size=1, max_size=6),
    st.none() | st.integers(-1000, 1000) | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    max_size=3,
)
buffer_st = st.lists(
    st.tuples(st.integers(0, 10_000),
              st.floats(0.0, 86400.0),
              fields_st),
    max_size=4,
).map(lambda items: [(seq, LogEntry(time=time, fields=fields))
                     for seq, time, fields in items])
row_st = st.fixed_dictionaries({
    "name": st.sampled_from(["vm_down", "slow_io", "api_error"]),
    "time": st.floats(0.0, 86400.0),
    "target": st.integers(0, 50).map(lambda i: f"vm-{i:03d}"),
    "level": st.integers(1, 4),
    "expire_interval": st.floats(0.0, 3600.0),
    "duration": st.none() | st.floats(0.0, 3600.0),
})
save_st = st.tuples(
    st.lists(row_st, max_size=4),          # rows applied this tick
    buffer_st,
    st.none() | st.floats(0.0, 86400.0),   # watermark
    st.booleans(),                         # reopen (load) before saving
)


class TestStreamSaveSequences:
    @given(saves=st.lists(save_st, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_load_equals_last_snapshot(self, tmp_path_factory, saves):
        path = tmp_path_factory.mktemp("seq") / "s.ck"
        checkpoint = StreamCheckpoint(path)
        rows: list[dict] = []
        last = None
        for tick, (fresh, buffer, watermark, reopen) in enumerate(saves, 1):
            if reopen and last is not None:
                checkpoint = StreamCheckpoint(path)
                assert checkpoint.load() == last
            rows.extend(fresh)
            last = StreamSnapshot(
                fingerprint=FINGERPRINT, last_seq=tick * 7,
                watermark=watermark, ticks=tick, consumed=len(rows),
                late_dropped=tick % 3, ignored=tick % 2,
                rows=list(rows), buffer=buffer,
            )
            checkpoint.save(last)
            assert checkpoint.load() == last
        assert StreamCheckpoint(path).load() == last
        records, end = unseal(path.read_bytes())
        assert end == path.stat().st_size
        assert [r["kind"] for r in records] == \
            ["snapshot"] + ["tick"] * (len(saves) - 1)


# -- pre-log job checkpoints ------------------------------------------------------


#: A job checkpoint exactly as the whole-file v2 JSON writer left it
#: (one staged shard, in progress) before checkpoints became logs.
PRE_LOG_JOB_CHECKPOINT = (
    '{"format": "repro-table-store", "version": 2, "layout": "columnar", '
    '"tables": {"event_cdi_staging": {"schema": [{"name": "vm", "dtype": '
    '"str", "nullable": false}, {"name": "event", "dtype": "str", '
    '"nullable": false}, {"name": "cdi", "dtype": "float", "nullable": '
    'false}, {"name": "service_time", "dtype": "float", "nullable": '
    'false}], "partitions": {"shard-0000": {"rows": 1, "columns": {"vm": '
    '["vm-000"], "event": ["slow_io"], "cdi": [0.25], "service_time": '
    '[86400.0]}}}}, "manifest": {"schema": [{"name": "unit", "dtype": '
    '"str", "nullable": false}, {"name": "vm_rows", "dtype": "int", '
    '"nullable": false}, {"name": "event_rows", "dtype": "int", '
    '"nullable": false}, {"name": "event_count", "dtype": "int", '
    '"nullable": false}], "partitions": {"shards": {"rows": 1, "columns": '
    '{"unit": ["shard-0000"], "vm_rows": [1], "event_rows": [1], '
    '"event_count": [1]}}}}, "meta": {"schema": [{"name": "key", "dtype": '
    '"str", "nullable": false}, {"name": "value", "dtype": "str", '
    '"nullable": false}], "partitions": {"meta": {"rows": 3, "columns": '
    '{"key": ["fingerprint", "status", "partition"], "value": ["fp-old", '
    '"in-progress", "d0"]}}}}, "vm_cdi_staging": {"schema": [{"name": '
    '"vm", "dtype": "str", "nullable": false}, {"name": "unavailability", '
    '"dtype": "float", "nullable": false}, {"name": "performance", '
    '"dtype": "float", "nullable": false}, {"name": "control_plane", '
    '"dtype": "float", "nullable": false}, {"name": "service_time", '
    '"dtype": "float", "nullable": false}], "partitions": {"shard-0000": '
    '{"rows": 1, "columns": {"vm": ["vm-000"], "unavailability": [0.0], '
    '"performance": [0.25], "control_plane": [0.0], "service_time": '
    '[86400.0]}}}}}}'
)


class TestPreLogJobCheckpoint:
    def test_old_file_is_not_resumable_and_the_run_starts_over(
            self, tmp_path):
        path = tmp_path / "day00.ckpt.json"
        path.write_text(PRE_LOG_JOB_CHECKPOINT)
        checkpoint = JobCheckpoint(path)
        assert checkpoint.load() is False
        # Same fingerprint the old file carried: still a fresh start,
        # exactly as for a fingerprint mismatch.
        assert checkpoint.ensure("fp-old", PARTITION) == set()
        assert checkpoint.completed_units() == {}
        assert not checkpoint.is_finalized()
        records, end = unseal(path.read_bytes())
        assert end == path.stat().st_size
        assert records == [{"kind": "begin", "fingerprint": "fp-old",
                            "partition": PARTITION}]
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


class TestMalformedJobRecords:
    """Sealed records this reader does not understand raise a typed
    error rather than being half-applied."""

    def write(self, path, *records):
        begin = {"kind": "begin", "fingerprint": FINGERPRINT,
                 "partition": PARTITION}
        path.write_bytes(b"".join(seal(r) for r in (begin, *records)))

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "ck.json"
        self.write(path, {"kind": "mystery"})
        with pytest.raises(ValueError, match="unknown record kind"):
            JobCheckpoint(path).load()

    def test_missing_field(self, tmp_path):
        path = tmp_path / "ck.json"
        self.write(path, {"kind": "shard", "unit": "shard-0000"})
        with pytest.raises(ValueError, match="malformed record"):
            JobCheckpoint(path).load()

    def test_staged_columns_are_schema_checked_on_load(self, tmp_path):
        path = tmp_path / "ck.json"
        unit, vm_columns, event_columns, count = shard_args(0)
        vm_columns["performance"] = ["fast"]
        self.write(path, {"kind": "shard", "unit": unit,
                          "event_count": count, "vm": vm_columns,
                          "event": event_columns})
        with pytest.raises(ValueError, match="performance"):
            JobCheckpoint(path).load()

    def test_staged_columns_are_schema_checked_on_write(self, tmp_path):
        checkpoint = JobCheckpoint(tmp_path / "ck.json")
        checkpoint.begin(FINGERPRINT, PARTITION)
        before = checkpoint.path.read_bytes()
        unit, vm_columns, event_columns, count = shard_args(0)
        vm_columns["service_time"] = [None]
        with pytest.raises(ValueError, match="service_time"):
            checkpoint.record_shard(unit, vm_columns, event_columns, count)
        assert checkpoint.path.read_bytes() == before
        assert checkpoint.completed_units() == {}

    def test_unopened_checkpoint_refuses_writes(self, tmp_path):
        checkpoint = JobCheckpoint(tmp_path / "ck.json")
        with pytest.raises(RuntimeError, match="not opened"):
            checkpoint.record_shard(*shard_args(0))
        with pytest.raises(RuntimeError, match="not opened"):
            checkpoint.mark_finalized()
