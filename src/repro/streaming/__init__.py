"""Streaming incremental CDI: the continuous CloudBot loop.

The batch repro computes each day's CDI tables from scratch; this
package maintains them *online*.  A :class:`LogTailer` consumes new
log-store records past a persisted cursor with watermark-bounded
reordering, a :class:`StreamingExtractor` turns them into events with
the batch expert rules, an :class:`IncrementalCdiState` keeps every
VM's damage integrals current through the exact batch kernels, and
:class:`StreamingCdiPipeline` ties the loop together with atomic
checkpoints (:class:`StreamCheckpoint`) and generation-stamped rollup
publication.  The correctness contract — incremental state
byte-identical to a from-scratch batch recompute after any admitted
stream, including crash/resume at any tick boundary — is enforced by
the differential harness in ``tests/streaming``.
"""

from repro.streaming.extract import StreamingExtractor, event_record
from repro.streaming.persist import StreamCheckpoint, StreamSnapshot
from repro.streaming.pipeline import StreamingCdiPipeline, TickResult
from repro.streaming.state import IncrementalCdiState
from repro.streaming.tailer import LogTailer

__all__ = [
    "IncrementalCdiState",
    "LogTailer",
    "StreamCheckpoint",
    "StreamSnapshot",
    "StreamingCdiPipeline",
    "StreamingExtractor",
    "TickResult",
    "event_record",
]
