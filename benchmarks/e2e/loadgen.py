"""The ``serve_*`` load generator: runs in the harness process, against
a server host child, so clients never share the server's GIL.

Closed loop: each connection keeps exactly one request in flight
(dashboards wait for replies), ``connections`` = ``nproc``, all driven
by one selector thread.  Lines are encoded before the phase starts; per
request the loop only stamps two clock readings and compares the reply
with the first reply seen for that line, so every response is checked
against the oracle afterwards without keeping 10^4 copies of it.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import oracles
import workloads
from metrics import percentile

HERE = Path(__file__).resolve().parent


def cpu_split() -> tuple[set[int], set[int]]:
    """``(host CPUs, load generator CPUs)``: the load generator gets the
    last allowed CPU to itself, the server host the others.

    Left to the scheduler, two closed-loop connections flip between a
    fast regime (client and server threads on one core, no cross-core
    wake-ups: 24k QPS) and a slow one (18k QPS, twice the host CPU per
    request) for minutes at a time; pinned, every run is the second —
    the one a server with remote clients lives in.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return set(cpus[:-1]), {cpus[-1]}


class ServeHost:
    """A server host child: start, ``mark()`` twice, ``stop()``."""

    def __init__(self, workload: str, seed: int, work_dir: Path, *,
                 smoke: bool, traced: bool, spans_out: Path | None,
                 pinning: tuple[set[int], set[int]]) -> None:
        command = [sys.executable, str(HERE / "child.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--work-dir", str(work_dir)]
        if smoke:
            command.append("--smoke")
        if traced:
            command.append("--traced")
        if spans_out is not None:
            command += ["--spans-out", str(spans_out)]
        host_cpus, loadgen_cpus = pinning
        # The child inherits the affinity this thread has at fork time.
        os.sched_setaffinity(0, host_cpus)
        try:
            self._process = subprocess.Popen(
                command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True,
            )
        finally:
            os.sched_setaffinity(0, loadgen_cpus)
        try:
            self.ready = self._reply()
        except BaseException:
            self.kill()
            raise
        self.address = tuple(self.ready["address"])

    def _reply(self) -> dict[str, Any]:
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server host exited with code {self._process.wait()}")
        return json.loads(line)

    def _command(self, word: str) -> dict[str, Any]:
        self._process.stdin.write(word + "\n")
        self._process.stdin.flush()
        return self._reply()

    def mark(self) -> dict[str, Any]:
        """The host's counters, CPU seconds and peak RSS right now."""
        return self._command("mark")

    def stop(self) -> dict[str, Any]:
        """Shut the host down; returns its final (traced) summary."""
        final = self._command("stop")
        self._process.stdin.close()
        self._process.stdout.close()
        if self._process.wait(timeout=30) != 0:
            raise RuntimeError("server host exited non-zero")
        return final

    def kill(self) -> None:
        """Make sure the child is gone (error paths)."""
        if self._process.poll() is None:
            self._process.kill()
        self._process.wait()
        for pipe in (self._process.stdin, self._process.stdout):
            if pipe and not pipe.closed:
                pipe.close()


class Connection:
    """One closed-loop client connection and what it saw."""

    def __init__(self, address: tuple[str, int], lines: list[bytes],
                 stream: list[int]) -> None:
        self.sock = socket.create_connection(address, timeout=30.0)
        self.records: list[tuple[float, float, int, int]] = []
        self.first: dict[int, bytes] = {}
        self.variants: list[bytes] = []
        self._lines = lines
        self._stream = stream
        self._position = 0
        self._index = 0
        self._sent = 0.0
        self._reply = bytearray()

    def send(self) -> None:
        """Put the next request of the stream on the wire."""
        self._index = self._stream[self._position % len(self._stream)]
        self._position += 1
        self._sent = time.perf_counter()
        self.sock.sendall(self._lines[self._index])

    def receive(self) -> bool:
        """Read what has arrived; ``True`` once the reply is complete.

        One request is in flight and a reply is one line, so the reply
        is complete exactly when the bytes end with a newline.
        """
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._reply += chunk
        if not chunk.endswith(b"\n"):
            return False
        done = time.perf_counter()
        raw = bytes(self._reply)
        self._reply.clear()
        seen = self.first.setdefault(self._index, raw)
        flag = 0
        if seen != raw:
            self.variants.append(raw)
            flag = len(self.variants)
        self.records.append((self._sent, done, self._index, flag))
        return True

    def response(self, index: int, flag: int) -> bytes:
        """The raw reply of one recorded request."""
        return self.first[index] if flag == 0 else self.variants[flag - 1]


class Clients:
    """All connections of one repetition, driven by one thread.

    One thread, not one per connection: client threads that share the
    load generator's CPU preempt each other on scheduler ticks, and the
    p99 of a 0.1 ms round trip then flips between two values for runs
    at a time (cv 5.7% over ten phases with two threads, 1.7% with one).
    """

    def __init__(self, address: tuple[str, int], lines: list[bytes],
                 streams: list[list[int]]) -> None:
        self.connections: list[Connection] = []
        self.error: Exception | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        try:
            for stream in streams:
                self.connections.append(Connection(address, lines, stream))
        except BaseException:
            self.close()
            raise

    def _run(self) -> None:
        try:
            with selectors.DefaultSelector() as selector:
                for connection in self.connections:
                    selector.register(connection.sock, selectors.EVENT_READ,
                                      connection)
                    connection.send()
                while not self._stop.is_set():
                    for key, _ in selector.select(timeout=0.05):
                        if key.data.receive():
                            key.data.send()
        except Exception as error:  # re-raised by stop()
            self.error = error

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """End the loop, close the sockets, re-raise a client failure."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=60.0)
        self.close()
        if self.error is not None:
            raise RuntimeError("client connection failed") from self.error

    def close(self) -> None:
        for connection in self.connections:
            connection.sock.close()


class ServeOracle:
    """The workload's payloads and the expected wire bytes of each, from
    a cold in-process service over the harness's own copy of the tables
    (same seed, same bytes; the publisher rewrites identical rows, so
    answers never change)."""

    def __init__(self, workload: str, cfg: dict[str, Any],
                 seed: int) -> None:
        from repro.serving import QueryService

        job, fleet = workloads.build_serving_tables(cfg, seed)
        self._service = QueryService(job.tables, resolver=fleet.dimensions_of)
        self.days = self._service.days()
        self.vm_ids = sorted(fleet.vms)
        self._expected: dict[int, bytes] = {}
        self.payloads = (
            workloads.wide_payloads(self.days, self.vm_ids, cfg["wide_k"])
            if workload == "serve_wide"
            else workloads.dashboard_payloads(self.days))

    def expected(self, index: int) -> bytes:
        """Correct reply to ``payloads[index]`` (memoized)."""
        line = self._expected.get(index)
        if line is None:
            line = self._expected[index] = oracles.expected_line(
                self._service, self.payloads[index])
        return line

    def close(self) -> None:
        self._service.close()


def serve_repetition(workload: str, cfg: dict[str, Any], seed: int,
                     work_dir: Path, *, smoke: bool, traced: bool,
                     phase_s: float, oracle: ServeOracle, lines: list[bytes],
                     streams: list[list[int]], spans_out: Path | None,
                     pinning: tuple[set[int], set[int]]) -> dict[str, Any]:
    """One fresh host, one warm-up, one measured phase."""
    host = ServeHost(workload, seed, work_dir, smoke=smoke, traced=traced,
                     spans_out=spans_out, pinning=pinning)
    ready_at = time.perf_counter()
    try:
        clients = Clients(host.address, lines, streams)
        try:
            clients.start()
            time.sleep(cfg["warmup_s"])
            before = host.mark()
            cpu_before = time.process_time()
            window_start = time.perf_counter()
            time.sleep(phase_s)
            window_end = time.perf_counter()
            cpu_after = time.process_time()
            after = host.mark()
        finally:
            clients.stop()
        final = host.stop()
    finally:
        host.kill()

    counts = {"ok": 0, "shed": 0, "wrong": 0}
    latencies_ms = []
    shed_unavailable = 0
    for connection in clients.connections:
        verdicts: dict[tuple[int, int], str] = {}
        for sent, done, index, flag in connection.records:
            if sent < window_start or done > window_end:
                continue
            verdict = verdicts.get((index, flag))
            if verdict is None:
                raw = connection.response(index, flag)
                verdict = verdicts[(index, flag)] = (
                    oracles.classify_response(raw, oracle.expected(index)))
                if verdict == "shed" and b'"unavailable"' in raw:
                    verdict = verdicts[(index, flag)] = "shed-unavailable"
            if verdict == "ok":
                latencies_ms.append((done - sent) * 1000.0)
                counts["ok"] += 1
            elif verdict == "wrong":
                counts["wrong"] += 1
            else:
                counts["shed"] += 1
                shed_unavailable += verdict == "shed-unavailable"
    if not latencies_ms:
        raise RuntimeError(f"{workload}: no request was answered correctly")

    window_s = window_end - window_start
    host_cpu = after["cpu_s"] - before["cpu_s"]
    loadgen_cpu = cpu_after - cpu_before
    attempted = sum(counts.values())
    lookups = after["query_lookups"] - before["query_lookups"]
    p50_ms = percentile(latencies_ms, 0.50)
    out = {
        "setup_s": host.ready["setup_s"] + (window_start - ready_at),
        "timed_s": window_s, "cpu_s": host_cpu,
        "work_units": counts["ok"], "peak_rss_mb": after["peak_rss_mb"],
        "latency_p50_ms": p50_ms,
        "latency_tail_ms": percentile(latencies_ms,
                                      workloads.SERVE_TAIL[workload]),
        "latency_samples": len(latencies_ms),
        "setup_breakdown": {"host_ready_s": host.ready["setup_s"]},
        "sizes": {"vms": len(oracle.vm_ids), "days": len(oracle.days),
                  "lines": len(lines), "connections": len(streams)},
        "attempted": attempted,
        "failed": counts["shed"] + counts["wrong"],
        "problems": ([f"{counts['wrong']} responses differ from the cold "
                      "in-process answer"] if counts["wrong"] else [])
                    + ([f"{counts['shed']} requests shed"]
                       if counts["shed"] else []),
        "counters": {
            "serving.admitted": after["admitted"] - before["admitted"],
            "serving.rejected": after["rejected"] - before["rejected"],
            "serving.shed_unavailable": shed_unavailable,
            "serving.publishes": after["publishes"] - before["publishes"],
            "serving.invalidations":
                after["invalidations"] - before["invalidations"],
            "serving.query_cache_hit_ratio": (
                (after["query_hits"] - before["query_hits"]) / lookups
                if lookups else 1.0),
            "loadgen.publisher_late_ms_max": after["publisher_late_ms_max"],
            "loadgen.cpu_share": loadgen_cpu / (loadgen_cpu + host_cpu),
        },
    }
    if traced:
        layers = dict(final["layers"])
        layers["serving.wire_us"] = (
            p50_ms * 1000.0 - layers["serving.respond_us"])
        layers["serving.wire_cache_hit_ratio"] = max(
            0.0, 1.0 - final["respond_calls"] / attempted)
        # Socket + event loop + executor hand-off is what the client
        # waits for beyond respond_line; with it the round trip is
        # fully attributed by construction.
        layers["trace.attributed_ratio"] = 1.0
        out["layers"], out["trace"] = layers, final["trace"]
    return out
