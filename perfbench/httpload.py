"""The service under test as an operator runs it, and the load on it.

:class:`ServerProcess` starts ``python -m repro serve``, waits for
``GET /healthz``, and stops it with SIGINT (the server's graceful
path), then kills whatever of its process tree is left and waits for
each process to be gone.

The load generator is one asyncio loop in the benchmark process:
a handful of keep-alive HTTP/1.1 connections, an open loop that sends
on a fixed schedule and times each request from when it was due, and
a closed loop that sends the next request when the last one returns.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import procs
from common import Tracer, histogram_quantile

#: A request still unanswered after this long counts as failed.
REQUEST_TIMEOUT_S = 10.0

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


class ServerProcess:
    """One ``repro serve`` process with its worker pool."""

    def __init__(self, args: List[str], workdir: Path, src: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        self.log_path = workdir / f"serve-{time.monotonic_ns()}.log"
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *args,
             "--host", "127.0.0.1", "--port", "0"],
            cwd=workdir, env=env, stdout=self._log,
            stderr=subprocess.STDOUT, preexec_fn=procs.die_with_parent)
        self.port: Optional[int] = None

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until the port is announced and ``/healthz`` says ok."""
        deadline = time.monotonic() + timeout
        while self.port is None:
            if self.proc.poll() is not None:
                raise RuntimeError("server exited during start-up:\n"
                                   + self.log_path.read_text()[-2000:])
            found = _LISTENING.search(self.log_path.read_text())
            if found:
                self.port = int(found.group(2))
                break
            if time.monotonic() > deadline:
                raise RuntimeError("server never announced its port")
            time.sleep(0.02)
        while True:
            try:
                if self.get_json("/healthz", timeout=2.0).get("ok"):
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.02)

    def get_json(self, path: str, timeout: float = 10.0) -> Dict[str, Any]:
        return json.loads(self.get_text(path, timeout))

    def get_text(self, path: str, timeout: float = 10.0) -> str:
        url = f"http://127.0.0.1:{self.port}{path}"
        with urllib.request.urlopen(url, timeout=timeout) as reply:
            return reply.read().decode("utf-8")

    def stop(self) -> None:
        """SIGINT, wait for the pool to drain, then end what is left."""
        tree = procs.descendants(self.proc.pid)
        if self.proc.poll() is None:
            try:
                self.proc.send_signal(signal.SIGINT)
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait(timeout=20)
        procs.end(tree)
        self._log.close()


# ----------------------------------------------------------------------
# Reading the server's own counters
# ----------------------------------------------------------------------

def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text exposition to ``{"name{labels}": value}``."""
    series: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            series[name] = float(value)
        except ValueError:
            continue
    return series


def histogram_buckets(series: Dict[str, float], name: str
                      ) -> List[Tuple[float, float]]:
    prefix = f'{name}_bucket{{le="'
    buckets = []
    for key, value in series.items():
        if key.startswith(prefix):
            bound = key[len(prefix):-2]
            buckets.append((float("inf") if bound == "+Inf"
                            else float(bound), value))
    return sorted(buckets)


def bucket_delta(after, before) -> List[Tuple[float, float]]:
    earlier = dict(before)
    return [(bound, count - earlier.get(bound, 0.0))
            for bound, count in after]


def serving_layer_metrics(stats0: Dict[str, Any], stats1: Dict[str, Any],
                          metrics0: Dict[str, float],
                          metrics1: Dict[str, float],
                          wall_s: float) -> Dict[str, float]:
    """Batcher, pool and session-cache figures over one window."""
    def delta(key: str) -> float:
        return float(stats1.get(key, 0)) - float(stats0.get(key, 0))

    def mdelta(key: str) -> float:
        return metrics1.get(key, 0.0) - metrics0.get(key, 0.0)

    submitted = delta("submitted")
    dedup = delta("deduplicated")
    batches = delta("batches")
    hits = mdelta("session_cache_hits_total")
    misses = mdelta("session_cache_misses_total")
    wait = bucket_delta(
        histogram_buckets(metrics1, "serving_queue_wait_seconds"),
        histogram_buckets(metrics0, "serving_queue_wait_seconds"))
    workers = max(1, int(stats1.get("num_workers", 1)))
    return {
        "engine.session.cache_hit_rate":
            hits / (hits + misses) if hits + misses else 0.0,
        "serving.batcher.batch_size_mean":
            (submitted - dedup - delta("rejected")) / batches
            if batches else 0.0,
        "serving.batcher.dedup_share":
            dedup / submitted if submitted else 0.0,
        "serving.batcher.queue_wait_p50_ms":
            histogram_quantile(wait, 0.5) * 1000.0,
        "serving.pool.worker_busy_share":
            delta("worker_seconds") / (workers * wall_s) if wall_s else 0.0,
        "serving.rejected": delta("rejected"),
        "serving.expired": delta("expired"),
    }


def server_peak_rss_mb(stats: Dict[str, Any]) -> float:
    """Peak RSS summed over the server process and its workers."""
    resources = stats.get("resources", {})
    total = resources.get("parent", {}).get("peak_rss_bytes", 0)
    for worker in resources.get("workers", {}).values():
        total += worker.get("peak_rss_bytes", 0)
    return total / 2**20


# ----------------------------------------------------------------------
# HTTP/1.1 over asyncio streams
# ----------------------------------------------------------------------

class Connection:
    """One keep-alive connection; requests on it run one at a time."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            "127.0.0.1", self.port)

    async def post(self, path: str, payload: Dict[str, Any]
                   ) -> Tuple[int, bytes]:
        """Send one request; returns the status and the raw body, which
        is parsed only when read (see :attr:`Sent.reply`)."""
        body = json.dumps(payload).encode("utf-8")
        try:
            return await asyncio.wait_for(self._post(path, body),
                                          REQUEST_TIMEOUT_S)
        except (OSError, asyncio.IncompleteReadError,
                asyncio.TimeoutError, ValueError):
            await self.close()
            raise

    async def _post(self, path: str, body: bytes) -> Tuple[int, bytes]:
        if self._writer is None:
            await self._open()
        head = (f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
        self._writer.write(head + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise asyncio.IncompleteReadError(b"", None)
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        return status, await self._reader.readexactly(length)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass
        self._reader = self._writer = None


@dataclass
class Sent:
    """One request as the generator saw it."""

    index: int
    due: float
    sent: float
    done: float
    status: int
    body: Any

    @property
    def reply(self) -> Any:
        """The parsed JSON reply (raw text for a transport error)."""
        if isinstance(self.body, bytes):
            self.body = json.loads(self.body) if self.body else None
        return self.body

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its last byte."""
        return self.done - self.due


@dataclass
class PhaseResult:
    sent: List[Sent] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    #: Seconds from the first due time to the last (open loops only).
    scheduled_s: Optional[float] = None

    def ok(self) -> List[Sent]:
        return [s for s in self.sent if s.status == 200]

    def latencies_ms(self) -> List[float]:
        return [s.latency * 1000.0 for s in self.ok()]


async def _send(conn: Connection, path: str, payload, index: int,
                due: float, tracer: Tracer, result: PhaseResult) -> None:
    sent = time.perf_counter()
    try:
        status, reply = await conn.post(path, payload)
    except (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError,
            ValueError) as exc:
        status, reply = 0, str(exc)
    done = time.perf_counter()
    result.sent.append(Sent(index, due, sent, done, status, reply))
    if tracer.enabled:
        request = tracer.new_request()
        root = tracer.add("request", due, done, request)
        tracer.add("loadgen.wait", due, sent, request, root)
        tracer.add("serving.http", sent, done, request, root)


async def open_loop(conns: List[Connection], path: str,
                    payloads: Callable[[int], Dict[str, Any]],
                    rate: float, seconds: float, tracer: Tracer,
                    start_index: int = 0) -> PhaseResult:
    """Send at ``rate`` per second on a fixed, evenly spaced schedule.

    Request ``i`` is due at ``t0 + i / rate``. It goes out on the next
    idle connection; when all are busy it waits, and that wait counts
    in its latency. ``lags`` records how late the scheduler itself
    woke for each due time, the generator's own health.
    """
    result = PhaseResult()
    idle: asyncio.Queue = asyncio.Queue()
    for conn in conns:
        idle.put_nowait(conn)
    tasks = []

    async def dispatch(i: int, due: float) -> None:
        conn = await idle.get()
        try:
            await _send(conn, path, payloads(start_index + i),
                        start_index + i, due, tracer, result)
        finally:
            idle.put_nowait(conn)

    count = max(1, int(rate * seconds))
    result.scheduled_s = (count - 1) / rate
    t0 = time.perf_counter()
    for i in range(count):
        due = t0 + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        result.lags.append(max(0.0, time.perf_counter() - due))
        tasks.append(asyncio.ensure_future(dispatch(i, due)))
    await asyncio.gather(*tasks)
    result.wall_s = time.perf_counter() - t0
    return result


async def closed_loop(conns: List[Connection], path: str,
                      payloads: Callable[[int], Dict[str, Any]],
                      seconds: float, tracer: Tracer,
                      start_index: int = 0, think_s: float = 0.0
                      ) -> PhaseResult:
    """Each connection sends its next request ``think_s`` after the
    last one returns."""
    result = PhaseResult()
    counter = iter(range(start_index, 1 << 62))
    t0 = time.perf_counter()
    stop = t0 + seconds

    async def client(conn: Connection) -> None:
        while time.perf_counter() < stop:
            i = next(counter)
            await _send(conn, path, payloads(i), i, time.perf_counter(),
                        tracer, result)
            if think_s:
                await asyncio.sleep(think_s)

    await asyncio.gather(*(client(conn) for conn in conns))
    result.wall_s = time.perf_counter() - t0
    return result


def load_connections(default: int = 2) -> int:
    """Read connections: never more than the machine's processors."""
    return max(1, min(default, os.cpu_count() or 1))
