"""Keep-alive HTTP load generation: a closed loop and an open loop.

One benchmark process drives the daemon over at most two persistent
connections (the box has two cores).  The closed loop sends its next
request the moment the previous answer lands; the open loop sends on a
Poisson schedule fixed in advance, on whichever connection is free,
and times each request from when it was *due*, so a stall that delays
later requests is charged to them.  The generator's own lateness (due -> handed to a
connection) is recorded separately as a validity check.

Every answer's status is checked on the fly; a seeded sample of bodies
is kept for the in-process answer check that follows the run.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Connections the load generator opens (= cores on the reference box).
CONNECTIONS = 2

_IO_TIMEOUT_S = 60.0


@dataclass
class Record:
    """One request as the client saw it."""

    family: str
    conn_port: int
    seq: int
    due_ns: int
    sent_ns: int
    done_ns: int
    ok: bool


@dataclass
class PhaseResult:
    """What one load phase produced."""

    records: List[Record] = field(default_factory=list)
    #: (payload, status, body) for the sampled requests.
    samples: List[Tuple[Dict[str, Any], int, bytes]] = field(default_factory=list)
    #: generator lateness per open-loop request, in ns
    late_ns: List[int] = field(default_factory=list)
    started_ns: int = 0
    ended_ns: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def seconds(self) -> float:
        return (self.ended_ns - self.started_ns) / 1e9


class Connection:
    """One keep-alive HTTP/1.1 connection speaking ``POST /query``."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self.port = writer.get_extra_info("sockname")[1]
        #: /query requests sent on this connection (the daemon counts alike)
        self.seq = 0

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def post(self, body: bytes) -> Tuple[int, bytes]:
        self.seq += 1
        self._writer.write(
            b"POST /query HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("daemon closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        return status, await self._reader.readexactly(length)

    async def close(self) -> None:
        self._writer.close()
        try:
            await asyncio.wait_for(self._writer.wait_closed(), 5.0)
        except (asyncio.TimeoutError, ConnectionError):
            pass


async def _send(conn: Connection, payload: Dict[str, Any], body: bytes,
                due_ns: int, keep: bool, result: PhaseResult) -> None:
    sent = time.perf_counter_ns()
    try:
        status, answer = await asyncio.wait_for(conn.post(body), _IO_TIMEOUT_S)
    except (OSError, ConnectionError, asyncio.IncompleteReadError,
            asyncio.TimeoutError, ValueError, IndexError) as exc:
        result.errors.append(f"{payload.get('family')}: {exc!r}")
        status, answer = 0, b""
    done = time.perf_counter_ns()
    ok = status == 200
    if not ok and status:
        result.errors.append(f"{payload}: HTTP {status} {answer[:200]!r}")
    result.records.append(Record(
        payload.get("family", ""), conn.port, conn.seq, due_ns, sent, done, ok
    ))
    if keep:
        result.samples.append((payload, status, answer))


def _encode(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload).encode("utf-8")


async def sequential(payloads: Sequence[Dict[str, Any]], conn: Connection,
                     keep: bool = True) -> PhaseResult:
    """Send ``payloads`` one after another on one connection."""
    result = PhaseResult()
    result.started_ns = time.perf_counter_ns()
    for payload in payloads:
        now = time.perf_counter_ns()
        await _send(conn, payload, _encode(payload), now, keep, result)
    result.ended_ns = time.perf_counter_ns()
    return result


async def closed_loop(conn: Connection, stream: Iterator[Dict[str, Any]],
                      flags: Iterator[bool], seconds: float) -> PhaseResult:
    """Send from ``stream`` back to back on ``conn`` for ``seconds``."""
    result = PhaseResult()
    result.started_ns = time.perf_counter_ns()
    stop_ns = result.started_ns + int(seconds * 1e9)
    while time.perf_counter_ns() < stop_ns:
        payload = next(stream)
        now = time.perf_counter_ns()
        await _send(conn, payload, _encode(payload), now, next(flags), result)
    result.ended_ns = time.perf_counter_ns()
    return result


async def open_loop(conns: Sequence[Connection],
                    schedule: Sequence[Tuple[float, Dict[str, Any], bool]]
                    ) -> PhaseResult:
    """Send each ``(offset_s, payload, keep)`` when due, on a free connection.

    A request due while both connections are busy waits in the queue;
    that wait counts in its latency because latency runs from the due
    time.  ``late_ns`` records only the generator's own delay in
    handing a due request to the queue.
    """
    result = PhaseResult()
    queue: "asyncio.Queue[Optional[Tuple[int, Dict[str, Any], bytes, bool]]]" = (
        asyncio.Queue()
    )
    encoded = [(offset, payload, _encode(payload), keep)
               for offset, payload, keep in schedule]

    async def worker(conn: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            due_ns, payload, body, keep = item
            await _send(conn, payload, body, due_ns, keep, result)

    workers = [asyncio.ensure_future(worker(conn)) for conn in conns]
    result.started_ns = time.perf_counter_ns()
    try:
        for offset, payload, body, keep in encoded:
            due_ns = result.started_ns + int(offset * 1e9)
            wait_s = (due_ns - time.perf_counter_ns()) / 1e9
            if wait_s > 0:
                await asyncio.sleep(wait_s)
            result.late_ns.append(max(0, time.perf_counter_ns() - due_ns))
            queue.put_nowait((due_ns, payload, body, keep))
        for _ in workers:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
    finally:
        for task in workers:
            task.cancel()
        await asyncio.gather(*workers, return_exceptions=True)
    result.ended_ns = time.perf_counter_ns()
    return result
