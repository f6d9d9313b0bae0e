"""HTTP load generator for ``repro serve``: open and closed loops.

Requests are pre-encoded bodies for ``POST /predict``; each loop drives
the server over a fixed set of keep-alive connections.  An open loop
sends request ``i`` when it is due (``start + i / rate``) whether or not
earlier ones have returned, and times it from when it was due, so a
stall also counts against the requests queued behind it; how late the
generator itself sent is recorded too.  A closed loop sends each
connection's next request when its previous reply arrives.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

CONNECTIONS = 2


@dataclass
class Sample:
    """One request: which body, when it was due, sent and answered."""

    body: int
    due: float
    sent: float
    done: float
    status: int
    response: bytes

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def late_s(self) -> float:
        return self.sent - self.due


@dataclass
class LoopResult:
    samples: list[Sample] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def ok(self) -> list[Sample]:
        return [sample for sample in self.samples if sample.status == 200]

    @property
    def failed(self) -> int:
        return sum(1 for sample in self.samples if sample.status != 200)


def request_bytes(body: bytes) -> bytes:
    head = (
        "POST /predict HTTP/1.1\r\n"
        "Host: localhost\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body


async def _exchange(connection, payload: bytes) -> tuple[int, bytes]:
    reader, writer = connection
    writer.write(payload)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _connect(host: str, port: int, count: int):
    return [await asyncio.open_connection(host, port) for _ in range(count)]


def _close(connections) -> None:
    for _reader, writer in connections:
        writer.close()


async def _open_loop(host, port, payloads, order, rate) -> LoopResult:
    connections = await _connect(host, port, CONNECTIONS)
    idle: asyncio.Queue = asyncio.Queue()
    for connection in connections:
        idle.put_nowait(connection)
    result = LoopResult()

    async def one(index: int, due: float, connection) -> None:
        sent = time.perf_counter()
        try:
            status, response = await _exchange(connection, payloads[index])
        except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError):
            status, response = 0, b""
        result.samples.append(
            Sample(index, due, sent, time.perf_counter(), status, response)
        )
        idle.put_nowait(connection)

    tasks = []
    start = time.perf_counter() + 0.01
    for position, index in enumerate(order):
        due = start + position / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        connection = await idle.get()
        tasks.append(asyncio.create_task(one(index, due, connection)))
    await asyncio.gather(*tasks)
    result.wall_s = time.perf_counter() - start
    _close(connections)
    return result


async def _closed_loop(host, port, payloads, order) -> LoopResult:
    connections = await _connect(host, port, CONNECTIONS)
    queue = list(order)
    result = LoopResult()

    async def client(connection) -> None:
        while queue:
            index = queue.pop()
            sent = time.perf_counter()
            try:
                status, response = await _exchange(connection, payloads[index])
            except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError):
                status, response = 0, b""
            result.samples.append(
                Sample(index, sent, sent, time.perf_counter(), status, response)
            )

    start = time.perf_counter()
    await asyncio.gather(*(client(connection) for connection in connections))
    result.wall_s = time.perf_counter() - start
    _close(connections)
    return result


def open_loop(host: str, port: int, bodies: list[bytes], order: list[int], rate: float):
    """Send ``bodies[order[i]]`` at ``i / rate`` seconds; one result per request."""
    payloads = [request_bytes(body) for body in bodies]
    return asyncio.run(_open_loop(host, port, payloads, order, rate))


def closed_loop(host: str, port: int, bodies: list[bytes], order: list[int]):
    """Send ``bodies[order[i]]`` back to back on every connection."""
    payloads = [request_bytes(body) for body in bodies]
    return asyncio.run(_closed_loop(host, port, payloads, order))


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[int(rank) - 1]


def tail_fraction(count: int, wanted: float) -> float:
    """The highest percentile up to ``wanted`` with >= 10 samples beyond
    it, but never below the median."""
    return max(0.5, min(wanted, 1.0 - 10.0 / max(count, 1)))
