"""Closed-loop HTTP load from one process over persistent connections.

Each connection belongs to one thread and sends its next request only after
the previous response was read to the last byte (an analyst waits for each
answer).  Bodies are encoded before the clock starts; a sample is the time
from just before the request is written to just after the response body is
read.  Checking responses is deferred off the clock: the measured window is
cut into slices, each ending when its time is up or the buffered response
bytes reach a budget, and the buffered responses are handed to ``consume``
between slices while the clock is stopped.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .inputs import Request

#: Buffered response bytes across all connections before a slice ends.
BYTE_BUDGET = 128 * 1024 * 1024
#: Socket timeout; bounds how long a hung server can hold a run.
TIMEOUT_S = 30.0

#: (request index, sent, done, status, body, trace id or None)
Sample = Tuple[int, float, float, int, bytes, Optional[str]]

_TRACE_HEADER = "X-Fairank-Trace"


@dataclass
class Stream:
    """One connection's request order, cycled from ``position`` on."""

    order: Sequence[int]
    position: int = 0
    connection: Optional[http.client.HTTPConnection] = None


@dataclass
class LoadStats:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    slices: int = 0


def connect(port: int) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)


def exchange(
    connection: http.client.HTTPConnection, request: Request, headers: dict
) -> Tuple[int, bytes]:
    connection.request("POST", request.path, body=request.body, headers=headers)
    response = connection.getresponse()
    return response.status, response.read()


def _drive(
    port: int,
    requests: Sequence[Request],
    stream: Stream,
    deadline: float,
    budget: int,
    stop: threading.Event,
    out: List[Sample],
    trace_prefix: Optional[str],
) -> None:
    perf = time.perf_counter
    order = stream.order
    length = len(order)
    position = stream.position
    connection = stream.connection or connect(port)
    headers = {"Content-Type": "application/json"}
    buffered = 0
    while not stop.is_set() and perf() < deadline:
        index = order[position % length]
        trace_id = None
        if trace_prefix is not None:
            trace_id = f"{trace_prefix}-{position}"
            headers = {"Content-Type": "application/json", _TRACE_HEADER: trace_id}
        position += 1
        request = requests[index]
        sent = perf()
        try:
            status, body = exchange(connection, request, headers)
        except (OSError, http.client.HTTPException):
            connection.close()
            connection = connect(port)
            status, body = 0, b""
        done = perf()
        out.append((index, sent, done, status, body, trace_id))
        buffered += len(body)
        if buffered >= budget:
            stop.set()
    stream.position = position
    stream.connection = connection


def closed_loop(
    port: int,
    requests: Sequence[Request],
    streams: Sequence[Stream],
    seconds: float,
    consume: Callable[[List[Sample]], None],
    trace_prefix: Optional[str] = None,
) -> LoadStats:
    """Drive ``streams`` (one thread and connection each) for ``seconds`` of wall time."""
    stats = LoadStats()
    while stats.wall_s < seconds:
        outputs: List[List[Sample]] = [[] for _ in streams]
        stop = threading.Event()
        started = time.perf_counter()
        cpu_started = time.process_time()
        deadline = started + (seconds - stats.wall_s)
        threads = [
            threading.Thread(
                target=_drive,
                args=(
                    port, requests, stream, deadline, BYTE_BUDGET // len(streams), stop,
                    out, None if trace_prefix is None else f"{trace_prefix}{number}",
                ),
            )
            for number, (stream, out) in enumerate(zip(streams, outputs))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats.wall_s += time.perf_counter() - started
        stats.cpu_s += time.process_time() - cpu_started
        stats.slices += 1
        for out in outputs:
            consume(out)
    return stats


def close(streams: Sequence[Stream]) -> None:
    for stream in streams:
        if stream.connection is not None:
            stream.connection.close()
            stream.connection = None
