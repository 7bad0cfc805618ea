"""The load client: closed-loop HTTP connections, SSE subscribers and the
checks every answer must pass.

Each connection is one ``http.client.HTTPConnection`` that is reused for as
long as the servient allows: it reconnects only after a response that says
``Connection: close`` (or when a reused connection turns out to be closed
before any answer, which is retried once). Answers are recorded during the
timed loop and checked afterwards, so checking costs no client time inside
the measurement.
"""

from __future__ import annotations

import http.client
import json
import selectors
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from urllib.parse import quote

from workloads import ROOT, Op

sys.path.insert(0, str(ROOT / "tests"))
from oracles import conforms, same  # noqa: E402  (independent of wotsim)

HTTP_TIMEOUT = 30.0
_STALE = (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError)


class CountingConnection(http.client.HTTPConnection):
    """An HTTPConnection that counts the TCP connections it opens."""

    def __init__(self, host: str, port: int):
        super().__init__(host, port, timeout=HTTP_TIMEOUT)
        self.connects = 0
        self.retries = 0

    def connect(self):
        self.connects += 1
        super().connect()


def send(conn: CountingConnection, op: Op) -> tuple[int, bytes]:
    """One request/response exchange on the connection, body fully read."""
    headers = {"Content-Type": "application/json"} if op.body is not None else {}
    for attempt in (0, 1):
        reused = conn.sock is not None
        try:
            conn.request(op.method, op.path, body=op.body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        except _STALE:
            conn.close()
            if not reused or attempt:
                raise
            conn.retries += 1
    raise AssertionError("unreachable")


@dataclass
class ConnectionLog:
    """What one closed-loop connection did: per request the op index, the
    start and end times, the status and the body."""

    ops: list
    records: list = field(default_factory=list)
    connects: int = 0
    retries: int = 0


def _drive(host: str, port: int, log: ConnectionLog, start: threading.Barrier,
           deadline_box: list) -> None:
    conn = CountingConnection(host, port)
    ops = log.ops
    records = log.records
    clock = time.perf_counter
    index = 0
    start.wait()
    deadline = deadline_box[0]
    try:
        while True:
            t0 = clock()
            if t0 >= deadline:
                break
            op_index = index % len(ops)
            try:
                status, body = send(conn, ops[op_index])
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                records.append((op_index, t0, clock(), None, repr(exc).encode()))
            else:
                records.append((op_index, t0, clock(), status, body))
            index += 1
    finally:
        conn.close()
        log.connects = conn.connects
        log.retries = conn.retries


def closed_loop(host: str, port: int, op_lists: list,
                seconds: float) -> tuple[list[ConnectionLog], float]:
    """Run one closed-loop connection per op list for ``seconds``; returns
    the logs and the time the loop started.

    The calling thread drives the first connection and one extra thread per
    further list drives the others, so N lists use exactly N threads.
    """
    logs = [ConnectionLog(ops) for ops in op_lists]
    box = [0.0]  # the deadline, set once every connection is ready

    def set_deadline():
        box[0] = time.perf_counter() + seconds

    start = threading.Barrier(len(logs), action=set_deadline)
    workers = [threading.Thread(target=_drive, args=(host, port, log, start, box),
                                name=f"bench-conn-{i}")
               for i, log in enumerate(logs[1:], 1)]
    for worker in workers:
        worker.start()
    try:
        _drive(host, port, logs[0], start, box)
    finally:
        for worker in workers:
            worker.join()
    return logs, box[0] - seconds


# --- checks ---------------------------------------------------------------


def _strip_td(doc: dict) -> dict:
    """A TD without its top-level base and affordance forms, the only
    members a servient may change (criterion 4 of the acceptance suite)."""
    out = {k: v for k, v in doc.items() if k != "base"}
    for section in ("properties", "actions", "events"):
        if section in out:
            out[section] = {n: {k: v for k, v in a.items() if k != "forms"}
                            for n, a in out[section].items()}
    return out


def _td_problem(served, source: dict, base_url: str) -> str | None:
    if not isinstance(served, dict) or not same(_strip_td(served), _strip_td(source)):
        return "served TD differs from its source beyond forms and base"
    seg = quote(source["title"], safe="")
    for section in ("properties", "actions", "events"):
        for name, aff in served.get(section, {}).items():
            href = f"{base_url}/{seg}/{section}/{quote(name, safe='')}"
            if aff.get("forms") != [{"href": href}]:
                return f"{section}/{name}: form is not {href}"
    return None


def check_answer(op: Op, status, body: bytes, base_url: str, written: dict) -> str | None:
    """None when the answer is right, else what is wrong with it.

    ``written`` maps each owned property to the value this connection last
    wrote; it is updated by successful writes.
    """
    if status is None:
        return f"{op.method} {op.path}: {body.decode(errors='replace')}"
    if status != op.status:
        return f"{op.method} {op.path}: status {status}, expected {op.status}"
    if op.kind == "error":
        return None
    if status == 204:
        if body:
            return f"{op.method} {op.path}: 204 with a body"
        if op.kind == "write":
            written[op.prop] = op.value
        return None
    try:
        value = json.loads(body)
    except ValueError:
        return f"{op.method} {op.path}: body is not JSON"
    if op.kind == "td":
        problem = _td_problem(value, op.schema, base_url)
        return f"GET {op.path}: {problem}" if problem else None
    if op.kind == "read_all":
        if not isinstance(value, dict) or value.keys() != op.schema.keys() or not all(
                conforms(op.schema[k], v) for k, v in value.items()):
            return f"GET {op.path}: values do not conform"
        return None
    if not conforms(op.schema, value):
        return f"{op.method} {op.path}: body does not conform to its schema"
    if op.owned and op.prop in written and not same(value, written[op.prop]):
        return f"GET {op.path}: read does not return the value last written"
    return None


def check_logs(logs: list[ConnectionLog], base_url: str) -> tuple[int, list[str]]:
    """Check every recorded answer; returns (attempted, problems)."""
    attempted = 0
    problems: list[str] = []
    for log in logs:
        written: dict = {}
        for op_index, _, _, status, body in log.records:
            attempted += 1
            problem = check_answer(log.ops[op_index], status, body, base_url, written)
            if problem:
                problems.append(problem)
    return attempted, problems


# --- Server-Sent Events ---------------------------------------------------


class SseParser:
    """Incremental parser of an HTTP/1.1 response carrying a chunked
    ``text/event-stream`` body. ``feed`` returns the data of every message
    completed by the bytes given."""

    def __init__(self):
        self._raw = b""
        self._headers_done = False
        self._chunk_left = 0  # payload bytes left in the current chunk
        self._trailer = 0  # CRLF bytes still to skip after a chunk
        self._text = ""
        self.status = None
        self.ended = False

    def feed(self, data: bytes) -> list[str]:
        self._raw += data
        if not self._headers_done:
            head, sep, rest = self._raw.partition(b"\r\n\r\n")
            if not sep:
                return []
            lines = head.decode("latin-1").split("\r\n")
            self.status = int(lines[0].split()[1])
            fields = {k.strip().lower(): v.strip() for k, _, v in
                      (line.partition(":") for line in lines[1:])}
            if fields.get("transfer-encoding", "").lower() != "chunked":
                raise ValueError("event stream is not chunked")
            self._headers_done = True
            self._raw = rest
        body = bytearray()
        while self._raw and not self.ended:
            if self._trailer:
                skip = min(self._trailer, len(self._raw))
                self._raw = self._raw[skip:]
                self._trailer -= skip
            elif self._chunk_left:
                take = self._raw[:self._chunk_left]
                body += take
                self._raw = self._raw[len(take):]
                self._chunk_left -= len(take)
                if not self._chunk_left:
                    self._trailer = 2
            else:
                line, sep, rest = self._raw.partition(b"\r\n")
                if not sep:
                    break
                size = int(line.split(b";")[0], 16)
                self._raw = rest
                if size == 0:
                    self.ended = True
                self._chunk_left = size
        self._text += body.decode("utf-8")
        messages = []
        while "\n\n" in self._text:
            block, self._text = self._text.split("\n\n", 1)
            data = [line[5:].removeprefix(" ") for line in block.split("\n")
                    if line.startswith("data:")]
            if data:
                messages.append("\n".join(data))
        return messages


def subscribe(host: str, port: int, path: str) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=HTTP_TIMEOUT)
    sock.sendall(f"GET {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
                 f"Accept: text/event-stream\r\n\r\n".encode("ascii"))
    return sock


def stream_events(host: str, port: int, path: str, subscribers: int, seconds: float,
                  midpoint=None) -> tuple[list[list[tuple[float, str]]], object]:
    """Hold ``subscribers`` SSE connections for ``seconds`` from one thread.

    Returns per subscriber the (arrival time, data) of every message, and
    what ``midpoint()`` returned when called once halfway through.
    """
    socks = [subscribe(host, port, path) for _ in range(subscribers)]
    parsers = [SseParser() for _ in socks]
    arrivals: list[list] = [[] for _ in socks]
    at_midpoint = None
    clock = time.perf_counter
    with selectors.DefaultSelector() as selector:
        for index, sock in enumerate(socks):
            sock.setblocking(False)
            selector.register(sock, selectors.EVENT_READ, index)
        deadline = clock() + seconds
        half = deadline - seconds / 2
        try:
            while (left := deadline - clock()) > 0:
                for key, _ in selector.select(left):
                    data = key.fileobj.recv(65536)
                    now = clock()
                    if not data:
                        raise ConnectionError("event stream closed by the servient")
                    for message in parsers[key.data].feed(data):
                        arrivals[key.data].append((now, message))
                if midpoint is not None and half is not None and clock() >= half:
                    at_midpoint, half = midpoint(), None
        finally:
            for sock in socks:
                sock.close()
    for parser in parsers:
        if parser.status != 200:
            raise ConnectionError(f"subscription answered {parser.status}")
    return arrivals, at_midpoint


def align(a: list[str], b: list[str]) -> tuple[list[str], list[str]] | None:
    """The two payload sequences from their first common payload on, cut to
    the same length; None when they share no payload."""
    if not a or not b:
        return None
    try:
        start_a, start_b = a.index(b[0]), 0
    except ValueError:
        try:
            start_a, start_b = 0, b.index(a[0])
        except ValueError:
            return None
    n = min(len(a) - start_a, len(b) - start_b)
    return a[start_a:start_a + n], b[start_b:start_b + n]


def gap_excess_ms(times: list[float], interval: float) -> list[float]:
    """|arrival gap - configured interval| of consecutive messages, in ms."""
    return [abs((t1 - t0) - interval) * 1e3 for t0, t1 in zip(times, times[1:])]


def check_events(arrivals: list[list], schema) -> tuple[int, list[str]]:
    """Every payload must conform, and every pair of subscribers must see
    the same payload sequence once aligned at their first common payload."""
    problems: list[str] = []
    attempted = 0
    streams = []
    for stream in arrivals:
        texts = [data for _, data in stream]
        streams.append(texts)
        for text in texts:
            attempted += 1
            try:
                ok = conforms(schema, json.loads(text))
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"event payload does not conform: {text[:80]}")
    for other in streams[1:]:
        pair = align(streams[0], other)
        if pair is None:
            problems.append("subscribers share no payload")
        elif pair[0] != pair[1]:
            problems.append("subscribers saw different payload sequences")
    return attempted, problems
