"""HTTP binding: one servient serving N virtual Things with JSON payloads.

Routes follow the convention ``/<thing>/{properties|actions|events}/<name>``;
the rewritten TD of each Thing is served at ``/<thing>``. Event subscription
uses Server-Sent Events: each emission is one ``data: <JSON>`` message,
carrying the JSON text the Thing drew, written as every response body is;
an idle stream gets a comment every HEARTBEAT_SECONDS. JSON is the only
payload format on this binding.

One thread runs the servient's loop, on ``selectors``: it accepts
connections, reads into a buffer per connection, answers each request inline,
writes from an output buffer per connection and emits each event when it is
due. Each received byte of a head is searched for line ends once, and
``_read_head`` (RFC 9112) parses the head once it can be decided;
``_content_length`` frames its body before any route is looked up. Then
``_dispatch`` finds the handler in ``_ROUTES`` and maps the domain errors it
raises to statuses, and ``_respond`` writes the response head. An emission
reaches the loop once, through its event's ``_EventStreams``.
"""

from __future__ import annotations

import collections
import email.utils
import functools
import io
import logging
import math
import re
import selectors
import signal
import socket
import threading
import time
from http import HTTPStatus
from urllib.parse import unquote, urlsplit

from .config import ServientConfig
from .errors import (
    BindFailure,
    DuplicateThingName,
    MalformedJson,
    ReadOnlyProperty,
    UnknownAction,
    UnknownEvent,
    UnknownProperty,
    ValidationFailed,
)
from .model import MISSING
from .runtime import (_END_OF_STREAM, SUBSCRIPTION_BUFFER, VirtualThing, _encode, next_due,
                      schedule_events)
from .td import _loads, serialize_td

logger = logging.getLogger(__name__)

TD_CONTENT_TYPE = "application/td+json"
# Largest request body read; anything longer is refused with 413.
MAX_BODY_BYTES = 1 << 20
# Seconds an event stream may stay silent before it gets an SSE comment.
HEARTBEAT_SECONDS = 5.0
# Longest request line or header line, line end included, and most lines a
# request head may take after its request line, blank line included. Longer
# lines get 414 (request line) or 431, more lines 431. These are http.client's
# limits, so the servient refuses the heads the standard library refused.
MAX_LINE_BYTES = 65536
MAX_HEAD_LINES = 100
# Seconds a connection may idle between requests, take to send a request's
# head and body from their first byte, or leave its pending output unread.
TIMEOUT_SECONDS = 10.0
# Connections served at once; one more is answered 503 and closed.
MAX_CONNECTIONS = 512
# Seconds stop() gives the responses and stream ends in flight to go out.
STOP_SECONDS = 5.0
SERVER_NAME = "wotsim/0.1"

_REASONS = {status.value: status.phrase for status in HTTPStatus}
_LINE_ENDS = (b"\r\n", b"\n", b"")  # a blank line, or the end of the input
_OWS = " \t"
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")  # RFC 9110 section 5.6.2
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The Date header value of a second; responses in the same second share it."""
    return email.utils.formatdate(second, usegmt=True)


class _Refused(Exception):
    """A request refused before it reaches a Thing; args are (status, message)."""


def _read_head(rfile) -> tuple[str, str, tuple[int, int], dict[str, list[str]]] | None:
    """Read one request head from a binary file: (method, target, (major,
    minor) version, headers), None if the input ends or holds a blank line
    where the request line should be.

    Headers map each lowercased field name to its values in arrival order,
    without surrounding spaces and tabs; an obs-folded line joins the value
    before it after one space. Raises _Refused as _request_line does, and for
    header lines too long or too many (431) or malformed (400).
    """
    request = _request_line(rfile.readline(MAX_LINE_BYTES + 1))
    if request is None:
        return None
    headers: dict[str, list[str]] = {}
    values = None  # of the last field line, which an obs-fold continues
    for _ in range(MAX_HEAD_LINES):
        line = rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise _Refused(431, "header line too long")
        if line in _LINE_ENDS:
            return (*request, headers)
        text = line.decode("latin-1").rstrip("\r\n")
        if "\r" in text:  # a bare CR (RFC 9112 section 2.2)
            raise _Refused(400, "bare CR in a header line")
        if text.startswith((" ", "\t")):  # obs-fold (RFC 9112 section 5.2)
            if values is not None:
                values[-1] = f"{values[-1]} {text.strip(_OWS)}".strip(_OWS)
            continue
        name, colon, value = text.partition(":")
        if not (colon and _TOKEN.fullmatch(name)):  # also a space before the colon
            raise _Refused(400, f"malformed header line {text[:80]!r}")
        values = headers.setdefault(name.lower(), [])
        values.append(value.strip(_OWS))
    raise _Refused(431, f"more than {MAX_HEAD_LINES - 1} header lines")


def _request_line(line: bytes) -> tuple[str, str, tuple[int, int]] | None:
    """(method, target, version) of a request line, None if it is blank. Raises
    _Refused for a line too long (414) or malformed (400) and HTTP/2+ (505)."""
    if len(line) > MAX_LINE_BYTES:
        raise _Refused(414, "request line too long")
    words = line.decode("latin-1").split()
    if not words:
        return None
    if len(words) >= 3:
        version = _version(words[-1])
        if version >= (2, 0):
            raise _Refused(505, f"{words[-1]} is not supported")
    if len(words) != 3:
        raise _Refused(400, "the request line is not: method, target, version")
    method, target = words[:2]
    if target.startswith("//"):
        target = "/" + target.lstrip("/")
    return method, target, version


def _version(text: str) -> tuple[int, int]:
    """(major, minor) of an HTTP-version such as ``HTTP/1.1``."""
    match = _VERSION.fullmatch(text)
    if match is None:
        raise _Refused(400, f"bad HTTP version {text!r}")
    return int(match[1]), int(match[2])


def _content_length(headers: dict[str, list[str]]) -> int:
    """The request body's length. Raises _Refused for a body Content-Length
    cannot frame (400), is too long (413) or has Transfer-Encoding (501)."""
    if "transfer-encoding" in headers:
        raise _Refused(501, "request bodies with Transfer-Encoding are not supported")
    lengths = headers.get("content-length", ["0"])
    if len(lengths) > 1:  # which one frames the body is ambiguous
        raise _Refused(400, "more than one Content-Length header")
    text = lengths[0].strip()
    if not (text.isascii() and text.isdigit()):
        raise _Refused(400, f"Content-Length {text!r} is not a non-negative integer")
    if int(text) > MAX_BODY_BYTES:
        raise _Refused(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    return int(text)


def _chunk(data: bytes) -> bytes:
    return b"%X\r\n%s\r\n" % (len(data), data)


_HEARTBEAT = _chunk(b":\n\n")


class _Connection:
    """One client connection, touched only by the loop's thread: the bytes
    received and not yet answered, the bytes to send, and the request being
    answered. The next request is parsed only once the answer before it has
    left the output buffer, so a client that does not read its answers cannot
    grow that buffer."""

    def __init__(self, servient: ServerHandle, sock: socket.socket, client: str):
        self.servient = servient
        self.sock = sock
        self.client = client
        self.inbuf = bytearray()
        self.scanned = self.line_start = self.lines = 0  # of the head, see _head_ready
        self.out: collections.deque[bytes] = collections.deque()
        self.sent = 0  # bytes of out[0] already sent
        self.mask = selectors.EVENT_READ  # what the selector watches for
        self.deadline = math.inf  # when the connection expires, on time.monotonic()
        self.ended = self.closed = self.close_connection = False
        self.framed = None  # (offset, end) of the request's body until dispatched
        self.stream: _EventStreams | None = None  # the event this connection streams
        self.dropped = 0  # stream messages lost because the client fell behind
        self.command = self.path = ""
        self.version = (1, 1)
        self.headers: dict[str, list[str]] = {}
        self.body = b""  # until a handler reads it

    def on_event(self, mask: int) -> None:
        try:
            if mask & selectors.EVENT_READ:
                self._receive()
            if not self.closed:
                self.serve()
        except Exception:  # one connection's failure must not end the loop
            logger.exception("connection from %s failed", self.client)
            self.close()

    def _receive(self) -> None:
        try:
            data = self.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:  # reset by the client
            return self.close()
        self.ended = not data
        if self.stream is not None:  # a stream's client has nothing to say but goodbye
            return self.close() if self.ended else None
        if data and not self.inbuf:  # a request's first byte starts its deadline
            self.servient._arm(self, TIMEOUT_SECONDS)
        self.inbuf += data

    def serve(self) -> None:
        """Send what is pending; then, while nothing is, answer each complete
        request received."""
        if self.out:
            self.flush()
        while not (self.out or self.closed or self.close_connection or self.servient._stopping):
            if self.framed is None:
                self.command = ""
                try:
                    if not self._head_ready():
                        return
                    reader = io.BytesIO(self.inbuf)
                    head = _read_head(reader)
                    if head is None:
                        return self.close()
                    self.command, self.path, self.version, self.headers = head
                    start = reader.tell()
                    self.framed = start, start + _content_length(self.headers)
                except _Refused as exc:
                    self.close_connection = True
                    self._respond_error(*exc.args)
                    return self.flush()
                self.scanned = self.line_start = self.lines = 0
                if (len(self.inbuf) < self.framed[1] and self.version >= (1, 1)
                        and self.headers.get("expect", [""])[0].lower() == "100-continue"):
                    self.out.append(b"HTTP/1.1 100 Continue\r\n\r\n")
                    return self.flush()
            start, end = self.framed
            if len(self.inbuf) < end:
                break
            self.framed = None
            self.body = bytes(self.inbuf[start:end]) if end > start else b""
            del self.inbuf[:end]
            connection = self.headers.get("connection", [""])[0].lower()
            self.close_connection = (connection == "close"
                                     or (self.version < (1, 1) and connection != "keep-alive"))
            self._dispatch()
            if self.inbuf:  # the next request's first bytes are here
                self.servient._arm(self, TIMEOUT_SECONDS)
            self.flush()
        if self.ended and not (self.out or self.closed or self.stream):
            self.close()  # no more requests can come

    def _head_ready(self) -> bool:
        """True once _read_head can decide the head: a blank line has arrived,
        the client has ended, or a line or the line count is past its limit.
        Searches only the bytes received since the last call (from `scanned`),
        counting `lines` and where the unfinished one starts (`line_start`)."""
        inbuf, start, lines = self.inbuf, self.line_start, self.lines
        end = inbuf.find(b"\n", self.scanned)
        while end >= 0:
            lines += 1
            if (end - start < 2 and inbuf[start:end] in (b"", b"\r")  # a blank line
                    or end - start >= MAX_LINE_BYTES or lines > MAX_HEAD_LINES):
                return True
            start = end + 1
            end = inbuf.find(b"\n", start)
        # A request line just whole is checked now: refused if bad, no head if blank.
        first_line = lines > 0 and not self.lines
        self.scanned, self.line_start, self.lines = len(inbuf), start, lines
        if self.ended or len(inbuf) - start > MAX_LINE_BYTES:
            return True
        return first_line and _request_line(bytes(inbuf[:inbuf.index(b"\n") + 1])) is None

    def flush(self) -> None:
        """Send what the socket takes now, and watch for writability while
        output is left. Once it is all sent, close if the connection is to
        close, else watch for the next request (or a stream's end)."""
        if self.closed:
            return
        out = self.out
        progressed = False
        while out:
            try:
                sent = self.sock.send(memoryview(out[0])[self.sent:] if self.sent else out[0])
            except BlockingIOError:
                break
            except OSError:  # the client has gone
                return self.close()
            progressed = True
            self.sent += sent
            if self.sent < len(out[0]):
                break
            out.popleft()
            self.sent = 0
        mask = selectors.EVENT_READ
        if out:
            if progressed or not self.mask & selectors.EVENT_WRITE:
                self.servient._arm(self, TIMEOUT_SECONDS)  # that long without progress closes
            mask = selectors.EVENT_WRITE | (selectors.EVENT_READ if self.stream else 0)
        elif self.close_connection and self.stream is None:
            return self.close()
        elif progressed:  # idle from now on
            self.servient._arm(self, HEARTBEAT_SECONDS if self.stream else TIMEOUT_SECONDS)
        if mask != self.mask:
            self.mask = mask
            self.servient._selector.modify(self.sock, mask, self.on_event)

    def expire(self) -> None:
        """An idle stream gets a heartbeat; any other connection was idle, or
        too slow to send its request or to read its answer, and closes."""
        if self.stream is not None and not self.out:
            self.out.append(_HEARTBEAT)
            self.flush()
        else:
            self.close()

    def send_message(self, chunk: bytes) -> None:
        """Queue one framed stream message. A client more than
        SUBSCRIPTION_BUFFER messages behind loses the oldest whole ones; the
        first in line stays, as it may be partly sent."""
        if len(self.out) > SUBSCRIPTION_BUFFER:
            del self.out[1]
            self.dropped += 1
        self.out.append(chunk)
        self.flush()

    def end_stream(self) -> None:
        self._leave_stream()
        self.out.append(b"0\r\n\r\n")
        self.flush()

    def _leave_stream(self) -> None:
        streams, self.stream = self.stream, None
        streams.discard(self)
        if self.dropped:
            logger.warning("%s: the stream of event %r to %s dropped %d message(s)",
                           streams.thing.title, streams.event_name, self.client, self.dropped)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            if self.stream is not None:
                self._leave_stream()
            self.servient._forget(self)
            self.sock.close()

    # --- responses -------------------------------------------------------

    def _respond(self, status: int, body: bytes | None = None,
                 content_type: str = "application/json",
                 headers: dict | None = None) -> None:
        """Queue a complete response; no body (as for 204) when body is None,
        and none but its Content-Length for a HEAD request.

        The connection stays open for the next request unless the request's
        body is unread, the status is a 5xx or the client asked to close.
        """
        head = (f"HTTP/1.1 {status} {_REASONS[status]}\r\nServer: {SERVER_NAME}\r\n"
                f"Date: {_http_date(int(time.time()))}\r\n")
        if body is not None:
            head += f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        if self.body or status >= 500 or self.close_connection:
            self.close_connection = True
            head += "Connection: close\r\n"
        if logger.isEnabledFor(logging.DEBUG):  # formatting costs every response
            request = self.command and "%s %s HTTP/%d.%d" % (self.command, self.path,
                                                            *self.version)
            logger.debug('%s "%s" %s -', self.client, request, status)
        # Head and body leave in one send: split in two, a kept-alive
        # response waits on Nagle and the client's delayed ACK.
        data = head.encode("latin-1") + b"\r\n"
        self.out.append(data if body is None or self.command == "HEAD" else data + body)

    def _respond_error(self, status: int, message: str, violations=None,
                       headers: dict | None = None) -> None:
        doc: dict = {"error": message}
        if violations is not None:
            doc["violations"] = [v.as_dict() for v in violations]
        self._respond(status, _encode(doc), headers=headers)

    # --- dispatch --------------------------------------------------------

    def _dispatch(self):
        try:
            parts = [unquote(part) for part in urlsplit(self.path).path.split("/") if part]
            shape = (len(parts), parts[1] if len(parts) > 1 else None)
            route = _ROUTES.get((self.command, *shape))
            thing = self.servient._things.get(parts[0]) if parts else None
            if route is None and thing is not None:
                # A method that no route takes on a path shape that some route takes.
                allowed = [method for method, *routed in _ROUTES if tuple(routed) == shape]
                if allowed:
                    return self._respond_error(405, f"{self.command} is not allowed here",
                                               headers={"Allow": ", ".join(allowed)})
            if route is None or thing is None:
                return self._respond_error(404, "not found")
            if self.command != "GET" and self._wrong_media_type():
                return self._respond_error(415, "request body must be application/json")
            route(self, thing, *parts[2:])
        except (UnknownProperty, UnknownAction, UnknownEvent) as exc:
            self._respond_error(404, str(exc))
        except ReadOnlyProperty as exc:
            self._respond_error(405, str(exc), headers={"Allow": "GET"})
        except ValidationFailed as exc:
            self._respond_error(400, str(exc), exc.violations)
        except (MalformedJson, UnicodeDecodeError) as exc:
            self._respond_error(400, f"malformed JSON body: {exc}")
        except Exception as exc:
            logger.exception("%s %s failed", self.command, self.path)
            if not self.out:  # nothing answered yet
                self._respond_error(500, str(exc))

    def _wrong_media_type(self) -> bool:
        """True when an explicit Content-Type is anything but JSON."""
        content_type = self.headers.get("content-type", ["application/json"])[0]
        return content_type.split(";", 1)[0].strip().lower() != "application/json"

    def _read_body(self) -> bytes:
        body, self.body = self.body, b""
        return body

    # --- routes ----------------------------------------------------------

    def _get_td(self, thing: VirtualThing):
        self._respond(200, self.servient._td_bodies[thing.title], TD_CONTENT_TYPE)

    def _read_all(self, thing: VirtualThing):
        self._respond(200, thing.read_all_properties_json())

    def _read_property(self, thing: VirtualThing, name: str):
        self._respond(200, thing.read_property_json(name))

    def _write_property(self, thing: VirtualThing, name: str):
        thing.write_property(name, _loads(self._read_body().decode("utf-8")))
        self._respond(204)

    def _invoke_action(self, thing: VirtualThing, name: str):
        body = self._read_body()
        value = _loads(body.decode("utf-8")) if body.strip() else MISSING
        output = thing.invoke_action_json(name, value)
        if output is None:
            self._respond(204)
        else:
            self._respond(200, output)

    def _event_stream(self, thing: VirtualThing, name: str):
        accept = self.headers.get("accept", ["*/*"])[0]
        if "text/event-stream" not in accept and "*/*" not in accept:
            return self._respond_error(406, "event streams are served as text/event-stream")
        self.stream = self.servient._streams_of(thing, name)
        self.stream.add(self)
        self.close_connection = True
        # Chunked framing so clients see each message as soon as it is sent;
        # a plain read-to-close body would sit in their buffers.
        self._respond(200, headers=_STREAM_HEADERS)


_STREAM_HEADERS = {"Content-Type": "text/event-stream", "Cache-Control": "no-cache",
                   "Transfer-Encoding": "chunked"}

# (method, path segment count, second segment) -> route handler
_ROUTES = {
    ("GET", 1, None): _Connection._get_td,
    ("GET", 2, "properties"): _Connection._read_all,
    ("GET", 3, "properties"): _Connection._read_property,
    ("PUT", 3, "properties"): _Connection._write_property,
    ("POST", 3, "actions"): _Connection._invoke_action,
    ("GET", 3, "events"): _Connection._event_stream,
}


class _EventStreams(set):
    """The connections streaming one event. The set is the Thing's subscriber
    to the event, so each emission is framed once for all of them."""

    __eq__, __hash__ = object.__eq__, object.__hash__  # in the Thing's set, by identity

    def __init__(self, servient: ServerHandle, thing: VirtualThing, name: str):
        super().__init__()
        self.servient, self.thing, self.event_name = servient, thing, name
        thing.subscribe_event(name, self)

    def _put(self, message) -> None:
        """Hand an emission, or the streams' end, to the loop (from any thread)."""
        self.servient._ready.append((self, message))
        if threading.get_ident() != self.servient._loop_thread:
            self.servient._wake()

    def deliver(self, message) -> None:
        """Send one emission to every stream, or end the streams once the
        Thing has stopped its events. A message that fails closes this
        event's streams alone."""
        try:
            if message is _END_OF_STREAM:
                for stream in list(self):
                    stream.end_stream()
            else:
                chunk = _chunk(b"data: " + message + b"\n\n")
                for stream in list(self):
                    stream.send_message(chunk)
        except Exception:
            logger.exception("%s: delivering event %r failed", self.thing.title, self.event_name)
            for stream in list(self):
                stream.close()

    def discard(self, connection: _Connection) -> None:
        super().discard(connection)
        if not self:  # the last stream has gone
            self.thing.unsubscribe(self)
            self.servient._event_streams.pop((self.thing.title, self.event_name), None)


class ServerHandle:
    """A running servient: its loop runs on one thread until stop()."""

    def __init__(self, listener: socket.socket, things: dict[str, VirtualThing],
                 config: ServientConfig):
        self.things = list(things.values())
        self.config = config
        self.port = listener.getsockname()[1]
        self._stopping = False
        self._listener = listener
        self._things = things  # keyed by (decoded) Thing title
        # The exposed TD is immutable, so its body is encoded once.
        self._td_bodies = {title: serialize_td(thing.exposed_td, indent=2).encode("utf-8")
                           for title, thing in things.items()}
        self._selector = selectors.DefaultSelector()
        self._wakeup, self._waker = socket.socketpair()
        for sock in (listener, self._wakeup, self._waker):
            sock.setblocking(False)
        self._connections: set[_Connection] = set()
        self._event_streams: dict[tuple[str, str], _EventStreams] = {}
        self._ready: collections.deque = collections.deque()  # (streams, message) to deliver
        self._next_sweep = math.inf  # no connection expires earlier
        self._loop_thread: int | None = None
        self._thread = threading.Thread(target=self._run, daemon=True, name="wotsim-loop")

    def start(self) -> None:
        self._thread.start()
        logger.info("servient listening on %s", self.base_url)

    @property
    def base_url(self) -> str:
        return self.config.base_url

    def wait(self) -> None:
        """Block until the loop has ended."""
        self._thread.join()

    def stop(self) -> None:
        """Stop emitting events, end event streams with their last chunk, let
        the responses in flight go out (for up to STOP_SECONDS) and close
        every connection."""
        self._stopping = True
        self._wake()
        self._thread.join(timeout=STOP_SECONDS + 1.0)

    def _run(self) -> None:
        if hasattr(signal, "pthread_sigmask"):  # so that they reach the main thread
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
        self._loop_thread = threading.get_ident()
        self._selector.register(self._listener, selectors.EVENT_READ, self._accept)
        self._selector.register(self._wakeup, selectors.EVENT_READ, self._woken)
        gaps = schedule_events([(thing, name) for thing in self.things
                                for name in thing.original_td.events])
        due = next_due(None, next(gaps, math.inf), time.monotonic())
        try:
            while not self._stopping:
                timeout = min(due, self._next_sweep) - time.monotonic()
                for key, mask in self._selector.select(
                        None if timeout == math.inf else max(timeout, 0.0)):
                    key.data(mask)
                now = time.monotonic()
                while due <= now:  # resuming the schedule emits the event that is due
                    due = next_due(due, next(gaps, math.inf), time.monotonic())
                self._deliver()
                if now >= self._next_sweep:
                    for connection in [c for c in self._connections if c.deadline <= now]:
                        connection.expire()
                    self._next_sweep = min((c.deadline for c in self._connections),
                                           default=math.inf)
            self._shut_down()
        except Exception:
            logger.exception("the servient's loop failed")
        finally:
            for connection in list(self._connections):
                connection.close()
            for sock in (self._listener, self._wakeup, self._waker):
                sock.close()
            self._selector.close()

    def _shut_down(self) -> None:
        self._selector.unregister(self._listener)
        for thing in self.things:
            thing.stop_events()  # which ends every stream
        self._deliver()
        for connection in list(self._connections):
            connection.close_connection = True
            if not connection.out:
                connection.close()
        deadline = time.monotonic() + STOP_SECONDS
        while self._connections and (left := deadline - time.monotonic()) > 0:
            for key, mask in self._selector.select(left):
                key.data(mask)

    def _accept(self, mask: int) -> None:
        while True:
            try:
                sock, address = self._listener.accept()
            except OSError:  # none left to accept, or out of file descriptors
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = _Connection(self, sock, address[0])
            if len(self._connections) >= MAX_CONNECTIONS:
                connection._respond_error(503, "too many connections")
                try:
                    sock.send(connection.out[0])
                except OSError:  # the client has gone already
                    pass
                sock.close()
                continue
            self._connections.add(connection)
            self._selector.register(sock, selectors.EVENT_READ, connection.on_event)
            self._arm(connection, TIMEOUT_SECONDS)

    def _forget(self, connection: _Connection) -> None:
        self._connections.discard(connection)
        self._selector.unregister(connection.sock)

    def _arm(self, connection: _Connection, seconds: float) -> None:
        """Expire the connection `seconds` from now, unless armed again first."""
        connection.deadline = deadline = time.monotonic() + seconds
        if deadline < self._next_sweep:
            self._next_sweep = deadline

    def _streams_of(self, thing: VirtualThing, name: str) -> _EventStreams:
        key = (thing.title, name)
        if key not in self._event_streams:
            self._event_streams[key] = _EventStreams(self, thing, name)
        return self._event_streams[key]

    def _deliver(self) -> None:
        while self._ready:
            streams, message = self._ready.popleft()
            streams.deliver(message)

    def _wake(self) -> None:
        try:
            self._waker.send(b"\0")
        except OSError:  # a wakeup is pending already, or the loop has ended
            pass

    def _woken(self, mask: int) -> None:
        try:
            self._wakeup.recv(4096)
        except OSError:
            pass


def serve(things: list[VirtualThing], config: ServientConfig) -> ServerHandle:
    """Bind the configured address/port and start serving the Things.

    Raises DuplicateThingName when two Things collide on a URL segment and
    BindFailure when the address/port cannot be bound.
    """
    registry: dict[str, VirtualThing] = {}
    for thing in things:
        if thing.title in registry:
            raise DuplicateThingName(
                f"a Thing is already attached at /{thing.url_segment}"
            )
        registry[thing.title] = thing
    try:
        family = socket.getaddrinfo(config.address, config.port, type=socket.SOCK_STREAM)[0][0]
        listener = socket.create_server((config.address, config.port), family=family,
                                        backlog=socket.SOMAXCONN)
    except OSError as exc:
        raise BindFailure(f"cannot bind {config.address}:{config.port}: {exc}") from exc
    handle = ServerHandle(listener, registry, config)
    handle.start()
    return handle
