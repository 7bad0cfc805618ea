"""HTTP binding: one servient serving N virtual Things with JSON payloads.

Routes follow the convention ``/<thing>/{properties|actions|events}/<name>``;
the rewritten TD of each Thing is served at ``/<thing>``. Event subscription
uses Server-Sent Events: each emission is one ``data: <compact JSON>``
message, and an idle stream gets a comment every HEARTBEAT_SECONDS. JSON is
the only payload format on this binding.

Each connection reads its request heads with ``_read_head`` (HTTP/1.1 as in
RFC 9112) and writes every response head in ``_respond``. Every request takes
one path: ``_dispatch`` finds its handler in ``_ROUTES`` and maps the domain
errors the handler raises to statuses.
"""

from __future__ import annotations

import email.utils
import functools
import logging
import re
import socket
import socketserver
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
from .model import MISSING, is_present
from .runtime import RealClock, VirtualThing, _encode, run_events
from .td import _loads, serialize_td

logger = logging.getLogger(__name__)

TD_CONTENT_TYPE = "application/td+json"
# Largest request body read; anything longer is refused with 413.
MAX_BODY_BYTES = 1 << 20
# Seconds an event stream may stay silent before it gets an SSE comment. The
# write lets the handler notice a client that has gone away.
HEARTBEAT_SECONDS = 5.0
# Longest request line or header line, line end included, and most lines a
# request head may take after its request line, blank line included. Longer
# lines get 414 (request line) or 431, more lines 431. These are http.client's
# limits, so the servient refuses the heads the standard library refused.
MAX_LINE_BYTES = 65536
MAX_HEAD_LINES = 100
SERVER_NAME = "wotsim/0.1"

_REASONS = {status.value: status.phrase for status in HTTPStatus}
_LINE_ENDS = (b"\r\n", b"\n", b"")  # a blank line, or the end of the input
_OWS = " \t"
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")  # RFC 9110 section 5.6.2
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")


class _ServientServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    # socketserver's listen backlog of 5 overflows when tens of clients
    # connect at once, and each dropped SYN costs its client a 1 s retry.
    request_queue_size = socket.SOMAXCONN

    def __init__(self, address: tuple[str, int], things: dict[str, VirtualThing]):
        self.things = things  # keyed by (decoded) Thing title
        # The exposed TD is immutable, so its body is encoded once.
        self.td_bodies = {
            title: serialize_td(thing.exposed_td, indent=2).encode("utf-8")
            for title, thing in things.items()
        }
        # Sockets of the connections being served, so stop can end them.
        self._connections: set[socket.socket] = set()
        self._connections_changed = threading.Condition()
        super().__init__(address, _RequestHandler)

    def process_request(self, request, client_address) -> None:
        # Runs in the accept loop, so once shutdown() returns every accepted
        # connection is in the set.
        with self._connections_changed:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        with self._connections_changed:
            self._connections.discard(request)
            self._connections_changed.notify_all()

    def end_connections(self, timeout: float) -> None:
        """Stop reading from every connection, then wait up to `timeout`
        seconds for each to finish the response it is writing, if any.
        Waiting matters: bytes that reach a socket after its reads were shut
        down are still read, so an unfinished handler could answer them."""
        with self._connections_changed:
            for request in self._connections:
                try:
                    request.shutdown(socket.SHUT_RD)
                except OSError:  # the peer already closed it
                    pass
            self._connections_changed.wait_for(lambda: not self._connections, timeout)

    def handle_error(self, request, client_address) -> None:
        logger.exception("request from %s failed", client_address[0])


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
    before it after one space. Raises _Refused for lines too long (414 for
    the request line, else 431) or too many (431), a malformed head (400)
    and HTTP/2 or later (505).
    """
    line = rfile.readline(MAX_LINE_BYTES + 1)
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
    headers: dict[str, list[str]] = {}
    values = None  # of the last field line, which an obs-fold continues
    for _ in range(MAX_HEAD_LINES):
        line = rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise _Refused(431, "header line too long")
        if line in _LINE_ENDS:
            return method, target, version, headers
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


def _version(text: str) -> tuple[int, int]:
    """(major, minor) of an HTTP-version such as ``HTTP/1.1``."""
    match = _VERSION.fullmatch(text)
    if match is None:
        raise _Refused(400, f"bad HTTP version {text!r}")
    return int(match[1]), int(match[2])


class _RequestHandler(socketserver.StreamRequestHandler):
    # Socket timeout in seconds: a client that stalls mid-request (or stops
    # reading an event stream) loses its connection instead of a thread.
    timeout = 10.0
    server: _ServientServer

    def handle(self) -> None:
        """Answer one request after another until one closes the connection."""
        self.close_connection = False
        try:
            while not self.close_connection and self.parse_request():
                self._dispatch()
        except (TimeoutError, ConnectionError):  # idle too long, or the client left
            pass

    def parse_request(self) -> bool:
        """Read the next request head into command, path and headers, and
        decide whether the connection stays open after it. False when there
        is no request to answer: the connection ended, or the head was
        refused and the refusal sent."""
        self.command = self.requestline = ""
        self._body_unread = False
        try:
            head = _read_head(self.rfile)
        except _Refused as exc:
            self.close_connection = True
            self._respond_error(*exc.args)
            return False
        if head is None:
            return False
        self.command, self.path, version, self.headers = head
        self.requestline = f"{self.command} {self.path} HTTP/{version[0]}.{version[1]}"
        connection = self.headers.get("connection", [""])[0].lower()
        self.close_connection = (connection == "close"
                                 or (version < (1, 1) and connection != "keep-alive"))
        if version >= (1, 1) and self.headers.get("expect", [""])[0].lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    def address_string(self) -> str:
        return self.client_address[0]

    def date_time_string(self, timestamp=None) -> str:
        return _http_date(int(time.time() if timestamp is None else timestamp))

    def log_request(self, status: int) -> None:
        if logger.isEnabledFor(logging.DEBUG):  # formatting costs every response
            logger.debug('%s "%s" %s -', self.address_string(), self.requestline, status)

    # --- responses -------------------------------------------------------

    def _respond(self, status: int, body: bytes | None = None,
                 content_type: str = "application/json",
                 headers: dict | None = None) -> None:
        """Send a complete response; no body (as for 204) when body is None,
        and none but its Content-Length for a HEAD request.

        The connection stays open for the next request unless the request's
        body is unread, the status is a 5xx or the client asked to close.
        """
        head = (f"HTTP/1.1 {status} {_REASONS[status]}\r\nServer: {SERVER_NAME}\r\n"
                f"Date: {self.date_time_string()}\r\n")
        if body is not None:
            head += f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        if self._body_unread or status >= 500 or self.close_connection:
            self.close_connection = True
            head += "Connection: close\r\n"
        self.log_request(status)
        # Head and body leave in one send: split in two, a kept-alive
        # response waits on Nagle and the client's delayed ACK.
        data = head.encode("latin-1") + b"\r\n"
        self.wfile.write(data if body is None or self.command == "HEAD" else data + body)

    def _respond_json(self, status: int, value, headers: dict | None = None) -> None:
        self._respond(status, _encode(value), headers=headers)

    def _respond_error(self, status: int, message: str, violations=None,
                       headers: dict | None = None) -> None:
        doc: dict = {"error": message}
        if violations is not None:
            doc["violations"] = [v.as_dict() for v in violations]
        self._respond_json(status, doc, headers)

    # --- dispatch --------------------------------------------------------

    def _dispatch(self):
        self._streaming = False  # set once event-stream headers are out
        transfer_coded = "transfer-encoding" in self.headers
        # True while the request declares body bytes that no handler has read.
        # A response sent then closes the connection, so those bytes are never
        # parsed as the next request (RFC 9112 sections 6.3 and 9.6).
        self._body_unread = (transfer_coded
                             or self.headers.get("content-length", ["0"])[0].strip() != "0")
        try:
            if transfer_coded:
                return self._respond_error(501, "request bodies with Transfer-Encoding"
                                                " are not supported")
            parts = [unquote(part) for part in urlsplit(self.path).path.split("/") if part]
            shape = (len(parts), parts[1] if len(parts) > 1 else None)
            route = _ROUTES.get((self.command, *shape))
            thing = self.server.things.get(parts[0]) if parts else None
            if route is None and thing is not None and self.command not in _ROUTED_METHODS:
                # A method no route takes, on a path that some route takes.
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
        except _Refused as exc:
            self._respond_error(*exc.args)
        except (BrokenPipeError, ConnectionResetError, TimeoutError):
            self.close_connection = True
        except Exception as exc:  # never let a handler thread die silently
            logger.exception("%s %s failed", self.command, self.path)
            if not self._streaming:  # a stream's status line is already sent
                self._respond_error(500, str(exc))

    def _wrong_media_type(self) -> bool:
        """True when an explicit Content-Type is anything but JSON."""
        content_type = self.headers.get("content-type", ["application/json"])[0]
        return content_type.split(";", 1)[0].strip().lower() != "application/json"

    def _read_body(self) -> bytes:
        lengths = self.headers.get("content-length", ["0"])
        if len(lengths) > 1:  # which one frames the body is ambiguous
            raise _Refused(400, "more than one Content-Length header")
        text = lengths[0].strip()
        if not (text.isascii() and text.isdigit()):
            raise _Refused(400, f"Content-Length {text!r} is not a non-negative integer")
        length = int(text)
        if length > MAX_BODY_BYTES:
            raise _Refused(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = self.rfile.read(length) if length else b""
        self._body_unread = False
        return body

    # --- routes ----------------------------------------------------------

    def _get_td(self, thing: VirtualThing):
        self._respond(200, self.server.td_bodies[thing.title], TD_CONTENT_TYPE)

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
        output = thing.invoke_action(name, value)
        if is_present(output):
            self._respond_json(200, output)
        else:
            self._respond(204)

    def _event_stream(self, thing: VirtualThing, name: str):
        accept = self.headers.get("accept", ["*/*"])[0]
        if "text/event-stream" not in accept and "*/*" not in accept:
            return self._respond_error(406, "event streams are served as text/event-stream")
        subscription = thing.subscribe_event(name)
        try:
            self.close_connection = True
            # Chunked framing so clients see each message as soon as it is sent;
            # a plain read-to-close body would sit in their buffers.
            self._respond(200, headers=_STREAM_HEADERS)
            self._streaming = True
            for data in subscription.encoded(HEARTBEAT_SECONDS):
                self._write_chunk(b":\n\n" if data is None else b"data: " + data + b"\n\n")
            self._write_chunk(b"")
        finally:
            subscription.close()

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n")


_STREAM_HEADERS = {"Content-Type": "text/event-stream", "Cache-Control": "no-cache",
                   "Transfer-Encoding": "chunked"}

# (method, path segment count, second segment) -> route handler
_ROUTES = {
    ("GET", 1, None): _RequestHandler._get_td,
    ("GET", 2, "properties"): _RequestHandler._read_all,
    ("GET", 3, "properties"): _RequestHandler._read_property,
    ("PUT", 3, "properties"): _RequestHandler._write_property,
    ("POST", 3, "actions"): _RequestHandler._invoke_action,
    ("GET", 3, "events"): _RequestHandler._event_stream,
}
_ROUTED_METHODS = {method for method, _, _ in _ROUTES}


class ServerHandle:
    """A running servient; supports graceful shutdown."""

    def __init__(self, server: _ServientServer, things: list[VirtualThing],
                 config: ServientConfig):
        self._server = server
        self.things = things
        self.config = config
        self._thread = threading.Thread(
            target=server.serve_forever, daemon=True, name="wotsim-http"
        )
        self._events_stop = threading.Event()

    def start(self) -> None:
        events = [(thing, name) for thing in self.things for name in thing.original_td.events]
        self._events_thread = threading.Thread(
            target=run_events, args=(events, RealClock(self._events_stop)),
            daemon=True, name="wotsim-events",
        )
        self._events_thread.start()
        self._thread.start()
        logger.info("servient listening on %s", self.base_url)

    @property
    def address(self) -> str:
        return self.config.address

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://{self.address}:{self.port}"

    def stop(self) -> None:
        """Stop the event scheduler, end event streams and kept-alive
        connections, finish in-flight responses."""
        self._events_stop.set()
        self._events_thread.join(timeout=5.0)
        for thing in self.things:
            thing.stop_events()
        self._server.shutdown()
        self._server.end_connections(timeout=5.0)
        self._server.server_close()
        self._thread.join(timeout=5.0)


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
        server = _ServientServer((config.address, config.port), registry)
    except OSError as exc:
        raise BindFailure(f"cannot bind {config.address}:{config.port}: {exc}") from exc
    handle = ServerHandle(server, things, config)
    handle.start()
    return handle
