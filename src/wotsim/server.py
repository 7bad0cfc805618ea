"""HTTP binding: one servient serving N virtual Things with JSON payloads.

Routes follow the convention ``/<thing>/{properties|actions|events}/<name>``;
the rewritten TD of each Thing is served at ``/<thing>``. Event subscription
uses Server-Sent Events: each emission is one ``data: <compact JSON>``
message, and an idle stream gets a comment every HEARTBEAT_SECONDS. JSON is
the only payload format on this binding.

Every request takes one path: ``_dispatch`` finds its handler in ``_ROUTES``
and maps the domain errors the handler raises to statuses.
"""

from __future__ import annotations

import email.utils
import functools
import logging
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
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


class _ServientServer(ThreadingHTTPServer):
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


class _RequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "wotsim/0.1"
    # Socket timeout in seconds: a client that stalls mid-request (or stops
    # reading an event stream) loses its connection instead of a thread.
    timeout = 10.0
    server: _ServientServer

    def log_message(self, fmt, *args):
        if logger.isEnabledFor(logging.DEBUG):  # formatting costs every response
            logger.debug("%s %s", self.address_string(), fmt % args)

    def date_time_string(self, timestamp=None):
        return _http_date(int(time.time() if timestamp is None else timestamp))

    # --- responses -------------------------------------------------------

    def _respond(self, status: int, body: bytes | None = None,
                 content_type: str = "application/json",
                 headers: dict | None = None) -> None:
        """Send a complete response; no body (as for 204) when body is None.

        The connection stays open for the next request unless the request's
        body is unread, the status is a 5xx or the client asked to close.
        """
        self.send_response(status)
        if body is not None:
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self._body_unread or status >= 500 or self.close_connection:
            self.send_header("Connection", "close")
        # Status line, headers and body leave in one send: split in two, a
        # kept-alive response waits on Nagle and the client's delayed ACK.
        self._headers_buffer.append(b"\r\n")
        if body is not None:
            self._headers_buffer.append(body)
        self.flush_headers()

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
        transfer_coded = "Transfer-Encoding" in self.headers
        # True while the request declares body bytes that no handler has read.
        # A response sent then closes the connection, so those bytes are never
        # parsed as the next request (RFC 9112 sections 6.3 and 9.6).
        self._body_unread = (transfer_coded
                             or self.headers.get("Content-Length", "0").strip() != "0")
        try:
            if transfer_coded:
                return self._respond_error(501, "request bodies with Transfer-Encoding"
                                                " are not supported")
            parts = [unquote(part) for part in urlsplit(self.path).path.split("/") if part]
            section = parts[1] if len(parts) > 1 else None
            route = _ROUTES.get((self.command, len(parts), section))
            thing = self.server.things.get(parts[0]) if route else None
            if thing is None:
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

    do_GET = do_PUT = do_POST = _dispatch

    def _wrong_media_type(self) -> bool:
        """True when an explicit Content-Type is anything but JSON."""
        content_type = self.headers.get("Content-Type")
        if content_type is None:
            return False
        media = content_type.split(";", 1)[0].strip().lower()
        return media != "application/json"

    def _read_body(self) -> bytes:
        lengths = self.headers.get_all("Content-Length", ["0"])
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
        self._respond_json(200, thing.read_all_properties())

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
        accept = self.headers.get("Accept")
        if accept is not None and "text/event-stream" not in accept and "*/*" not in accept:
            return self._respond_error(406, "event streams are served as text/event-stream")
        subscription = thing.subscribe_event(name)
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            # Chunked framing so clients see each message as soon as it is sent;
            # a plain read-to-close body would sit in their buffers.
            self.send_header("Transfer-Encoding", "chunked")
            self.send_header("Connection", "close")
            self.end_headers()
            self._streaming = True
            for data in subscription.encoded(HEARTBEAT_SECONDS):
                self._write_chunk(b":\n\n" if data is None else b"data: " + data + b"\n\n")
            self._write_chunk(b"")
        finally:
            subscription.close()

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n")
        self.wfile.flush()


# (method, path segment count, second segment) -> route handler
_ROUTES = {
    ("GET", 1, None): _RequestHandler._get_td,
    ("GET", 2, "properties"): _RequestHandler._read_all,
    ("GET", 3, "properties"): _RequestHandler._read_property,
    ("PUT", 3, "properties"): _RequestHandler._write_property,
    ("POST", 3, "actions"): _RequestHandler._invoke_action,
    ("GET", 3, "events"): _RequestHandler._event_stream,
}


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
