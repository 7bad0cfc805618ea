"""Command line front end.

Two subcommands:

* ``run``: virtualize one or more Thing Descriptions and serve them on an
  embedded HTTP servient until interrupted.
* ``probe``: exercise every affordance of a served Thing and print a
  PASS/FAIL line for each.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import http.client
import json
import logging
import math
import signal
import socket
import sys
import threading
import time
from urllib.parse import urlsplit, urlunsplit

from .config import LOG_LEVELS, EventMode, build_config, load_config_file
from .errors import BindFailure, DuplicateThingName, Unsatisfiable, WotSimError
from .generator import RandomSource, generate
from .model import DataSchema, is_present
from .runtime import VirtualThing, url_segment
from .server import serve
from .td import parse_td
from .validator import json_equal, validate

logger = logging.getLogger(__name__)

HTTP_TIMEOUT = 10.0
# What a failed exchange raises: socket errors and timeouts, malformed or
# cut-off HTTP, and (ValueError) a URL that cannot be parsed.
_HTTP_ERRORS = (OSError, http.client.HTTPException, ValueError)
# Event streams watched at once, each with a socket and a reader thread. A
# Thing with more events has the rest watched in later windows, so a TD
# fetched from the network cannot make the probe open thousands of either.
MAX_WATCHED_STREAMS = 32


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wotsim",
        description="Virtualize Web of Things devices from their Thing Descriptions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="serve one or more Thing Descriptions over HTTP"
    )
    run_p.add_argument("td_files", nargs="+", metavar="TD_FILE",
                       help="Thing Description JSON files to virtualize")
    run_p.add_argument("--address", help="bind address (default 127.0.0.1)")
    run_p.add_argument("--port", type=int, help="bind port (default 8080)")
    run_p.add_argument("--event-mode", metavar="none|random|fixed:SECONDS",
                       help="default emission mode for all events (default random)")
    run_p.add_argument("--event-interval", action="append", default=[],
                       metavar="EVENT=SECONDS",
                       help="fixed interval for one event; may be repeated")
    run_p.add_argument("--seed", type=int, help="seed for reproducible values")
    run_p.add_argument("--config", metavar="FILE", help="JSON settings file")
    run_p.add_argument("--log-level", choices=sorted(LOG_LEVELS))

    probe_p = sub.add_parser(
        "probe", help="exercise every affordance of a Thing and report PASS/FAIL"
    )
    probe_p.add_argument("target", metavar="URL_OR_FILE",
                         help="Thing Description URL or local file")
    probe_p.add_argument("--duration", type=float, default=10.0,
                         help="seconds to watch the event streams, all at once (default 10)")
    probe_p.add_argument("--seed", type=int, help="seed for generated test values")
    probe_p.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the report as JSON instead of a table")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    return cmd_probe(args)


def _fail(message: str, status: int = 1) -> int:
    print(f"error: {message}", file=sys.stderr)
    return status


# --- run ----------------------------------------------------------------


def _parse_interval_flags(entries: list[str]) -> dict[str, EventMode]:
    overrides: dict[str, EventMode] = {}
    for entry in entries:
        name, sep, seconds_text = entry.rpartition("=")
        if not sep or not name:
            raise ValueError(f"--event-interval expects EVENT=SECONDS, got {entry!r}")
        if name in overrides:
            raise ValueError(f"duplicate --event-interval for event {name!r}")
        try:
            seconds = float(seconds_text)
        except ValueError:
            raise ValueError(
                f"--event-interval {entry!r}: {seconds_text!r} is not a number"
            ) from None
        overrides[name] = EventMode.fixed(seconds)
    return overrides


def cmd_run(args: argparse.Namespace) -> int:
    try:
        file_settings = load_config_file(args.config) if args.config else None
        flag_settings = {
            "address": args.address,
            "port": args.port,
            "eventMode": EventMode.parse(args.event_mode) if args.event_mode else None,
            "eventIntervals": _parse_interval_flags(args.event_interval) or None,
            "seed": args.seed,
            "logLevel": args.log_level,
        }
        config = build_config(file_settings, flag_settings)
    except ValueError as exc:
        return _fail(str(exc))

    logging.basicConfig(
        level=LOG_LEVELS[config.log_level],
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    if config.seed is None:  # one seed for the whole servient, so the run replays
        config = dataclasses.replace(config, seed=RandomSource().seed)
    logger.info("seed %d (replay with --seed %d)", config.seed, config.seed)

    things = []
    for path in args.td_files:
        try:
            with open(path, "rb") as handle:
                td = parse_td(handle.read())
            things.append(VirtualThing(td, config))
        except OSError as exc:
            return _fail(f"cannot read {path}: {exc}")
        except WotSimError as exc:
            return _fail(f"{path}: {exc}")

    try:
        signal.signal(signal.SIGTERM, _raise_interrupt)
    except ValueError:
        pass  # not the main thread; SIGINT handling still applies
    try:
        handle = serve(things, config)
    except (DuplicateThingName, BindFailure) as exc:
        return _fail(str(exc))
    except KeyboardInterrupt:  # serve() has stopped the servient it started
        logger.info("shutting down")
        return 0
    try:  # from here on, an interrupt stops the servient
        for thing in things:
            _log_routes(thing)
        handle.wait()
    except KeyboardInterrupt:
        logger.info("shutting down")
    finally:
        handle.stop()
    return 0


def _raise_interrupt(signum, frame):
    raise KeyboardInterrupt


def _log_routes(thing: VirtualThing) -> None:
    root = f"{thing.base_url}/{thing.url_segment}"
    td = thing.original_td
    logger.info("serving %s at %s", thing.title, root)
    logger.info("  GET  %s  (Thing Description)", root)
    if td.properties:
        logger.info("  GET  %s/properties  (all property values)", root)
    for name, prop in td.properties.items():
        verbs = "GET" if prop.read_only else "GET,PUT"
        logger.info("  %s  %s/properties/%s", verbs, root, url_segment(name))
    for name in td.actions:
        logger.info("  POST  %s/actions/%s", root, url_segment(name))
    for name in td.events:
        logger.info("  GET  %s/events/%s  (SSE)", root, url_segment(name))


# --- probe --------------------------------------------------------------


class ProbeError(Exception):
    """The target could not be fetched or its TD could not be parsed."""


@dataclasses.dataclass
class ProbeCheck:
    affordance: str
    kind: str
    result: str  # "PASS" | "FAIL"
    detail: str
    elapsed_ms: float = 0.0  # the check's own wall time

    @property
    def passed(self) -> bool:
        return self.result == "PASS"


def cmd_probe(args: argparse.Namespace) -> int:
    logging.basicConfig(level=logging.WARNING)
    try:
        _check_duration(args.duration)
    except ValueError as exc:
        return _fail(str(exc), status=2)
    try:
        checks = probe_target(args.target, duration=args.duration, seed=args.seed)
    except ProbeError as exc:
        return _fail(str(exc), status=2)

    if args.as_json:
        print(json.dumps([dataclasses.asdict(c) for c in checks], indent=2))
    else:
        width = max((len(c.affordance) for c in checks), default=0)
        for check in checks:
            print(f"{check.result:4} {check.kind:8} {check.affordance:{width}}  {check.detail}")
        failed = sum(1 for c in checks if not c.passed)
        print(f"{len(checks)} check(s): {len(checks) - failed} passed, {failed} failed")
    return 0 if all(c.passed for c in checks) else 1


def _check_duration(duration: float) -> None:
    """Refuse a watch window that no socket timeout can carry."""
    if not (math.isfinite(duration) and 0 <= duration <= threading.TIMEOUT_MAX):
        raise ValueError(f"duration must be a number of seconds in "
                         f"[0, {threading.TIMEOUT_MAX:.0f}], got {duration}")


def probe_target(target: str, *, duration: float = 10.0,
                 seed: int | None = None) -> list[ProbeCheck]:
    """Fetch a TD (HTTP URL or local file) and exercise every affordance.

    Every event stream is subscribed first, then read by a thread of its own
    while the property and action checks run, so that a pass takes about
    one ``duration`` window. At most ``MAX_WATCHED_STREAMS`` are watched at
    once; further events get windows of their own. Requests share one
    kept-alive connection per origin. Every connection and stream is closed,
    and every reader joined, before this returns or raises.
    """
    _check_duration(duration)
    connections: dict[tuple[str, str], http.client.HTTPConnection] = {}
    try:
        rng = RandomSource(seed)
        if target.startswith(("http://", "https://")):
            try:
                status, body = _request(connections, "GET", target)
            except _HTTP_ERRORS as exc:
                raise ProbeError(f"cannot reach {target}: {exc}") from exc
            if status != 200:
                raise ProbeError(f"{target} answered {status}, expected 200")
            fallback_base = target.rstrip("/")
        else:
            try:
                with open(target, "rb") as handle:
                    body = handle.read()
            except OSError as exc:
                raise ProbeError(str(exc)) from exc
            fallback_base = None
        try:
            td = parse_td(body)
        except WotSimError as exc:
            raise ProbeError(f"{target}: not a usable Thing Description: {exc}") from exc

        base = td.base if is_present(td.base) and isinstance(td.base, str) else fallback_base

        events = list(td.events.items())
        with _watching(events[:MAX_WATCHED_STREAMS], base, duration) as event_checks:
            checks = [_run_timed(_check_property, connections, name, prop, base, rng)
                      for name, prop in td.properties.items()]
            checks += [_run_timed(_check_action, connections, name, action, base, rng)
                       for name, action in td.actions.items()]
        checks += event_checks
        for start in range(MAX_WATCHED_STREAMS, len(events), MAX_WATCHED_STREAMS):
            with _watching(events[start:start + MAX_WATCHED_STREAMS],
                           base, duration) as event_checks:
                pass  # its streams are read until the window ends
            checks += event_checks
        return checks
    finally:
        for connection in connections.values():
            connection.close()


def _timed(check: ProbeCheck, started: float) -> ProbeCheck:
    """The check, with the wall time since ``started`` (monotonic) put in."""
    check.elapsed_ms = round((time.monotonic() - started) * 1e3, 3)
    return check


def _run_timed(check_affordance, *args) -> ProbeCheck:
    started = time.monotonic()
    return _timed(check_affordance(*args), started)


def _split(url: str) -> tuple[tuple[str, str], str]:
    """The origin (scheme, host[:port]) and the request target of a URL."""
    parts = urlsplit(url)
    return (parts.scheme, parts.netloc), urlunsplit(("", "", parts.path or "/", parts.query, ""))


def _connect(origin: tuple[str, str]) -> http.client.HTTPConnection:
    """An unopened connection to an origin. An https origin gets its
    certificate checked against the system's CA store."""
    scheme, netloc = origin
    if scheme == "http":
        return http.client.HTTPConnection(netloc, timeout=HTTP_TIMEOUT)
    if scheme == "https":
        return http.client.HTTPSConnection(netloc, timeout=HTTP_TIMEOUT)
    raise http.client.InvalidURL(f"unsupported URL scheme {scheme!r}")


def _request(connections: dict, method: str, url: str,
             body: bytes | None = None) -> tuple[int, bytes]:
    """Send one request on the kept-alive connection to the URL's origin and
    return its status and whole body. A body is sent as JSON."""
    origin, target = _split(url)
    if origin not in connections:
        connections[origin] = _connect(origin)
    connection = connections[origin]
    headers = {"Content-Type": "application/json"} if body is not None else {}
    try:
        connection.request(method, target, body, headers)
        with connection.getresponse() as response:
            return response.status, response.read()
    except _HTTP_ERRORS:
        connection.close()  # a half-done exchange leaves it unusable; the next request reopens
        raise


def _open_stream(url: str) -> tuple[http.client.HTTPResponse, socket.socket]:
    """GET an event stream on a connection of its own. Returns the response,
    its headers read, and its socket, which the caller closes."""
    origin, target = _split(url)
    connection = _connect(origin)
    try:
        connection.request("GET", target, headers={"Accept": "text/event-stream"})
        sock = connection.sock
        return connection.getresponse(), sock
    except _HTTP_ERRORS:
        connection.close()
        raise


def _form_url(forms, base) -> str | None:
    for form in forms:
        href = form.href
        if "://" in href:
            return href
        if base:
            return base.rstrip("/") + (href if href.startswith("/") else "/" + href)
    return None


def _violation_summary(result) -> str:
    parts = [f"{v.path or '/'}: {v.detail}" for v in result.violations[:3]]
    if len(result.violations) > 3:
        parts.append(f"(+{len(result.violations) - 3} more)")
    return "; ".join(parts)


def _check_property(connections, name, prop, base, rng) -> ProbeCheck:
    url = _form_url(prop.forms, base)
    if url is None:
        return ProbeCheck(name, "property", "FAIL", "no usable form URL")
    try:
        status, body = _request(connections, "GET", url)
    except _HTTP_ERRORS as exc:
        return ProbeCheck(name, "property", "FAIL", f"GET failed: {exc}")
    if status != 200:
        return ProbeCheck(name, "property", "FAIL", f"GET answered {status}")
    try:
        value = json.loads(body)
    except ValueError:
        return ProbeCheck(name, "property", "FAIL", "response body is not JSON")
    outcome = validate(prop.data_schema, value)
    if not outcome.valid:
        return ProbeCheck(name, "property", "FAIL",
                          f"read value violates its schema: {_violation_summary(outcome)}")
    notes = ["read conforms"]
    if not prop.read_only:
        note = _check_property_write(connections, url, prop, rng)
        if note.startswith("FAIL:"):
            return ProbeCheck(name, "property", "FAIL", note[5:].strip())
        notes.append(note)
    return ProbeCheck(name, "property", "PASS", "; ".join(notes))


def _check_property_write(connections, url, prop, rng) -> str:
    try:
        value = generate(prop.data_schema, rng)
    except Unsatisfiable:
        return "write skipped: no conforming value could be built"
    try:
        status, _ = _request(connections, "PUT", url, json.dumps(value).encode())
    except _HTTP_ERRORS as exc:
        return f"FAIL: PUT failed: {exc}"
    if status == 405:
        return "write rejected as read-only (405)"
    if status not in (200, 204):
        return f"FAIL: PUT answered {status}"
    try:
        _, body = _request(connections, "GET", url)
        stored = json.loads(body)
    except _HTTP_ERRORS as exc:  # its ValueError covers a body that is not JSON
        return f"FAIL: readback after write failed: {exc}"
    if not json_equal(stored, value):
        return "FAIL: written value did not persist"
    return "write persisted"


def _check_action(connections, name, action, base, rng) -> ProbeCheck:
    url = _form_url(action.forms, base)
    if url is None:
        return ProbeCheck(name, "action", "FAIL", "no usable form URL")
    payload = None
    if action.input is not None:
        try:
            payload = json.dumps(generate(action.input, rng)).encode()
        except Unsatisfiable:
            return ProbeCheck(name, "action", "FAIL",
                              "cannot build a conforming input value")
    try:
        status, body = _request(connections, "POST", url, payload)
    except _HTTP_ERRORS as exc:
        return ProbeCheck(name, "action", "FAIL", f"POST failed: {exc}")
    if not 200 <= status < 300:
        return ProbeCheck(name, "action", "FAIL", f"POST answered {status}")
    if action.output is not None:
        try:
            output = json.loads(body)
        except ValueError:
            return ProbeCheck(name, "action", "FAIL", "output body is not JSON")
        outcome = validate(action.output, output)
        if not outcome.valid:
            return ProbeCheck(name, "action", "FAIL",
                              f"output violates its schema: {_violation_summary(outcome)}")
        return ProbeCheck(name, "action", "PASS", "invoked, output conforms")
    return ProbeCheck(name, "action", "PASS", f"invoked ({status})")


def _subscribe(name, event, base) -> ProbeCheck | _Stream:
    """Open an event's stream, or give the check that failed doing so."""
    started = time.monotonic()
    url = _form_url(event.forms, base)
    if url is None:
        return _timed(ProbeCheck(name, "event", "FAIL", "no usable form URL"), started)
    try:
        response, sock = _open_stream(url)
    except _HTTP_ERRORS as exc:
        return _timed(ProbeCheck(name, "event", "FAIL", f"subscribe failed: {exc}"), started)
    if response.status != 200:
        response.close()
        sock.close()
        return _timed(ProbeCheck(name, "event", "FAIL",
                                 f"subscribe answered {response.status}"), started)
    schema = event.data if event.data is not None else DataSchema()
    return _Stream(name, schema, response, sock, started)


class _Stream:
    """A subscribed event stream, read by a thread of its own until a deadline.

    Only ``stop``, in the thread that subscribed, closes the socket, so the
    reader never finds its descriptor closed or reused under it.
    """

    def __init__(self, name, schema, response, sock, started):
        self.name, self.schema = name, schema
        self.response, self.sock = response, sock
        self.started = started
        self.check: ProbeCheck | None = None
        self.error: BaseException | None = None
        self.thread: threading.Thread | None = None

    def start(self, deadline: float) -> None:
        thread = threading.Thread(target=self._read, args=(deadline,), daemon=True,
                                  name=f"probe event {self.name}")
        thread.start()
        self.thread = thread

    def _read(self, deadline: float) -> None:
        try:
            check = _read_events(self.name, self.schema, self.response, self.sock, deadline)
            self.check = _timed(check, self.started)
        except BaseException as exc:  # handed to the subscribing thread, which raises it
            self.error = exc

    def stop(self) -> None:
        """Wake the reader if it still waits, join it and close the stream."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)  # a blocked read returns at once
        except OSError:
            pass  # the peer has already gone
        if self.thread is not None:
            self.thread.join()
        self.response.close()
        self.sock.close()


@contextlib.contextmanager
def _watching(events, base, duration: float):
    """Subscribe to each event, one after another in the calling thread, then
    read every stream, each in a thread of its own, until one shared deadline.

    Yields a list that holds the events' checks, in order, once the block
    has left. Leaving the block waits out the window, or, when the block
    raised, ends it at once. Either way every reader is joined and every
    stream closed.
    """
    entries: list[ProbeCheck | _Stream] = []
    checks: list[ProbeCheck] = []
    try:
        for name, event in events:
            entries.append(_subscribe(name, event, base))
        streams = [entry for entry in entries if isinstance(entry, _Stream)]
        deadline = time.monotonic() + duration
        for stream in streams:
            stream.start(deadline)
        yield checks
        for stream in streams:  # wait out the window; ``stop`` ends a late read
            stream.thread.join(max(0.0, deadline - time.monotonic()))
    finally:
        for entry in entries:
            if isinstance(entry, _Stream):
                entry.stop()
    for stream in streams:
        if stream.error is not None:
            raise stream.error
    checks.extend(entry.check if isinstance(entry, _Stream) else entry
                  for entry in entries)


def _read_events(name, schema, response, sock, deadline) -> ProbeCheck:
    """Read an event stream until the deadline, validating each payload as it
    arrives."""
    received = 0
    try:
        # Each read may wait only for what is left of the window.
        while (left := deadline - time.monotonic()) > 0:
            sock.settimeout(left)
            line = response.readline()
            if not line.endswith(b"\n"):
                break  # the stream ended, cut off mid-line if at all
            if line.startswith(b"data:"):
                try:
                    payload = json.loads(line[len(b"data:"):])
                except ValueError:
                    return ProbeCheck(name, "event", "FAIL", "event payload is not JSON")
                outcome = validate(schema, payload)
                if not outcome.valid:
                    return ProbeCheck(name, "event", "FAIL",
                                      f"payload violates its schema: "
                                      f"{_violation_summary(outcome)}")
                received += 1
    except _HTTP_ERRORS:
        pass  # stream closed or silent to the end of the window; whatever arrived counts
    if received == 0:
        return ProbeCheck(name, "event", "PASS",
                          "no events within the window (vacuously conforming)")
    return ProbeCheck(name, "event", "PASS",
                      f"{received} event(s) observed, all conforming")


if __name__ == "__main__":
    sys.exit(main())
