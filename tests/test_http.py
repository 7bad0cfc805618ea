import copy
import email.feedparser
import email.utils
import http.client
import json
import logging
import re
import socket
import sys
import threading
import time

import pytest
import requests

from wotsim import (
    BindFailure,
    DuplicateThingName,
    EventMode,
    InvalidValue,
    ServientConfig,
    VirtualThing,
    parse_td,
    serialize_td,
    serve,
)
from wotsim import server
from wotsim.td import MAX_JSON_DEPTH

from conftest import fixture_text, free_port, open_connections, running_server, wait_for

TIMEOUT = 5


class TestThingDescriptionRoute:
    def test_served_td_matches_exposed_model(self, coffee_text):
        with running_server([coffee_text]) as handle:
            reply = requests.get(f"{handle.base_url}/Coffee-Machine",
                                 timeout=TIMEOUT)
        assert reply.status_code == 200
        assert reply.headers["Content-Type"].startswith("application/td+json")
        thing = next(t for t in handle.things if t.title == "Coffee-Machine")
        assert reply.json() == json.loads(serialize_td(thing.exposed_td))

    def test_advertised_hrefs_are_live(self, coffee_text):
        with running_server([coffee_text], seed=1) as handle:
            td = requests.get(f"{handle.base_url}/Coffee-Machine",
                              timeout=TIMEOUT).json()
            href = td["properties"]["state"]["forms"][0]["href"]
            assert href.startswith(handle.base_url)
            reply = requests.get(href, timeout=TIMEOUT)
        assert reply.status_code == 200
        assert reply.json() in ["Ready", "Brewing", "Error"]

    def test_unknown_thing_404(self, coffee_text):
        with running_server([coffee_text]) as handle:
            reply = requests.get(f"{handle.base_url}/Tea-Kettle", timeout=TIMEOUT)
        assert reply.status_code == 404
        assert reply.json() == {"error": "not found"}


class TestPropertyRoutes:
    def test_read_and_readall(self, coffee_text):
        with running_server([coffee_text], seed=2) as handle:
            single = requests.get(
                f"{handle.base_url}/Coffee-Machine/properties/state",
                timeout=TIMEOUT)
            everything = requests.get(
                f"{handle.base_url}/Coffee-Machine/properties", timeout=TIMEOUT)
        assert single.status_code == 200
        assert single.headers["Content-Type"].startswith("application/json")
        assert everything.status_code == 200
        assert set(everything.json()) == {"state"}

    def test_write_then_read_back(self, coffee_text):
        with running_server([coffee_text]) as handle:
            url = f"{handle.base_url}/Coffee-Machine/properties/state"
            put = requests.put(url, json="Brewing", timeout=TIMEOUT)
            got = requests.get(url, timeout=TIMEOUT)
        assert put.status_code == 204
        assert put.content == b""
        assert got.json() == "Brewing"

    def test_write_invalid_value(self, coffee_text):
        with running_server([coffee_text]) as handle:
            reply = requests.put(
                f"{handle.base_url}/Coffee-Machine/properties/state",
                json="Espresso", timeout=TIMEOUT)
        assert reply.status_code == 400
        body = reply.json()
        assert body["violations"]
        assert body["violations"][0]["rule"] == "enum"

    def test_write_read_only_property(self):
        with running_server([fixture_text("thermostat.td.json")]) as handle:
            reply = requests.put(
                f"{handle.base_url}/Thermostat-42/properties/temperature",
                json=20.5, timeout=TIMEOUT)
        assert reply.status_code == 405
        assert reply.headers["Allow"] == "GET"

    def test_write_malformed_body(self, coffee_text):
        with running_server([coffee_text]) as handle:
            reply = requests.put(
                f"{handle.base_url}/Coffee-Machine/properties/state",
                data=b"{not json",
                headers={"Content-Type": "application/json"}, timeout=TIMEOUT)
        assert reply.status_code == 400
        assert "error" in reply.json()

    def test_write_wrong_media_type(self, coffee_text):
        with running_server([coffee_text]) as handle:
            reply = requests.put(
                f"{handle.base_url}/Coffee-Machine/properties/state",
                data=b"Brewing", headers={"Content-Type": "text/plain"},
                timeout=TIMEOUT)
        assert reply.status_code == 415

    def test_unknown_property_404(self, coffee_text):
        with running_server([coffee_text]) as handle:
            got = requests.get(
                f"{handle.base_url}/Coffee-Machine/properties/pressure",
                timeout=TIMEOUT)
            put = requests.put(
                f"{handle.base_url}/Coffee-Machine/properties/pressure",
                json=1, timeout=TIMEOUT)
        assert got.status_code == 404
        assert put.status_code == 404


class TestActionRoutes:
    def test_invoke_without_output(self, coffee_text):
        with running_server([coffee_text]) as handle:
            reply = requests.post(
                f"{handle.base_url}/Coffee-Machine/actions/brew",
                json="espresso", timeout=TIMEOUT)
        assert reply.status_code == 204
        assert reply.content == b""

    def test_invoke_with_output(self):
        with running_server([fixture_text("dice-box.td.json")], seed=7) as handle:
            reply = requests.post(f"{handle.base_url}/Dice-Box/actions/roll",
                                  timeout=TIMEOUT)
        assert reply.status_code == 200
        assert reply.json() in [1, 2, 3, 4, 5, 6]

    def test_invoke_rejects_bad_input(self, coffee_text):
        with running_server([coffee_text]) as handle:
            bad = requests.post(f"{handle.base_url}/Coffee-Machine/actions/brew",
                                json="latte", timeout=TIMEOUT)
            missing = requests.post(
                f"{handle.base_url}/Coffee-Machine/actions/brew", timeout=TIMEOUT)
        assert bad.status_code == 400
        assert bad.json()["violations"]
        assert missing.status_code == 400
        assert missing.json()["violations"]

    def test_unknown_action_404(self, coffee_text):
        with running_server([coffee_text]) as handle:
            reply = requests.post(
                f"{handle.base_url}/Coffee-Machine/actions/grind",
                json="x", timeout=TIMEOUT)
        assert reply.status_code == 404

    def test_get_on_action_is_not_found(self, coffee_text):
        with running_server([coffee_text]) as handle:
            reply = requests.get(f"{handle.base_url}/Coffee-Machine/actions/brew",
                                 timeout=TIMEOUT)
        assert reply.status_code == 405
        assert reply.headers["Allow"] == "POST"


class TestEventRoutes:
    def test_stream_delivers_messages(self, coffee_text):
        with running_server([coffee_text], seed=3,
                            event_mode=EventMode.fixed(0.2)) as handle:
            reply = requests.get(f"{handle.base_url}/Coffee-Machine/events/error",
                                 headers={"Accept": "text/event-stream"},
                                 stream=True, timeout=(TIMEOUT, 5))
            assert reply.status_code == 200
            assert reply.headers["Content-Type"].startswith("text/event-stream")
            payloads = []
            for line in reply.iter_lines():
                if line.startswith(b"data:"):
                    payloads.append(json.loads(line[5:]))
                    if len(payloads) == 3:
                        break
            reply.close()
        assert len(payloads) == 3
        assert all(isinstance(p, str) for p in payloads)

    def test_two_subscribers_see_the_same_events(self, coffee_text):
        def collect(base_url, out):
            reply = requests.get(f"{base_url}/Coffee-Machine/events/error",
                                 headers={"Accept": "text/event-stream"},
                                 stream=True, timeout=(TIMEOUT, 5))
            for line in reply.iter_lines():
                if line.startswith(b"data:"):
                    out.append(json.loads(line[5:]))
                    if len(out) == 3:
                        break
            reply.close()

        with running_server([coffee_text], seed=3,
                            event_mode=EventMode.fixed(0.2)) as handle:
            first, second = [], []
            threads = [
                threading.Thread(target=collect, args=(handle.base_url, first)),
                threading.Thread(target=collect, args=(handle.base_url, second)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=8)
        assert len(first) == len(second) == 3
        # Late joiners may miss leading emissions, so compare the overlap.
        assert first[-1] in second or second[-1] in first

    def test_not_acceptable_without_event_stream(self, coffee_text):
        with running_server([coffee_text]) as handle:
            reply = requests.get(f"{handle.base_url}/Coffee-Machine/events/error",
                                 headers={"Accept": "application/json"},
                                 timeout=TIMEOUT)
        assert reply.status_code == 406

    def test_unknown_event_404(self, coffee_text):
        with running_server([coffee_text]) as handle:
            reply = requests.get(
                f"{handle.base_url}/Coffee-Machine/events/overheat",
                headers={"Accept": "text/event-stream"}, timeout=TIMEOUT)
        assert reply.status_code == 404


class TestServerLifecycle:
    def test_multiple_things_one_port(self, coffee_text):
        texts = [coffee_text, fixture_text("thermostat.td.json")]
        with running_server(texts) as handle:
            coffee = requests.get(f"{handle.base_url}/Coffee-Machine",
                                  timeout=TIMEOUT)
            thermo = requests.get(f"{handle.base_url}/Thermostat-42",
                                  timeout=TIMEOUT)
        assert coffee.status_code == thermo.status_code == 200
        assert coffee.json()["title"] == "Coffee-Machine"
        assert thermo.json()["title"] == "Thermostat-42"

    def test_percent_encoded_thing_segment(self):
        with running_server([fixture_text("sensor-hub.td.json")], seed=1) as handle:
            reply = requests.get(
                f"{handle.base_url}/Sensor%20Hub/properties/online",
                timeout=TIMEOUT)
        assert reply.status_code == 200
        assert reply.json() in [True, False]

    def test_duplicate_titles_rejected(self, coffee_text):
        config = ServientConfig(port=free_port(), event_mode=EventMode.none())
        things = [VirtualThing(parse_td(coffee_text), config),
                  VirtualThing(parse_td(coffee_text), config)]
        with pytest.raises(DuplicateThingName):
            serve(things, config)

    def test_occupied_port_raises_bind_failure(self, coffee_text):
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            config = ServientConfig(port=port, event_mode=EventMode.none())
            with pytest.raises(BindFailure):
                serve([VirtualThing(parse_td(coffee_text), config)], config)
        finally:
            blocker.close()

    def test_stop_terminates_event_streams(self, coffee_text):
        with running_server([coffee_text], seed=3,
                            event_mode=EventMode.fixed(0.2)) as handle:
            reply = requests.get(f"{handle.base_url}/Coffee-Machine/events/error",
                                 headers={"Accept": "text/event-stream"},
                                 stream=True, timeout=(TIMEOUT, 5))
            stopper = threading.Timer(0.7, handle.stop)
            stopper.start()
            seen = sum(1 for line in reply.iter_lines()
                       if line.startswith(b"data:"))
            stopper.join()
        assert seen >= 1

    def test_connect_burst_is_not_dropped(self):
        # A connect refused by a full listen backlog is retried by the client's
        # kernel after 1 s, so a slow connect means the backlog overflowed.
        with running_server([fixture_text("thermostat.td.json")], seed=4,
                            event_mode=EventMode.fixed(0.005)) as handle:
            address = ("127.0.0.1", handle.port)
            sockets, connect_s = [], []
            try:
                for _ in range(10):  # busy event streams hold the servient's threads
                    stream = socket.create_connection(address, timeout=TIMEOUT)
                    sockets.append(stream)
                    stream.sendall(b"GET /Thermostat-42/events/alarm HTTP/1.1\r\n"
                                   b"Host: x\r\nAccept: text/event-stream\r\n\r\n")
                    assert stream.recv(64).startswith(b"HTTP/1.1 200")
                for _ in range(40):
                    started = time.monotonic()
                    sockets.append(socket.create_connection(address, timeout=TIMEOUT))
                    connect_s.append(time.monotonic() - started)
            finally:
                for sock in sockets:
                    sock.close()
        assert max(connect_s) < 0.5

    def test_concurrent_reads_are_all_served(self):
        with running_server([fixture_text("thermostat.td.json")],
                            seed=4) as handle:
            results = []

            def fetch(name):
                url = f"{handle.base_url}/Thermostat-42/properties/{name}"
                results.append(requests.get(url, timeout=TIMEOUT).status_code)

            threads = [threading.Thread(target=fetch, args=(name,))
                       for name in ("temperature", "setpoint", "mode") * 3]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=8)
        assert results == [200] * 9


# --- one request path --------------------------------------------------------

NUMBER_TD = json.dumps({
    "title": "Meter",
    "properties": {"level": {"type": "number", "forms": [{"href": "/p"}]}},
    "actions": {"adjust": {"input": {"type": "number"}, "forms": [{"href": "/a"}]}},
})

# JSON numbers a double cannot hold: the constants, exponents past its range in
# each spelling, and a float whose integer part alone overflows.
NON_FINITE_LITERALS = ["NaN", "-Infinity", "1e999", "-1E400", "1e+0400", "1" * 400 + ".5"]

WIDE = {"type": "number", "minimum": -1e308, "maximum": 1e308}
WIDE_TD = json.dumps({
    "title": "Wide",
    "properties": {"span": dict(WIDE, forms=[{"href": "/p"}])},
    "actions": {"spread": {"output": WIDE, "forms": [{"href": "/a"}]}},
})


def raw_exchange(port: int, request: bytes, timeout: float = TIMEOUT) -> bytes:
    """Send raw request bytes and read the answer until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(request)
        answer = b""
        while chunk := sock.recv(65536):
            answer += chunk
    return answer


def status_and_body(answer: bytes) -> tuple[int, dict]:
    head, _, body = answer.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(body)


class TestNonFiniteNumbers:
    def test_overflowing_number_rejected_and_reads_stay_json(self):
        with running_server([NUMBER_TD]) as handle:
            url = f"{handle.base_url}/Meter/properties/level"
            put = requests.put(url, data=b"1e999", timeout=TIMEOUT,
                               headers={"Content-Type": "application/json"})
            single = requests.get(url, timeout=TIMEOUT)
            everything = requests.get(f"{handle.base_url}/Meter/properties",
                                      timeout=TIMEOUT)
        assert put.status_code == 400
        assert "error" in put.json()
        assert single.status_code == 200 and everything.status_code == 200

    @pytest.mark.parametrize("literal", NON_FINITE_LITERALS)
    def test_literal_is_refused_on_both_body_routes(self, literal):
        # The action route never encodes its input, so only the decoder can
        # refuse a non-finite number there.
        headers = {"Content-Type": "application/json"}
        with running_server([NUMBER_TD]) as handle:
            put = requests.put(f"{handle.base_url}/Meter/properties/level",
                               data=literal.encode(), headers=headers, timeout=TIMEOUT)
            post = requests.post(f"{handle.base_url}/Meter/actions/adjust",
                                 data=literal.encode(), headers=headers, timeout=TIMEOUT)
        assert (put.status_code, post.status_code) == (400, 400)
        assert "malformed JSON" in put.json()["error"] and "malformed JSON" in post.json()["error"]

    def test_range_wider_than_a_double_is_served(self):
        with running_server([WIDE_TD], seed=3) as handle:
            answers = [requests.get(f"{handle.base_url}/Wide/properties/span", timeout=TIMEOUT),
                       requests.get(f"{handle.base_url}/Wide/properties", timeout=TIMEOUT),
                       requests.post(f"{handle.base_url}/Wide/actions/spread", timeout=TIMEOUT)]
        assert [answer.status_code for answer in answers] == [200, 200, 200]
        values = [answers[0].json(), answers[1].json()["span"], answers[2].json()]
        assert all(-1e308 <= value <= 1e308 for value in values)


NOTE_TD = json.dumps({
    "title": "Notebook",
    "properties": {"note": {"type": "object", "forms": [{"href": "/p"}], "properties": {
        "text": {"type": "string"},
        "tags": {"type": "array", "items": {"type": "string"}},
        "level": {"type": "number"},
    }}},
})


class TestWrittenValues:
    def test_get_serves_the_value_as_encoded_when_written(self, monkeypatch):
        value = {"text": "crème brûlée ✓", "tags": ["ü", "\u2028"], "level": 0.1}
        calls = {"dumps": 0, "deepcopy": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        with running_server([NOTE_TD]) as handle:
            url = f"{handle.base_url}/Notebook/properties/note"
            put = requests.put(url, data=json.dumps(value).encode(), timeout=TIMEOUT,
                               headers={"Content-Type": "application/json"})
            counted(json, "dumps")
            counted(copy, "deepcopy")
            got = requests.get(url, timeout=TIMEOUT)
        assert put.status_code == 204 and got.status_code == 200
        assert calls == {"dumps": 0, "deepcopy": 0}
        assert got.content == json.dumps(value, ensure_ascii=False,
                                         allow_nan=False).encode("utf-8")

    def test_lone_surrogate_write_is_refused_and_reads_stay_json(self):
        with running_server([NOTE_TD]) as handle:
            url = f"{handle.base_url}/Notebook/properties/note"
            put = requests.put(url, data=b'{"text": "\\ud800"}', timeout=TIMEOUT,
                               headers={"Content-Type": "application/json"})
            got = requests.get(url, timeout=TIMEOUT)
        assert put.status_code == 400
        assert "'note'" in put.json()["error"]
        assert got.status_code == 200

    def test_library_nan_write_is_refused_and_reads_stay_json(self):
        with running_server([fixture_text("thermostat.td.json")]) as handle:
            url = f"{handle.base_url}/Thermostat-42/properties/setpoint"
            requests.put(url, json=12.5, timeout=TIMEOUT)
            with pytest.raises(InvalidValue, match="'setpoint'"):
                handle.things[0].write_property("setpoint", float("nan"))
            got = requests.get(url, timeout=TIMEOUT)
        assert got.status_code == 200 and got.content == b"12.5"


class TestDeepNesting:
    LIST_TD = json.dumps({
        "title": "Shelf",
        "properties": {"stack": {"type": "array", "forms": [{"href": "/p"}]}},
    })

    def put_nested(self, handle, levels):
        url = f"{handle.base_url}/Shelf/properties/stack"
        put = requests.put(url, data="[" * levels + "]" * levels, timeout=TIMEOUT,
                           headers={"Content-Type": "application/json"})
        return put, requests.get(url, timeout=TIMEOUT)

    @pytest.mark.parametrize("levels", [900, 5000, 100000])
    def test_too_deep_body_is_400_and_reads_still_work(self, levels):
        with running_server([self.LIST_TD]) as handle:
            put, get = self.put_nested(handle, levels)
        assert put.status_code == 400
        assert "nested deeper" in put.json()["error"]
        assert get.status_code == 200

    def test_body_at_the_cap_is_stored(self):
        with running_server([self.LIST_TD]) as handle:
            put, get = self.put_nested(handle, MAX_JSON_DEPTH)
        assert put.status_code == 204
        assert get.status_code == 200
        assert get.text.count("[") == MAX_JSON_DEPTH


class TestRequestFraming:
    PUT_HEAD = (b"PUT /Coffee-Machine/properties/state HTTP/1.1\r\n"
                b"Host: x\r\nContent-Type: application/json\r\n")

    @pytest.mark.parametrize("length", [b"abc", b"-1", b"1.5", b"9\r\nContent-Length: 7"])
    def test_bad_content_length_is_400(self, coffee_text, length):
        with running_server([coffee_text]) as handle:
            answer = raw_exchange(handle.port, self.PUT_HEAD + b"Content-Length: "
                                  + length + b"\r\n\r\n\"Brewing\"")
        status, body = status_and_body(answer)
        assert status == 400 and "Content-Length" in body["error"]

    # Framing is decided once, before any route: a route that reads no body
    # gets the same 400 as one that does (RFC 9112 section 6.3).
    @pytest.mark.parametrize("method,path,content_type", [
        ("GET", "/Coffee-Machine/properties/state", "application/json"),
        ("GET", "/Nowhere", "application/json"),
        ("PUT", "/Coffee-Machine/properties/state", "text/plain"),
    ], ids=["GET", "not-found", "wrong-media-type"])
    def test_bad_content_length_is_400_on_any_route(self, coffee_servient, method, path,
                                                    content_type):
        answer = raw_exchange(coffee_servient.port,
                              f"{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Type: "
                              f"{content_type}\r\nContent-Length: abc\r\n\r\n".encode())
        assert closes_then_eof(answer) == 400
        assert "Content-Length" in status_and_body(answer)[1]["error"]

    def test_oversized_body_is_413_without_reading_it(self, coffee_text):
        with running_server([coffee_text]) as handle:
            answer = raw_exchange(handle.port, self.PUT_HEAD + b"Content-Length: "
                                  + str(server.MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n")
        status, body = status_and_body(answer)
        assert status == 413 and "error" in body

    def test_request_body_after_interim_continue(self, coffee_text):
        head = self.PUT_HEAD + b"Content-Length: 9\r\nExpect: 100-continue\r\n\r\n"
        with running_server([coffee_text]) as handle, \
                socket.create_connection(("127.0.0.1", handle.port), timeout=TIMEOUT) as sock, \
                sock.makefile("rb") as reader:
            sock.sendall(head)
            interim = reader.readline() + reader.readline()
            sock.sendall(b'"Brewing"')
            status, headers, _ = read_response(reader)
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        assert status == 204 and "connection" not in headers

    def test_short_body_times_out_without_a_500(self, coffee_text, monkeypatch, caplog):
        monkeypatch.setattr(server, "TIMEOUT_SECONDS", 0.2)
        with running_server([coffee_text]) as handle:
            started = time.monotonic()
            answer = raw_exchange(handle.port, self.PUT_HEAD
                                  + b"Content-Length: 10\r\n\r\n\"Bre", timeout=3)
            elapsed = time.monotonic() - started
        assert answer == b""
        assert elapsed < 1.0
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


# --- persistent connections ---------------------------------------------------

def http_request(method: str, path: str, value=None, **headers) -> bytes:
    """Request bytes; a JSON body when value is given."""
    head = f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
    body = b""
    if value is not None:
        body = json.dumps(value).encode("utf-8")
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    for name, text in headers.items():
        head += f"{name.replace('_', '-')}: {text}\r\n"
    return head.encode("ascii") + b"\r\n" + body


def read_response(reader) -> tuple[int, dict, bytes]:
    """Read one Content-Length framed response from a socket's file."""
    status_line = reader.readline()
    if not status_line:
        raise EOFError("the server closed the connection")
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", "0")))
    return int(status_line.split(b" ", 2)[1]), headers, body


def closes_then_eof(answer: bytes) -> int:
    """The status of the only response in `answer`, which must say close."""
    assert answer.count(b"HTTP/1.1 ") == 1, answer
    head = answer.partition(b"\r\n\r\n")[0]
    assert b"\r\nConnection: close" in head
    return int(head.split(b" ", 2)[1])


class TestPersistentConnections:
    def test_one_connection_carries_every_kind_of_exchange(self, coffee_text):
        texts = [coffee_text, fixture_text("thermostat.td.json")]
        state = "/Coffee-Machine/properties/state"
        exchanges = [  # (request, expected status, check of the body)
            (http_request("GET", "/Coffee-Machine"), 200,
             lambda body: json.loads(body)["title"] == "Coffee-Machine"),
            (http_request("GET", state), 200,
             lambda body: json.loads(body) in ["Ready", "Brewing", "Error"]),
            (http_request("PUT", state, "Brewing"), 204, lambda body: body == b""),
            (http_request("POST", "/Coffee-Machine/actions/brew", "espresso"), 204,
             lambda body: body == b""),
            (http_request("GET", "/Coffee-Machine/properties/pressure"), 404,
             lambda body: "error" in json.loads(body)),
            (http_request("PUT", state, "Latte"), 400,
             lambda body: json.loads(body)["violations"][0]["rule"] == "enum"),
            (http_request("PUT", "/Thermostat-42/properties/temperature", 20.5), 405,
             lambda body: "error" in json.loads(body)),
            (http_request("GET", state), 200, lambda body: json.loads(body) == "Brewing"),
        ]
        with running_server(texts, seed=1) as handle, \
                socket.create_connection(("127.0.0.1", handle.port), timeout=TIMEOUT) as sock, \
                sock.makefile("rb") as reader:
            for request, expected, body_ok in exchanges:
                sock.sendall(request)
                status, headers, body = read_response(reader)
                assert (status, body_ok(body)) == (expected, True), request
                assert "connection" not in headers, request

    def test_hundred_reads_on_one_connection_do_not_stall(self, coffee_text):
        # With the status line and the body sent apart, each response waits
        # on Nagle and the client's delayed ACK: 40 ms or more a request.
        request = http_request("GET", "/Coffee-Machine/properties/state")
        with running_server([coffee_text]) as handle, \
                socket.create_connection(("127.0.0.1", handle.port), timeout=TIMEOUT) as sock, \
                sock.makefile("rb") as reader:
            started = time.monotonic()
            statuses = []
            for _ in range(100):
                sock.sendall(request)
                statuses.append(read_response(reader)[0])
            elapsed = time.monotonic() - started
        assert statuses == [200] * 100
        assert elapsed < 2.0

    def test_pipelined_burst_leaves_other_connections_their_turn(self, coffee_text,
                                                                 monkeypatch):
        # One connection is answered REQUESTS_PER_TURN requests at a time, so a
        # burst of a thousand holds up another connection for a turn, not for
        # all of them.
        order, b_sent = [], threading.Event()
        dispatch = server._Connection._dispatch

        def recorded(connection):
            order.append(connection.sock.getpeername())
            if len(order) == 3:  # the burst's first request: b sends while it waits
                b_sent.wait(TIMEOUT)
            return dispatch(connection)

        monkeypatch.setattr(server._Connection, "_dispatch", recorded)
        one = http_request("GET", "/Coffee-Machine/properties/state")
        every = http_request("GET", "/Coffee-Machine/properties")
        with running_server([coffee_text]) as handle, \
                socket.create_connection(("127.0.0.1", handle.port), timeout=TIMEOUT) as a, \
                socket.create_connection(("127.0.0.1", handle.port), timeout=TIMEOUT) as b, \
                a.makefile("rb") as a_reader, b.makefile("rb") as b_reader:
            for sock, reader in ((a, a_reader), (b, b_reader)):
                sock.sendall(one)
                assert read_response(reader)[0] == 200
            a.sendall((one + every) * 500)
            b.sendall(one)
            b_sent.set()
            burst = [read_response(a_reader) for _ in range(1000)]
            assert read_response(b_reader)[0] == 200
            a_name, b_name = a.getsockname(), b.getsockname()
        b_again = order.index(b_name, 2)
        assert order[2:b_again] == [a_name] * (b_again - 2)
        assert b_again - 2 <= 2 * server.REQUESTS_PER_TURN
        assert {status for status, _, _ in burst} == {200}
        # In order: a lone property's value, then the object of every property.
        assert [type(json.loads(body)) for _, _, body in burst] == [str, dict] * 500

    def test_failure_in_a_later_turn_closes_its_connection_alone(self, coffee_text,
                                                                 monkeypatch):
        parsed = []

        def fields(block, original=server._fields):
            parsed.append(block)
            if len(parsed) == server.REQUESTS_PER_TURN + 2:  # in the burst's second turn
                raise RuntimeError("parser exploded")
            return original(block)

        monkeypatch.setattr(server, "_fields", fields)
        request = http_request("GET", "/Coffee-Machine/properties/state")
        with running_server([coffee_text]) as handle:
            answer = raw_exchange(handle.port, request * 20)
            other = raw_exchange(handle.port, http_request("GET", "/Coffee-Machine",
                                                           Connection="close"))
        assert answer.count(b"HTTP/1.1 200 OK\r\n") == server.REQUESTS_PER_TURN + 1
        assert closes_then_eof(other) == 200

    # A request hidden in the body must never be answered as a request.
    SMUGGLED = b"GET /Coffee-Machine HTTP/1.1\r\nHost: x\r\n\r\n"

    @pytest.mark.parametrize("path,media,status", [
        ("/Tea-Kettle/properties/state", "application/json", 404),
        ("/Coffee-Machine/properties/state", "text/plain", 415),
    ])
    def test_response_before_the_body_is_read_closes(self, coffee_text, path, media,
                                                      status):
        request = http_request("PUT", path, Content_Type=media,
                               Content_Length=len(self.SMUGGLED)) + self.SMUGGLED
        with running_server([coffee_text]) as handle:
            answer = raw_exchange(handle.port, request + http_request("GET", "/Coffee-Machine"))
        assert closes_then_eof(answer) == status

    def test_close_asked_by_the_client_is_confirmed(self, coffee_text):
        request = http_request("GET", "/Coffee-Machine")
        with running_server([coffee_text]) as handle:
            answer = raw_exchange(handle.port, http_request(
                "GET", "/Coffee-Machine", Connection="close") + request)
        assert closes_then_eof(answer) == 200

    def test_server_error_closes(self, coffee_text, monkeypatch):
        def broken_read(self, name):
            raise RuntimeError("store exploded")

        monkeypatch.setattr(VirtualThing, "read_property_json", broken_read)
        request = http_request("GET", "/Coffee-Machine/properties/state")
        with running_server([coffee_text]) as handle:
            answer = raw_exchange(handle.port, request + request)
        assert closes_then_eof(answer) == 500

    def test_transfer_encoded_bodies_are_refused(self, coffee_text):
        texts = [coffee_text, fixture_text("dice-box.td.json")]
        state = "/Coffee-Machine/properties/state"
        with running_server(texts, seed=1) as handle:
            requests.put(handle.base_url + state, json="Ready", timeout=TIMEOUT)
            chunked = b'9\r\n"Brewing"\r\n0\r\n\r\n'
            refused = [
                raw_exchange(handle.port, http_request(
                    "PUT", state, Content_Type="application/json",
                    Transfer_Encoding="chunked") + chunked + self.SMUGGLED),
                raw_exchange(handle.port, http_request(
                    "POST", "/Dice-Box/actions/roll",
                    Transfer_Encoding="chunked") + b"0\r\n\r\n" + self.SMUGGLED),
            ]
            after = requests.get(handle.base_url + state, timeout=TIMEOUT).json()
        assert [closes_then_eof(answer) for answer in refused] == [501, 501]
        assert after == "Ready"

    def test_http_1_0_closes_by_default(self, coffee_text):
        request = b"GET /Coffee-Machine HTTP/1.0\r\n\r\n"
        with running_server([coffee_text]) as handle:
            answer = raw_exchange(handle.port, request + request)
        assert closes_then_eof(answer) == 200

    def test_http_1_0_keeps_alive_when_asked(self, coffee_text):
        request = b"GET /Coffee-Machine HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        with running_server([coffee_text]) as handle, \
                socket.create_connection(("127.0.0.1", handle.port), timeout=TIMEOUT) as sock, \
                sock.makefile("rb") as reader:
            answers = []
            for _ in range(2):
                sock.sendall(request)
                answers.append(read_response(reader)[:2])
        assert [status for status, _ in answers] == [200, 200]
        assert all("connection" not in headers for _, headers in answers)

    def test_idle_connection_is_released(self, coffee_text, monkeypatch):
        monkeypatch.setattr(server, "TIMEOUT_SECONDS", 0.2)
        with running_server([coffee_text]) as handle:
            before = open_connections(handle)
            with socket.create_connection(("127.0.0.1", handle.port),
                                          timeout=TIMEOUT) as sock, \
                    sock.makefile("rb") as reader:
                sock.sendall(http_request("GET", "/Coffee-Machine"))
                assert read_response(reader)[0] == 200
                assert wait_for(lambda: open_connections(handle) <= before, 1.0)
                assert reader.read() == b""

    def test_stop_ends_kept_alive_connections(self, coffee_text):
        request = http_request("GET", "/Coffee-Machine")
        with running_server([coffee_text]) as handle:
            before = open_connections(handle)
            with socket.create_connection(("127.0.0.1", handle.port),
                                          timeout=TIMEOUT) as sock, \
                    sock.makefile("rb") as reader:
                sock.sendall(request)
                assert read_response(reader)[0] == 200
                handle.stop()
                try:
                    sock.sendall(request)
                    answer = reader.read()
                except ConnectionError:  # a reset is an end as well
                    answer = b""
            assert answer == b""
            assert wait_for(lambda: open_connections(handle) <= before, 1.0)


# --- the request head ---------------------------------------------------------

# Heads refused before any route is looked up, with their status. Each ends
# where its refusal is decided, so the servient has read every byte sent when
# it closes, and the client reads the answer instead of a reset.
REFUSED_HEADS = {
    "request line over 64 KiB": (b"GET /" + b"a" * 65532, 414),
    "header line over 64 KiB": (b"GET / HTTP/1.1\r\nX: " + b"a" * 65534, 431),
    "101 header lines": (b"GET / HTTP/1.1\r\n" + b"X: a\r\n" * 101, 431),
    "four-word request line": (b"GET / x HTTP/1.1\r\n", 400),
    "one-word request line": (b"GET\r\n", 400),
    "bad version": (b"GET / HTTP/1.x\r\n", 400),
    "HTTP/2": (b"GET / HTTP/2.0\r\n", 505),
}


@pytest.mark.parametrize("head,status", REFUSED_HEADS.values(), ids=REFUSED_HEADS)
def test_refused_head_closes(coffee_servient, head, status):
    assert closes_then_eof(raw_exchange(coffee_servient.port, head)) == status


@pytest.mark.parametrize("head,status", REFUSED_HEADS.values(), ids=REFUSED_HEADS)
def test_refused_head_answers_a_json_error(coffee_servient, head, status):
    answer = raw_exchange(coffee_servient.port, head)
    assert b"\r\nContent-Type: application/json\r\n" in answer.partition(b"\r\n\r\n")[0]
    assert status_and_body(answer)[0] == status
    assert set(status_and_body(answer)[1]) == {"error"}


def test_head_sent_line_by_line_is_read_once(coffee_servient, monkeypatch):
    reads = []
    for name in ("_request_line", "_fields"):  # the head's two parse steps
        def counted(data, name=name, original=getattr(server, name)):
            if data:  # not the client's close, read as an empty request line
                reads.append(name)
            return original(data)

        monkeypatch.setattr(server, name, counted)
    lines = ([b"GET /Coffee-Machine HTTP/1.1\r\n"]
             + [b"X-Line-%d: 1\r\n" % n for n in range(48)] + [b"\r\n"])
    with socket.create_connection(("127.0.0.1", coffee_servient.port),
                                  timeout=TIMEOUT) as sock, sock.makefile("rb") as reader:
        for line in lines:  # each line in a read of its own
            sock.sendall(line)
            time.sleep(0.002)
        status = read_response(reader)[0]
    assert (len(lines), status) == (50, 200)
    assert reads == ["_request_line", "_fields"]


def test_malformed_header_line_is_refused_when_its_head_ends(coffee_servient):
    with socket.create_connection(("127.0.0.1", coffee_servient.port),
                                  timeout=TIMEOUT) as sock:
        sock.sendall(b"GET /Coffee-Machine HTTP/1.1\r\nno colon\r\n")
        sock.settimeout(0.3)
        with pytest.raises(TimeoutError):  # not refused while its head is unfinished
            sock.recv(65536)
        sock.settimeout(TIMEOUT)
        sock.sendall(b"\r\n")
        answer = b""
        while chunk := sock.recv(65536):
            answer += chunk
    assert closes_then_eof(answer) == 400
    assert "malformed header line" in status_and_body(answer)[1]["error"]


def read_head(reader) -> bytes:
    """The raw head of the next response, blank line included."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        line = reader.readline()
        if not line:
            raise EOFError("the server closed the connection")
        head += line
    return head


def exchange_heads(port: int, requests_: list) -> list[tuple[bytes, bytes]]:
    """(head with its Date value starred, body) of each request's response on
    one connection; a response without Content-Length is read up to its head."""
    answers = []
    with socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT) as sock, \
            sock.makefile("rb") as reader:
        for request in requests_:
            sock.sendall(request)
            head = read_head(reader)
            date = re.search(rb"\r\nDate: ([^\r]*)\r\n", head).group(1)
            assert email.utils.parsedate_to_datetime(date.decode()).tzname() == "UTC"
            length = re.search(rb"\r\nContent-Length: (\d+)\r\n", head)
            has_body = length and not request.startswith(b"HEAD ")
            body = reader.read(int(length.group(1))) if has_body else b""
            answers.append((head.replace(date, b"*"), body))
    return answers


def test_response_heads_are_pinned(coffee_servient):
    state = "/Coffee-Machine/properties/state"
    requests_ = [
        http_request("PUT", state, "Brewing"),
        http_request("GET", state),
        http_request("PUT", state, "Latte"),
        http_request("GET", "/Tea-Kettle"),
        http_request("DELETE", state),
        http_request("GET", "/Coffee-Machine/events/error", Accept="text/event-stream"),
    ]
    expected = [
        b"HTTP/1.1 204 No Content\r\nServer: wotsim/0.1\r\nDate: *\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nServer: wotsim/0.1\r\nDate: *\r\n"
        b"Content-Type: application/json\r\nContent-Length: 9\r\n\r\n",
        b"HTTP/1.1 400 Bad Request\r\nServer: wotsim/0.1\r\nDate: *\r\n"
        b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n",
        b"HTTP/1.1 404 Not Found\r\nServer: wotsim/0.1\r\nDate: *\r\n"
        b"Content-Type: application/json\r\nContent-Length: 22\r\n\r\n",
        b"HTTP/1.1 405 Method Not Allowed\r\nServer: wotsim/0.1\r\nDate: *\r\n"
        b"Content-Type: application/json\r\nContent-Length: 39\r\nAllow: GET, PUT\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nServer: wotsim/0.1\r\nDate: *\r\n"
        b"Content-Type: text/event-stream\r\nCache-Control: no-cache\r\n"
        b"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
    ]
    answers = exchange_heads(coffee_servient.port, requests_)
    expected[2] %= len(answers[2][1])
    assert [head for head, _ in answers] == expected
    assert (answers[1][1], answers[3][1]) == (b'"Brewing"', b'{"error": "not found"}')


def test_kept_alive_requests_do_not_parse_headers_as_email(coffee_servient, monkeypatch):
    calls = []

    def counted(owner, name):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, **kw: calls.append(name) or original(*args, **kw))

    counted(http.client, "parse_headers")
    counted(email.feedparser.FeedParser, "feed")
    state = "/Coffee-Machine/properties/state"
    answers = exchange_heads(coffee_servient.port, [
        http_request("GET", state, Accept="*/*", User_Agent="t", Accept_Encoding="gzip"),
        http_request("PUT", state, "Ready"),
        http_request("GET", state),
    ])
    assert [head.split(b" ", 2)[1] for head, _ in answers] == [b"200", b"204", b"200"]
    assert calls == []


# Requests whose method no route takes, on a path that some route takes, and
# the methods that path takes.
NOT_ALLOWED = [
    ("DELETE", "/Coffee-Machine/properties/state", b"GET, PUT"),
    ("PATCH", "/Coffee-Machine/properties/state", b"GET, PUT"),
    ("DELETE", "/Coffee-Machine", b"GET"),
    ("OPTIONS", "/Coffee-Machine/properties", b"GET"),
    ("DELETE", "/Coffee-Machine/actions/brew", b"POST"),
    ("HEAD", "/Coffee-Machine/events/error", b"GET"),
    ("HEAD", "/Coffee-Machine/properties/state", b"GET, PUT"),
]


@pytest.mark.parametrize("method,path,allow", NOT_ALLOWED)
def test_method_no_route_takes_is_405_with_allow(coffee_servient, method, path, allow):
    (head, body), (after, _) = exchange_heads(
        coffee_servient.port, [http_request(method, path), http_request("GET", "/Coffee-Machine")])
    assert head.startswith(b"HTTP/1.1 405 Method Not Allowed\r\n")
    assert b"\r\nAllow: " + allow + b"\r\n" in head
    assert b"Connection" not in head and after.startswith(b"HTTP/1.1 200 ")
    if method == "HEAD":
        assert body == b"" and b"\r\nContent-Length: " in head
    else:
        assert json.loads(body) == {"error": f"{method} is not allowed here"}


@pytest.mark.parametrize("path", ["/Tea-Kettle/properties/state", "/Coffee-Machine/other/state",
                                  "/Coffee-Machine/properties/state/extra", "/"])
def test_method_no_route_takes_is_404_off_the_routes(coffee_servient, path):
    ((head, body),) = exchange_heads(coffee_servient.port, [http_request("DELETE", path)])
    assert head.startswith(b"HTTP/1.1 404 ") and json.loads(body) == {"error": "not found"}


def test_leading_slashes_collapse(coffee_servient):
    with socket.create_connection(("127.0.0.1", coffee_servient.port),
                                  timeout=TIMEOUT) as sock, sock.makefile("rb") as reader:
        sock.sendall(http_request("GET", "//Coffee-Machine"))
        status, _, body = read_response(reader)
        sock.sendall(http_request("GET", "///Coffee-Machine/properties/state"))
        state = read_response(reader)
    assert status == 200 and json.loads(body)["title"] == "Coffee-Machine"
    assert state[0] == 200 and json.loads(state[2]) in ["Ready", "Brewing", "Error"]


# Every (method, path) pair below that is not one of the six routes.
ROUTED = {
    ("GET", "/Coffee-Machine"),
    ("GET", "/Coffee-Machine/properties"),
    ("GET", "/Coffee-Machine/properties/state"),
    ("PUT", "/Coffee-Machine/properties/state"),
    ("POST", "/Coffee-Machine/actions/brew"),
    ("GET", "/Coffee-Machine/events/error"),
}
PATH_SHAPES = [
    "/",
    "/Coffee-Machine",
    "/Coffee-Machine/properties",
    "/Coffee-Machine/actions",
    "/Coffee-Machine/events",
    "/Coffee-Machine/other",
    "/Coffee-Machine/properties/state",
    "/Coffee-Machine/actions/brew",
    "/Coffee-Machine/events/error",
    "/Coffee-Machine/other/state",
    "/Coffee-Machine/properties/state/extra",
    "/Tea-Kettle/properties/state",
]
UNROUTED = [(method, path) for method in ("GET", "PUT", "POST")
            for path in PATH_SHAPES if (method, path) not in ROUTED]
# Those of them on a path of a known Thing whose shape a route takes with
# another method, and the methods that path takes: 405, not 404.
NOT_ALLOWED_HERE = {
    ("PUT", "/Coffee-Machine"): "GET",
    ("POST", "/Coffee-Machine"): "GET",
    ("PUT", "/Coffee-Machine/properties"): "GET",
    ("POST", "/Coffee-Machine/properties"): "GET",
    ("POST", "/Coffee-Machine/properties/state"): "GET, PUT",
    ("GET", "/Coffee-Machine/actions/brew"): "POST",
    ("PUT", "/Coffee-Machine/actions/brew"): "POST",
    ("PUT", "/Coffee-Machine/events/error"): "GET",
    ("POST", "/Coffee-Machine/events/error"): "GET",
}


@pytest.fixture(scope="module")
def coffee_servient():
    with running_server([fixture_text("coffee-machine.td.json")]) as handle:
        yield handle


@pytest.mark.parametrize("method,path", UNROUTED)
def test_pairs_outside_the_route_table_are_not_found(coffee_servient, method, path):
    reply = requests.request(method, coffee_servient.base_url + path, json="Ready",
                             timeout=TIMEOUT)
    if (method, path) in NOT_ALLOWED_HERE:
        assert reply.status_code == 405
        assert reply.headers["Allow"] == NOT_ALLOWED_HERE[method, path]
        assert reply.json() == {"error": f"{method} is not allowed here"}
    else:
        assert reply.status_code == 404
        assert reply.json() == {"error": "not found"}


def test_td_body_is_serialized_once_per_thing(coffee_text, monkeypatch):
    with running_server([coffee_text]) as handle:
        calls = []

        def counting_serialize(*args, **kwargs):
            calls.append(args)
            return serialize_td(*args, **kwargs)

        monkeypatch.setattr(server, "serialize_td", counting_serialize)
        replies = [requests.get(f"{handle.base_url}/Coffee-Machine", timeout=TIMEOUT)
                   for _ in range(2)]
    assert [r.status_code for r in replies] == [200, 200]
    assert replies[0].content == replies[1].content
    assert calls == []


def test_stream_failure_after_headers_sends_no_error_document(coffee_text):
    with running_server([coffee_text]) as handle:
        thing = handle.things[0]
        with socket.create_connection(("127.0.0.1", handle.port),
                                      timeout=TIMEOUT) as sock:
            sock.sendall(b"GET /Coffee-Machine/events/error HTTP/1.1\r\nHost: x\r\n"
                         b"Accept: text/event-stream\r\n\r\n")
            answer = sock.recv(65536)
            while b"\r\n\r\n" not in answer:
                answer += sock.recv(65536)
            (subscription,) = thing._subscribers["error"]
            subscription._put(float("nan"))  # not encodable as JSON
            while chunk := sock.recv(65536):
                answer += chunk
    assert answer.startswith(b"HTTP/1.1 200")
    assert b"HTTP/1.1 500" not in answer
    assert b'"error"' not in answer


def test_failed_delivery_ends_its_streams_alone(coffee_text, caplog):
    with running_server([coffee_text]) as handle:
        address = ("127.0.0.1", handle.port)
        with socket.create_connection(address, timeout=TIMEOUT) as stream, \
                socket.create_connection(address, timeout=TIMEOUT) as other, \
                other.makefile("rb") as reader:
            stream.sendall(STREAM_REQUEST)
            assert stream.recv(65536).startswith(b"HTTP/1.1 200")
            other.sendall(http_request("GET", "/Coffee-Machine/properties/state"))
            assert read_response(reader)[0] == 200
            (subscriber,) = handle.things[0]._subscribers["error"]
            subscriber._put(float("nan"))  # not JSON text: its framing fails
            while stream.recv(65536):  # the stream ends
                pass
            other.sendall(http_request("GET", "/Coffee-Machine/properties/state"))
            status = read_response(reader)[0]
    assert status == 200
    assert [r for r in caplog.records if r.getMessage().startswith(
        "Coffee-Machine: delivering event 'error' failed")]


def test_server_tracebacks_go_through_logging(coffee_text, monkeypatch, caplog, capsys):
    def broken_parse(block):
        raise RuntimeError("parser exploded")

    monkeypatch.setattr(server, "_fields", broken_parse)
    with running_server([coffee_text]) as handle:
        answer = raw_exchange(handle.port, b"GET /Coffee-Machine HTTP/1.1\r\n\r\n")
    assert answer == b""
    failures = [r for r in caplog.records
                if r.name == "wotsim.server" and r.exc_info is not None]
    assert failures and "parser exploded" in str(failures[0].exc_info[1])
    assert "Traceback" not in capsys.readouterr().err


def test_debug_line_is_formatted_only_when_debug_is_on(coffee_text, monkeypatch, caplog):
    formatted = []
    original = server.logger.debug

    def counted(*args):
        formatted.append(args)
        return original(*args)

    monkeypatch.setattr(server.logger, "debug", counted)
    with running_server([coffee_text]) as handle:
        url = f"{handle.base_url}/Coffee-Machine/properties/state"
        with caplog.at_level(logging.INFO, logger="wotsim.server"):
            assert requests.get(url, timeout=TIMEOUT).status_code == 200
        assert formatted == []
        with caplog.at_level(logging.DEBUG, logger="wotsim.server"):
            assert requests.get(url, timeout=TIMEOUT).status_code == 200
    lines = [r.getMessage() for r in caplog.records
             if r.name == "wotsim.server" and r.levelno == logging.DEBUG]
    assert lines == ['127.0.0.1 "GET /Coffee-Machine/properties/state HTTP/1.1" 200 -']


def test_date_is_formatted_once_per_second(monkeypatch):
    formatted = []
    original = email.utils.formatdate

    def counted(timeval, usegmt):
        formatted.append(timeval)
        return original(timeval, usegmt=usegmt)

    monkeypatch.setattr(server.email.utils, "formatdate", counted)
    server._http_date.cache_clear()
    dates = [server._http_date(int(t)) for t in (7.1, 7.9, 8.2)]
    assert dates == [original(7, usegmt=True)] * 2 + [original(8, usegmt=True)]
    assert formatted == [7, 8]
    assert server._http_date(9) == original(9, usegmt=True)


# --- one loop serves every connection -----------------------------------------

STREAM_REQUEST = (b"GET /Coffee-Machine/events/error HTTP/1.1\r\nHost: x\r\n"
                  b"Accept: text/event-stream\r\n\r\n")


def test_slow_head_is_closed_at_its_deadline(coffee_text, monkeypatch):
    monkeypatch.setattr(server, "TIMEOUT_SECONDS", 1.0)
    head = http_request("GET", "/Coffee-Machine")
    with running_server([coffee_text]) as handle, \
            socket.create_connection(("127.0.0.1", handle.port), timeout=TIMEOUT) as sock:
        started = time.monotonic()
        answer = None
        for byte in head:  # one byte every 0.5 s: each read comes well in time
            try:
                sock.sendall(bytes([byte]))
            except ConnectionError:
                answer = b""
                break
            time.sleep(0.5)
            sock.setblocking(False)
            try:
                answer = sock.recv(65536)
            except BlockingIOError:
                continue
            except ConnectionError:
                answer = b""
            finally:
                sock.setblocking(True)
            break
        elapsed = time.monotonic() - started
    assert answer == b""
    assert 1.0 <= elapsed < 2.0


def test_idle_connections_and_streams_hold_no_thread(coffee_text):
    with running_server([coffee_text], seed=3, event_mode=EventMode.fixed(0.05)) as handle:
        address = ("127.0.0.1", handle.port)
        before = threading.active_count()
        sockets = []
        try:
            for _ in range(200):
                sockets.append(socket.create_connection(address, timeout=TIMEOUT))
            for _ in range(100):
                stream = socket.create_connection(address, timeout=TIMEOUT)
                sockets.append(stream)
                stream.sendall(STREAM_REQUEST)
                assert stream.recv(64).startswith(b"HTTP/1.1 200")
            assert wait_for(lambda: open_connections(handle) == 300, 2.0)
            assert threading.active_count() == before
        finally:
            for sock in sockets:
                sock.close()


def test_connection_past_the_cap_is_refused_with_503(coffee_text, monkeypatch):
    monkeypatch.setattr(server, "MAX_CONNECTIONS", 4)
    with running_server([coffee_text]) as handle:
        address = ("127.0.0.1", handle.port)
        held = [socket.create_connection(address, timeout=TIMEOUT) for _ in range(4)]
        try:
            for sock in held:  # each is served, so each has been accepted
                sock.sendall(http_request("GET", "/Coffee-Machine"))
                with sock.makefile("rb") as reader:
                    assert read_response(reader)[0] == 200
            with socket.create_connection(address, timeout=TIMEOUT) as fifth, \
                    fifth.makefile("rb") as reader:
                status, headers, body = read_response(reader)
                assert reader.read() == b""
        finally:
            for sock in held:
                sock.close()
    assert (status, headers["connection"]) == (503, "close")
    assert json.loads(body) == {"error": "too many connections"}


BIG_EVENT_TD = json.dumps({
    "title": "Camera",
    "events": {"frame": {"forms": [{"href": "/e"}], "data": {
        "type": "array", "minItems": 300, "maxItems": 300, "items": {"type": "string"}}}},
})


def test_stream_that_is_not_read_keeps_a_bounded_buffer(monkeypatch, caplog):
    monkeypatch.setattr(server, "SUBSCRIPTION_BUFFER", 8)
    with running_server([BIG_EVENT_TD], seed=2, event_mode=EventMode.fixed(0.002)) as handle:
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.settimeout(TIMEOUT)
        sock.connect(("127.0.0.1", handle.port))
        with sock:
            sock.sendall(b"GET /Camera/events/frame HTTP/1.1\r\nHost: x\r\n"
                         b"Accept: text/event-stream\r\n\r\n")
            assert wait_for(lambda: handle._connections, 2.0)
            (stream,) = handle._connections
            assert wait_for(lambda: stream.dropped > 20, 10.0)
            assert len(stream.out) <= 8 + 1
        assert wait_for(lambda: not handle._connections, 2.0)
    ends = [r.getMessage() for r in caplog.records if "dropped" in r.getMessage()]
    assert len(ends) == 1 and f"dropped {stream.dropped} message(s)" in ends[0]


def test_served_on_ipv6_loopback_with_bracketed_hrefs(coffee_text):
    try:
        with socket.socket(socket.AF_INET6) as probe:
            probe.bind(("::1", 0))
            port = probe.getsockname()[1]
    except OSError:
        pytest.skip("this host cannot bind ::1")
    config = ServientConfig(address="::1", port=port, event_mode=EventMode.none(), seed=1)
    handle = serve([VirtualThing(parse_td(coffee_text), config)], config)
    try:
        assert handle.base_url == f"http://[::1]:{port}"
        td = requests.get(f"{handle.base_url}/Coffee-Machine", timeout=TIMEOUT).json()
        href = td["properties"]["state"]["forms"][0]["href"]
        reply = requests.get(href, timeout=TIMEOUT)
    finally:
        handle.stop()
    assert href == f"http://[::1]:{port}/Coffee-Machine/properties/state"
    assert reply.status_code == 200 and reply.json() in ["Ready", "Brewing", "Error"]


def test_emissions_from_many_threads_reach_every_stream(coffee_text):
    request = STREAM_REQUEST
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # so the emitting threads interleave finely
    try:
        with running_server([coffee_text], seed=3) as handle:
            thing = handle.things[0]
            streams = [socket.create_connection(("127.0.0.1", handle.port), timeout=TIMEOUT)
                       for _ in range(2)]
            for sock in streams:
                sock.sendall(request)
                assert sock.recv(4096).startswith(b"HTTP/1.1 200")
            emitters = [threading.Thread(target=lambda: [thing.emit_event("error")
                                                         for _ in range(50)])
                        for _ in range(4)]
            for emitter in emitters:
                emitter.start()
            for emitter in emitters:
                emitter.join(timeout=10)
                assert not emitter.is_alive()
            received = []
            for sock in streams:
                data = b""
                while data.count(b"data: ") < 200:
                    data += sock.recv(65536)
                received.append(data.count(b"data: "))
                sock.close()
    finally:
        sys.setswitchinterval(switch)
    assert received == [200, 200]
