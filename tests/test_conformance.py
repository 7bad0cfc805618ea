"""A live servient against an in-memory model of its store.

A Hypothesis state machine serves one random TD from ``tdgen`` and drives it
over one reused raw-socket connection. Every answer is checked against the
model with the independent oracles: a property never written reads as a
conforming value, a written one reads back byte for byte, a non-conforming
write is refused and changes nothing. Across every step no answer is a 5xx,
every 2xx body is finite JSON, each response is framed so the next one
parses, and ``Connection: close`` appears exactly when the close rule says.
"""

import json
import random
import socket
from urllib.parse import quote

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from wotsim import (EventMode, RandomSource, ServientConfig, Unsatisfiable, VirtualThing,
                    extract_schema, generate, parse_td, serve)

from conftest import free_port
from oracles import conforms, non_conforming_mutants, same
from tdgen import random_td

TIMEOUT = 5
# Values tried as writes and action inputs; the oracle decides which conform.
JUNK = [None, True, 0, -1, 7, 3.5, "", "zzz", "Ready", [], [None], [1, 2], {}, {"x": 1}]


def _finite(text: str):
    raise ValueError(f"{text} is not a finite JSON number")


def finite_json(body: bytes):
    return json.loads(body, parse_constant=_finite)


def encoded(value) -> bytes:
    """A value as the servient stores it: UTF-8 JSON, non-ASCII kept."""
    return json.dumps(value, ensure_ascii=False).encode("utf-8")


def request(method: str, path: str, body: bytes | None = None, **headers) -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
    if body is not None:
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    for name, text in headers.items():
        head += f"{name.replace('_', '-')}: {text}\r\n"
    return head.encode("ascii") + b"\r\n" + (body or b"")


def mutant(schema: dict, rng: random.Random):
    """A value the oracle rejects, or None when none was found. Mutants are
    grown from the schema's conforming set only where listing that set is
    cheap; elsewhere the junk values are tried."""
    if "enum" in schema or "const" in schema:
        found = non_conforming_mutants(schema, 1, rng)
    else:
        found = [value for value in JUNK if not conforms(schema, value)]
    return found[0] if found else None


class LiveServient(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.handle = None
        self.sock = self.reader = None
        self.answers = []  # (status, headers, body) of the last step
        self.must_close = False  # whether the last step's last answer must say close

    @initialize(seed=st.integers(0, 10**6))
    def serve_a_random_td(self, seed):
        rng = random.Random(seed)
        config = ServientConfig(port=free_port(), seed=seed, event_mode=EventMode.none())
        for index in range(20):
            self.doc = random_td(rng, index)
            try:
                thing = VirtualThing(parse_td(json.dumps(self.doc)), config)
                break
            except Unsatisfiable:
                continue
        self.rng = rng
        self.root = "/" + quote(self.doc["title"], safe="")
        self.properties = self.doc.get("properties", {})
        self.actions = self.doc.get("actions", {})
        self.written: dict[str, bytes] = {}
        self.handle = serve([thing], config)
        self.connect()

    def connect(self):
        self.close_socket()
        self.sock = socket.create_connection(("127.0.0.1", self.handle.port), timeout=TIMEOUT)
        self.reader = self.sock.makefile("rb")

    def close_socket(self):
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = self.reader = None

    def teardown(self):
        self.close_socket()
        if self.handle is not None:
            self.handle.stop()

    # --- one exchange -----------------------------------------------------

    def read_response(self):
        status_line = self.reader.readline()
        assert status_line.startswith(b"HTTP/1.1 "), status_line
        headers = {}
        while (line := self.reader.readline()) != b"\r\n":
            assert line.endswith(b"\r\n"), line
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = self.reader.read(int(headers["content-length"])) if "content-length" in \
            headers else b""
        return int(status_line.split(b" ", 2)[1]), headers, body

    def exchange(self, *raw: bytes, close: bool = False):
        """Send the requests in one write and read an answer to each. With
        `close`, the last answer must close the connection, which then ends."""
        self.sock.sendall(b"".join(raw))
        self.answers = [self.read_response() for _ in raw]
        self.must_close = close
        for status, headers, _ in self.answers[:-1]:
            assert "connection" not in headers
        if close:
            assert self.reader.read() == b""
            self.connect()
        return self.answers

    def path(self, kind: str, name: str) -> str:
        return f"{self.root}/{kind}/{quote(name, safe='')}"

    # --- what a read must return -----------------------------------------

    def check_read(self, name: str, answer):
        status, _, body = answer
        assert status == 200, body
        if name in self.written:
            assert body == self.written[name]
        else:
            assert conforms(self.properties[name], finite_json(body)), body

    def check_read_all(self, answer):
        status, _, body = answer
        assert status == 200, body
        values = finite_json(body)
        assert list(values) == list(self.properties)
        for name, value in values.items():
            if name in self.written:
                assert same(value, json.loads(self.written[name]))
            else:
                assert conforms(self.properties[name], value), (name, value)

    # --- rules ------------------------------------------------------------

    @precondition(lambda self: self.properties)
    @rule(data=st.data())
    def read_one(self, data):
        name = data.draw(st.sampled_from(sorted(self.properties)))
        (answer,) = self.exchange(request("GET", self.path("properties", name)))
        self.check_read(name, answer)

    @rule()
    def read_all(self):
        (answer,) = self.exchange(request("GET", self.root + "/properties"))
        self.check_read_all(answer)

    @precondition(lambda self: self.properties)
    @rule(data=st.data())
    def write_a_conforming_value(self, data):
        name = data.draw(st.sampled_from(sorted(self.properties)))
        path = self.path("properties", name)
        read, = self.exchange(request("GET", path))
        self.check_read(name, read)
        value = finite_json(read[2])
        (status, headers, _), = self.exchange(request("PUT", path, encoded(value)))
        if self.properties[name].get("readOnly"):
            assert (status, headers["allow"]) == (405, "GET")
        else:
            assert status == 204
            self.written[name] = encoded(value)

    @precondition(lambda self: self.properties)
    @rule(data=st.data())
    def write_a_mutant(self, data):
        name = data.draw(st.sampled_from(sorted(self.properties)))
        value = mutant(self.properties[name], self.rng)
        if value is None:
            return
        path = self.path("properties", name)
        (status, _, body), read = self.exchange(request("PUT", path, encoded(value)),
                                                 request("GET", path))
        assert status == (405 if self.properties[name].get("readOnly") else 400), body
        self.check_read(name, read)

    @precondition(lambda self: self.actions)
    @rule(data=st.data(), send=st.booleans())
    def invoke_an_action(self, data, send):
        name = data.draw(st.sampled_from(sorted(self.actions)))
        action = self.actions[name]
        pool = list(JUNK)
        if "input" in action:  # likely to conform; the oracle decides
            try:
                pool.append(generate(extract_schema(action["input"]),
                                     RandomSource(data.draw(st.integers(0, 10**6)))))
            except Unsatisfiable:
                pass
        value = data.draw(st.sampled_from(pool))
        body = encoded(value) if send else None
        (status, _, out), = self.exchange(request("POST", self.path("actions", name), body))
        if "input" in action and not (send and conforms(action["input"], value)):
            assert status == 400, out
        elif "output" in action:
            assert status == 200, out
            assert conforms(action["output"], finite_json(out)), out
        else:
            assert (status, out) == (204, b"")

    @rule()
    def read_the_td(self):
        (status, headers, body), = self.exchange(request("GET", self.root))
        assert status == 200 and headers["content-type"] == "application/td+json"
        assert finite_json(body)["title"] == self.doc["title"]

    @rule(method_kind=st.sampled_from([("GET", "properties"), ("PUT", "properties"),
                                       ("POST", "actions"), ("GET", "events")]))
    def miss_an_affordance(self, method_kind):
        method, kind = method_kind
        body = b"1" if method != "GET" else None
        (status, _, out), = self.exchange(request(method, self.path(kind, "no such name"), body))
        assert status == 404, out

    @rule(method=st.sampled_from(["DELETE", "PATCH"]))
    def use_a_method_no_route_takes(self, method):
        (status, headers, _), = self.exchange(request(method, self.root + "/properties"))
        assert (status, headers["allow"]) == (405, "GET")

    @rule(data=st.data())
    def pipeline(self, data):
        paths = [self.root, self.root + "/properties", self.root + "/no/such/path"]
        paths += [self.path("properties", name) for name in self.properties]
        chosen = data.draw(st.lists(st.sampled_from(paths), min_size=2, max_size=3))
        for path, answer in zip(chosen, self.exchange(*(request("GET", p) for p in chosen))):
            if path == self.root + "/properties":
                self.check_read_all(answer)
            elif path.startswith(self.root + "/properties/"):
                self.check_read(next(n for n in self.properties
                                     if self.path("properties", n) == path), answer)
            else:
                assert answer[0] == (200 if path == self.root else 404)

    @rule(length=st.sampled_from(["abc", "-1", "1.5"]))
    def frame_a_body_badly(self, length):
        # Nothing follows the refused head, so the servient has read every
        # byte sent when it closes, and the answer is not lost to a reset.
        raw = request("PUT", self.path("properties", "no such name"), Content_Length=length)
        (status, _, _), = self.exchange(raw, close=True)
        assert status == 400

    @rule()
    def ask_to_close(self):
        (status, _, _), = self.exchange(request("GET", self.root, Connection="close"),
                                        close=True)
        assert status == 200

    # --- after every step -------------------------------------------------

    @invariant()
    def answers_are_sound(self):
        for index, (status, headers, body) in enumerate(self.answers):
            assert status < 500, body
            if 200 <= status < 300 and body:
                finite_json(body)
            last = index == len(self.answers) - 1
            assert ("connection" in headers) == (self.must_close and last), headers
            if "connection" in headers:
                assert headers["connection"] == "close"


TestLiveServient = LiveServient.TestCase
TestLiveServient.settings = settings(
    max_examples=12, stateful_step_count=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
