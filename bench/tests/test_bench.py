"""Unit tests of the benchmark's own logic. Kept out of the package's test
suite; run with ``python3 -m pytest bench/tests -q`` from the repository root."""

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import quote

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from client import (  # noqa: E402
    CountingConnection,
    SseParser,
    align,
    check_answer,
    check_events,
    closed_loop,
    gap_excess_ms,
    send,
)
from oracles import conforms  # noqa: E402
from stats import percentile, summarize, tail_level  # noqa: E402
from workloads import (  # noqa: E402
    DEEP_MIX,
    FLEET_MIX,
    Op,
    deep_td,
    fixture_docs,
    operations,
)

# --- the ten-beyond percentile rule ----------------------------------------


@pytest.mark.parametrize("count, level", [
    (0, None), (99, None), (100, 0.9), (999, 0.9), (1000, 0.99),
    (9999, 0.99), (10000, 0.999), (100000, 0.9999), (10**7, 0.9999),
])
def test_tail_level_leaves_ten_samples_beyond(count, level):
    assert tail_level(count) == level


def test_summarize_reports_count_median_and_allowed_tail():
    samples = list(range(1, 1001))
    s = summarize(samples)
    assert s["n"] == 1000 and s["p50"] == pytest.approx(500.5)
    assert s["tail_level"] == 0.99
    assert sum(1 for x in samples if x > s["tail"]) >= 10
    assert "tail" not in summarize([1.0] * 50)


def test_percentile_interpolates():
    assert percentile([3, 1, 2], 0.5) == 2
    assert percentile([0, 10], 0.9) == pytest.approx(9.0)


# --- chunked SSE parsing and gap alignment ---------------------------------


def _sse_response(messages):
    head = (b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
            b"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n")
    body = b""
    for text in messages:
        payload = f"data: {text}\n\n".encode()
        body += f"{len(payload):X}\r\n".encode() + payload + b"\r\n"
    return head + body + b"0\r\n\r\n"


def test_sse_parser_handles_every_split_point():
    messages = ['{"code":1}', '"x"', '{"code":22,"message":"a b"}']
    raw = _sse_response(messages)
    for cut in range(len(raw)):
        parser = SseParser()
        got = parser.feed(raw[:cut]) + parser.feed(raw[cut:])
        assert got == messages, cut
        assert parser.status == 200 and parser.ended


def test_sse_parser_joins_a_message_split_across_chunks_and_data_lines():
    head = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
    parts = [b"data: first\n", b"data: second\n\ndata: next\n\n"]
    body = b"".join(f"{len(p):x}\r\n".encode() + p + b"\r\n" for p in parts)
    assert SseParser().feed(head + body) == ["first\nsecond", "next"]


def test_sse_parser_rejects_unchunked_stream():
    with pytest.raises(ValueError):
        SseParser().feed(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc")


def test_align_starts_at_first_common_payload():
    assert align(["a", "b", "c", "d"], ["c", "d", "e"]) == (["c", "d"], ["c", "d"])
    assert align(["c", "d"], ["a", "b", "c", "d"]) == (["c", "d"], ["c", "d"])
    assert align(["a"], ["b"]) is None


def test_gap_excess_is_distance_from_interval():
    assert gap_excess_ms([0.0, 0.0055, 0.0100], 0.005) == pytest.approx([0.5, 0.5])


def test_check_events_flags_disagreeing_subscribers_and_bad_payloads():
    schema = {"type": "object", "required": ["code"]}
    same = [[(0, '{"code":1}'), (1, '{"code":2}')], [(0, '{"code":2}')]]
    assert check_events(same, schema) == (3, [])
    differ = [[(0, '{"code":1}'), (1, '{"code":2}')], [(0, '{"code":1}'), (1, '{"code":3}')]]
    assert check_events(differ, schema)[1] == ["subscribers saw different payload sequences"]
    bad = [[(0, '{"nope":1}')], [(0, '{"nope":1}')]]
    assert len(check_events(bad, schema)[1]) == 2


# --- seeded inputs ---------------------------------------------------------


def test_deep_td_is_a_function_of_the_seed():
    assert json.dumps(deep_td(7)) == json.dumps(deep_td(7))
    assert json.dumps(deep_td(7)) != json.dumps(deep_td(8))


@pytest.mark.parametrize("docs, mix", [
    (fixture_docs(), FLEET_MIX),
    ([deep_td(3)], DEEP_MIX),
], ids=["fleet", "deep"])
def test_operations_are_seeded_and_send_conforming_values(docs, mix):
    ops = operations(docs, mix, 5, 0, 2)
    assert ops == operations(docs, mix, 5, 0, 2)
    assert ops != operations(docs, mix, 6, 0, 2)
    assert ops != operations(docs, mix, 5, 1, 2)
    schemas = {}
    for doc in docs:
        seg = quote(doc["title"], safe="")
        for name, prop in doc.get("properties", {}).items():
            schemas[f"/{seg}/properties/{quote(name, safe='')}"] = prop
        for name, action in doc.get("actions", {}).items():
            schemas[f"/{seg}/actions/{quote(name, safe='')}"] = action.get("input", {})
    for op in ops:
        if op.kind in ("write", "action") and op.body is not None:
            assert conforms(schemas[op.path], json.loads(op.body)), op.path
        if op.kind == "error" and op.status == 400:
            assert not conforms(schemas[op.path], json.loads(op.body))


def test_connections_write_disjoint_properties():
    docs = fixture_docs()
    written = [{op.prop for op in operations(docs, FLEET_MIX, 1, c, 2) if op.kind == "write"}
               for c in (0, 1)]
    assert written[0] and written[1] and not written[0] & written[1]


def test_read_after_write_is_checked_exactly():
    write = Op("write", "PUT", "/t/properties/p", b"5", 204, None, "t/p", 5, owned=True)
    read = Op("read", "GET", "/t/properties/p", None, 200, {"type": "integer"}, "t/p", owned=True)
    written = {}
    assert check_answer(write, 204, b"", "http://h", written) is None
    assert check_answer(read, 200, b"5", "http://h", written) is None
    assert "last written" in check_answer(read, 200, b"6", "http://h", written)
    assert "status" in check_answer(read, 500, b"{}", "http://h", written)


# --- connection-reuse accounting -------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    close = True

    def do_GET(self):
        self.send_response(200)
        self.send_header("Content-Length", "2")
        if self.close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(b"{}")

    def log_message(self, *args):
        pass


@pytest.fixture(params=[True, False], ids=["close", "keep-alive"])
def server(request):
    handler = type("Handler", (_Handler,), {"close": request.param})
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    httpd.daemon_threads = True
    thread = threading.Thread(target=httpd.serve_forever)
    thread.start()
    try:
        yield request.param, httpd.server_address[1]
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_send_reconnects_only_after_connection_close(server):
    closes, port = server
    conn = CountingConnection("127.0.0.1", port)
    op = Op("read", "GET", "/x", None, 200, {})
    try:
        for _ in range(20):
            assert send(conn, op) == (200, b"{}")
    finally:
        conn.close()
    assert conn.connects == (20 if closes else 1)


def test_closed_loop_counts_connects_per_connection(server):
    closes, port = server
    op = Op("read", "GET", "/x", None, 200, {})
    logs, _ = closed_loop("127.0.0.1", port, [[op], [op]], 0.2)
    for log in logs:
        assert log.records and all(r[3] == 200 for r in log.records)
        assert log.connects == (len(log.records) if closes else 1)
