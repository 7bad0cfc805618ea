"""The servient's request-head reader, in process on byte strings, against
the rules of the standard library's HTTP server: ``parse_request``'s
request-line checks and ``http.client.parse_headers``."""

import http.server
import io
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wotsim.server import _Connection, _Refused

TCHAR = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def read_head(pieces) -> tuple:
    """What a connection's head reader makes of a head received in `pieces`,
    then the client's end: (status,) for a refusal, else what it returns."""
    connection = _Connection(None, None, "client")
    try:
        for piece in pieces:
            connection.inbuf += piece
            if (head := connection._scan_head()) is not None:
                return head
        connection.ended = True
        return connection._scan_head()
    except _Refused as exc:
        return (exc.args[0],)


def verdict(head: bytes):
    """What the servient makes of a head received whole, then the client's
    end: ("closed",), (status,) for a refusal, or ("accepted", method,
    target, version, headers)."""
    read = read_head([head])
    if len(read) == 1:
        return read
    return ("accepted", *read[:4]) if read else ("closed",)


class _StdlibRules(http.server.BaseHTTPRequestHandler):
    """http.server's request handler on a byte string, without a socket."""

    def __init__(self, head: bytes):  # no socket, so the base __init__ is skipped
        self.rfile, self.wfile = io.BytesIO(head), io.BytesIO()
        self.refused = None

    def send_error(self, code, message=None, explain=None):
        self.refused = code


def stdlib_verdict(head: bytes):
    """The same verdict by the standard library's rules. Field values are
    compared with their surrounding spaces and tabs removed and an obs-fold
    (its line break and the whitespace around it) read as one space, which is
    how RFC 9112 section 5.2 lets a recipient read them."""
    rules = _StdlibRules(head)
    line = rules.rfile.readline(65537)  # as handle_one_request reads it
    if len(line) > 65536:
        return (414,)
    if not line:
        return ("closed",)
    rules.raw_requestline = line
    if not rules.parse_request():
        return ("closed",) if rules.refused is None else (rules.refused,)
    headers = {}
    for name, value in rules.headers.items():
        value = re.sub(r"[ \t]*\r?\n[ \t]*", " ", value).strip(" \t")
        headers.setdefault(name.lower(), []).append(value)
    major, minor = rules.request_version[5:].split(".")
    return ("accepted", rules.command, rules.path, (int(major), int(minor)), headers)


# Heads on which the servient refuses with 400 what the standard library
# accepts, by the mutation that makes them differ:
ALLOWED_400 = {
    # RFC 9112 section 5.1: a server MUST answer 400 to whitespace between a
    # field name and its colon. The standard library ends the header block at
    # such a line and drops the lines after it.
    "space-before-colon",
    # A field name must be a token (RFC 9110 section 5.1). The standard
    # library ends the header block at a name with a non-ASCII byte, too.
    "non-ascii-name",
    # A two-word request line is an HTTP/0.9 request, which the standard
    # library answers as HTTP/0.9 and the servient does not serve.
    "http-0.9",
}

METHODS = st.sampled_from(["GET", "PUT", "POST", "DELETE", "get", "G\xe9T"])
# Half of the heads are HTTP/1.1, so that most reach their header lines.
VERSIONS = st.one_of(st.just("HTTP/1.1"), st.sampled_from([
    "HTTP/1.0", "HTTP/0.9", "HTTP/01.01", "HTTP/2.0", "HTTP/3", "HTTP/1.x", "HTTP/1",
    "HTTP/1.1.1", "http/1.1", "HTTP/12345678901.1", "HTTP/\xb9.1"]))
TARGETS = st.one_of(
    st.sampled_from(["/", "//Thing", "///Thing/properties/x", "/Thing?q=1", "*"]),
    st.text(alphabet="/abcXYZ%20-_.~?=&\xe9\xff", min_size=1, max_size=30).map(
        lambda t: "/" + t),
)
# Names repeat often enough to give duplicate fields, in either case.
NAMES = st.one_of(
    st.sampled_from(["Host", "host", "Content-Length", "Content-Type", "Accept",
                     "Connection", "Expect", "X-A", "x-a"]),
    st.text(alphabet=TCHAR, min_size=1, max_size=12),
)
VALUES = st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0xFF,
                                        blacklist_characters="\x7f")
                 | st.sampled_from("\t"), max_size=24)
LINE_MUTATIONS = st.sampled_from([None] * 10 + ["bare-lf", "obs-fold", "space-before-colon",
                                               "non-ascii-name", "oversize"])


@st.composite
def request_heads(draw):
    """A request head as bytes, and the set of mutations applied to it."""
    mutations = set()
    method, target, version = draw(METHODS), draw(TARGETS), draw(VERSIONS)
    shape = draw(st.sampled_from(["three"] * 8 + ["http-0.9", "four-words", "oversize"]))
    if shape == "http-0.9":
        line = f"{method} {target}"
    elif shape == "four-words":
        line = f"{method} {target} extra {version}"
    else:
        line = f"{method} {target} {version}"
    if shape == "oversize":  # a request line of 65536 or 65537 bytes, line end included
        target += "a" * (65534 + draw(st.integers(0, 1)) - len(line))
        line = f"{method} {target} {version}"
    if shape != "three":
        mutations.add(shape)
    lines = [line]
    for name, value in draw(st.lists(st.tuples(NAMES, VALUES), max_size=8)):
        mutation = draw(LINE_MUTATIONS)
        end = "\n" if mutation == "bare-lf" else "\r\n"
        separator = ":"
        if mutation == "space-before-colon":
            separator = draw(st.sampled_from([" :", "\t:", "  :"]))
        elif mutation == "non-ascii-name":
            name += draw(st.sampled_from(["\xe9", "\xff", "\x80"]))
        elif mutation == "oversize":  # a field line of 65536 or 65537 bytes
            value = "v" * (65536 + draw(st.integers(0, 1)) - len(f"{name}: {end}"))
        lines.append(f"{name}{separator} {value}{end}")
        if mutation == "obs-fold":
            lines.append(draw(st.sampled_from([" ", "\t", "   "])) + draw(VALUES) + end)
        if mutation:
            mutations.add(mutation)
    total = draw(st.sampled_from([0] * 6 + [99, 100, 101]))
    if total:  # short fields up to that many lines after the request line, near the limit
        lines += ["X-Many: 1\r\n"] * (total - len(lines))
        mutations.add("many-lines")
    head = lines[0] + "\r\n" + "".join(lines[1:]) + "\r\n"
    return head.encode("latin-1"), mutations


def head_of(request_line: str, lines: int = 0, line_bytes: int = 0) -> tuple[bytes, set]:
    """A head with `lines` field lines, the last one `line_bytes` long."""
    fields = ["X-Many: 1\r\n"] * lines
    if line_bytes:
        fields[-1] = "X: " + "v" * (line_bytes - 5) + "\r\n"
    return f"{request_line}\r\n{''.join(fields)}\r\n".encode("latin-1"), set()


@settings(max_examples=200, deadline=None)
@given(request_heads())
# The edges of each limit, which random heads seldom hit exactly.
@example(head_of("GET /" + "a" * 65520 + " HTTP/1.1"))  # 65536 bytes with its CRLF
@example(head_of("GET /" + "a" * 65521 + " HTTP/1.1"))
@example(head_of("GET / HTTP/1.1", lines=1, line_bytes=65536))
@example(head_of("GET / HTTP/1.1", lines=1, line_bytes=65537))
@example(head_of("GET / HTTP/1.1", lines=99))
@example(head_of("GET / HTTP/1.1", lines=100))
@example(head_of("GET / HTTP/1.99"))
@example(head_of("GET / HTTP/2.0"))
@example(head_of("GET / HTTP/1.0", lines=2))
def test_reader_agrees_with_the_standard_library(case):
    head, mutations = case
    mine, theirs = verdict(head), stdlib_verdict(head)
    if mine != theirs:
        assert mine == (400,) and mutations & ALLOWED_400, (head[:300], mine, theirs)


@settings(max_examples=200, deadline=None)
@given(request_heads(), st.data())
def test_head_in_pieces_reads_as_the_whole_head(case, data):
    head = case[0]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(head)), max_size=12)))
    pieces = [head[start:stop] for start, stop in zip([0, *cuts], [*cuts, len(head)])]
    assert read_head(pieces) == read_head([head])


@pytest.mark.parametrize("head,expected", [
    (b"GET /x HTTP/1.1\r\nHost: a\r\nX-A: 1\r\nx-a:2 \r\n\r\n",
     ("accepted", "GET", "/x", (1, 1), {"host": ["a"], "x-a": ["1", "2"]})),
    (b"PUT //a//b HTTP/1.0\nX: a \n\t b\n \n\n",
     ("accepted", "PUT", "/a//b", (1, 0), {"x": ["a b"]})),
    (b" continued\r\n", (400,)),
    (b"GET / HTTP/1.1\r\n leading fold\r\nHost: a\r\n\r\n",
     ("accepted", "GET", "/", (1, 1), {"host": ["a"]})),
    (b"GET / HTTP/1.1\r\nHost: a", ("accepted", "GET", "/", (1, 1), {"host": ["a"]})),
    (b"", ("closed",)),
    (b"\r\nGET / HTTP/1.1\r\n\r\n", ("closed",)),
    (b"GET / HTTP/1.1\r\nX: a\rContent-Length: 5\r\n\r\n", (400,)),
    (b"GET / HTTP/1.1\r\nno colon\r\n\r\n", (400,)),
    (b"GET / HTTP/1.1\r\n: no name\r\n\r\n", (400,)),
    (b"GET / HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 99 + b"\r\n",
     ("accepted", "GET", "/", (1, 1), {"x-many": ["1"] * 99})),
    (b"GET / HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 100 + b"\r\n", (431,)),
    (b"GET / HTTP/1.1 x\r\n\r\n", (400,)),
    (b"GET / x HTTP/2.0\r\n\r\n", (505,)),
    # A limit is refused before a malformed line, as http.client reads them.
    (b"GET / HTTP/1.1\r\nno colon\r\nX: " + b"a" * 65534 + b"\r\n\r\n", (431,)),
    (b"GET / HTTP/1.1\r\nno colon\r\n" + b"X-Many: 1\r\n" * 99 + b"\r\n", (431,)),
    # The client's end finishes the last line, which counts as a line.
    (b"GET / HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 98 + b"X: 2",
     ("accepted", "GET", "/", (1, 1), {"x-many": ["1"] * 98, "x": ["2"]})),
    (b"GET / HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 99 + b"X: 2", (431,)),
    (b"GET / HTTP/1.1\r\nHost: a\r\n\r", (400,)),
    (b"GET / HTTP/1.1", ("accepted", "GET", "/", (1, 1), {})),
])
def test_reader_on_chosen_heads(head, expected):
    assert verdict(head) == expected
