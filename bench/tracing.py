"""The traced run: per-layer numbers from in-process calls into wotsim's
public functions, timed from benchmark code only.

Spans (id, name, start, end, parent) are kept in memory and written out when
the run ends. Cross-layer calls are timed by wrapping the imported names at
each layer boundary (``wotsim.runtime.generate``, ``wotsim.runtime.validate``)
and counted at ``wotsim.generator.validate``, whose calls are too many to
span. A layer's self time is its span's duration minus its children's.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from urllib.parse import unquote, urlsplit

import requests

import wotsim.generator
import wotsim.runtime
from wotsim import (
    EventMode,
    RandomSource,
    ServientConfig,
    VirtualThing,
    WotSimError,
    generate,
    parse_td,
    rewrite_td,
    serialize_td,
    validate,
)
from wotsim.cli import probe_target
from workloads import deep_td, draw, fixture_docs

REPLAY_OPS = 400  # a fixed count, so the call counters repeat exactly
MICRO_SECONDS = 0.15
EMIT_CALLS = 60


class Tracer:
    """In-memory spans of one thread, plus call counters."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[span_id] = (span_id, name, start, time.perf_counter(), parent)
            self._stack.pop()

    def patch(self, owner, attr: str, wrapper_of) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    def wrap(self, owner, attr: str, name: str) -> None:
        def wrapper_of(original):
            def traced(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)
            return traced
        self.patch(owner, attr, wrapper_of)

    def count(self, owner, attr: str, name: str) -> None:
        def wrapper_of(original):
            def counted(*args, **kwargs):
                self.counts[name] += 1
                return original(*args, **kwargs)
            return counted
        self.patch(owner, attr, wrapper_of)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self, name: str) -> list[float]:
        """Self time of every span with the given name, in seconds."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [end - start - child_time[sid]
                for sid, n, start, end, _ in self.spans if n == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent in self.spans:
                handle.write(json.dumps({"id": sid, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")


# --- replay of a workload's operation sequence ----------------------------


def _things(docs: list[dict], seed: int) -> dict[str, VirtualThing]:
    config = ServientConfig(port=8080, seed=seed, event_mode=EventMode.none())
    return {d["title"]: VirtualThing(parse_td(json.dumps(d)), config) for d in docs}


def _calls(ops) -> list:
    """Each op as (kind, method, Thing title, affordance name, decoded body or None)."""
    calls = []
    for op in ops:
        parts = [unquote(p) for p in urlsplit(op.path).path.split("/") if p]
        body = json.loads(op.body) if op.body is not None else None
        name = parts[2] if len(parts) == 3 else None
        calls.append((op.kind, op.method, parts[0], name, body))
    return calls


def _replay(things: dict, calls: list) -> list[float]:
    """Run the calls in order; returns each read's duration in seconds."""
    reads = []
    clock = time.perf_counter
    for kind, method, title, name, body in calls:
        thing = things[title]
        t0 = clock()
        try:
            if kind == "td":
                serialize_td(thing.exposed_td, indent=2)
            elif kind == "read_all":
                thing.read_all_properties()
            elif method == "GET":
                thing.read_property(name)
            elif method == "PUT":
                thing.write_property(name, body)
            elif body is None:
                thing.invoke_action(name)
            else:
                thing.invoke_action(name, body)
        except WotSimError:
            if kind != "error":
                raise
        if kind == "read":
            reads.append(clock() - t0)
    return reads


def replay(docs: list[dict], ops: list, seed: int, spans_path) -> dict:
    """Untraced then traced replay of the first REPLAY_OPS ops on fresh Things.

    Returns the per-layer numbers of the runtime, generator and validator
    layers, the in-process read p50 and the tracing overhead.
    """
    calls = _calls(ops[:REPLAY_OPS])
    things = _things(docs, seed)
    t0 = time.perf_counter()
    reads = sorted(_replay(things, calls))
    untraced = time.perf_counter() - t0

    tracer = Tracer()
    things = _things(docs, seed)
    for method in ("read_property", "write_property", "invoke_action"):
        tracer.wrap(VirtualThing, method, f"runtime.{method}")
    tracer.wrap(wotsim.runtime, "generate", "generator.generate")
    tracer.wrap(wotsim.runtime, "validate", "validator.validate")
    tracer.count(wotsim.generator, "validate", "generator.validate")
    try:
        t0 = time.perf_counter()
        _replay(things, calls)
        traced = time.perf_counter() - t0
    finally:
        tracer.restore()
    tracer.write(spans_path)

    def mean_self_us(name):
        times = tracer.self_times(name)
        return sum(times) / len(times) * 1e6 if times else 0.0

    draws = sum(1 for span in tracer.spans if span[1] == "generator.generate")
    return {
        "runtime.read_property_us": mean_self_us("runtime.read_property"),
        "runtime.write_property_us": mean_self_us("runtime.write_property"),
        "runtime.invoke_action_us": mean_self_us("runtime.invoke_action"),
        "generator.validate_calls_per_draw":
            tracer.counts["generator.validate"] / draws if draws else 0.0,
        "trace.overhead_pct": (traced / untraced - 1.0) * 100.0,
        "inproc_read_p50_us": reads[len(reads) // 2] * 1e6,
    }


# --- single-layer timings -------------------------------------------------


def _mean_us(fn, budget: float = MICRO_SECONDS) -> float:
    """Mean wall time of fn() in microseconds over about ``budget`` seconds."""
    fn()
    calls = 0
    started = time.perf_counter()
    while (elapsed := time.perf_counter() - started) < budget or calls < 5:
        fn()
        calls += 1
    return elapsed / calls * 1e6


def layer_timings(docs: list[dict], event: tuple, seed: int) -> dict:
    """TD, generator, validator and emission timings on reference inputs:
    the workload's TDs, fixture schemas of each kind, and the seeded deep TD."""
    texts = [json.dumps(d) for d in docs]
    tds = [parse_td(t) for t in texts]
    base = "http://127.0.0.1:8080"
    exposed = [rewrite_td(td, base) for td in tds]
    out = {
        "td.parse_us": sum(_mean_us(lambda t=t: parse_td(t)) for t in texts) / len(texts),
        "runtime.rewrite_td_us": sum(_mean_us(lambda td=td: rewrite_td(td, base))
                                     for td in tds) / len(tds),
        "td.serialize_us": sum(_mean_us(lambda td=td: serialize_td(td, indent=2))
                               for td in exposed) / len(exposed),
    }
    fixtures = {d["title"]: d for d in fixture_docs()}
    deep = deep_td(seed)
    reference = {
        "enum": (fixtures["Thermostat-42"], "mode"),
        "oneof": (fixtures["Sensor Hub"], "label"),
        "number": (fixtures["Thermostat-42"], "setpoint"),
        "deep": (deep, "snapshot"),
    }
    for kind, (doc, prop) in reference.items():
        schema = parse_td(json.dumps(doc)).properties[prop].data_schema
        rng = RandomSource(seed)
        out[f"generator.generate_us.{kind}"] = _mean_us(lambda: generate(schema, rng))
        if kind != "number":
            value = draw(doc["properties"][prop], random.Random(seed))
            out[f"validator.validate_us.{kind}"] = _mean_us(lambda: validate(schema, value))

    title, name = event
    doc = next(d for d in docs if d["title"] == title)
    for fan_out in (1, 10, 100):
        thing = _things([doc], seed)[title]
        subs = [thing.subscribe_event(name) for _ in range(fan_out)]
        total = 0.0
        for _ in range(EMIT_CALLS):
            t0 = time.perf_counter()
            thing.emit_event(name)
            total += time.perf_counter() - t0
            for sub in subs:
                sub.get(timeout=0)
        for sub in subs:
            sub.close()
        out[f"runtime.emit_us_subs{fan_out}"] = total / EMIT_CALLS * 1e6
    return out


# --- probe ----------------------------------------------------------------


def traced_probe_pass(urls: list[str], duration: float, seed: int) -> dict:
    """One probe pass with every HTTP request of ``requests`` recorded.

    A check starts at its first request and ends where the next check's
    first request starts (or the pass ends); consecutive requests to the
    same affordance URL belong to one check.
    """
    marks: list[tuple[float, str]] = []
    tracer = Tracer()

    def wrapper_of(original):
        def recorded(session, method, url, *args, **kwargs):
            marks.append((time.perf_counter(), url))
            return original(session, method, url, *args, **kwargs)
        return recorded

    tracer.patch(requests.Session, "request", wrapper_of)
    try:
        for url in urls:
            probe_target(url, duration=duration, seed=seed)
            marks.append((time.perf_counter(), "end"))
    finally:
        tracer.restore()

    per_kind: dict[str, list[float]] = defaultdict(list)
    requests_made = sum(1 for _, url in marks if url != "end")
    groups = []
    for t, url in marks:
        if not groups or groups[-1][1] != url:
            groups.append((t, url))
    for (t0, url), (t1, _) in zip(groups, groups[1:]):
        path = urlsplit(url).path.split("/")
        if len(path) == 4 and path[2] in ("properties", "actions", "events"):
            kind = {"properties": "property", "actions": "action", "events": "event"}[path[2]]
            per_kind[kind].append((t1 - t0) * 1e3)
    out = {f"cli.probe_check_ms.{k}": statistics.mean(per_kind[k]) if per_kind[k] else 0.0
           for k in ("property", "action", "event")}
    out["cli.probe_requests"] = requests_made
    return out
