"""The virtual Thing itself: property state, action dispatch, event emission,
and the rewritten TD it presents to consumers.

One VirtualThing may be driven by concurrent request handlers; a single
instance lock makes property reads/writes linearizable and keeps the
request-facing RandomSource single-owner. One schedule, ``schedule_events``,
times every event of a servient; each event draws its gaps and payloads from
its own derived RandomSource, so background emissions never perturb the
request-visible draw sequence. Each emission's JSON text is drawn once, and
its UTF-8 bytes are shared by all of its subscribers.
"""

from __future__ import annotations

import copy
import dataclasses
import heapq
import json
import logging
import queue
import threading
from urllib.parse import quote

from .config import RANDOM_INTERVAL_RANGE, ServientConfig
from .errors import (
    InvalidInput,
    InvalidValue,
    MissingInput,
    ReadOnlyProperty,
    UnknownAction,
    UnknownEvent,
    UnknownProperty,
    Unsatisfiable,
)
# Nothing here calls generate; bench/tracing.py wraps it as runtime.generate.
from .generator import RandomSource, generate, generate_json, json_text, prepare
from .model import MISSING, Form, Json, ThingDescription, is_present
from .validator import Violation, compile_checker, validate

logger = logging.getLogger(__name__)


def _encode(value: Json) -> bytes:
    """The UTF-8 JSON body of a property value."""
    return json_text(value).encode("utf-8")


def url_segment(name: str) -> str:
    """Percent-encoded URL path segment for a Thing title or affordance name."""
    return quote(name, safe="")


def rewrite_td(td: ThingDescription, base_url: str) -> ThingDescription:
    """Copy of the TD pointing at this servient.

    Every affordance's forms list is replaced by the single HTTP form
    ``<base_url>/<thing>/{properties|actions|events}/<name>`` and the "base"
    member is dropped; every other member is preserved unchanged. Idempotent.
    """
    thing_seg = url_segment(td.title)

    def relocate(affordances: dict, kind: str) -> dict:
        rewritten = {}
        for name, aff in affordances.items():
            href = f"{base_url}/{thing_seg}/{kind}/{url_segment(name)}"
            raw = copy.deepcopy(aff.raw)
            raw["forms"] = [{"href": href}]
            rewritten[name] = dataclasses.replace(aff, forms=(Form(href=href),), raw=raw)
        return rewritten

    return dataclasses.replace(
        td,
        base=MISSING,
        properties=relocate(td.properties, "properties"),
        actions=relocate(td.actions, "actions"),
        events=relocate(td.events, "events"),
    )


def next_due(previous: float | None, seconds: float, now: float) -> float:
    """When a wait of `seconds` ends: that long after the previous due time,
    so the time spent between waits is not added to the gap. An overdue time
    is now, and the schedule goes on from there, so a late emission is not
    followed by catch-up emissions."""
    return max(now, (now if previous is None else previous) + seconds)


def schedule_events(events: list[tuple["VirtualThing", str]]):
    """Every (thing, event name) pair on its own schedule, in due-time order:
    yields the gap before each emission, and emits it when resumed. Events in
    mode none never emit. A failing emission is logged and its event stays
    scheduled."""
    now = 0.0
    schedule = []  # heap of (due, index, thing, name); index breaks ties
    for index, (thing, name) in enumerate(events):
        gap = thing.next_interval(name)
        if gap is not None:
            heapq.heappush(schedule, (gap, index, thing, name))
    while schedule:
        due, index, thing, name = schedule[0]
        yield due - now
        now = due
        try:
            thing.emit_event(name)
        except Exception:  # one bad draw must not silence every event
            logger.exception("%s: emitting event %r failed", thing.title, name)
        heapq.heapreplace(schedule, (due + thing.next_interval(name), index, thing, name))


def run_events(events: list[tuple["VirtualThing", str]], clock) -> None:
    """Emit the events of schedule_events, pacing with the clock, until the
    clock's wait reports a stop."""
    for gap in schedule_events(events):
        if clock.wait(gap):
            return


# Messages a subscription holds for its reader; 5 s at 200 emissions/s.
SUBSCRIPTION_BUFFER = 1024
# Queued to every live subscription by stop_events: the stream is over.
_END_OF_STREAM = object()


class EventSubscription:
    """Receives every emission of one event between subscribe and close.

    Iterating blocks for each payload and ends once the Thing stops its events.
    Each emission is queued as the UTF-8 bytes of its JSON text, the same bytes
    for every subscriber: `get_json` returns them and `get` a fresh decoded
    payload. A reader that falls more than SUBSCRIPTION_BUFFER messages behind
    loses the oldest ones; `dropped` counts them.
    """

    def __init__(self, thing: "VirtualThing", event_name: str):
        self._thing = thing
        self.event_name = event_name
        self.dropped = 0
        self._queue: queue.Queue = queue.Queue()  # payloads as UTF-8 JSON, then the end

    def _put(self, message) -> None:
        # Callers hold the Thing's lock, so only the reader runs alongside,
        # and it can only make room. The end marker is never refused.
        if message is not _END_OF_STREAM and self._queue.qsize() >= SUBSCRIPTION_BUFFER:
            self._queue.get_nowait()
            self.dropped += 1
        self._queue.put(message)

    def get_json(self, timeout: float | None = None) -> bytes:
        """Next payload as UTF-8 JSON; raises queue.Empty when the timeout
        elapses, and EOFError once the Thing has stopped its events."""
        message = self._queue.get(timeout=timeout)
        if message is _END_OF_STREAM:
            self._queue.put(message)  # every later get ends as well
            raise EOFError("the Thing has stopped its events")
        return message

    def get(self, timeout: float | None = None) -> Json:
        """Next payload, decoded afresh; raises as get_json does."""
        return json.loads(self.get_json(timeout))

    def __iter__(self):
        while True:
            try:
                payload = self.get()
            except EOFError:
                return
            yield payload

    def close(self) -> None:
        self._thing.unsubscribe(self)


class VirtualThing:
    """A live simulated Thing built from a parsed Thing Description."""

    def __init__(self, td: ThingDescription, config: ServientConfig):
        """Prepares the plan of every schema the Thing draws from and compiles
        the checker of every schema it validates against. Raises Unsatisfiable
        when every draw from one of them fails."""
        uses = [("property", n, p.data_schema, p.data_schema) for n, p in td.properties.items()]
        uses += [("action", n, a.output, a.input) for n, a in td.actions.items()]
        uses += [("event", n, e.data, None) for n, e in td.events.items()]
        for kind, name, drawn, checked in uses:
            if drawn is not None and (failure := prepare(drawn).certain_failure()):
                raise Unsatisfiable(f"{kind} {name!r}: {failure}")
            if checked is not None:
                compile_checker(checked)
        self.original_td = td
        self.config = config
        self.base_url = config.base_url
        self.title = td.title
        self.url_segment = url_segment(td.title)
        self.exposed_td = rewrite_td(td, self.base_url)
        self._lock = threading.RLock()
        self._store: dict[str, bytes] = {}  # encoded written values; absent = never written
        self._subscribers: dict[str, set] = {  # of each event, as subscribe_event took them
            name: set() for name in td.events
        }
        root = RandomSource(config.seed)
        self.rng = root.derive(f"thing:{td.title}")
        self._event_rngs = {
            name: root.derive(f"event:{td.title}:{name}") for name in td.events
        }
        self._stopped = False

    # --- properties -----------------------------------------------------

    def read_property(self, name: str) -> Json:
        """The written value if one exists, else a fresh draw: the bytes of
        read_property_json, decoded afresh."""
        return json.loads(self.read_property_json(name))

    def read_property_json(self, name: str) -> bytes:
        """The property's value as the UTF-8 JSON the HTTP binding serves: a
        written value as it was encoded when written, else a fresh draw's text."""
        with self._lock:  # held across the draw, so a write cannot land between
            encoded = self._written(name)
            if encoded is not None:
                return encoded
            text = generate_json(self.original_td.properties[name].data_schema, self.rng)
        return text.encode("utf-8")

    def _written(self, name: str) -> bytes | None:
        """Encoded written value of the property, None if never written."""
        if name not in self.original_td.properties:
            raise UnknownProperty(f"no property named {name!r}")
        return self._store.get(name)

    def write_property(self, name: str, value: Json) -> None:
        """Store a conforming value, encoded now so reads need not encode it.
        A value JSON cannot carry (NaN, infinities, lone surrogates) is refused
        like a non-conforming one."""
        with self._lock:
            aff = self.original_td.properties.get(name)
            if aff is None:
                raise UnknownProperty(f"no property named {name!r}")
            if aff.read_only:
                raise ReadOnlyProperty(f"property {name!r} is read-only")
            result = validate(aff.data_schema, value)
            if not result.valid:
                raise InvalidValue(
                    f"value does not conform to the schema of property {name!r}",
                    result.violations,
                )
            try:
                self._store[name] = _encode(value)
            except (ValueError, TypeError) as exc:
                raise InvalidValue(
                    f"value of property {name!r} is not JSON",
                    [Violation("", "type", f"not JSON: {exc}")],
                ) from exc

    def read_all_properties(self) -> dict[str, Json]:
        """read_all_properties_json's object, decoded afresh."""
        return json.loads(self.read_all_properties_json())

    def read_all_properties_json(self) -> bytes:
        """Every property's value as the UTF-8 JSON object the HTTP binding
        serves: written values as they were encoded when written, fresh draws
        as their text, in property order."""
        properties = self.original_td.properties
        with self._lock:  # one snapshot: no write lands between two members
            written = dict(self._store)
            drawn = {name: generate_json(aff.data_schema, self.rng)
                     for name, aff in properties.items() if name not in written}
        return b"{" + b", ".join(
            _encode(name) + b": " + (written[name] if name in written
                                     else drawn[name].encode("utf-8"))
            for name in properties) + b"}"

    # --- actions --------------------------------------------------------

    def invoke_action(self, name: str, input_value: Json = MISSING) -> Json:
        """invoke_action_json's output decoded, or MISSING when the action
        declares no output schema."""
        output = self.invoke_action_json(name, input_value)
        return MISSING if output is None else json.loads(output)

    def invoke_action_json(self, name: str, input_value: Json = MISSING) -> bytes | None:
        """Validate the input, then draw an output from the output schema as
        the UTF-8 JSON the HTTP binding serves; None when the action declares
        no output schema. Actions without an input schema accept and ignore
        any input. Raises UnknownAction, MissingInput or InvalidInput."""
        with self._lock:
            aff = self.original_td.actions.get(name)
            if aff is None:
                raise UnknownAction(f"no action named {name!r}")
            if aff.input is not None:
                if not is_present(input_value):
                    raise MissingInput(
                        f"action {name!r} requires an input",
                        [Violation("", "required", f"action {name!r} requires an input")],
                    )
                result = validate(aff.input, input_value)
                if not result.valid:
                    raise InvalidInput(
                        f"input does not conform to the schema of action {name!r}",
                        result.violations,
                    )
            if aff.output is None:
                return None
            text = generate_json(aff.output, self.rng)
        return text.encode("utf-8")

    # --- events ---------------------------------------------------------

    def subscribe_event(self, name: str, subscriber=None):
        """Subscribe a new EventSubscription, or the given subscriber: one with
        an `event_name` and a `_put(message)` that takes each emission's UTF-8
        JSON, then _END_OF_STREAM, on the emitting thread under the Thing's lock."""
        with self._lock:
            if name not in self.original_td.events:
                raise UnknownEvent(f"no event named {name!r}")
            if subscriber is None:  # not `or`: a subscriber may be falsy, as an empty set
                subscriber = EventSubscription(self, name)
            if self._stopped:
                subscriber._put(_END_OF_STREAM)
            else:
                self._subscribers[name].add(subscriber)
            return subscriber

    def unsubscribe(self, subscriber) -> None:
        with self._lock:
            self._subscribers[subscriber.event_name].discard(subscriber)

    def emit_event(self, name: str) -> Json:
        """One emission: draw the payload's JSON text once and queue its UTF-8
        bytes to every subscriber. Returns the payload, decoded."""
        with self._lock:
            aff = self.original_td.events.get(name)
            if aff is None:
                raise UnknownEvent(f"no event named {name!r}")
            if aff.data is None:
                data = b"null"
            else:
                data = generate_json(aff.data, self._event_rngs[name]).encode("utf-8")
            for subscription in self._subscribers[name]:
                subscription._put(data)
        return json.loads(data)

    def next_interval(self, name: str) -> float | None:
        """Seconds from one emission of the event to the next, None in mode
        none. Random gaps come from the event's own RandomSource."""
        mode = self.config.mode_for(name)
        if mode.kind == "none":
            return None
        if mode.kind == "fixed":
            return mode.seconds
        return self._event_rngs[name].uniform(*RANDOM_INTERVAL_RANGE)

    def run_event_loop(self, name: str, clock) -> None:
        """Emit the event forever, pacing with the clock, until the clock's
        wait reports a stop. The random interval is re-drawn per emission."""
        run_events([(self, name)], clock)

    def stop_events(self) -> None:
        """End every live subscription's iterator; later subscriptions end at
        once. Ended subscriptions leave the subscriber sets, so no later
        emission can push their end marker out of a full buffer."""
        with self._lock:
            self._stopped = True
            for subscriptions in self._subscribers.values():
                for subscription in subscriptions:
                    subscription._put(_END_OF_STREAM)
                subscriptions.clear()
