import copy
import hashlib
import json
import logging
import queue
import socket
import threading
import time

import pytest

from wotsim import runtime
from wotsim import (
    EventMode,
    InvalidValue,
    MISSING,
    MissingInput,
    InvalidInput,
    ReadOnlyProperty,
    ServientConfig,
    UnknownAction,
    UnknownEvent,
    UnknownProperty,
    VirtualThing,
    is_present,
    parse_td,
    rewrite_td,
    serialize_td,
    url_segment,
    validate,
)
from wotsim.td import json_text

from conftest import CountingClock, HorizonClock, corpus_paths, fixture_text, running_server
from oracles import json_diff

BASE = "http://127.0.0.1:9099"


def make_thing(fixture, **config_kw) -> VirtualThing:
    config_kw.setdefault("port", 9099)
    config_kw.setdefault("event_mode", EventMode.none())
    return VirtualThing(parse_td(fixture_text(fixture)), ServientConfig(**config_kw))


class TestRewriteTd:
    def test_coffee_machine_hrefs(self, coffee_td):
        rewritten = rewrite_td(coffee_td, BASE)
        assert rewritten.properties["state"].forms[0].href == (
            f"{BASE}/Coffee-Machine/properties/state"
        )
        assert rewritten.actions["brew"].forms[0].href == (
            f"{BASE}/Coffee-Machine/actions/brew"
        )
        assert rewritten.events["error"].forms[0].href == (
            f"{BASE}/Coffee-Machine/events/error"
        )
        assert not is_present(rewritten.base)

    def test_everything_else_preserved(self, coffee_td, coffee_text):
        rewritten = rewrite_td(coffee_td, BASE)
        differing = json_diff(json.loads(coffee_text),
                              json.loads(serialize_td(rewritten)))
        assert differing
        for path in differing:
            assert path.endswith("/forms") or "/forms/" in path or path == "/base", path

    def test_idempotent(self, coffee_td):
        once = rewrite_td(coffee_td, BASE)
        twice = rewrite_td(once, BASE)
        assert once == twice

    def test_title_and_names_are_percent_encoded(self):
        td = parse_td(json.dumps({
            "title": "Sensor Hub",
            "properties": {"läge/1": {"type": "boolean",
                                      "forms": [{"href": "/x"}]}},
        }))
        rewritten = rewrite_td(td, BASE)
        href = rewritten.properties["läge/1"].forms[0].href
        assert href == f"{BASE}/Sensor%20Hub/properties/l%C3%A4ge%2F1"

    def test_url_segment(self):
        assert url_segment("Coffee-Machine") == "Coffee-Machine"
        assert url_segment("a b/c") == "a%20b%2Fc"


class TestProperties:
    def test_read_generates_enum_members(self):
        thing = make_thing("coffee-machine.td.json", seed=5)
        values = {thing.read_property("state") for _ in range(100)}
        assert values <= {"Ready", "Brewing", "Error"}
        assert len(values) >= 2

    def test_unknown_property(self):
        thing = make_thing("coffee-machine.td.json")
        with pytest.raises(UnknownProperty):
            thing.read_property("temperature")

    def test_write_persists_until_next_write(self):
        thing = make_thing("coffee-machine.td.json", seed=1)
        thing.write_property("state", "Ready")
        assert all(thing.read_property("state") == "Ready" for _ in range(10))
        thing.write_property("state", "Error")
        assert thing.read_property("state") == "Error"

    def test_written_value_is_isolated_from_caller(self):
        thing = make_thing("sensor-hub.td.json", seed=1)
        value = {"ts": 5, "values": [1.5]}
        thing.write_property("reading", value)
        value["ts"] = 99
        assert thing.read_property("reading")["ts"] == 5

    def test_write_that_json_cannot_carry_is_refused(self):
        thing = make_thing("thermostat.td.json", seed=1)
        thing.write_property("setpoint", 12.5)
        nan = float("nan")
        assert validate(thing.original_td.properties["setpoint"].data_schema, nan).valid
        with pytest.raises(InvalidValue, match="'setpoint'") as err:
            thing.write_property("setpoint", nan)
        assert [v.rule for v in err.value.violations] == ["type"]
        assert thing.read_property("setpoint") == 12.5
        assert thing.read_property_json("setpoint") == b"12.5"

    def test_read_returns_a_fresh_copy_of_the_written_value(self):
        thing = make_thing("sensor-hub.td.json", seed=1)
        thing.write_property("reading", {"ts": 5, "values": [1.5]})
        first = thing.read_property("reading")
        first["values"].append(2.5)
        assert thing.read_property("reading") == {"ts": 5, "values": [1.5]}

    def test_invalid_write_reports_violations(self):
        thing = make_thing("coffee-machine.td.json")
        with pytest.raises(InvalidValue) as err:
            thing.write_property("state", "Espresso")
        assert err.value.violations
        assert err.value.violations[0].rule == "enum"
        with pytest.raises(InvalidValue):
            thing.write_property("state", 3)

    def test_read_only_rejected(self):
        thing = make_thing("thermostat.td.json")
        with pytest.raises(ReadOnlyProperty):
            thing.write_property("temperature", 21.0)

    def test_read_all_covers_every_property(self):
        thing = make_thing("thermostat.td.json", seed=2)
        snapshot = thing.read_all_properties()
        assert set(snapshot) == {"temperature", "setpoint", "mode"}
        schema = thing.original_td.properties["temperature"].data_schema
        assert validate(schema, snapshot["temperature"]).valid

    def test_read_all_json_is_the_encoded_snapshot_without_decoding(self, monkeypatch):
        served, reference = (make_thing("sensor-hub.td.json", seed=5) for _ in range(2))
        assert served.read_all_properties_json() == json_text(
            reference.read_all_properties()).encode("utf-8")
        for thing in (served, reference):
            thing.write_property("reading", {"ts": 7, "values": [0.1, -2.5e-7]})
            thing.write_property("label", "north")
        decoded = []
        original = json.loads
        monkeypatch.setattr(json, "loads",
                            lambda *args, **kw: decoded.append(args) or original(*args, **kw))
        bodies = [served.read_all_properties_json() for _ in range(3)]
        assert decoded == []
        assert bodies == [json_text(reference.read_all_properties()).encode("utf-8")
                          for _ in range(3)]


class TestActions:
    def test_invoke_without_output_schema(self):
        thing = make_thing("coffee-machine.td.json")
        assert thing.invoke_action("brew", "espresso") is MISSING

    def test_invoke_with_output_schema(self):
        thing = make_thing("dice-box.td.json", seed=3)
        for _ in range(100):
            value = thing.invoke_action("roll")
            assert isinstance(value, int) and 1 <= value <= 6

    def test_invalid_input(self):
        thing = make_thing("coffee-machine.td.json")
        with pytest.raises(InvalidInput) as err:
            thing.invoke_action("brew", "latte")
        assert any(v.rule == "enum" for v in err.value.violations)

    def test_missing_input(self):
        thing = make_thing("coffee-machine.td.json")
        with pytest.raises(MissingInput) as err:
            thing.invoke_action("brew")
        assert err.value.violations

    def test_unknown_action(self):
        thing = make_thing("coffee-machine.td.json")
        with pytest.raises(UnknownAction):
            thing.invoke_action("grind")

    def test_no_input_schema_ignores_input(self):
        thing = make_thing("sensor-hub.td.json")
        assert thing.invoke_action("reset") is MISSING
        assert thing.invoke_action("reset", {"anything": True}) is MISSING


class TestEvents:
    def test_subscribe_receives_emissions(self):
        thing = make_thing("coffee-machine.td.json", seed=4)
        sub = thing.subscribe_event("error")
        payload = thing.emit_event("error")
        assert isinstance(payload, str)
        assert sub.get(timeout=1) == payload

    def test_fan_out_identical_payloads(self):
        thing = make_thing("coffee-machine.td.json", seed=4)
        first, second = thing.subscribe_event("error"), thing.subscribe_event("error")
        thing.emit_event("error")
        assert first.get(timeout=1) == second.get(timeout=1)

    def test_unsubscribed_handle_stays_silent(self):
        thing = make_thing("coffee-machine.td.json", seed=4)
        sub = thing.subscribe_event("error")
        sub.close()
        thing.emit_event("error")
        with pytest.raises(queue.Empty):
            sub.get(timeout=0.05)

    def test_no_replay_before_subscription(self):
        thing = make_thing("coffee-machine.td.json", seed=4)
        thing.emit_event("error")
        sub = thing.subscribe_event("error")
        with pytest.raises(queue.Empty):
            sub.get(timeout=0.05)

    def test_event_without_data_schema_sends_null(self):
        thing = make_thing("sensor-hub.td.json")
        sub = thing.subscribe_event("heartbeat")
        assert thing.emit_event("heartbeat") is None
        assert sub.get(timeout=1) is None

    def test_unknown_event(self):
        thing = make_thing("coffee-machine.td.json")
        with pytest.raises(UnknownEvent):
            thing.subscribe_event("overheat")

    def test_stop_events_ends_a_blocked_iterator(self):
        thing = make_thing("coffee-machine.td.json", seed=4)
        sub = thing.subscribe_event("error")
        received = []
        reader = threading.Thread(target=lambda: received.extend(sub))
        reader.start()
        payload = thing.emit_event("error")
        started = time.monotonic()
        thing.stop_events()
        reader.join(timeout=2)
        assert not reader.is_alive()
        assert time.monotonic() - started < 0.5
        assert received == [payload]

    def test_subscription_after_stop_ends_at_once(self):
        thing = make_thing("coffee-machine.td.json", seed=4)
        thing.stop_events()
        assert list(thing.subscribe_event("error")) == []

    def test_full_buffer_drops_the_oldest(self):
        thing = make_thing("thermostat.td.json", seed=7)
        sub = thing.subscribe_event("alarm")
        emitted = [thing.emit_event("alarm")
                   for _ in range(runtime.SUBSCRIPTION_BUFFER + 5)]
        thing.stop_events()
        for _ in range(5):  # reaches no ended subscription
            thing.emit_event("alarm")
        assert list(sub) == emitted[-runtime.SUBSCRIPTION_BUFFER:]
        assert sub.dropped == 5

    def test_one_encoding_shared_by_every_subscriber(self, monkeypatch):
        calls = {"dumps": 0, "deepcopy": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(runtime.json, "dumps")
        counted(copy, "deepcopy")
        for fixture, path, name in [
                ("coffee-machine.td.json", "/Coffee-Machine/events/error", "error"),
                ("thermostat.td.json", "/Thermostat-42/events/alarm", "alarm")]:  # an object
            request = (b"GET %s HTTP/1.1\r\nHost: x\r\n"
                       b"Accept: text/event-stream\r\n\r\n" % path.encode())
            with running_server([fixture_text(fixture)], seed=4) as handle:
                streams = [socket.create_connection(("127.0.0.1", handle.port), timeout=5)
                           for _ in range(3)]
                for sock in streams:
                    sock.sendall(request)
                    head = b""
                    while not head.endswith(b"\r\n\r\n"):  # sent once the stream is on
                        head += sock.recv(1)
                sub = handle.things[0].subscribe_event(name)
                calls.update(dumps=0, deepcopy=0)
                handle.things[0].emit_event(name)
                first, second, third = (sock.recv(4096) for sock in streams)
                assert calls == {"dumps": 0, "deepcopy": 0}
                for sock in streams:
                    sock.close()
            assert first == second == third
            data = b"data: " + json_text(sub.get(timeout=0)).encode("utf-8") + b"\n\n"
            assert first == b"%X\r\n%s\r\n" % (len(data), data)

    def test_subscribers_get_payloads_of_their_own(self):
        thing = make_thing("thermostat.td.json", seed=7)
        first, second = thing.subscribe_event("alarm"), thing.subscribe_event("alarm")
        emitted = thing.emit_event("alarm")
        mine, theirs = first.get(timeout=0), second.get(timeout=0)
        assert mine == theirs == emitted
        assert mine is not theirs and mine is not emitted
        mine["code"] = -1
        assert theirs == emitted and theirs["code"] != -1


class TestEventLoop:
    def test_random_intervals_stay_in_range(self):
        thing = make_thing("coffee-machine.td.json", seed=6,
                           event_mode=EventMode.random_interval())
        clock = CountingClock(budget=100)
        thing.run_event_loop("error", clock)
        assert len(clock.intervals) == 100
        assert all(5.0 <= gap <= 60.0 for gap in clock.intervals)

    def test_fixed_interval_emission_count(self):
        thing = make_thing("coffee-machine.td.json", seed=6,
                           event_mode=EventMode.fixed(2.0))
        sub = thing.subscribe_event("error")
        thing.run_event_loop("error", HorizonClock(20.0))
        received = 0
        while True:
            try:
                sub.get(timeout=0)
                received += 1
            except queue.Empty:
                break
        assert abs(received - 10) <= 1

    def test_mode_none_never_emits(self):
        thing = make_thing("coffee-machine.td.json", seed=6)
        sub = thing.subscribe_event("error")
        clock = CountingClock(budget=50)
        thing.run_event_loop("error", clock)
        assert clock.intervals == []
        with pytest.raises(queue.Empty):
            sub.get(timeout=0.05)

    def test_per_event_override_beats_default(self):
        thing = make_thing(
            "coffee-machine.td.json", seed=6,
            event_mode=EventMode.random_interval(),
            event_overrides={"error": EventMode.fixed(0.25)},
        )
        clock = CountingClock(budget=5)
        thing.run_event_loop("error", clock)
        assert clock.intervals == [0.25] * 5


# Every draw fails unless the array comes out empty.
FLAKY = {"type": "array", "items": {"type": "integer", "minimum": 0.2, "maximum": 0.8}}


def _pair_thing(first: dict, **config_kw) -> VirtualThing:
    """A Thing with two events: "first", with the given data schema, and
    "steady"."""
    events = {"first": {"data": first}, "steady": {"data": {"type": "integer"}}}
    for event in events.values():
        event["forms"] = [{"href": "/e"}]
    td = parse_td(json.dumps({"title": "Pair", "events": events}))
    return VirtualThing(td, ServientConfig(port=9099, **config_kw))


def _drain(sub) -> list:
    payloads = []
    while True:
        try:
            payloads.append(sub.get(timeout=0))
        except queue.Empty:
            return payloads


# sha256 over the gaps and payloads of every fixture event below, recorded
# with the scheduler that ran one thread per event. Gaps are differences of
# due times, so they are compared to the microsecond.
SCHEDULE_DIGEST = "345275d8a8d0e1f3175f01d7047c233c6bfe4b5c7ea45dd075205536c60e2a8e"


class TestScheduler:
    def test_seeded_schedules_match_the_recorded_digest(self):
        records = []
        for path in corpus_paths():
            td = parse_td(path.read_text(encoding="utf-8"))
            for name in td.events:
                for mode in (EventMode.fixed(0.75), EventMode.random_interval()):
                    for seed in (1, 2, 3):
                        thing = VirtualThing(td, ServientConfig(seed=seed, event_mode=mode))
                        sub = thing.subscribe_event(name)
                        clock = CountingClock(budget=20)
                        thing.run_event_loop(name, clock)
                        records.append([td.title, name, mode.kind, seed,
                                        [f"{gap:.6f}" for gap in clock.intervals],
                                        _drain(sub)])
        assert len(records) == 24
        digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
        assert digest == SCHEDULE_DIGEST

    def test_two_events_emit_in_due_order(self, monkeypatch):
        thing = _pair_thing({"type": "integer"}, event_mode=EventMode.fixed(1.0),
                            event_overrides={"first": EventMode.fixed(1.5)})
        clock = HorizonClock(6.0)
        emitted = []
        emit = thing.emit_event
        monkeypatch.setattr(thing, "emit_event",
                            lambda name: emitted.append((clock.now, name)) or emit(name))
        runtime.run_events([(thing, "steady"), (thing, "first")], clock)
        assert emitted == [
            (1.0, "steady"), (1.5, "first"), (2.0, "steady"), (3.0, "steady"),
            (3.0, "first"), (4.0, "steady"), (4.5, "first"), (5.0, "steady"),
            (6.0, "steady"), (6.0, "first")]

    def test_failing_emission_is_logged_and_the_schedule_goes_on(self, caplog):
        thing = _pair_thing(FLAKY, seed=1, event_mode=EventMode.fixed(1.0))
        flaky, steady = thing.subscribe_event("first"), thing.subscribe_event("steady")
        with caplog.at_level(logging.ERROR, logger="wotsim.runtime"):
            runtime.run_events([(thing, "first"), (thing, "steady")], HorizonClock(10.0))
        failures = [r for r in caplog.records if r.exc_info is not None]
        assert all("'first'" in r.getMessage() for r in failures)
        assert _drain(flaky) == [[]] * (10 - len(failures))
        assert 0 < len(failures) < 10
        assert len(_drain(steady)) == 10

    def test_servient_runs_one_scheduler_thread(self):
        texts = [fixture_text(name) for name in ("coffee-machine.td.json",
                 "dice-box.td.json", "sensor-hub.td.json", "thermostat.td.json")]

        def schedulers():
            return [t.name for t in threading.enumerate() if t.name.startswith("wotsim-")]

        with running_server(texts, seed=1, event_mode=EventMode.fixed(0.05)):
            assert schedulers() == ["wotsim-loop"]
        assert schedulers() == []

    def test_next_due_counts_gaps_from_due_time_to_due_time(self):
        due, now = None, 100.0
        for _ in range(10):
            due = runtime.next_due(due, 0.05, now)
            now = due + 0.02  # the emission's own time
        assert due == pytest.approx(100.5)  # not 10 * (0.05 + 0.02) from the start
        # On time: due a gap after the previous due time.
        assert runtime.next_due(due, 0.05, now) == pytest.approx(100.55)
        # Late by 0.2 s: due at once, and the next gap runs from then, so the
        # missed emissions are not caught up.
        now = due + 0.25
        late = runtime.next_due(due, 0.05, now)
        assert late == now
        assert runtime.next_due(late, 0.05, now + 0.01) == pytest.approx(now + 0.05)


class TestDeterminism:
    SCRIPT = 30

    def run_script(self, thing):
        results = []
        for index in range(self.SCRIPT):
            results.append(thing.read_property("state"))
            if index % 3 == 0:
                results.append(thing.read_all_properties())
        return results

    def test_same_seed_same_request_sequence(self):
        first = make_thing("coffee-machine.td.json", seed=42)
        second = make_thing("coffee-machine.td.json", seed=42)
        assert self.run_script(first) == self.run_script(second)

    def test_event_emissions_do_not_disturb_request_draws(self):
        quiet = make_thing("coffee-machine.td.json", seed=42)
        busy = make_thing("coffee-machine.td.json", seed=42)
        for _ in range(25):
            busy.emit_event("error")
        assert self.run_script(quiet) == self.run_script(busy)

    def test_different_seeds_differ(self):
        first = make_thing("coffee-machine.td.json", seed=1)
        second = make_thing("coffee-machine.td.json", seed=2)
        assert self.run_script(first) != self.run_script(second)
