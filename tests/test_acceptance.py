"""Acceptance suite: one test per numbered criterion of the behavior contract.

Each test asserts the stated tolerance and prints a one-line summary with the
measured numbers (visible under ``pytest -s``); ``pytest -v`` gives the
pass/fail verdict per criterion.
"""

import json
import queue
import random
import re
import subprocess
import sys
import time

import requests

from wotsim import (
    EventMode,
    RandomSource,
    ServientConfig,
    VirtualThing,
    extract_schema,
    generate,
    parse_td,
    serialize_td,
    url_segment,
    validate,
)

from conftest import CountingClock, HorizonClock, fixture_text, free_port, running_server
from oracles import enumerate_conforming, json_diff, non_conforming_mutants
from tdgen import random_schema, random_td
from test_cli import start_run_process, stop_run_process

COFFEE_ENUM = {"Ready", "Brewing", "Error"}


def test_criterion_1_seeded_reads_stay_in_enum(coffee_text):
    started = time.monotonic()
    with running_server([coffee_text], seed=7) as handle:
        url = f"{handle.base_url}/Coffee-Machine/properties/state"
        values = [requests.get(url, timeout=5).json() for _ in range(100)]
    elapsed = time.monotonic() - started
    assert all(v in COFFEE_ENUM for v in values)
    distinct = set(values)
    assert len(distinct) >= 2
    assert elapsed < 5.0
    print(f"criterion 1: 100/100 reads in {sorted(COFFEE_ENUM)}, "
          f"{len(distinct)} distinct values, {elapsed:.2f}s < 5s")


def test_criterion_2_action_input_contract(coffee_text):
    with running_server([coffee_text], seed=7) as handle:
        url = f"{handle.base_url}/Coffee-Machine/actions/brew"
        accepted = [requests.post(url, json=v, timeout=5).status_code
                    for v in ("espresso", "cappuccino")]
        rejected = [requests.post(url, json=v, timeout=5)
                    for v in ("latte", 7)]
        rejected.append(requests.post(url, timeout=5))
    assert all(200 <= status < 300 for status in accepted)
    for response in rejected:
        assert response.status_code == 400
        assert response.json()["violations"]
    print(f"criterion 2: espresso/cappuccino -> {accepted}, "
          f"latte/7/empty -> 400 with violations listed")


def test_criterion_3_event_scheduling_and_delivery(coffee_text):
    config = dict(port=free_port(), seed=11)

    # (a) random mode: 100 consecutive gaps, every one inside [5, 60] seconds.
    thing = VirtualThing(parse_td(coffee_text),
                         ServientConfig(event_mode=EventMode.random_interval(),
                                        **config))
    clock = CountingClock(budget=100)
    thing.run_event_loop("error", clock)
    assert len(clock.intervals) == 100
    assert all(5.0 <= gap <= 60.0 for gap in clock.intervals)

    # (b) fixed 2 s over 20 simulated seconds: 10 +/- 1 emissions.
    thing = VirtualThing(parse_td(coffee_text),
                         ServientConfig(event_mode=EventMode.fixed(2.0), **config))
    subscription = thing.subscribe_event("error")
    thing.run_event_loop("error", HorizonClock(20.0))
    emitted = 0
    while True:
        try:
            subscription.get(timeout=0)
            emitted += 1
        except queue.Empty:
            break
    assert abs(emitted - 10) <= 1

    # (c) wall clock, fixed 1 s for 10 s: at least 8 SSE messages, all strings.
    payloads = []
    with running_server([coffee_text], seed=11,
                        event_mode=EventMode.fixed(1.0)) as handle:
        response = requests.get(f"{handle.base_url}/Coffee-Machine/events/error",
                                headers={"Accept": "text/event-stream"},
                                stream=True, timeout=(5, 12))
        deadline = time.monotonic() + 10.0
        for line in response.iter_lines():
            if line.startswith(b"data:"):
                payloads.append(json.loads(line[5:]))
            if time.monotonic() >= deadline:
                break
        response.close()
    assert len(payloads) >= 8
    assert all(isinstance(p, str) for p in payloads)
    print(f"criterion 3: 100/100 random gaps in [5, 60]s; {emitted} emissions "
          f"at fixed:2 over 20s; {len(payloads)} SSE strings in 10s wall time")


REWRITE_ONLY = re.compile(r"/base|.*/forms(/.*)?")


def test_criterion_4_served_td_differs_only_in_forms_and_base(coffee_text):
    rng = random.Random(4242)
    docs = [json.loads(coffee_text)] + [random_td(rng, i) for i in range(50)]
    href_checks = 0
    with running_server([json.dumps(d) for d in docs], seed=1) as handle:
        base = handle.base_url
        for doc in docs:
            segment = url_segment(doc["title"])
            reply = requests.get(f"{base}/{segment}", timeout=5)
            assert reply.status_code == 200, doc["title"]
            served = reply.json()
            for path in json_diff(doc, served):
                assert REWRITE_ONLY.fullmatch(path), (doc["title"], path)
            assert "base" not in served
            for section in ("properties", "actions", "events"):
                for name in doc.get(section, {}):
                    forms = served[section][name]["forms"]
                    assert len(forms) == 1
                    expected = f"{base}/{segment}/{section}/{url_segment(name)}"
                    assert forms[0]["href"] == expected, (doc["title"], name)
                    href_checks += 1
    print(f"criterion 4: 51 TDs served; every diff path matches /base or "
          f"*/forms; {href_checks} hrefs follow the URL convention exactly")


def test_criterion_5_generated_values_validate():
    started = time.monotonic()
    checked = 0
    for index in range(1000):
        raw = random_schema(random.Random(5000 + index), depth=4)
        schema = extract_schema(raw)
        for seed in range(10):
            value = generate(schema, RandomSource(seed))
            outcome = validate(schema, value)
            assert outcome.valid, (raw, seed, value, outcome.violations)
            checked += 1
    elapsed = time.monotonic() - started
    assert checked == 10_000
    assert elapsed < 30.0
    print(f"criterion 5: {checked} generate/validate pairs over 1000 schemas "
          f"x 10 seeds, all conforming, {elapsed:.2f}s < 30s")


# Every finitely enumerable shape the schema subset can express: enums of at
# most 10 members, integer ranges at most 20 wide, arrays of at most 3 items
# over those, plus const/boolean/null and oneOf combinations. The expected
# cardinalities are frozen by hand.
ENUMERABLE_SCHEMAS = [
    ({"enum": ["Ready", "Brewing", "Error"]}, 3),
    ({"type": "string", "enum": ["on", "off", 7]}, 2),  # 7 fails the type gate
    ({"enum": [0, "zero", [0], {"n": 0}, True, None]}, 6),
    ({"const": {"a": [1, 2]}}, 1),
    ({"type": "boolean"}, 2),
    ({"type": "null"}, 1),
    ({"enum": list(range(10))}, 10),
    ({"type": "integer", "minimum": 0, "maximum": 19}, 20),
    ({"type": "integer", "minimum": -5, "maximum": 5}, 11),
    ({"type": "integer", "minimum": 1.5, "maximum": 3.5}, 2),
    ({"type": "array", "items": {"type": "integer", "minimum": 1, "maximum": 3},
      "maxItems": 3}, 40),
    ({"type": "array", "items": {"enum": ["a", "b"]},
      "minItems": 1, "maxItems": 2}, 6),
    ({"type": "array", "items": {"type": "boolean"}, "maxItems": 2}, 7),
    ({"oneOf": [{"enum": [1, 2]}, {"type": "boolean"}]}, 4),
    ({"oneOf": [{"const": "x"}, {"type": "integer", "minimum": 0, "maximum": 4}]}, 6),
    ({"oneOf": [{"type": "integer", "minimum": 0, "maximum": 3},
                {"type": "integer", "minimum": 2, "maximum": 6}]}, 7),
]


def test_criterion_6_validator_matches_brute_force_membership():
    rng = random.Random(66)
    conforming_total = mutant_total = 0
    for raw, expected_count in ENUMERABLE_SCHEMAS:
        schema = extract_schema(raw)
        members = enumerate_conforming(raw)
        assert len(members) == expected_count, raw
        for value in members:
            assert validate(schema, value).valid, (raw, value)
            conforming_total += 1
        mutants = non_conforming_mutants(raw, 100, rng)
        assert len(mutants) == 100, raw
        for value in mutants:
            assert not validate(schema, value).valid, (raw, value)
            mutant_total += 1
    print(f"criterion 6: {len(ENUMERABLE_SCHEMAS)} schemas, "
          f"{conforming_total} enumerated members accepted, "
          f"{mutant_total} mutants rejected; full agreement")


def test_criterion_7_parse_serialize_parse_round_trip(coffee_text):
    rng = random.Random(777)
    docs = [json.loads(coffee_text)] + [random_td(rng, i) for i in range(50)]
    for doc in docs:
        first = parse_td(json.dumps(doc))
        text = serialize_td(first)
        second = parse_td(text)
        assert second == first, doc["title"]
        assert json_diff(doc, json.loads(text)) == [], doc["title"]
    print(f"criterion 7: {len(docs)} TDs round-trip to deep-equal models, "
          f"unrecognized members intact")


def test_criterion_8_probe_full_corpus_exits_zero():
    corpus = ["coffee-machine.td.json", "thermostat.td.json",
              "dice-box.td.json", "sensor-hub.td.json", "bare-thing.td.json"]
    titles = [json.loads(fixture_text(name))["title"] for name in corpus]
    started = time.monotonic()
    process, port = start_run_process("--event-mode", "fixed:0.3",
                                      "--seed", "8", tds=tuple(corpus))
    try:
        for title in titles:
            target = f"http://127.0.0.1:{port}/{url_segment(title)}"
            result = subprocess.run(
                [sys.executable, "-m", "wotsim", "probe", target,
                 "--duration", "1", "--seed", "3"],
                capture_output=True, text=True, timeout=60)
            assert result.returncode == 0, (title, result.stdout, result.stderr)
    finally:
        stop_run_process(process)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(f"criterion 8: probe exit 0 for all {len(titles)} corpus Things, "
          f"{elapsed:.2f}s < 30s")


def test_criterion_9_same_seed_same_outputs():
    corpus = ("coffee-machine.td.json", "dice-box.td.json")

    def scripted_sequence(port: int) -> list[str]:
        base = f"http://127.0.0.1:{port}"
        out = []
        for _ in range(10):
            out.append(requests.get(f"{base}/Coffee-Machine/properties/state",
                                    timeout=5).text)
        time.sleep(0.5)  # several event emissions happen in between
        for _ in range(10):
            out.append(requests.post(f"{base}/Dice-Box/actions/roll",
                                     timeout=5).text)
        out.append(requests.get(f"{base}/Dice-Box/properties/history",
                                timeout=5).text)
        out.append(requests.get(f"{base}/Coffee-Machine/properties",
                                timeout=5).text)
        return out

    first_proc, first_port = start_run_process(
        "--seed", "42", "--event-mode", "fixed:0.2", tds=corpus)
    try:
        second_proc, second_port = start_run_process(
            "--seed", "42", "--event-mode", "fixed:0.2", tds=corpus)
        try:
            first = scripted_sequence(first_port)
            second = scripted_sequence(second_port)
        finally:
            stop_run_process(second_proc)
    finally:
        stop_run_process(first_proc)
    assert first == second
    assert len(set(first)) > 2  # the identical sequences are not degenerate
    print(f"criterion 9: two --seed 42 runs agree on all {len(first)} scripted "
          f"responses while events fire at fixed:0.2")
