import socket
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from wotsim import EventMode, ServientConfig, VirtualThing, parse_td, serve

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURE_DIR / name).read_text(encoding="utf-8")


def corpus_paths() -> list:
    return sorted(FIXTURE_DIR.glob("*.td.json"))


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@contextmanager
def running_server(td_texts, *, seed=None, event_mode=None, overrides=None):
    """Serve the given TD texts on a free port, stopping on exit.

    Events default to mode none so tests do not leak scheduler threads.
    """
    config = ServientConfig(
        port=free_port(),
        seed=seed,
        event_mode=event_mode if event_mode is not None else EventMode.none(),
        event_overrides=overrides or {},
    )
    things = [VirtualThing(parse_td(text), config) for text in td_texts]
    handle = serve(things, config)
    try:
        yield handle
    finally:
        handle.stop()


def open_connections(handle) -> int:
    """Client connections the servient holds open."""
    return len(handle._connections)


def wait_for(condition, seconds: float) -> bool:
    """Poll until the condition holds; False if it still fails after `seconds`."""
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class CountingClock:
    """Test double: record each requested interval, stop after `budget` waits."""

    def __init__(self, budget: int):
        self.budget = budget
        self.intervals: list[float] = []

    def wait(self, seconds: float) -> bool:
        if len(self.intervals) >= self.budget:
            return True
        self.intervals.append(float(seconds))
        return False


class HorizonClock:
    """Test double: advance simulated time, stop once it passes `horizon`."""

    def __init__(self, horizon: float):
        self.horizon = float(horizon)
        self.now = 0.0

    def wait(self, seconds: float) -> bool:
        self.now += seconds
        return self.now > self.horizon


@pytest.fixture
def coffee_text() -> str:
    return fixture_text("coffee-machine.td.json")


@pytest.fixture
def coffee_td(coffee_text):
    return parse_td(coffee_text)
