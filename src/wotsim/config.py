"""Servient configuration: event generation modes, address/port, seed."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .errors import MalformedJson
from .td import loads

LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

# Bounds of the automatically selected emission interval, in seconds.
RANDOM_INTERVAL_RANGE = (5.0, 60.0)


@dataclass(frozen=True)
class EventMode:
    """How events are emitted: not at all, at random intervals drawn from
    RANDOM_INTERVAL_RANGE, or at a fixed user-chosen interval."""

    kind: str  # "none" | "random" | "fixed"
    seconds: float | None = None

    def __post_init__(self):
        if self.kind not in ("none", "random", "fixed"):
            raise ValueError(f"unknown event mode {self.kind!r}")
        if self.kind == "fixed":
            if self.seconds is None or not 0 < self.seconds < float("inf"):  # NaN too
                raise ValueError("fixed event mode needs a finite, positive interval")
        elif self.seconds is not None:
            raise ValueError(f"event mode {self.kind!r} takes no interval")

    @classmethod
    def none(cls) -> "EventMode":
        return cls("none")

    @classmethod
    def random_interval(cls) -> "EventMode":
        return cls("random")

    @classmethod
    def fixed(cls, seconds: float) -> "EventMode":
        try:
            return cls("fixed", float(seconds))
        except OverflowError:  # an integer past a double's range
            raise ValueError("fixed event mode needs a finite, positive interval") from None

    @classmethod
    def parse(cls, text: str) -> "EventMode":
        """Parse the CLI spelling: none | random | fixed:SECONDS."""
        if text == "none":
            return cls.none()
        if text == "random":
            return cls.random_interval()
        if text.startswith("fixed:"):
            try:
                return cls.fixed(float(text.split(":", 1)[1]))
            except ValueError as exc:
                raise ValueError(f"bad fixed interval in {text!r}") from exc
        raise ValueError(f"event mode must be none, random or fixed:SECONDS, got {text!r}")

    @classmethod
    def from_config_value(cls, value) -> "EventMode":
        """Parse the config-file spelling: "none" | "random" | {"fixed": seconds}."""
        if value == "none":
            return cls.none()
        if value == "random":
            return cls.random_interval()
        if isinstance(value, dict) and set(value) == {"fixed"}:
            seconds = value["fixed"]
            if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
                raise ValueError('"fixed" interval must be a number')
            return cls.fixed(seconds)
        raise ValueError(
            f'eventMode must be "none", "random" or {{"fixed": seconds}}, got {value!r}'
        )


@dataclass(frozen=True)
class ServientConfig:
    address: str = "127.0.0.1"
    port: int = 8080
    event_mode: EventMode = EventMode.random_interval()
    event_overrides: dict[str, EventMode] = field(default_factory=dict)
    seed: int | None = None
    log_level: str = "info"

    def __post_init__(self):
        if not 1 <= self.port <= 65535:
            raise ValueError(f"port must be in [1, 65535], got {self.port}")
        if self.log_level not in LOG_LEVELS:
            raise ValueError(f"log level must be one of {sorted(LOG_LEVELS)}")

    @property
    def base_url(self) -> str:
        host = f"[{self.address}]" if ":" in self.address else self.address  # IPv6
        return f"http://{host}:{self.port}"

    def mode_for(self, event_name: str) -> EventMode:
        return self.event_overrides.get(event_name, self.event_mode)


def load_config_file(path: str) -> dict:
    """Read a JSON config file into canonical settings keys.

    Returns a dict holding only the keys present in the file, values already
    converted (eventMode/eventIntervals become EventMode instances). Raises
    ValueError on unreadable files, bad JSON, unknown keys or bad value types.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = loads(data)
    except MalformedJson as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must hold a JSON object")

    settings: dict = {}
    for key, value in doc.items():
        if key == "address":
            if not isinstance(value, str):
                raise ValueError('"address" must be a string')
            settings["address"] = value
        elif key == "port":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError('"port" must be an integer')
            settings["port"] = value
        elif key == "eventMode":
            settings["eventMode"] = EventMode.from_config_value(value)
        elif key == "eventIntervals":
            if not isinstance(value, dict):
                raise ValueError('"eventIntervals" must be an object')
            overrides = {}
            for name, seconds in value.items():
                if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
                    raise ValueError(f'interval for event {name!r} must be a number')
                overrides[name] = EventMode.fixed(seconds)
            settings["eventIntervals"] = overrides
        elif key == "seed":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError('"seed" must be an integer')
            settings["seed"] = value
        elif key == "logLevel":
            if not isinstance(value, str) or value not in LOG_LEVELS:
                raise ValueError(f'"logLevel" must be one of {sorted(LOG_LEVELS)}')
            settings["logLevel"] = value
        else:
            raise ValueError(f"unknown config key {key!r}")
    return settings


# The ServientConfig field that each settings key (config file or CLI flag) sets.
_SETTINGS_FIELDS = {
    "address": "address",
    "port": "port",
    "eventMode": "event_mode",
    "eventIntervals": "event_overrides",
    "seed": "seed",
    "logLevel": "log_level",
}


def build_config(file_settings: dict | None, flag_settings: dict | None) -> ServientConfig:
    """Combine defaults, config-file values and CLI flags (flags win per key).

    The defaults are those of ServientConfig; a None value sets nothing."""
    chosen: dict = {}
    for source in (file_settings or {}, flag_settings or {}):
        for key, value in source.items():
            if value is not None:
                chosen[_SETTINGS_FIELDS[key]] = value
    return ServientConfig(**chosen)
