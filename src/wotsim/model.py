"""Domain types for Thing Descriptions and the data-schema subset they embed.

JSON values are represented with plain Python objects (None, bool, int/float,
str, list, dict); ``Json`` is the recursive type alias. All model types are
treated as immutable after construction: nothing in this package mutates a
parsed JSON tree, so instances are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .errors import InvalidSchemaBounds, MissingTitle, TypeMismatch

Json = Union[None, bool, int, float, str, list, dict]

SCHEMA_TYPES = ("null", "boolean", "integer", "number", "string", "array", "object")


class _Missing:
    """Sentinel distinguishing "member absent" from "member present with value null"."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MISSING"

    def __bool__(self) -> bool:
        return False


MISSING = _Missing()


def is_present(value: object) -> bool:
    return value is not MISSING


@dataclass(frozen=True)
class DataSchema:
    """The schema subset that drives generation and validation.

    Recognized keywords: type, enum, const, oneOf, minimum, maximum, items,
    minItems, maxItems, properties, required. Anything else in a source
    document is ignored here and preserved in the owning affordance's ``raw``.
    """

    type: str | None = None
    enum_values: tuple[Json, ...] | None = None
    const_value: Json | _Missing = MISSING
    one_of: tuple["DataSchema", ...] | None = None
    minimum: float | None = None
    maximum: float | None = None
    items: "DataSchema | None" = None
    min_items: int | None = None
    max_items: int | None = None
    properties: dict[str, "DataSchema"] | None = None
    required: tuple[str, ...] | None = None
    # The generator's plan for this schema, filled in on first use.
    plan: object = field(default=None, init=False, compare=False, repr=False)
    # The validator's compiled checker for this schema, filled in on first use.
    checker: object = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.type is not None and self.type not in SCHEMA_TYPES:
            raise TypeMismatch(f"unknown schema type {self.type!r}")
        if self.enum_values is not None and len(self.enum_values) == 0:
            raise TypeMismatch("enum must be a non-empty array")
        if self.one_of is not None and len(self.one_of) == 0:
            raise TypeMismatch("oneOf must be a non-empty array")
        if self.minimum is not None and self.maximum is not None:
            if self.minimum > self.maximum:
                raise InvalidSchemaBounds(
                    f"minimum {self.minimum} exceeds maximum {self.maximum}"
                )
        for name in ("min_items", "max_items"):
            bound = getattr(self, name)
            if bound is not None and bound < 0:
                raise InvalidSchemaBounds(f"{name} must be non-negative, got {bound}")
        if self.min_items is not None and self.max_items is not None:
            if self.min_items > self.max_items:
                raise InvalidSchemaBounds(
                    f"minItems {self.min_items} exceeds maxItems {self.max_items}"
                )


@dataclass(frozen=True)
class Form:
    """One protocol binding entry of an affordance."""

    href: str

    def __post_init__(self):
        if not isinstance(self.href, str) or not self.href:
            raise TypeMismatch("form href must be a non-empty string")


@dataclass(frozen=True)
class PropertyAffordance:
    """A readable (and optionally writable) state value.

    ``raw`` keeps the complete original affordance object so serialization and
    TD rewriting reproduce every member, including ones this package ignores.
    """

    data_schema: DataSchema
    read_only: bool = False
    forms: tuple[Form, ...] = ()
    raw: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ActionAffordance:
    input: DataSchema | None = None
    output: DataSchema | None = None
    forms: tuple[Form, ...] = ()
    raw: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EventAffordance:
    data: DataSchema | None = None
    forms: tuple[Form, ...] = ()
    raw: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ThingDescription:
    """A parsed Thing Description.

    Known top-level members are held in dedicated fields; every unrecognized
    member lands verbatim in ``extra`` (original order). ``explicit_sections``
    records which of properties/actions/events appeared in the source even
    when empty, so serialization does not invent or drop section members.
    """

    title: str
    context: Json | _Missing = MISSING
    id: str | _Missing = MISSING
    description: str | _Missing = MISSING
    base: str | _Missing = MISSING
    security: Json | _Missing = MISSING
    security_definitions: Json | _Missing = MISSING
    properties: dict[str, PropertyAffordance] = field(default_factory=dict)
    actions: dict[str, ActionAffordance] = field(default_factory=dict)
    events: dict[str, EventAffordance] = field(default_factory=dict)
    extra: dict[str, Json] = field(default_factory=dict)
    explicit_sections: frozenset[str] = frozenset()

    def __post_init__(self):
        if not isinstance(self.title, str) or not self.title:
            raise MissingTitle("title must be a non-empty string")
