"""Parse Thing Description JSON into model types and serialize back.

Parsing is deliberately forgiving: only "title" is a hard requirement, other
members the W3C draft marks mandatory produce warnings, and unrecognized
content is carried through untouched so a parse/serialize round trip loses
nothing.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import operator
import re

from .errors import MalformedJson, MissingTitle, NotAnObject, TypeMismatch
from .model import (
    MISSING,
    ActionAffordance,
    DataSchema,
    EventAffordance,
    Form,
    Json,
    PropertyAffordance,
    ThingDescription,
    is_present,
)

logger = logging.getLogger(__name__)

_KNOWN_TOP_LEVEL = (
    "@context",
    "id",
    "title",
    "description",
    "base",
    "security",
    "securityDefinitions",
    "properties",
    "actions",
    "events",
)


def _finite_number(text: str) -> float:
    """Reject NaN, Infinity and overflowing literals such as 1e999 (RFC 8259 §6)."""
    value = float(text)
    if not math.isfinite(value):
        raise MalformedJson(f"{text} is not a finite JSON number")
    return value


def _pairs_last_wins(pairs: list[tuple[str, Json]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                logger.warning("duplicate JSON member %r: last occurrence wins", key)
            seen.add(key)
    return obj


# Containers nested deeper than this are refused before decoding, so neither
# the decoder nor any later walk over the value can run out of stack.
MAX_JSON_DEPTH = 128

_ESCAPE = re.compile(rb"\\.")
# Kept outside strings: brackets, the quotes that delimit strings, commas (so
# that one number's digits do not run on into the next one's), digits, written
# as 0, and the letter of an exponent, written as e.
_SCANNED = bytes.maketrans(b"123456789E", b"000000000e")
_NOT_SCANNED = bytes(sorted(set(range(256)) - set(b'[]{}",0123456789eE')))
_BRACKETS = bytes.maketrans(b"[]{}", b"()()")
_NOT_BRACKET = bytes(sorted(set(range(256)) - set(b"[]{}")))
# A double holds every number literal without an exponent and with fewer than
# 309 digits (a run here may join a literal's integer and fraction digits).
_EXPONENT = re.compile(rb"e(?<=0e)")  # the 'e' of true and false follows no digit
_LONG_RUN = b"0" * 309


def _scan(text: str) -> tuple[int, bool]:
    """Deepest container nesting of JSON text, found without recursion, and
    whether any number literal in it may overflow a double."""
    raw = text.encode("utf-8", "surrogatepass")
    if b"\\" in raw:
        raw = _ESCAPE.sub(b"", raw)  # so that no escaped quote ends a string
    outside = b"".join(raw.translate(_SCANNED, _NOT_SCANNED).split(b'"')[::2])
    may_overflow = _EXPONENT.search(outside) is not None or _LONG_RUN in outside
    # The openers up to each closer, less the closers before it.
    brackets = outside.translate(_BRACKETS, _NOT_BRACKET)
    opened = itertools.accumulate(map(len, brackets.split(b")")))
    return max(map(operator.sub, opened, itertools.count())), may_overflow


# Both decoders refuse NaN and Infinity. The checking one also converts every
# float through _finite_number, to refuse a literal that overflows; the other
# leaves floats to the C scanner, for text in which no literal can overflow.
_CHECKING = json.JSONDecoder(object_pairs_hook=_pairs_last_wins,
                             parse_constant=_finite_number, parse_float=_finite_number)
_FAST = json.JSONDecoder(object_pairs_hook=_pairs_last_wins, parse_constant=_finite_number)


def _loads(text: str) -> Json:
    depth, may_overflow = _scan(text)
    if depth > MAX_JSON_DEPTH:
        raise MalformedJson(f"JSON nested deeper than {MAX_JSON_DEPTH} levels")
    try:
        return (_CHECKING if may_overflow else _FAST).decode(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise MalformedJson(f"invalid JSON: {exc}") from exc


def _refuse_lone_surrogates(text: str, doc: Json) -> None:
    """Raise MalformedJson if a string of the decoded document holds a lone
    surrogate, which no UTF-8 document (such as the served TD) can carry: as
    itself, in text given as str, or written as a \\u escape."""
    try:
        text.encode("utf-8")
        if "\\ud" in text or "\\uD" in text:  # may escape a surrogate
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise MalformedJson(f"a string holds a lone surrogate: {exc}") from exc


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def extract_schema(affordance_json: Json) -> DataSchema:
    """Build a DataSchema from the recognized keywords of a JSON object.

    Keys outside the recognized set (forms, descriptions, units, ...) are
    ignored; ``items``, ``oneOf`` entries and ``properties`` members are
    extracted recursively.
    """
    if not isinstance(affordance_json, dict):
        raise TypeMismatch("schema source must be a JSON object")
    obj = affordance_json

    type_name = obj.get("type")
    if type_name is not None and not isinstance(type_name, str):
        raise TypeMismatch('"type" must be a string')

    enum_values = None
    if "enum" in obj:
        if not isinstance(obj["enum"], list) or not obj["enum"]:
            raise TypeMismatch('"enum" must be a non-empty array')
        enum_values = tuple(obj["enum"])

    const_value = obj["const"] if "const" in obj else MISSING

    one_of = None
    if "oneOf" in obj:
        if not isinstance(obj["oneOf"], list) or not obj["oneOf"]:
            raise TypeMismatch('"oneOf" must be a non-empty array')
        one_of = tuple(extract_schema(branch) for branch in obj["oneOf"])

    bounds = {}
    for key in ("minimum", "maximum"):
        if key in obj:
            if not _is_number(obj[key]):
                raise TypeMismatch(f'"{key}" must be a number')
            bounds[key] = obj[key]

    items = None
    if "items" in obj:
        if not isinstance(obj["items"], dict):
            raise TypeMismatch('"items" must be an object')
        items = extract_schema(obj["items"])

    lengths = {}
    for key, field_name in (("minItems", "min_items"), ("maxItems", "max_items")):
        if key in obj:
            value = obj[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeMismatch(f'"{key}" must be an integer')
            if isinstance(value, float):
                if not value.is_integer():
                    raise TypeMismatch(f'"{key}" must be an integer')
                value = int(value)
            lengths[field_name] = value

    properties = None
    if "properties" in obj:
        if not isinstance(obj["properties"], dict):
            raise TypeMismatch('"properties" must be an object')
        properties = {}
        for name, sub in obj["properties"].items():
            if not isinstance(sub, dict):
                raise TypeMismatch(f'"properties" member {name!r} must be an object')
            properties[name] = extract_schema(sub)

    required = None
    if "required" in obj:
        if not isinstance(obj["required"], list) or not all(
            isinstance(name, str) for name in obj["required"]
        ):
            raise TypeMismatch('"required" must be an array of strings')
        required = tuple(obj["required"])
        known = set(properties or {})
        orphans = [name for name in required if name not in known]
        if orphans:
            logger.warning(
                "required name(s) %s not described under properties; "
                "they will be generated as null",
                ", ".join(repr(name) for name in orphans),
            )

    return DataSchema(
        type=type_name,
        enum_values=enum_values,
        const_value=const_value,
        one_of=one_of,
        minimum=bounds.get("minimum"),
        maximum=bounds.get("maximum"),
        items=items,
        min_items=lengths.get("min_items"),
        max_items=lengths.get("max_items"),
        properties=properties,
        required=required,
    )


def _parse_forms(value: Json, where: str) -> tuple[Form, ...]:
    if value is None:
        return ()
    if not isinstance(value, list):
        raise TypeMismatch(f'"forms" of {where} must be an array')
    forms = []
    for entry in value:
        if not isinstance(entry, dict):
            raise TypeMismatch(f'"forms" entries of {where} must be objects')
        href = entry.get("href")
        if not isinstance(href, str) or not href:
            raise TypeMismatch(f"form of {where} needs a non-empty string href")
        forms.append(Form(href=href))
    return tuple(forms)


def _opt_bool(obj: dict, key: str, where: str) -> bool:
    value = obj.get(key, False)
    if not isinstance(value, bool):
        logger.warning("ignoring non-boolean %r on %s", key, where)
        return False
    return value


def _parse_property(name: str, obj: Json) -> PropertyAffordance:
    if not isinstance(obj, dict):
        raise TypeMismatch(f"property {name!r} must be an object")
    return PropertyAffordance(
        data_schema=extract_schema(obj),
        read_only=_opt_bool(obj, "readOnly", f"property {name!r}"),
        forms=_parse_forms(obj.get("forms"), f"property {name!r}"),
        raw=obj,
    )


def _parse_action(name: str, obj: Json) -> ActionAffordance:
    if not isinstance(obj, dict):
        raise TypeMismatch(f"action {name!r} must be an object")
    schemas = {}
    for key in ("input", "output"):
        if key in obj:
            if not isinstance(obj[key], dict):
                raise TypeMismatch(f"{key} of action {name!r} must be an object")
            schemas[key] = extract_schema(obj[key])
    return ActionAffordance(
        input=schemas.get("input"),
        output=schemas.get("output"),
        forms=_parse_forms(obj.get("forms"), f"action {name!r}"),
        raw=obj,
    )


def _parse_event(name: str, obj: Json) -> EventAffordance:
    if not isinstance(obj, dict):
        raise TypeMismatch(f"event {name!r} must be an object")
    data = None
    if "data" in obj:
        if not isinstance(obj["data"], dict):
            raise TypeMismatch(f"data of event {name!r} must be an object")
        data = extract_schema(obj["data"])
    return EventAffordance(
        data=data,
        forms=_parse_forms(obj.get("forms"), f"event {name!r}"),
        raw=obj,
    )


def parse_td(text: str | bytes) -> ThingDescription:
    """Parse TD JSON text into a ThingDescription.

    Raises MalformedJson (a lone surrogate included), NotAnObject,
    MissingTitle, InvalidSchemaBounds or TypeMismatch. Missing
    properties/actions/events sections yield empty maps.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedJson(f"TD text is not valid UTF-8: {exc}") from exc
    doc = _loads(text)
    _refuse_lone_surrogates(text, doc)
    if not isinstance(doc, dict):
        raise NotAnObject("a Thing Description must be a JSON object")

    title = doc.get("title")
    if not isinstance(title, str) or not title:
        raise MissingTitle('TD needs a non-empty string "title"')

    for expected in ("@context", "security", "securityDefinitions"):
        if expected not in doc:
            logger.warning("TD %r has no %r member", title, expected)

    simple: dict = {}
    extra: dict[str, Json] = {}
    for key, field_name in (
        ("id", "id"),
        ("description", "description"),
        ("base", "base"),
    ):
        if key in doc:
            if isinstance(doc[key], str):
                simple[field_name] = doc[key]
            else:
                logger.warning("TD member %r is not a string; kept verbatim", key)
                extra[key] = doc[key]

    sections: dict[str, dict] = {}
    parsers = {
        "properties": _parse_property,
        "actions": _parse_action,
        "events": _parse_event,
    }
    explicit = set()
    for section, parse_one in parsers.items():
        if section not in doc:
            sections[section] = {}
            continue
        if not isinstance(doc[section], dict):
            raise TypeMismatch(f'"{section}" must be an object')
        explicit.add(section)
        sections[section] = {
            name: parse_one(name, obj) for name, obj in doc[section].items()
        }

    for key, value in doc.items():
        if key not in _KNOWN_TOP_LEVEL and key not in extra:
            extra[key] = value

    return ThingDescription(
        title=title,
        context=doc["@context"] if "@context" in doc else MISSING,
        id=simple.get("id", MISSING),
        description=simple.get("description", MISSING),
        base=simple.get("base", MISSING),
        security=doc["security"] if "security" in doc else MISSING,
        security_definitions=(
            doc["securityDefinitions"] if "securityDefinitions" in doc else MISSING
        ),
        properties=sections["properties"],
        actions=sections["actions"],
        events=sections["events"],
        extra=extra,
        explicit_sections=frozenset(explicit),
    )


def serialize_td(td: ThingDescription, *, indent: int | None = None) -> str:
    """Serialize a ThingDescription back to TD JSON.

    Affordances are emitted from their ``raw`` objects, so members this
    package does not interpret survive unchanged. Member order: @context, id,
    title, description, security, securityDefinitions, base, the affordance
    sections, then unrecognized members in their original order.
    """
    doc: dict = {}
    if is_present(td.context):
        doc["@context"] = td.context
    if is_present(td.id):
        doc["id"] = td.id
    doc["title"] = td.title
    if is_present(td.description):
        doc["description"] = td.description
    if is_present(td.security):
        doc["security"] = td.security
    if is_present(td.security_definitions):
        doc["securityDefinitions"] = td.security_definitions
    if is_present(td.base):
        doc["base"] = td.base
    for section, affordances in (
        ("properties", td.properties),
        ("actions", td.actions),
        ("events", td.events),
    ):
        if affordances or section in td.explicit_sections:
            doc[section] = {name: aff.raw for name, aff in affordances.items()}
    doc.update(td.extra)
    return json.dumps(doc, ensure_ascii=False, allow_nan=False, indent=indent)
