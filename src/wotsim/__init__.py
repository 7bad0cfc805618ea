"""Virtualize Web of Things devices from their Thing Descriptions.

Parse a TD, expose its properties, actions and events over HTTP, and answer
every interaction with freshly generated values that conform to the declared
data schemas. See the README for the command line interface.
"""

from .config import EventMode, ServientConfig, build_config, load_config_file
from .errors import (
    BindFailure,
    DuplicateThingName,
    InvalidInput,
    InvalidSchemaBounds,
    InvalidValue,
    MalformedJson,
    MissingInput,
    MissingTitle,
    NotAnObject,
    ReadOnlyProperty,
    TypeMismatch,
    UnknownAction,
    UnknownEvent,
    UnknownProperty,
    Unsatisfiable,
    ValidationFailed,
    WotSimError,
)
from .generator import RandomSource, generate, minimal_value
from .model import (
    MISSING,
    ActionAffordance,
    DataSchema,
    EventAffordance,
    Form,
    PropertyAffordance,
    ThingDescription,
    is_present,
)
from .runtime import VirtualThing, rewrite_td, url_segment
from .server import ServerHandle, serve
from .td import extract_schema, parse_td, serialize_td
from .validator import ValidationResult, Violation, json_equal, validate

__version__ = "0.1.0"

__all__ = [
    "ActionAffordance",
    "BindFailure",
    "DataSchema",
    "DuplicateThingName",
    "EventAffordance",
    "EventMode",
    "Form",
    "InvalidInput",
    "InvalidSchemaBounds",
    "InvalidValue",
    "MISSING",
    "MalformedJson",
    "MissingInput",
    "MissingTitle",
    "NotAnObject",
    "PropertyAffordance",
    "RandomSource",
    "ReadOnlyProperty",
    "ServerHandle",
    "ServientConfig",
    "ThingDescription",
    "TypeMismatch",
    "UnknownAction",
    "UnknownEvent",
    "UnknownProperty",
    "Unsatisfiable",
    "ValidationFailed",
    "ValidationResult",
    "Violation",
    "VirtualThing",
    "WotSimError",
    "build_config",
    "extract_schema",
    "generate",
    "is_present",
    "json_equal",
    "load_config_file",
    "minimal_value",
    "parse_td",
    "rewrite_td",
    "serialize_td",
    "serve",
    "url_segment",
    "validate",
    "__version__",
]
