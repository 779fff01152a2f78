"""Report documents and their JSON schemas.

Every persisted report is a single JSON document with a ``schema_version``
and a ``kind``; ``validate_report`` checks a document against the schema for
its kind. The checker implements the keywords the schemas use (``type``,
``required``, ``properties``, ``items``, ``minItems``, ``minimum``,
``maximum``, ``const``, ``enum``; ``$schema`` is ignored) with their JSON
Schema 2020-12 meaning, and each error names the JSON path of the value.
"""

from __future__ import annotations

import numbers

from .fileio import read_json, write_json

SCHEMA_VERSION = 1

_RUN_REPORT_SCHEMA = {
    "type": "object",
    "required": ["uars", "mean", "std", "repeats", "config_digest"],
    "properties": {
        "uars": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "mean": {"type": "number"},
        "std": {"type": "number", "minimum": 0},
        "repeats": {"type": "integer", "minimum": 1},
        "config_digest": {"type": "string"},
    },
}

_FOLD_SCHEMA = {
    "type": "object",
    "required": ["name", "uars"],
    "properties": {
        "name": {"type": "string"},
        "uars": {"type": "array", "items": {"type": "number"}},
    },
}

CLASSIFIER_RUN_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": [
        "schema_version",
        "kind",
        "protocol",
        "labels_source",
        "seeds",
        "config",
        "aggregate",
        "folds",
    ],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "kind": {"const": "classifier_run"},
        "protocol": {"enum": ["loso", "cross_corpus", "fixed"]},
        "labels_source": {"enum": ["gold", "llm", "auto"]},
        "seeds": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
        "config": {"type": "object"},
        "aggregate": _RUN_REPORT_SCHEMA,
        "folds": {"type": "array", "items": _FOLD_SCHEMA, "minItems": 1},
    },
}

AUGMENT_EVAL_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "kind", "baseline", "augmented", "delta_mean"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "kind": {"const": "augment_eval"},
        "seeds": {"type": "array", "items": {"type": "integer"}},
        "config": {"type": "object"},
        "baseline": _RUN_REPORT_SCHEMA,
        "augmented": _RUN_REPORT_SCHEMA,
        "delta_mean": {"type": "number"},
        "extra_records_used": {"type": "integer", "minimum": 0},
        "extra_records_excluded": {"type": "integer", "minimum": 0},
    },
}

ANNOTATION_SUMMARY_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "kind", "total", "label_counts", "unparseable_rate"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "kind": {"const": "annotation_summary"},
        "total": {"type": "integer", "minimum": 0},
        "label_counts": {"type": "object"},
        "unparseable": {"type": "integer", "minimum": 0},
        "unparseable_rate": {"type": "number", "minimum": 0, "maximum": 1},
        "cache_hits": {"type": "integer", "minimum": 0},
        "failures": {"type": "array"},
    },
}

SCHEMAS = {
    "classifier_run": CLASSIFIER_RUN_SCHEMA,
    "augment_eval": AUGMENT_EVAL_SCHEMA,
    "annotation_summary": ANNOTATION_SUMMARY_SCHEMA,
}


class ReportValidationError(ValueError):
    pass


def _is_number(value) -> bool:
    """Any ``numbers.Number`` but a bool. Plain floats and ints are tested
    first: the ABC check alone takes a third of a report's validation."""
    return type(value) in (float, int) or (
        isinstance(value, numbers.Number) and not isinstance(value, bool)
    )


_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "number": _is_number,
    "integer": lambda value: (isinstance(value, int) and not isinstance(value, bool))
    or (isinstance(value, float) and value.is_integer()),
}


def _equal(value, expected) -> bool:
    """JSON equality of scalars: ``True`` is not ``1``, ``1.0`` is."""
    return isinstance(value, bool) == isinstance(expected, bool) and value == expected


def _first_error(value, schema: dict) -> tuple[list, str] | None:
    """The first keyword of ``schema`` that ``value`` breaks, as ``(path,
    message)`` with ``path`` the keys and indices down to the offending value,
    last step first; None if it breaks none."""
    type_name = schema.get("type")
    if type_name is not None and not _TYPES[type_name](value):
        return [], f"{value!r} is not of type {type_name!r}"
    if "const" in schema and not _equal(value, schema["const"]):
        return [], f"{value!r} is not {schema['const']!r}"
    if "enum" in schema and not any(_equal(value, option) for option in schema["enum"]):
        return [], f"{value!r} is not one of {schema['enum']!r}"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return [], f"{value!r} has fewer than {schema['minItems']} items"
        if "items" in schema:
            for index, item in enumerate(value):
                error = _first_error(item, schema["items"])
                if error:
                    error[0].append(index)
                    return error
    elif isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                return [key], "required but missing"
        for key, subschema in schema.get("properties", {}).items():
            if key in value:
                error = _first_error(value[key], subschema)
                if error:
                    error[0].append(key)
                    return error
    elif _is_number(value):
        if "minimum" in schema and value < schema["minimum"]:
            return [], f"{value!r} is less than the minimum of {schema['minimum']!r}"
        if "maximum" in schema and value > schema["maximum"]:
            return [], f"{value!r} is greater than the maximum of {schema['maximum']!r}"
    return None


def validate_report(document) -> None:
    if not isinstance(document, dict):
        raise ReportValidationError(
            f"a report must be a JSON object, got {type(document).__name__}"
        )
    kind = document.get("kind")
    if not isinstance(kind, str) or kind not in SCHEMAS:
        raise ReportValidationError(f"unknown report kind {kind!r}")
    error = _first_error(document, SCHEMAS[kind])
    if error:
        steps, message = error
        path = "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in reversed(steps))
        raise ReportValidationError(f"{kind} report invalid: {path.lstrip('.')}: {message}")


def write_report(path, document: dict) -> None:
    validate_report(document)
    write_json(path, document)


def read_report(path) -> dict:
    return read_json(path)
