"""Report documents and their JSON schemas.

Every persisted report is a single JSON document with a ``schema_version``
and a ``kind``; ``validate_report`` checks a document against the schema for
its kind.
"""

from __future__ import annotations

import jsonschema

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


def validate_report(document: dict) -> None:
    kind = document.get("kind")
    if not isinstance(kind, str) or kind not in SCHEMAS:
        raise ReportValidationError(f"unknown report kind {kind!r}")
    try:
        jsonschema.validate(document, SCHEMAS[kind])
    except jsonschema.ValidationError as exc:
        raise ReportValidationError(f"{kind} report invalid: {exc.message}") from exc


def write_report(path, document: dict) -> None:
    validate_report(document)
    write_json(path, document)


def read_report(path) -> dict:
    return read_json(path)
