"""The report schema checker, held to jsonschema's Draft 2020-12 validator
as its oracle: both must accept and refuse the same documents."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from serann.reports import SCHEMAS, ReportValidationError, validate_report

# The keywords the checker implements; a schema using any other would be
# checked as if that keyword were absent.
IMPLEMENTED = {"$schema", "type", "required", "properties", "items", "minItems",
               "minimum", "maximum", "const", "enum"}
TYPES = {"object", "array", "string", "number", "integer"}

AGGREGATE = {"uars": [0.41, 0.38], "mean": 0.395, "std": 0.015, "repeats": 2,
             "config_digest": "ab12"}

VALID = {
    "classifier_run": {
        "schema_version": 1, "kind": "classifier_run", "protocol": "loso",
        "labels_source": "llm", "seeds": [0, 1], "config": {"max_epochs": 2},
        "aggregate": AGGREGATE,
        "folds": [{"name": "spk0", "uars": [0.4, 0.39]}, {"name": "spk1", "uars": [0.42, 0.37]}],
    },
    "augment_eval": {
        "schema_version": 1, "kind": "augment_eval", "seeds": [3], "config": {},
        "baseline": AGGREGATE, "augmented": {**AGGREGATE, "mean": 0.45},
        "delta_mean": 0.055, "extra_records_used": 12, "extra_records_excluded": 0,
    },
    "annotation_summary": {
        "schema_version": 1, "kind": "annotation_summary", "total": 20,
        "label_counts": {"happy": 12, "sad": 8}, "unparseable": 0, "unparseable_rate": 0.0,
        "cache_hits": 3, "failures": [],
    },
}


def fresh(kind):
    """A copy of ``VALID[kind]`` that shares no list or dict with another value."""
    return json.loads(json.dumps(VALID[kind]))


def subschemas(schema):
    yield schema
    for subschema in schema.get("properties", {}).values():
        yield from subschemas(subschema)
    if "items" in schema:
        yield from subschemas(schema["items"])


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_schemas_use_only_implemented_keywords(kind):
    Draft202012Validator.check_schema(SCHEMAS[kind])
    for schema in subschemas(SCHEMAS[kind]):
        assert set(schema) <= IMPLEMENTED, set(schema) - IMPLEMENTED
        assert schema.get("type", "object") in TYPES


@pytest.mark.parametrize("kind", sorted(VALID))
def test_valid_documents_pass(kind):
    assert Draft202012Validator(SCHEMAS[kind]).is_valid(VALID[kind])
    validate_report(VALID[kind])


@pytest.mark.parametrize("document", [[], "x", 3, None])
def test_a_document_that_is_not_an_object_names_its_type(document):
    with pytest.raises(ReportValidationError,
                       match=f"a report must be a JSON object, got {type(document).__name__}"):
        validate_report(document)


@pytest.mark.parametrize("kind, path, value, message", [
    ("classifier_run", ("aggregate", "std"), -1, "aggregate.std: -1 is less than the minimum of 0"),
    ("classifier_run", ("folds", 1, "uars", 0), "0.4", "folds[1].uars[0]: '0.4' is not of type 'number'"),
    ("classifier_run", ("seeds",), [], "seeds: [] has fewer than 1 items"),
    ("classifier_run", ("protocol",), "kfold",
     "protocol: 'kfold' is not one of ['loso', 'cross_corpus', 'fixed']"),
    ("augment_eval", ("schema_version",), True, "schema_version: True is not 1"),
    ("annotation_summary", ("unparseable_rate",), 1.5,
     "unparseable_rate: 1.5 is greater than the maximum of 1"),
])
def test_an_error_names_the_json_path(kind, path, value, message):
    document = fresh(kind)
    parent = document
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    with pytest.raises(ReportValidationError) as raised:
        validate_report(document)
    assert str(raised.value) == f"{kind} report invalid: {message}"


def test_a_missing_property_is_named_by_its_path():
    document = fresh("classifier_run")
    del document["folds"][0]["name"]
    with pytest.raises(ReportValidationError,
                       match=r"^classifier_run report invalid: folds\[0\]\.name: required but missing$"):
        validate_report(document)


def locations(value, path=()):
    """The path of every value in a document, the document's own first."""
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from locations(child, (*path, key))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from locations(child, (*path, index))


def path_text(path):
    text = ""
    for step in path:
        text += f"[{step}]" if isinstance(step, int) else (f".{step}" if text else step)
    return text


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# The replacements the schemas care about: a boolean or a float for an
# integer, a negative or out-of-range number, an empty list, an unknown
# enum value or schema version, and any other JSON value.
REPLACEMENTS = st.sampled_from([True, False, 1.0, 2, -1, -0.5, 1.5, [], {}, "bogus", None]) | JSON_VALUES


@st.composite
def mutated_documents(draw):
    """A valid document with one key removed, one value replaced or one
    extra key added, and the path of the change."""
    document = fresh(draw(st.sampled_from(sorted(VALID))))
    path = draw(st.sampled_from(list(locations(document))))
    target = document
    for step in path[:-1]:
        target = target[step]
    mutation = draw(st.sampled_from(["remove", "replace", "add"]))
    if mutation == "add" or not path:
        holder = target[path[-1]] if path else target
        if isinstance(holder, dict):
            key = draw(st.sampled_from(["extra", "kind", "notes"]))
            holder[key] = draw(REPLACEMENTS)
            path = (*path, key)
        else:
            target[path[-1]] = draw(REPLACEMENTS)
    elif mutation == "remove" and isinstance(target, dict):
        del target[path[-1]]
    else:
        target[path[-1]] = draw(REPLACEMENTS)
    return document, path


@settings(max_examples=400, deadline=None)
@given(mutated_documents())
def test_checker_agrees_with_jsonschema(mutated):
    document, path = mutated
    kind = document.get("kind")
    schema = SCHEMAS.get(kind) if isinstance(kind, str) else None
    expected_valid = schema is not None and Draft202012Validator(schema).is_valid(document)
    try:
        validate_report(document)
    except ReportValidationError as exc:
        assert not expected_valid, exc
        if schema is not None:
            assert str(exc).startswith(f"{kind} report invalid: {path_text(path)}"), (exc, path)
    else:
        assert expected_valid
