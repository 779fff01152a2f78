import os
import re

import numpy as np
import pytest

from serann import fileio, reports
from serann.coremath import CheckpointError, save_checkpoint
from serann.fileio import (
    JsonlError, json_finite_number, json_string, read_json, read_jsonl, read_records, write_jsonl,
)

SUMMARY = {
    "schema_version": 1, "kind": "annotation_summary", "total": 1,
    "label_counts": {"sad": 1}, "unparseable_rate": 0.0,
}


def test_jsonl_lines_have_sorted_keys_and_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "sub" / "records.jsonl"
    write_jsonl(path, [{"b": 1, "a": 2}, {"c": [1, 2]}])
    assert path.read_text() == '{"a": 2, "b": 1}\n{"c": [1, 2]}\n'
    path.write_text("\n" + path.read_text() + "\n")
    assert list(read_jsonl(path)) == [(2, {"a": 2, "b": 1}), (3, {"c": [1, 2]})]


def test_bad_line_reported_as_path_and_line(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n{"a": \n')
    with pytest.raises(JsonlError, match=re.escape(f"{path}:2:")):
        list(read_jsonl(path))


@pytest.mark.parametrize("line, kind", [("[1]", "list"), ('"a"', "str"), ("null", "NoneType")])
def test_line_that_is_not_an_object_names_path_and_line(tmp_path, line, kind):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n' + line + "\n")
    with pytest.raises(JsonlError, match=re.escape(f"{path}:2: expected a JSON object, got {kind}")):
        list(read_jsonl(path))


def test_line_that_is_not_utf8_names_path_and_line(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b'{"a": 1}\n{"a": "\xff"}\n')
    with pytest.raises(JsonlError, match=re.escape(f"{path}:2: not UTF-8 text")):
        list(read_jsonl(path))


RECORD_FIELDS = {"id": json_string, "x": json_finite_number}


def test_records_convert_fields_in_order_with_defaults(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"x": 1, "id": "a", "other": null}\n\n{"id": "b"}\n')
    assert list(read_records(path, RECORD_FIELDS, {"x": 2})) == [(1, ["a", 1.0]), (3, ["b", 2.0])]


@pytest.mark.parametrize("line, closed, message", [
    ('{"x": 1}', False, "missing field 'id'"),
    ('{"id": 7}', False, "field 'id': expected a string, got int"),
    ('{"id": "a", "x": "1"}', False, "field 'x': expected a number, got str"),
    ('{"id": "a", "x": 1, "z": 0, "y": 0}', True, "unknown fields ['y', 'z']"),
])
def test_bad_record_names_path_line_and_field(tmp_path, line, closed, message):
    path = tmp_path / "records.jsonl"
    path.write_text('{"id": "a", "x": 1}\n' + line + "\n")
    with pytest.raises(JsonlError, match=re.escape(f"{path}:2: {message}")):
        list(read_records(path, RECORD_FIELDS, closed=closed))


@pytest.mark.parametrize(
    "write",
    [
        lambda path: save_checkpoint(path, {"w": np.zeros(3, np.float32)}),
        lambda path: write_jsonl(path, [{"n": 1}]),
        lambda path: reports.write_report(path, SUMMARY),
    ],
    ids=["checkpoint", "jsonl", "report"],
)
def test_write_creates_missing_parent_directories(tmp_path, write):
    path = tmp_path / "a" / "b" / "artifact"
    write(path)
    assert path.exists()
    assert os.listdir(path.parent) == ["artifact"]


@pytest.mark.parametrize("text, message", [
    ("{bad", "invalid JSON"),
    ("", "invalid JSON"),
    (b"\xff\xfe{", "invalid JSON"),
    ("[1]", "expected a JSON object, got list"),
])
def test_json_file_that_is_not_an_object_names_the_path(tmp_path, text, message):
    path = tmp_path / "doc.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(JsonlError, match=re.escape(f"{path}: {message}")):
        read_json(path)


@pytest.mark.parametrize(
    "write",
    [
        lambda path, n: save_checkpoint(path, {"w": np.full(3, n, np.float32)}),
        lambda path, n: write_jsonl(path, [{"n": n}]),
        lambda path, n: reports.write_report(path, {**SUMMARY, "total": n}),
    ],
    ids=["checkpoint", "jsonl", "report"],
)
def test_write_failing_part_way_keeps_previous_file(tmp_path, monkeypatch, write):
    path = tmp_path / "artifact"
    write(path, 1)
    before = path.read_bytes()

    class TornFile:
        """The temporary file ``atomic_write`` opens, killed once half as
        many bytes as the previous file holds are written: the write that
        crosses that mark lands in part, then raises."""

        def __init__(self, name, mode):
            self.handle = open(name, mode)
            self.budget = len(before) // 2

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.handle.close()

        def write(self, data):
            data = memoryview(data).cast("B")
            self.handle.write(data[: self.budget])
            if len(data) > self.budget:
                raise OSError("killed mid-write")
            self.budget -= len(data)

    monkeypatch.setattr(fileio, "open", TornFile, raising=False)
    with pytest.raises(OSError, match="mid-write"):
        write(path, 2)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["artifact"]


def test_checkpoint_with_a_bad_last_blob_keeps_previous_file(tmp_path):
    path = tmp_path / "artifact"
    save_checkpoint(path, {"a": np.ones(3, np.float32)})
    before = path.read_bytes()
    with pytest.raises(CheckpointError, match="'z' has unsupported dtype"):
        save_checkpoint(path, {"a": np.zeros(3, np.float32), "z": np.zeros(3, np.int32)})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["artifact"]
