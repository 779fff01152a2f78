"""Atomic whole-file writes, the JSONL record format of tabular artifacts,
and JSON documents: reports, ``--config`` files and model sidecars.

``atomic_write`` replaces its target through a temporary file in the same
directory, so a process killed mid-write leaves the previous file intact. It
streams a sequence of buffers (header pieces and numpy arrays, say) into
that file in order, so a caller never joins its parts into one staging copy.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence


class JsonlError(ValueError):
    """A JSON or JSONL file unfit for its reader; the message names the file."""


def atomic_write(path, data: bytes | Sequence) -> None:
    """Replace ``path`` with ``data``, one bytes object or a sequence of
    C-contiguous buffers written back to back; creates the parent directory."""
    parts = (data,) if isinstance(data, bytes) else data
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            for part in parts:
                handle.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def jsonl_line(record: dict) -> str:
    """``record`` as one line of a JSONL file: keys sorted, newline-terminated."""
    return json.dumps(record, sort_keys=True) + "\n"


def write_jsonl(path, records: Iterable[dict]) -> None:
    """One ``jsonl_line`` per record; replaces ``path`` atomically."""
    atomic_write(path, "".join(map(jsonl_line, records)).encode("utf-8"))


def read_jsonl(path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, record)`` for every non-blank line; a line that
    is not a UTF-8 JSON object is a JsonlError naming ``path:line``."""
    with Path(path).open("rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.isspace():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise JsonlError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from exc
            except json.JSONDecodeError as exc:
                raise JsonlError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise JsonlError(
                    f"{path}:{lineno}: expected a JSON object, got {type(record).__name__}"
                )
            yield lineno, record


def read_records(
    path, fields: Mapping[str, Callable], defaults: Mapping | None = None, closed: bool = False
) -> Iterator[tuple[int, list]]:
    """Yield ``(line number, [convert(record[name]) for name, convert in
    fields.items()])`` for each record of the JSONL file ``path``. A field
    named in ``defaults`` may be absent and converts from its default; other
    fields are ignored, unless ``closed``. A missing field is a JsonlError
    ``path:line: missing field 'x'``, a value its converter refuses with a
    TypeError or ValueError is ``path:line: field 'x': <reason>``, and with
    ``closed`` an unknown field is one too."""
    converters = tuple(fields.items())
    for lineno, record in read_jsonl(path):
        if defaults:
            record = {**defaults, **record}
        try:
            values = [convert(record[name]) for name, convert in converters]
        except (KeyError, TypeError, ValueError):
            # Only a bad record pays for finding and naming its field.
            values = [_convert(path, lineno, record, name, convert) for name, convert in converters]
        if closed and len(record) > len(converters):
            unknown = sorted(record.keys() - fields.keys())
            raise JsonlError(f"{path}:{lineno}: unknown fields {unknown}")
        yield lineno, values


def _convert(path, lineno: int, record: dict, name: str, convert: Callable):
    if name not in record:
        raise JsonlError(f"{path}:{lineno}: missing field {name!r}")
    try:
        return convert(record[name])
    except (TypeError, ValueError) as exc:
        raise JsonlError(f"{path}:{lineno}: field {name!r}: {exc}") from exc


def read_json(path) -> dict:
    """The JSON object in ``path``; anything else is a JsonlError naming it."""
    try:
        document = json.loads(Path(path).read_bytes())
    except ValueError as exc:
        raise JsonlError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(document, dict):
        raise JsonlError(f"{path}: expected a JSON object, got {type(document).__name__}")
    return document


def write_json(path, document: dict) -> None:
    """``document`` indented by 2, keys sorted, newline-terminated; replaces ``path`` atomically."""
    atomic_write(path, (json.dumps(document, indent=2, sort_keys=True) + "\n").encode("utf-8"))


CONFIG_SECTIONS = ("vqvae", "classifier")  # the top-level keys of a ``--config`` file


def read_config(config_type, path, section: str | None = None, base=None, **overrides):
    """A ``config_type`` from the JSON object in ``path`` or its ``section``
    (no ``path`` reads as ``{}``) over the fields of ``base`` and under the
    ``overrides`` that are not None; without a ``base`` every field must be
    set. An unknown, missing or refused field, and with a ``section`` any
    top-level key outside ``CONFIG_SECTIONS``, is one JsonlError naming ``path``."""
    values = read_json(path) if path else {}
    if section is not None:
        unknown = sorted(values.keys() - set(CONFIG_SECTIONS))
        if unknown:
            raise JsonlError(f"{path}: {unknown[0]!r} is not a config section "
                             f"(the sections are {', '.join(map(repr, CONFIG_SECTIONS))})")
        values = values.get(section, {})
        if not isinstance(values, dict):
            raise JsonlError(f"{path}: section {section!r} must be a JSON object")
    merged = {**(asdict(base) if base is not None else {}), **values}
    merged.update((name, value) for name, value in overrides.items() if value is not None)
    names = [f.name for f in fields(config_type)]
    faults = [f"field {name!r}: not a setting" for name in sorted(merged.keys() - set(names))]
    faults += [f"field {name!r}: missing" for name in names if name not in merged]
    try:
        if faults:
            raise ValueError(faults[0])
        return config_type(**merged)
    except ValueError as exc:
        raise JsonlError(f"invalid {section or 'model'} config{f' in {path}' if path else ''}: {exc}") from exc


def json_string(value) -> str:
    """``value`` itself if it is a JSON string."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def json_finite_number(value) -> float:
    """``value`` as a float if it is a finite JSON number; booleans, strings
    and the non-standard NaN and Infinity literals are refused, not converted."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {number}")
    return number


def json_count(value) -> int:
    """``value`` itself if it is a JSON integer of at least 1; booleans and
    floats are refused, not converted."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"expected at least 1, got {value}")
    return value


def check_config_fields(config) -> None:
    """Refuse a dataclass config unless every ``int`` field, and every entry
    of a ``tuple[int, ...]`` field (a JSON list becomes the tuple), passes
    ``json_count`` and every ``float`` field passes ``json_finite_number``;
    the ValueError names the field. Types are read from the annotations."""
    for f in fields(config):
        value = getattr(config, f.name)
        try:
            if f.type == "int":
                json_count(value)
            elif f.type == "float":
                json_finite_number(value)
            elif f.type == "tuple[int, ...]":
                if not isinstance(value, (list, tuple)):
                    raise TypeError(f"expected a list, got {type(value).__name__}")
                setattr(config, f.name, tuple(value))
                for entry in value:
                    json_count(entry)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"field {f.name!r}: {exc}") from exc
