"""Atomic whole-file writes and the JSONL record format of tabular artifacts.

``atomic_write`` replaces its target through a temporary file in the same
directory, so a process killed mid-write leaves the previous file intact. It
streams a sequence of buffers (header pieces and numpy arrays, say) into
that file in order, so a caller never joins its parts into one staging copy.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Iterable, Iterator, Sequence


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


def write_jsonl(path, records: Iterable[dict]) -> None:
    """One JSON object per line, keys sorted; replaces ``path`` atomically."""
    text = "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
    atomic_write(path, text.encode("utf-8"))


def read_jsonl(path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, record)`` for every non-blank line; a line that
    is not a JSON object is a JsonlError naming ``path:line``."""
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise JsonlError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise JsonlError(
                    f"{path}:{lineno}: expected a JSON object, got {type(record).__name__}"
                )
            yield lineno, record


def read_json(path) -> dict:
    """The JSON object in ``path``; anything else is a JsonlError naming it."""
    try:
        document = json.loads(Path(path).read_bytes())
    except ValueError as exc:
        raise JsonlError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(document, dict):
        raise JsonlError(f"{path}: expected a JSON object, got {type(document).__name__}")
    return document


def require_fields(path, lineno: int, record: dict, *names: str) -> list:
    """The values of ``names`` in a record read from line ``lineno`` of
    ``path``; a missing one is a JsonlError naming the line and the field."""
    for name in names:
        if name not in record:
            raise JsonlError(f"{path}:{lineno}: missing field {name!r}")
    return [record[name] for name in names]


def convert_field(path, lineno: int, name: str, value, convert):
    """``convert(value)``, or a JsonlError naming ``path:lineno`` and ``name``."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise JsonlError(f"{path}:{lineno}: field {name!r}: {exc}") from exc


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
