"""Annotation driver: prompts -> cache lookup -> backend -> parsed labels.

A run renders every record's prompt once, groups the records by prompt
hash and asks the backend once per distinct prompt that the cache cannot
answer, in order of first occurrence; ``concurrency`` asks distinct prompts
in parallel. Records that share a prompt take its answer, so the number of
backend calls, the cache hit counts and the results do not depend on
concurrency. The cache is an append-only JSONL store keyed by the backend
id and the prompt's cryptographic hash, so reruns skip every prompt the
same backend already answered and an interrupted run resumes where it
stopped. Results merge in manifest order.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from ..corpus import LABELS, UNPARSEABLE, UtteranceRecord
from ..coremath.rng import Rng
from ..dsp import UtteranceFeatures
from ..fileio import json_string, jsonl_line, read_records, write_jsonl
from .backends import Backend, BackendError, CompletionRequest
from .prompts import (
    TEMPLATE_VERSION,
    ContextVariant,
    PromptSpec,
    build_prompt,
    few_shot_block,
    parse_label,
    select_few_shot,
)


class AnnotationRunError(RuntimeError):
    pass


class MissingContextFileError(ValueError):
    """A context mapping lacks a record; ``context`` names which one,
    ``"features"`` or ``"codes"``."""

    def __init__(self, message: str, context: str):
        super().__init__(message)
        self.context = context


@dataclass
class AnnotationResult:
    utterance_id: str
    label: str
    raw_response: str
    backend_id: str
    prompt_hash: str
    template_version: str

    def to_json(self) -> dict:
        # Every field is a str, so a shallow copy is the whole record; this
        # runs once per cache append.
        return dict(vars(self))


def _label(value) -> str:
    label = json_string(value)
    if label not in (*LABELS, UNPARSEABLE):
        raise ValueError(f"expected one of {', '.join(LABELS)} or {UNPARSEABLE}, got {label!r}")
    return label


_RESULT_FIELDS = {field.name: json_string for field in fields(AnnotationResult)}
_RESULT_FIELDS["label"] = _label


def _read_results(path) -> Iterator[AnnotationResult]:
    """The records of ``path`` as results, checked as ``load_annotations``
    says; fields besides a result's are ignored."""
    return (AnnotationResult(*values) for _, values in read_records(path, _RESULT_FIELDS))


class AnnotationCache:
    """Append-only JSONL keyed by (backend id, prompt hash), so a shared
    file never answers one backend with another's replies. Lookups and
    appends are serialized, so concurrent annotators can share one instance.
    Appends go through one handle, opened on the first ``put`` and flushed
    after every record; ``close`` (or leaving a ``with`` block) releases it.

    A final line cut short by an interrupted append is dropped on load (and
    counted in ``dropped``); the file is truncated back to its last complete
    record so appends start on a fresh line. A malformed line anywhere else,
    or a record the annotations file would refuse, is an error.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[tuple[str, str], AnnotationResult] = {}
        self._handle = None
        self.dropped = 0
        if self.path.exists():
            self.dropped = _drop_torn_tail(self.path)
            self._entries = {(r.backend_id, r.prompt_hash): r for r in _read_results(self.path)}
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, prompt_hash: str, backend_id: str) -> AnnotationResult | None:
        with self._lock:
            return self._entries.get((backend_id, prompt_hash))

    def put(self, result: AnnotationResult) -> None:
        key = (result.backend_id, result.prompt_hash)
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = result
            if self._handle is None:
                self._handle = self.path.open("a", encoding="utf-8")
            self._handle.write(jsonl_line(result.to_json()))
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "AnnotationCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _drop_torn_tail(path: Path) -> int:
    """Cut an unparseable, unterminated last line; returns lines dropped."""
    with path.open("rb+") as handle:
        raw = handle.read()
        if not raw or raw.endswith(b"\n"):
            return 0
        start = raw.rfind(b"\n") + 1
        try:
            json.loads(raw[start:])
        except ValueError:
            handle.truncate(start)
            return 1
        handle.write(b"\n")
        return 0


def _complete(
    record: UtteranceRecord, spec: PromptSpec, prompt_hash: str, backend: Backend
) -> AnnotationResult:
    raw = backend.complete(CompletionRequest(spec.system, spec.user))
    return AnnotationResult(
        utterance_id=record.utterance_id,
        label=parse_label(raw),
        raw_response=raw,
        backend_id=backend.backend_id,
        prompt_hash=prompt_hash,
        template_version=TEMPLATE_VERSION,
    )


@dataclass
class AnnotationSummary:
    total: int
    label_counts: dict[str, int]
    unparseable: int
    cache_hits: int
    failures: list[dict]

    @property
    def unparseable_rate(self) -> float:
        return self.unparseable / self.total if self.total else 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "label_counts": self.label_counts,
            "unparseable": self.unparseable,
            "unparseable_rate": self.unparseable_rate,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "failures": self.failures,
        }


def annotate_corpus(
    records: Sequence[UtteranceRecord],
    variant: ContextVariant,
    backend: Backend,
    shots: str = "zero",
    seed: int = 0,
    features_by_id: Mapping[str, UtteranceFeatures] | None = None,
    codes_by_id: Mapping[str, Sequence[int]] | None = None,
    few_shot_pool: Sequence[UtteranceRecord] | None = None,
    cache: AnnotationCache | None = None,
    balanced_few_shot: bool = False,
    failure_budget: int = 0,
    concurrency: int = 1,
) -> tuple[list[AnnotationResult], AnnotationSummary]:
    """Annotate every record, asking the backend once per distinct prompt.

    A backend failure fails every record that shares the prompt; failed
    records are tolerated up to ``failure_budget`` and reported in the
    summary."""
    if shots not in ("zero", "few"):
        raise ValueError(f"shots must be 'zero' or 'few', got {shots!r}")
    if failure_budget < 0:
        raise ValueError(f"failure_budget must be >= 0, got {failure_budget}")
    features_by_id = dict(features_by_id or {})
    codes_by_id = dict(codes_by_id or {})
    chosen = []
    if shots == "few":
        pool = few_shot_pool if few_shot_pool is not None else records
        chosen = select_few_shot(pool, Rng(seed).spawn("few-shot"), balanced_few_shot)
    subjects = dict.fromkeys(r.utterance_id for r in (*records, *chosen))  # targets, then exemplars
    for needed, available, context in (
        (variant.needs_features, features_by_id, "features"),
        (variant.needs_codes, codes_by_id, "codes"),
    ):
        missing = [uid for uid in subjects if uid not in available]
        if needed and missing:
            raise MissingContextFileError(
                f"{context} missing for {len(missing)} records (first: {missing[0]!r})", context
            )
    few_shot = few_shot_block(chosen, variant, features_by_id, codes_by_id) if chosen else ""
    specs = [
        build_prompt(
            record,
            variant,
            few_shot,
            features_by_id.get(record.utterance_id),
            codes_by_id.get(record.utterance_id),
        )
        for record in records
    ]
    hashes = [spec.prompt_hash() for spec in specs]

    # The first record with each prompt asks for it, unless the cache
    # answers; every other record with that prompt shares the answer.
    first: dict[str, int] = {}
    for i, prompt_hash in enumerate(hashes):
        first.setdefault(prompt_hash, i)
    answers: dict[str, AnnotationResult | str] = {}
    if cache is not None:
        for prompt_hash in first:
            hit = cache.get(prompt_hash, backend.backend_id)
            if hit is not None:
                answers[prompt_hash] = hit
    askers = [i for prompt_hash, i in first.items() if prompt_hash not in answers]

    def ask(i: int) -> AnnotationResult | str:
        try:
            result = _complete(records[i], specs[i], hashes[i], backend)
        except BackendError as exc:
            return str(exc)
        if cache is not None:
            cache.put(result)
        return result

    if concurrency <= 1:
        outcomes = [ask(i) for i in askers]
    else:
        with ThreadPoolExecutor(max_workers=concurrency) as pool_exec:
            outcomes = list(pool_exec.map(ask, askers))
    answers.update(zip((hashes[i] for i in askers), outcomes))
    asked = set(askers)

    results: list[AnnotationResult] = []
    failures: list[dict] = []
    counts: dict[str, int] = {}
    unparseable = 0
    hits = 0
    for i, record in enumerate(records):
        answer = answers[hashes[i]]
        if isinstance(answer, str):
            failures.append({"utterance_id": record.utterance_id, "error": answer})
            continue
        results.append(replace(answer, utterance_id=record.utterance_id))
        hits += i not in asked
        if answer.label == UNPARSEABLE:
            unparseable += 1
        else:
            counts[answer.label] = counts.get(answer.label, 0) + 1
    if len(failures) > failure_budget:
        detail = "; ".join(f"{f['utterance_id']}: {f['error']}" for f in failures[:5])
        raise AnnotationRunError(
            f"{len(failures)} records failed (budget {failure_budget}): {detail}"
        )
    summary = AnnotationSummary(
        total=len(records),
        label_counts=counts,
        unparseable=unparseable,
        cache_hits=hits,
        failures=failures,
    )
    return results, summary


def write_annotations(path, results: Sequence[AnnotationResult]) -> None:
    ordered = sorted(results, key=lambda r: r.utterance_id)
    write_jsonl(path, (result.to_json() for result in ordered))


def load_annotations(path) -> dict[str, AnnotationResult]:
    """Annotation results by utterance id; a field that is not a string, or a
    label outside ``LABELS`` and "unparseable", is a JsonlError naming
    ``path:line`` and the field."""
    return {result.utterance_id: result for result in _read_results(path)}


def apply_annotations(
    records: Sequence[UtteranceRecord], annotations: Mapping[str, AnnotationResult]
) -> list[UtteranceRecord]:
    """Copy records with llm_label filled from annotation results."""
    out = []
    for record in records:
        result = annotations.get(record.utterance_id)
        out.append(replace(record, llm_label=result.label) if result else record)
    return out
