"""Manifest-based corpus handling: utterance records, four-class label
mapping, speaker-independent splits, and evaluation metrics.

Manifests are JSONL, one utterance per line, with audio paths relative to
the manifest's directory. Split and selection operations are pure functions
of their inputs and a seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .coremath.rng import Rng
from .fileio import JsonlError, json_string, read_records, write_jsonl

LABELS = ("angry", "happy", "neutral", "sad")
LABEL_INDEX = {label: i for i, label in enumerate(LABELS)}
GENDERS = ("male", "female", "unknown")
CORPORA = ("iemocap", "mspimprov", "meld", "synthetic")
UNPARSEABLE = "unparseable"


class ManifestError(ValueError):
    pass


class UnknownLabelError(ValueError):
    pass


class SplitError(ValueError):
    pass


class MetricError(ValueError):
    pass


@dataclass
class UtteranceRecord:
    utterance_id: str
    audio_path: str
    transcript: str
    speaker_id: str
    gender: str
    corpus: str
    gold_label: str | None = None
    llm_label: str | None = None

    def validate(self, canonical_labels: bool = True) -> None:
        if not self.utterance_id:
            raise ManifestError("utterance_id must be non-empty")
        if self.gender not in GENDERS:
            raise ManifestError(
                f"{self.utterance_id}: gender {self.gender!r} not in {GENDERS}"
            )
        if self.corpus not in CORPORA:
            raise ManifestError(
                f"{self.utterance_id}: corpus {self.corpus!r} not in {CORPORA}"
            )
        if canonical_labels:
            for attr in ("gold_label", "llm_label"):
                value = getattr(self, attr)
                if value is not None and value not in LABELS and value != UNPARSEABLE:
                    raise ManifestError(
                        f"{self.utterance_id}: {attr} {value!r} not in {LABELS}"
                    )

    def to_json(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v for k, v in out.items() if v is not None}


def _label_or_null(value) -> str | None:
    return value if value is None else json_string(value)


# Every manifest field is a JSON string; the two labels may be absent or null.
_MANIFEST_FIELDS = {f.name: json_string for f in fields(UtteranceRecord)}
_MANIFEST_FIELDS.update(gold_label=_label_or_null, llm_label=_label_or_null)
_MANIFEST_DEFAULTS = {"gold_label": None, "llm_label": None}


def load_manifest(path, canonical_labels: bool = True) -> list[UtteranceRecord]:
    """Parse a JSONL manifest; duplicate ids and malformed lines are errors."""
    path = Path(path)
    records: list[UtteranceRecord] = []
    seen: set[str] = set()
    try:
        for lineno, values in read_records(path, _MANIFEST_FIELDS, _MANIFEST_DEFAULTS, closed=True):
            record = UtteranceRecord(*values)
            try:
                record.validate(canonical_labels=canonical_labels)
            except ManifestError as exc:
                raise ManifestError(f"{path}:{lineno}: {exc}") from None
            if record.utterance_id in seen:
                raise ManifestError(
                    f"{path}:{lineno}: duplicate utterance_id {record.utterance_id!r}"
                )
            seen.add(record.utterance_id)
            records.append(record)
    except JsonlError as exc:
        raise ManifestError(str(exc)) from exc
    return records


def save_manifest(path, records: Iterable[UtteranceRecord]) -> None:
    write_jsonl(path, (record.to_json() for record in records))


def resolve_audio_path(manifest_path, record: UtteranceRecord) -> Path:
    base = Path(manifest_path).parent
    candidate = Path(record.audio_path)
    return candidate if candidate.is_absolute() else base / candidate


# -- label mapping -----------------------------------------------------


@dataclass(frozen=True)
class LabelMap:
    """Total map over a source taxonomy: each source label is either mapped
    to one of the four canonical classes or explicitly dropped."""

    corpus: str
    mapping: Mapping[str, str]
    drop: frozenset[str]

    def __post_init__(self):
        for src, dst in self.mapping.items():
            if dst not in LABELS:
                raise UnknownLabelError(f"{self.corpus}: {src!r} maps to unknown class {dst!r}")
        overlap = set(self.mapping) & self.drop
        if overlap:
            raise UnknownLabelError(f"{self.corpus}: labels both mapped and dropped: {sorted(overlap)}")


IEMOCAP_MAP = LabelMap(
    corpus="iemocap",
    mapping={
        "angry": "angry",
        "ang": "angry",
        "happy": "happy",
        "hap": "happy",
        # The excited class folds into happy, standard for four-class use.
        "excited": "happy",
        "exc": "happy",
        "neutral": "neutral",
        "neu": "neutral",
        "sad": "sad",
    },
    drop=frozenset(
        {"frustrated", "fru", "fearful", "fear", "fea", "surprised", "surprise",
         "sur", "disgusted", "disgust", "dis", "other", "oth", "xxx"}
    ),
)

MSPIMPROV_MAP = LabelMap(
    corpus="mspimprov",
    mapping={
        "angry": "angry",
        "anger": "angry",
        "a": "angry",
        "happy": "happy",
        "h": "happy",
        "neutral": "neutral",
        "n": "neutral",
        "sad": "sad",
        "s": "sad",
    },
    drop=frozenset({"other", "o", "x", "unknown"}),
)

# Joy and anger kept as separate source classes; see label_map_for to drop
# anger for the combined reading.
MELD_MAP = LabelMap(
    corpus="meld",
    mapping={
        "sadness": "sad",
        "neutral": "neutral",
        "joy": "happy",
        "anger": "angry",
    },
    drop=frozenset({"disgust", "surprise", "fear"}),
)

MELD_MAP_JOY_ANGER_COMBINED = LabelMap(
    corpus="meld",
    mapping={"sadness": "sad", "neutral": "neutral", "joy": "happy"},
    drop=frozenset({"anger", "disgust", "surprise", "fear"}),
)

SYNTHETIC_MAP = LabelMap(
    corpus="synthetic",
    mapping={label: label for label in LABELS},
    drop=frozenset(),
)

_LABEL_MAPS = {
    "iemocap": IEMOCAP_MAP,
    "mspimprov": MSPIMPROV_MAP,
    "meld": MELD_MAP,
    "synthetic": SYNTHETIC_MAP,
}


def label_map_for(corpus: str, meld_combined: bool = False) -> LabelMap:
    if corpus == "meld" and meld_combined:
        return MELD_MAP_JOY_ANGER_COMBINED
    try:
        return _LABEL_MAPS[corpus]
    except KeyError:
        raise UnknownLabelError(f"no label map for corpus {corpus!r}") from None


@dataclass
class DropReport:
    total_in: int
    total_kept: int
    dropped: dict[str, int] = field(default_factory=dict)

    @property
    def total_dropped(self) -> int:
        return sum(self.dropped.values())

    def to_json(self) -> dict:
        return {
            "total_in": self.total_in,
            "total_kept": self.total_kept,
            "total_dropped": self.total_dropped,
            "dropped": dict(sorted(self.dropped.items())),
        }


def map_labels(
    records: Sequence[UtteranceRecord], label_map: LabelMap
) -> tuple[list[UtteranceRecord], DropReport]:
    """Map gold labels through ``label_map``; kept + dropped == input."""
    kept: list[UtteranceRecord] = []
    dropped: Counter[str] = Counter()
    for record in records:
        source = record.gold_label
        if source is None:
            raise UnknownLabelError(f"{record.utterance_id}: record has no gold label to map")
        key = source.lower()
        if key in label_map.mapping:
            kept.append(replace(record, gold_label=label_map.mapping[key]))
        elif key in label_map.drop:
            dropped[key] += 1
        else:
            raise UnknownLabelError(
                f"{record.utterance_id}: source label {source!r} is neither mapped nor dropped "
                f"for corpus {label_map.corpus!r}"
            )
    report = DropReport(total_in=len(records), total_kept=len(kept), dropped=dict(dropped))
    return kept, report


# -- splits ------------------------------------------------------------


@dataclass(frozen=True)
class Fold:
    name: str
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    val_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class FoldPlan:
    kind: str  # loso | cross_corpus | fixed | augment_eval
    folds: tuple[Fold, ...]


def loso_folds(records: Sequence[UtteranceRecord]) -> FoldPlan:
    """One fold per speaker: that speaker tests, everyone else trains."""
    by_speaker: dict[str, list[str]] = defaultdict(list)
    for record in records:
        by_speaker[record.speaker_id].append(record.utterance_id)
    speakers = sorted(by_speaker)
    if len(speakers) < 2:
        raise SplitError(f"leave-one-speaker-out requires >= 2 speakers, got {len(speakers)}")
    folds = []
    for speaker in speakers:
        test = tuple(by_speaker[speaker])
        train = tuple(
            uid for other in speakers if other != speaker for uid in by_speaker[other]
        )
        folds.append(Fold(name=speaker, train_ids=train, test_ids=test))
    return FoldPlan(kind="loso", folds=tuple(folds))


def _apportion(class_counts: dict[str, int], total_target: int) -> dict[str, int]:
    """Largest-remainder allocation of ``total_target`` across classes,
    proportional to class size."""
    total = sum(class_counts.values())
    quotas = {c: total_target * n / total for c, n in class_counts.items()}
    alloc = {c: math.floor(q) for c, q in quotas.items()}
    leftover = total_target - sum(alloc.values())
    by_remainder = sorted(
        class_counts, key=lambda c: (-(quotas[c] - alloc[c]), c)
    )
    for c in by_remainder[:leftover]:
        alloc[c] += 1
    return alloc


def _stratified_parts(
    records: Sequence[UtteranceRecord],
    fractions: Sequence[float],
    seed: int,
    missing_label: str,
) -> list[tuple[str, ...]]:
    """Cut ``records`` into one part per fraction plus the remainder,
    stratified by gold class.

    Each part's size is the half-up rounding of fraction * n, allocated
    across classes by largest remainder so the split stays stratified while
    hitting the global target exactly. Classes are shuffled in sorted class
    order, so the parts are a pure function of the seed.
    """
    rng = Rng(seed)
    class_ids: dict[str, list[str]] = defaultdict(list)
    for record in records:
        if record.gold_label is None:
            raise SplitError(f"{record.utterance_id}: {missing_label}")
        class_ids[record.gold_label].append(record.utterance_id)
    counts = {c: len(ids) for c, ids in class_ids.items()}
    allocs = [_apportion(counts, math.floor(f * len(records) + 0.5)) for f in fractions]
    parts: list[list[str]] = [[] for _ in range(len(fractions) + 1)]
    for c in sorted(class_ids):
        shuffled = rng.shuffled(sorted(class_ids[c]))
        start = 0
        for part, alloc in zip(parts, allocs):
            part.extend(shuffled[start : start + alloc[c]])
            start += alloc[c]
        parts[-1].extend(shuffled[start:])
    return [tuple(sorted(part)) for part in parts]


def cross_corpus_split(
    train_records: Sequence[UtteranceRecord],
    eval_records: Sequence[UtteranceRecord],
    val_fraction: float = 0.30,
    seed: int = 0,
) -> FoldPlan:
    """Train on one corpus; shuffle the other per seed and split it into a
    stratified validation part of val_fraction and a test part."""
    if not train_records or not eval_records:
        raise SplitError("both corpora must be non-empty")
    val_ids, test_ids = _stratified_parts(
        eval_records, [val_fraction], seed, "evaluation records need gold labels"
    )
    fold = Fold(
        name="cross_corpus",
        train_ids=tuple(r.utterance_id for r in train_records),
        val_ids=val_ids,
        test_ids=test_ids,
    )
    return FoldPlan(kind="cross_corpus", folds=(fold,))


def fixed_split(
    records: Sequence[UtteranceRecord],
    val_fraction: float = 0.2,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> FoldPlan:
    """Single stratified train/val/test partition, deterministic per seed."""
    if not records:
        raise SplitError("cannot split an empty manifest")
    val_ids, test_ids, train_ids = _stratified_parts(
        records, [val_fraction, test_fraction], seed, "fixed split needs gold labels"
    )
    fold = Fold(name="fixed", train_ids=train_ids, val_ids=val_ids, test_ids=test_ids)
    return FoldPlan(kind="fixed", folds=(fold,))


# -- training-set augmentation -----------------------------------------


@dataclass
class MergedManifest:
    records: list[UtteranceRecord]
    provenance: dict[str, str]  # utterance_id -> gold | llm
    excluded_unparseable: int


def augment_merge(
    base_records: Sequence[UtteranceRecord],
    extra_records: Sequence[UtteranceRecord],
) -> MergedManifest:
    """Union of a gold-labeled base set with machine-labeled extras.

    Extras must carry a usable llm_label; unparseable ones are excluded and
    counted. Id collisions are rejected. Extras enter ``records`` without
    their gold label, so training on them uses the machine label.
    """
    provenance: dict[str, str] = {}
    records: list[UtteranceRecord] = []
    for record in base_records:
        if record.gold_label is None:
            raise ManifestError(f"{record.utterance_id}: base record lacks a gold label")
        provenance[record.utterance_id] = "gold"
        records.append(record)
    excluded = 0
    for record in extra_records:
        if record.utterance_id in provenance:
            raise ManifestError(f"duplicate utterance_id across sets: {record.utterance_id!r}")
        if record.llm_label is None:
            raise ManifestError(f"{record.utterance_id}: extra record lacks an llm label")
        if record.llm_label == UNPARSEABLE:
            excluded += 1
            continue
        provenance[record.utterance_id] = "llm"
        records.append(replace(record, gold_label=None))
    return MergedManifest(records=records, provenance=provenance, excluded_unparseable=excluded)


def training_label(record: UtteranceRecord, source: str) -> str:
    """Pick the training label per source: gold, llm, or auto (gold first)."""
    if source == "gold":
        value = record.gold_label
    elif source == "llm":
        value = record.llm_label
    elif source == "auto":
        value = record.gold_label if record.gold_label is not None else record.llm_label
    else:
        raise ValueError(f"unknown label source {source!r}")
    if value is None or value == UNPARSEABLE:
        raise ManifestError(
            f"{record.utterance_id}: no usable {source} label"
        )
    return value


# -- metrics -----------------------------------------------------------


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # rows = gold, cols = predicted

    @classmethod
    def from_pairs(cls, gold: Iterable[int], predicted: Iterable[int], n_classes: int = len(LABELS)):
        counts = np.zeros((n_classes, n_classes), dtype=np.int64)
        for g, p in zip(gold, predicted):
            counts[g, p] += 1
        return cls(counts)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise MetricError(f"confusion matrix must be square, got {self.counts.shape}")
        if (self.counts < 0).any():
            raise MetricError("confusion matrix entries must be non-negative")


def uar(confusion: ConfusionMatrix) -> float:
    """Unweighted average recall: mean over classes of diag / row sum."""
    counts = confusion.counts
    support = counts.sum(axis=1)
    for i, s in enumerate(support):
        if s == 0:
            name = LABELS[i] if i < len(LABELS) else str(i)
            raise MetricError(f"class {name!r} has zero support")
    recalls = np.diag(counts) / support
    return float(recalls.mean())


def mean_recall_present(gold: Sequence[int], predicted: Sequence[int]) -> float:
    """Mean recall over classes that appear in ``gold``; tolerant variant used
    for validation-time model selection on possibly incomplete splits."""
    gold = np.asarray(gold)
    predicted = np.asarray(predicted)
    recalls = []
    for c in np.unique(gold):
        mask = gold == c
        recalls.append(float((predicted[mask] == c).mean()))
    if not recalls:
        raise MetricError("no gold labels to score")
    return float(np.mean(recalls))


@dataclass
class RunReport:
    uars: list[float]
    mean: float
    std: float
    config_digest: str

    @property
    def repeats(self) -> int:
        return len(self.uars)

    def to_json(self) -> dict:
        return {
            "uars": self.uars,
            "mean": self.mean,
            "std": self.std,
            "repeats": self.repeats,
            "config_digest": self.config_digest,
        }


def aggregate_runs(uars: Sequence[float], config_digest: str = "") -> RunReport:
    """Arithmetic mean and sample (n-1) standard deviation; n = 1 gives 0."""
    values = [float(v) for v in uars]
    if not values:
        raise MetricError("cannot aggregate an empty list of runs")
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return RunReport(uars=values, mean=mean, std=std, config_digest=config_digest)


def config_digest(config: Mapping) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()
