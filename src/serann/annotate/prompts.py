"""Prompt construction and response parsing for emotion labeling.

Prompts are deterministic: the same record, context variant, few-shot seed,
and template version always serialize to identical bytes. A target block
never contains the record's gold label; exemplar blocks mirror the target's
feature lines and end with their label.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from ..corpus import LABELS, UNPARSEABLE, UtteranceRecord
from ..coremath.rng import Rng
from ..dsp import UtteranceFeatures

TEMPLATE_VERSION = "v1"
FEW_SHOT_COUNT = 10
CODE_COUNT = 64

SYSTEM_PREAMBLE = (
    "You label the emotion of spoken utterances. Classify each utterance into "
    "exactly one of: angry, happy, neutral, sad. Answer with the single word."
)

_SYNONYMS = {
    "angry": "angry",
    "anger": "angry",
    "happy": "happy",
    "joy": "happy",
    "neutral": "neutral",
    "sad": "sad",
    "sadness": "sad",
}


class ContextVariant(Enum):
    TEXT_ONLY = "text"
    TEXT_ENERGY_F0 = "text-energy-f0"
    TEXT_ENERGY_F0_GENDER = "text-energy-f0-gender"
    TEXT_ENERGY_F0_GENDER_CODES = "text-energy-f0-gender-codes"

    @property
    def needs_features(self) -> bool:
        return self is not ContextVariant.TEXT_ONLY

    @property
    def needs_gender(self) -> bool:
        return self in (
            ContextVariant.TEXT_ENERGY_F0_GENDER,
            ContextVariant.TEXT_ENERGY_F0_GENDER_CODES,
        )

    @property
    def needs_codes(self) -> bool:
        return self is ContextVariant.TEXT_ENERGY_F0_GENDER_CODES

    @classmethod
    def parse(cls, value: str) -> "ContextVariant":
        aliases = {"full": cls.TEXT_ENERGY_F0_GENDER_CODES}
        if value in aliases:
            return aliases[value]
        for variant in cls:
            if variant.value == value:
                return variant
        raise ValueError(
            f"unknown context variant {value!r}; choose from "
            f"{[v.value for v in cls] + ['full']}"
        )


class PromptContextError(ValueError):
    """A required feature for the chosen variant is missing; names the field."""


def _record_lines(
    record: UtteranceRecord,
    variant: ContextVariant,
    features: UtteranceFeatures | None,
    codes: Sequence[int] | None,
    gender: str,
) -> list[str]:
    """The transcript line plus the context lines ``variant`` asks for."""
    owner = record.utterance_id
    lines = [f'Transcript: "{record.transcript}"']
    if variant.needs_features:
        if features is None:
            raise PromptContextError(f"{owner}: avg_energy required for variant {variant.value}")
        lines.append(f"Average energy (0-1 RMS): {features.avg_energy:.3f}")
        lines.append(f"Average pitch: {features.avg_pitch_hz:.0f} Hz")
    if variant.needs_gender:
        lines.append(f"Speaker gender: {gender}")
    if variant.needs_codes:
        if codes is None:
            raise PromptContextError(f"{owner}: audio codes required for variant {variant.value}")
        if len(codes) != CODE_COUNT:
            raise PromptContextError(
                f"{owner}: expected {CODE_COUNT} audio codes, got {len(codes)}"
            )
        lines.append("Audio codes: " + " ".join(str(int(c)) for c in codes))
    return lines


@dataclass(frozen=True)
class PromptSpec:
    system: str
    user: str

    def prompt_text(self) -> str:
        return f"[{TEMPLATE_VERSION}]\n{self.system}\n\n{self.user}"

    def prompt_hash(self) -> str:
        return hashlib.sha256(self.prompt_text().encode("utf-8")).hexdigest()


def few_shot_block(
    records: Sequence[UtteranceRecord],
    variant: ContextVariant,
    features_by_id: Mapping[str, UtteranceFeatures] | None = None,
    codes_by_id: Mapping[str, Sequence[int]] | None = None,
) -> str:
    """Render the exemplar section shared by every prompt of one few-shot
    run: each exemplar's lines as a target's would read, then its gold
    label. An exemplar states the manifest's speaker gender."""
    if len(records) != FEW_SHOT_COUNT:
        raise ValueError(
            f"few-shot block must contain {FEW_SHOT_COUNT} examples, got {len(records)}"
        )
    features_by_id = features_by_id or {}
    codes_by_id = codes_by_id or {}
    parts = ["Examples:"]
    for record in records:
        if record.gold_label not in LABELS:
            raise ValueError(f"few-shot label {record.gold_label!r} not in {LABELS}")
        lines = _record_lines(
            record,
            variant,
            features_by_id.get(record.utterance_id),
            codes_by_id.get(record.utterance_id),
            record.gender,
        )
        lines.append(f"Label: {record.gold_label}")
        parts.append("\n".join(lines))
    parts.append("---")
    return "\n\n".join(parts)


def build_prompt(
    record: UtteranceRecord,
    variant: ContextVariant,
    few_shot: str = "",
    features: UtteranceFeatures | None = None,
    codes: Sequence[int] | None = None,
) -> PromptSpec:
    """Assemble the prompt for one utterance after the rendered
    ``few_shot`` block (empty for zero-shot).

    The target block is built only from the transcript and the supplied
    context; the record's labels are never serialized into it. It states
    the features' speaker gender unless that is "unknown", and then the
    manifest's.
    """
    gender = features.gender if features and features.gender != "unknown" else record.gender
    target = "\n".join(_record_lines(record, variant, features, codes, gender))
    parts = [few_shot] if few_shot else []
    parts += ["Now classify this utterance.", target, "Label:"]
    return PromptSpec(system=SYSTEM_PREAMBLE, user="\n\n".join(parts))


def parse_label(raw_response: str) -> str:
    """Fold a free-form response to one of the four labels, or "unparseable".

    Scans case-insensitively for label words and their common synonyms; a
    response naming exactly one distinct class parses, anything else does
    not. Total: every string maps somewhere.
    """
    if not raw_response:
        return UNPARSEABLE
    found: set[str] = set()
    word = []
    for ch in raw_response.lower() + " ":
        if ch.isalpha():
            word.append(ch)
            continue
        if word:
            token = "".join(word)
            if token in _SYNONYMS:
                found.add(_SYNONYMS[token])
            word = []
    if len(found) == 1:
        return found.pop()
    return UNPARSEABLE


def select_few_shot(
    records: Sequence[UtteranceRecord],
    rng: Rng,
    balanced: bool = False,
) -> list[UtteranceRecord]:
    """Draw ``FEW_SHOT_COUNT`` gold-labeled exemplars without replacement,
    uniformly by default; ``balanced`` draws an equal share per class
    instead."""
    k = FEW_SHOT_COUNT
    pool = [r for r in records if r.gold_label in LABELS]
    if len(pool) < k:
        raise ValueError(f"few-shot pool has {len(pool)} labeled records; {k} required")
    if not balanced:
        picks = rng.choice_without_replacement(len(pool), k)
        return [pool[i] for i in sorted(picks)]
    per_class = k // len(LABELS)
    remainder = k % len(LABELS)
    chosen: list[UtteranceRecord] = []
    for i, label in enumerate(LABELS):
        members = [r for r in pool if r.gold_label == label]
        want = per_class + (1 if i < remainder else 0)
        if len(members) < want:
            raise ValueError(f"class {label!r} has {len(members)} records; {want} required")
        picks = rng.choice_without_replacement(len(members), want)
        chosen.extend(members[j] for j in sorted(picks))
    return chosen

