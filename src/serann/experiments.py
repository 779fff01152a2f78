"""Protocol runners: leave-one-speaker-out, cross-corpus, fixed-split, and
training-set augmentation, each repeated over explicit seeds and aggregated
to mean and standard deviation.

Leave-one-speaker-out folds carry no validation split of their own, so each
run holds out one training speaker (rotated per fold, shifted by the repeat
seed) as validation; train, validation, and test speakers stay disjoint.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .classifier import ClassifierConfig, EmotionClassifier, predict, train
from .corpus import (
    LABEL_INDEX,
    LABELS,
    ConfusionMatrix,
    Fold,
    FoldPlan,
    MetricError,
    RunReport,
    SplitError,
    UtteranceRecord,
    aggregate_runs,
    augment_merge,
    config_digest,
    cross_corpus_split,
    fixed_split,
    loso_folds,
    training_label,
    uar,
)
from .coremath.rng import Rng
from .dsp import N_FRAMES, N_MELS
from .reports import SCHEMA_VERSION


@dataclass
class LabeledSet:
    x: np.ndarray  # (N, bands, frames)
    y: np.ndarray  # (N,)


def materialize(
    ids: Sequence[str],
    records_by_id: Mapping[str, UtteranceRecord],
    mels_by_id: Mapping[str, np.ndarray],
    labels_source: str,
) -> LabeledSet:
    xs, ys = [], []
    for uid in ids:
        record = records_by_id[uid]
        xs.append(mels_by_id[uid])
        ys.append(LABEL_INDEX[training_label(record, labels_source)])
    return LabeledSet(
        x=np.stack(xs) if xs else np.zeros((0, N_MELS, N_FRAMES), dtype=np.float32),
        y=np.asarray(ys, dtype=np.int64),
    )


def _carve_validation_speaker(
    fold: Fold, records_by_id: Mapping[str, UtteranceRecord], pick: int
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split a fold's training ids into train/val by holding out one speaker."""
    speakers = sorted({records_by_id[uid].speaker_id for uid in fold.train_ids})
    if len(speakers) < 2:
        raise SplitError("cannot carve a validation speaker from a single-speaker train set")
    val_speaker = speakers[pick % len(speakers)]
    train_ids = tuple(uid for uid in fold.train_ids if records_by_id[uid].speaker_id != val_speaker)
    val_ids = tuple(uid for uid in fold.train_ids if records_by_id[uid].speaker_id == val_speaker)
    return train_ids, val_ids


def run_fold(
    fold: Fold,
    records_by_id: Mapping[str, UtteranceRecord],
    mels_by_id: Mapping[str, np.ndarray],
    labels_source: str,
    config: ClassifierConfig,
    seed: int,
    fold_index: int = 0,
    artifacts_dir=None,
) -> float:
    """Train on one fold and return the test UAR against gold labels.

    With ``artifacts_dir`` set, the best checkpoint and the epoch history are
    written there as ``<fold>_seed<seed>``."""
    if fold.val_ids:
        train_ids, val_ids = fold.train_ids, fold.val_ids
    else:
        train_ids, val_ids = _carve_validation_speaker(fold, records_by_id, seed + fold_index)
    # Validation labels come from the training label source (model selection
    # must not peek at gold when training on machine labels); the test score
    # is always against gold.
    train_set = materialize(train_ids, records_by_id, mels_by_id, labels_source)
    val_set = materialize(val_ids, records_by_id, mels_by_id, labels_source)
    test_set = materialize(fold.test_ids, records_by_id, mels_by_id, "gold")
    model = EmotionClassifier(config, Rng(seed).spawn(f"fold:{fold.name}"))
    history_path = None
    if artifacts_dir is not None:
        base = Path(artifacts_dir)
        base.mkdir(parents=True, exist_ok=True)
        tag = f"{fold.name}_seed{seed}"
        history_path = base / f"{tag}.history.jsonl"
    train(model, train_set.x, train_set.y, val_set.x, val_set.y, seed=seed,
          history_path=history_path)
    if artifacts_dir is not None:
        model.save(base / f"{tag}.serann")
    pred, _ = predict(model, test_set.x)
    confusion = ConfusionMatrix.from_pairs(test_set.y, pred, len(LABELS))
    try:
        return uar(confusion)
    except MetricError as exc:
        raise MetricError(
            f"fold {fold.name!r}, seed {seed}: test split of {len(test_set.y)} records: {exc}"
        ) from exc


def run_plan(
    plan_for: Callable[[int], FoldPlan],
    records: Sequence[UtteranceRecord],
    mels_by_id: Mapping[str, np.ndarray],
    labels_source: str,
    config: ClassifierConfig,
    seeds: Sequence[int],
    artifacts_dir=None,
) -> dict:
    """Execute every fold of ``plan_for(seed)`` for every seed; the
    per-repeat score is the mean over folds. Artifacts are tagged
    ``<fold name>_seed<seed>``. Returns a schema-shaped classifier_run
    document."""
    records_by_id = {r.utterance_id: r for r in records}
    fold_uars: dict[str, list[float]] = {}
    per_repeat: list[float] = []
    protocol = None
    for seed in seeds:
        plan = plan_for(seed)
        protocol = plan.kind
        scores = []
        for i, fold in enumerate(plan.folds):
            score = run_fold(
                fold, records_by_id, mels_by_id, labels_source, config, seed, i,
                artifacts_dir=artifacts_dir,
            )
            fold_uars.setdefault(fold.name, []).append(score)
            scores.append(score)
        per_repeat.append(float(np.mean(scores)))
    digest = config_digest({"classifier": asdict(config), "protocol": protocol})
    report: RunReport = aggregate_runs(per_repeat, digest)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "classifier_run",
        "protocol": protocol,
        "labels_source": labels_source,
        "seeds": [int(s) for s in seeds],
        "config": asdict(config),
        "aggregate": report.to_json(),
        "folds": [{"name": name, "uars": fold_uars[name]} for name in sorted(fold_uars)],
    }


def run_loso(
    records: Sequence[UtteranceRecord],
    mels_by_id: Mapping[str, np.ndarray],
    labels_source: str,
    config: ClassifierConfig,
    seeds: Sequence[int],
    artifacts_dir=None,
) -> dict:
    plan = loso_folds(records)
    return run_plan(
        lambda seed: plan, records, mels_by_id, labels_source, config, seeds, artifacts_dir
    )


def run_cross_corpus(
    train_records: Sequence[UtteranceRecord],
    eval_records: Sequence[UtteranceRecord],
    mels_by_id: Mapping[str, np.ndarray],
    labels_source: str,
    config: ClassifierConfig,
    seeds: Sequence[int],
    artifacts_dir=None,
) -> dict:
    return run_plan(
        lambda seed: cross_corpus_split(train_records, eval_records, seed=seed),
        [*train_records, *eval_records], mels_by_id, labels_source, config, seeds, artifacts_dir,
    )


def run_fixed(
    records: Sequence[UtteranceRecord],
    mels_by_id: Mapping[str, np.ndarray],
    labels_source: str,
    config: ClassifierConfig,
    seeds: Sequence[int],
    artifacts_dir=None,
) -> dict:
    return run_plan(
        lambda seed: fixed_split(records, seed=seed),
        records, mels_by_id, labels_source, config, seeds, artifacts_dir,
    )


def run_augment_eval(
    base_records: Sequence[UtteranceRecord],
    extra_records: Sequence[UtteranceRecord],
    mels_by_id: Mapping[str, np.ndarray],
    config: ClassifierConfig,
    seeds: Sequence[int],
) -> dict:
    """Paired comparison: the same seeded base split trained twice per seed,
    once as-is (gold labels) and once with machine-labeled extras added to
    the training side. Validation and test always come from the base corpus
    with gold labels. Each arm is one ``run_plan`` over single-fold plans of
    kind ``augment_eval``."""
    merged = augment_merge(base_records, extra_records)
    extra_ids = tuple(uid for uid, src in merged.provenance.items() if src == "llm")

    def plan_for(seed: int, augmented: bool) -> FoldPlan:
        fold = fixed_split(base_records, seed=seed).folds[0]
        if augmented:
            fold = replace(fold, name="augmented", train_ids=fold.train_ids + extra_ids)
        return FoldPlan(kind="augment_eval", folds=(fold,))

    baseline = run_plan(
        lambda seed: plan_for(seed, False), base_records, mels_by_id, "gold", config, seeds
    )["aggregate"]
    augmented = run_plan(
        lambda seed: plan_for(seed, True), merged.records, mels_by_id, "auto", config, seeds
    )["aggregate"]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "augment_eval",
        "seeds": [int(s) for s in seeds],
        "config": asdict(config),
        "baseline": baseline,
        "augmented": augmented,
        "delta_mean": augmented["mean"] - baseline["mean"],
        "extra_records_used": len(extra_ids),
        "extra_records_excluded": merged.excluded_unparseable,
    }
