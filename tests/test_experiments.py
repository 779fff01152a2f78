import json

import numpy as np
import pytest

from conftest import reference_run_augment_eval
from serann.classifier import ClassifierConfig
from serann.corpus import LABELS, loso_folds
from serann.experiments import (
    _carve_validation_speaker,
    materialize,
    run_augment_eval,
    run_cross_corpus,
    run_fixed,
    run_loso,
)
from serann.reports import ReportValidationError, validate_report


def desk(max_epochs=2):
    cfg = ClassifierConfig.desk()
    cfg.max_epochs = max_epochs
    return cfg


class TestMaterialize:
    def test_missing_mel_named(self, corpus_records, corpus_mels):
        by_id = {r.utterance_id: r for r in corpus_records}
        ids = [corpus_records[0].utterance_id]
        with pytest.raises(KeyError, match=ids[0]):
            materialize(ids, by_id, {}, "gold")

    def test_labels_follow_source(self, corpus_records, corpus_mels):
        by_id = {r.utterance_id: r for r in corpus_records}
        ids = [r.utterance_id for r in corpus_records[:4]]
        out = materialize(ids, by_id, corpus_mels, "gold")
        assert out.x.shape == (4, 80, 256)
        assert out.y.shape == (4,)


class TestValCarving:
    def test_val_speaker_disjoint(self, corpus_records):
        plan = loso_folds(corpus_records)
        by_id = {r.utterance_id: r for r in corpus_records}
        for pick in range(3):
            train_ids, val_ids = _carve_validation_speaker(plan.folds[0], by_id, pick)
            train_speakers = {by_id[u].speaker_id for u in train_ids}
            val_speakers = {by_id[u].speaker_id for u in val_ids}
            assert len(val_speakers) == 1
            assert not (train_speakers & val_speakers)
            assert set(train_ids) | set(val_ids) == set(plan.folds[0].train_ids)


class TestRunners:
    def test_loso_report_shape_and_schema(self, corpus_records, corpus_mels):
        report = run_loso(corpus_records, corpus_mels, "gold", desk(), seeds=[0])
        validate_report(report)
        assert report["protocol"] == "loso"
        assert len(report["folds"]) == 10
        assert report["aggregate"]["repeats"] == 1
        for fold in report["folds"]:
            assert len(fold["uars"]) == 1
            assert 0.0 <= fold["uars"][0] <= 1.0

    def test_fixed_run_seed_reproducible(self, corpus_records, corpus_mels):
        a = run_fixed(corpus_records, corpus_mels, "gold", desk(), seeds=[3])
        b = run_fixed(corpus_records, corpus_mels, "gold", desk(), seeds=[3])
        assert a["aggregate"]["uars"] == b["aggregate"]["uars"]

    def test_cross_corpus_run(self, corpus_records, corpus_mels, tmp_path):
        from dataclasses import replace

        eval_records = [
            replace(r, utterance_id="b_" + r.utterance_id, speaker_id="b_" + r.speaker_id)
            for r in corpus_records[:40]
        ]
        mels = dict(corpus_mels)
        for r in eval_records:
            mels[r.utterance_id] = corpus_mels[r.utterance_id.removeprefix("b_")]
        report = run_cross_corpus(
            corpus_records, eval_records, mels, "gold", desk(), seeds=[0, 1],
            artifacts_dir=tmp_path,
        )
        validate_report(report)
        assert report["protocol"] == "cross_corpus"
        assert len(report["aggregate"]["uars"]) == 2
        assert sorted(p.name for p in tmp_path.glob("*.serann")) == [
            "cross_corpus_seed0.serann", "cross_corpus_seed1.serann",
        ]

    def test_augment_eval_report(self, corpus_records, corpus_mels):
        from dataclasses import replace

        base = corpus_records[:40]
        extra = [
            replace(r, utterance_id="x_" + r.utterance_id, llm_label=r.gold_label, gold_label=None)
            for r in corpus_records[40:60]
        ]
        mels = dict(corpus_mels)
        for r in extra:
            mels[r.utterance_id] = corpus_mels[r.utterance_id.removeprefix("x_")]
        report = run_augment_eval(base, extra, mels, desk(), seeds=[1, 2])
        validate_report(report)
        assert report["extra_records_used"] == 20
        assert len(report["baseline"]["uars"]) == 2
        assert len(report["augmented"]["uars"]) == 2
        reference = reference_run_augment_eval(base, extra, mels, desk(), seeds=[1, 2])
        assert json.dumps(report, sort_keys=True) == json.dumps(reference, sort_keys=True)

    def test_augment_eval_trains_extras_on_their_llm_labels(self, corpus_records, corpus_mels):
        from dataclasses import replace

        base = corpus_records[:40]
        extra = [
            replace(r, utterance_id="x_" + r.utterance_id,
                    llm_label=LABELS[(LABELS.index(r.gold_label) + 1) % len(LABELS)])
            for r in corpus_records[40:60]
        ]
        mels = dict(corpus_mels)
        for r in extra:
            mels[r.utterance_id] = corpus_mels[r.utterance_id.removeprefix("x_")]
        with_gold = run_augment_eval(base, extra, mels, desk(1), seeds=[1])
        without_gold = [replace(r, gold_label=None) for r in extra]
        assert with_gold == run_augment_eval(base, without_gold, mels, desk(1), seeds=[1])


class TestReportValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ReportValidationError, match="kind"):
            validate_report({"kind": "mystery"})

    def test_missing_field_rejected(self):
        with pytest.raises(ReportValidationError):
            validate_report({"schema_version": 1, "kind": "classifier_run"})

    def test_annotation_summary_schema(self):
        validate_report(
            {
                "schema_version": 1,
                "kind": "annotation_summary",
                "total": 10,
                "label_counts": {"happy": 10},
                "unparseable": 0,
                "unparseable_rate": 0.0,
                "cache_hits": 3,
                "failures": [],
            }
        )
