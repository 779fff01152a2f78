import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serann.corpus import (
    IEMOCAP_MAP,
    LABELS,
    MELD_MAP,
    MELD_MAP_JOY_ANGER_COMBINED,
    MSPIMPROV_MAP,
    ConfusionMatrix,
    ManifestError,
    MetricError,
    SplitError,
    UnknownLabelError,
    UtteranceRecord,
    aggregate_runs,
    augment_merge,
    config_digest,
    cross_corpus_split,
    fixed_split,
    load_manifest,
    loso_folds,
    map_labels,
    save_manifest,
    training_label,
    uar,
)
from serann.coremath.rng import Rng


def make_record(uid, speaker="spk00", gold=None, llm=None, corpus="synthetic", gender="male"):
    return UtteranceRecord(
        utterance_id=uid,
        audio_path=f"audio/{uid}.wav",
        transcript="placeholder words",
        speaker_id=speaker,
        gender=gender,
        corpus=corpus,
        gold_label=gold,
        llm_label=llm,
    )


def raw_records(label_counts, corpus):
    records = []
    i = 0
    for label, count in label_counts.items():
        for _ in range(count):
            records.append(
                make_record(f"{corpus}_{i:05d}", speaker=f"spk{i % 10:02d}", gold=label, corpus=corpus)
            )
            i += 1
    return records


class TestManifests:
    def test_empty_file_empty_list(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_manifest(path) == []

    def test_three_records_roundtrip(self, tmp_path):
        records = [make_record(f"u{i}", gold="happy") for i in range(3)]
        path = tmp_path / "m.jsonl"
        save_manifest(path, records)
        loaded = load_manifest(path)
        assert len(loaded) == 3
        assert loaded[0] == records[0]

    def test_duplicate_id_names_offender(self, tmp_path):
        records = [make_record("dup"), make_record("dup")]
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join(json.dumps(r.to_json()) for r in records))
        with pytest.raises(ManifestError, match="dup"):
            load_manifest(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(make_record("ok").to_json()) + "\n{broken\n")
        with pytest.raises(ManifestError, match=":2:"):
            load_manifest(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"utterance_id": "x"}) + "\n")
        with pytest.raises(ManifestError, match="missing field 'audio_path'"):
            load_manifest(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({**make_record("x").to_json(), "mood": "sad"}) + "\n")
        with pytest.raises(ManifestError, match=r":1: unknown fields \['mood'\]"):
            load_manifest(path)

    def test_non_canonical_label_rejected_by_default(self, tmp_path):
        record = make_record("x", corpus="iemocap")
        record.gold_label = "excited"
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(record.to_json()) + "\n")
        with pytest.raises(ManifestError, match="excited"):
            load_manifest(path)
        assert load_manifest(path, canonical_labels=False)[0].gold_label == "excited"


class TestLabelMaps:
    def test_iemocap_reproduces_published_counts(self):
        # Four-class subset with excited folded into happy: 1636 happy of
        # which 1041 were excited, 5531 total kept.
        raw = {
            "ang": 1103,
            "hap": 595,
            "exc": 1041,
            "neu": 1708,
            "sad": 1084,
            "fru": 120,
            "xxx": 30,
        }
        records = raw_records(raw, "iemocap")
        kept, report = map_labels(records, IEMOCAP_MAP)
        counts = {label: 0 for label in LABELS}
        for record in kept:
            counts[record.gold_label] += 1
        assert counts == {"sad": 1084, "happy": 1636, "angry": 1103, "neutral": 1708}
        assert len(kept) == 5531
        assert report.total_dropped == 150
        assert report.total_in == len(records)
        assert report.total_kept + report.total_dropped == report.total_in

    def test_mspimprov_reproduces_published_counts(self):
        raw = {"anger": 792, "sad": 885, "neutral": 3477, "happy": 2644, "other": 55}
        kept, report = map_labels(raw_records(raw, "mspimprov"), MSPIMPROV_MAP)
        counts = {label: 0 for label in LABELS}
        for record in kept:
            counts[record.gold_label] += 1
        assert counts == {"angry": 792, "sad": 885, "neutral": 3477, "happy": 2644}
        assert len(kept) == 7798
        assert report.dropped == {"other": 55}

    def test_meld_drops_outside_taxonomy(self):
        raw = {"sadness": 4, "neutral": 5, "joy": 3, "anger": 2, "disgust": 6, "fear": 1}
        kept, report = map_labels(raw_records(raw, "meld"), MELD_MAP)
        assert len(kept) == 14
        assert report.dropped == {"disgust": 6, "fear": 1}

    def test_meld_combined_reading_drops_anger(self):
        raw = {"sadness": 2, "neutral": 2, "joy": 2, "anger": 2}
        kept, report = map_labels(raw_records(raw, "meld"), MELD_MAP_JOY_ANGER_COMBINED)
        assert len(kept) == 6
        assert report.dropped == {"anger": 2}

    def test_unmapped_label_is_an_error(self):
        records = raw_records({"bored": 1}, "iemocap")
        with pytest.raises(UnknownLabelError, match="bored"):
            map_labels(records, IEMOCAP_MAP)

    def test_conservation_property(self):
        raw = {"hap": 10, "exc": 5, "fru": 7, "sad": 3}
        records = raw_records(raw, "iemocap")
        kept, report = map_labels(records, IEMOCAP_MAP)
        assert len(kept) + report.total_dropped == len(records)


class TestLosoFolds:
    def test_ten_speakers_ten_folds(self, corpus_records):
        plan = loso_folds(corpus_records)
        assert plan.kind == "loso"
        assert len(plan.folds) == 10

    def test_partition_and_no_leakage(self, corpus_records):
        plan = loso_folds(corpus_records)
        by_id = {r.utterance_id: r for r in corpus_records}
        seen_test = []
        for fold in plan.folds:
            train_speakers = {by_id[u].speaker_id for u in fold.train_ids}
            test_speakers = {by_id[u].speaker_id for u in fold.test_ids}
            assert not (train_speakers & test_speakers)
            assert set(fold.train_ids) | set(fold.test_ids) == set(by_id)
            seen_test.extend(fold.test_ids)
        assert sorted(seen_test) == sorted(by_id)  # every record tests exactly once

    def test_single_speaker_rejected(self):
        records = [make_record(f"u{i}", speaker="only") for i in range(4)]
        with pytest.raises(SplitError, match="2 speakers"):
            loso_folds(records)


class TestCrossCorpusSplit:
    def test_msp_sized_split_is_2339_5459(self):
        raw = {"angry": 792, "sad": 885, "neutral": 3477, "happy": 2644}
        eval_records = raw_records(raw, "mspimprov")
        train_records = [make_record("t0", gold="happy", corpus="iemocap")]
        plan = cross_corpus_split(train_records, eval_records, 0.30, seed=1)
        fold = plan.folds[0]
        assert len(fold.val_ids) == 2339
        assert len(fold.test_ids) == 5459

    def test_partition_and_determinism(self):
        eval_records = raw_records({"angry": 13, "happy": 17, "neutral": 29, "sad": 11}, "mspimprov")
        train_records = [make_record("t0", gold="sad", corpus="iemocap")]
        a = cross_corpus_split(train_records, eval_records, 0.30, seed=5)
        b = cross_corpus_split(train_records, eval_records, 0.30, seed=5)
        c = cross_corpus_split(train_records, eval_records, 0.30, seed=6)
        assert a == b
        assert a != c
        fold = a.folds[0]
        val, test = set(fold.val_ids), set(fold.test_ids)
        assert not (val & test)
        assert val | test == {r.utterance_id for r in eval_records}

    def test_stratified_by_class(self):
        eval_records = raw_records({"angry": 40, "happy": 40, "neutral": 40, "sad": 40}, "mspimprov")
        plan = cross_corpus_split([make_record("t0", gold="sad")], eval_records, 0.30, seed=2)
        by_id = {r.utterance_id: r for r in eval_records}
        per_class = {label: 0 for label in LABELS}
        for uid in plan.folds[0].val_ids:
            per_class[by_id[uid].gold_label] += 1
        assert per_class == {label: 12 for label in LABELS}

    def test_empty_corpus_rejected(self):
        with pytest.raises(SplitError):
            cross_corpus_split([], [make_record("x", gold="sad")])


class TestFixedSplit:
    def test_partition(self):
        records = raw_records({"angry": 10, "happy": 10, "neutral": 10, "sad": 10}, "synthetic")
        plan = fixed_split(records, 0.2, 0.2, seed=3)
        fold = plan.folds[0]
        all_ids = set(fold.train_ids) | set(fold.val_ids) | set(fold.test_ids)
        assert all_ids == {r.utterance_id for r in records}
        assert len(fold.val_ids) == 8 and len(fold.test_ids) == 8


class TestAugmentMerge:
    def test_union_with_provenance(self):
        base = [make_record(f"b{i}", gold="happy") for i in range(100)]
        extra = [make_record(f"e{i}", llm="sad") for i in range(50)]
        merged = augment_merge(base, extra)
        assert len(merged.records) == 150
        assert sum(1 for v in merged.provenance.values() if v == "llm") == 50

    def test_unparseable_extras_excluded_and_counted(self):
        base = [make_record("b0", gold="happy")]
        extra = [make_record("e0", llm="unparseable"), make_record("e1", llm="angry")]
        merged = augment_merge(base, extra)
        assert merged.excluded_unparseable == 1
        assert len(merged.records) == 2

    def test_id_collision_rejected(self):
        with pytest.raises(ManifestError, match="duplicate"):
            augment_merge([make_record("x", gold="sad")], [make_record("x", llm="sad")])

    def test_unlabeled_extra_rejected(self):
        with pytest.raises(ManifestError, match="llm label"):
            augment_merge([make_record("b", gold="sad")], [make_record("e")])

    def test_training_label_sources(self):
        record = make_record("r", gold="sad", llm="happy")
        assert training_label(record, "gold") == "sad"
        assert training_label(record, "llm") == "happy"
        assert training_label(record, "auto") == "sad"
        assert training_label(make_record("r2", llm="angry"), "auto") == "angry"
        with pytest.raises(ManifestError):
            training_label(make_record("r3"), "gold")


class TestUar:
    def test_perfect_diagonal(self):
        cm = ConfusionMatrix(np.diag([5, 9, 2, 7]))
        assert uar(cm) == 1.0

    def test_two_class_hand_value(self):
        # recalls 9/10 and 6/10; mean 0.75
        cm = ConfusionMatrix(np.array([[9, 1], [4, 6]]))
        assert uar(cm) == pytest.approx(0.75)

    def test_single_class_predictor_on_balanced_gold(self):
        counts = np.zeros((4, 4), dtype=int)
        counts[:, 2] = 25  # everything predicted as one class
        assert uar(ConfusionMatrix(counts)) == 0.25

    def test_zero_support_names_class(self):
        counts = np.diag([3, 0, 3, 3])
        with pytest.raises(MetricError, match="happy"):
            uar(ConfusionMatrix(counts))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_bruteforce_recall(self, seed):
        gen = np.random.default_rng(seed)
        counts = gen.integers(0, 50, size=(4, 4))
        counts[np.arange(4), gen.integers(0, 4, size=4)] += 1  # ensure support
        expected = 0.0
        for c in range(4):
            expected += counts[c, c] / counts[c].sum()
        expected /= 4
        assert uar(ConfusionMatrix(counts)) == pytest.approx(expected, abs=1e-12)


class TestAggregateRuns:
    def test_constant_runs(self):
        report = aggregate_runs([0.5] * 10, "digest")
        assert report.mean == 0.5
        assert report.std == 0.0
        assert report.repeats == 10

    def test_two_value_sample_std(self):
        report = aggregate_runs([0.4, 0.6])
        assert report.mean == pytest.approx(0.5)
        assert report.std == pytest.approx(0.14142135623730953, abs=1e-12)

    def test_single_run_std_zero(self):
        assert aggregate_runs([0.7]).std == 0.0

    def test_echoes_digest(self):
        digest = config_digest({"a": 1})
        assert aggregate_runs([0.1], digest).config_digest == digest

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            aggregate_runs([])
