"""Acceptance suite: one test (or test group) per exit criterion.

Each criterion is asserted at its stated tolerance; the conftest terminal
summary prints one pass/fail line per criterion at the end of the run.
Everything runs on synthetic data with mock backends at desk-scale model
sizes.
"""

import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import test_dsp as dsp_oracles
from conftest import reference_add, reference_mul, reference_neg
from serann import dsp
from serann.annotate import (
    AnnotationCache,
    ContextVariant,
    annotate_corpus,
    build_prompt,
    few_shot_block,
    mock_backend,
    select_few_shot,
)
from serann.classifier import (
    DECAY,
    STOP,
    ClassifierConfig,
    EmotionClassifier,
    attention_pool,
    predict,
    train,
)
from serann.coremath import (
    Adam,
    LstmParams,
    Rng,
    Tensor,
    bilstm,
    conv2d,
    conv2d_transpose,
    dense,
    finite_diff_grad_check,
    mse,
    softmax_cross_entropy,
    tensor_sum,
)
from serann.coremath.checkpoint import save_checkpoint
from serann.corpus import (
    LABEL_INDEX,
    LABELS,
    ConfusionMatrix,
    aggregate_runs,
    cross_corpus_split,
    fixed_split,
    loso_folds,
    uar,
)
from serann.experiments import materialize, run_augment_eval, run_loso
from serann.reports import validate_report
from serann.synthetic import build_synthetic_corpus, two_pattern_mels
from serann.vqvae import (
    VqVae,
    VqVaeConfig,
    codebook_losses,
    extract_codes,
    nearest_codes,
    quantize,
    train_vqvae,
)

DURATIONS: dict[str, float] = {}


def leaf(shape, rng, scale=1.0):
    return Tensor(rng.normal(0, scale, shape, np.float64), requires_grad=True)


def weighted_sum(t):
    w = Tensor(np.linspace(0.5, 1.5, t.size).reshape(t.shape))
    return tensor_sum(reference_mul(t, w))


# -- criterion 1: gradient suite ----------------------------------------


class TestC01GradientSuite:
    def test_c01_gradient_suite(self, corpus_arrays):
        started = time.monotonic()
        rng = Rng(100)
        worst: dict[str, float] = {}

        x = leaf((1, 2, 6, 8), rng)
        k = leaf((3, 2, 3, 3), rng)
        worst["conv2d"] = finite_diff_grad_check(
            lambda: weighted_sum(conv2d(x, k, stride=(2, 2), padding=1)), [x, k]
        )

        xt = leaf((1, 3, 3, 4), rng)
        kt = leaf((3, 2, 3, 3), rng)
        worst["conv2d_transpose"] = finite_diff_grad_check(
            lambda: weighted_sum(
                conv2d_transpose(xt, kt, stride=(2, 2), padding=1, output_padding=(1, 1))
            ),
            [xt, kt],
        )

        def lstm_params():
            return LstmParams(
                wx=leaf((2, 8), rng, 0.4), wh=leaf((2, 8), rng, 0.4), b=leaf((8,), rng, 0.4)
            )

        fwd, bwd = lstm_params(), lstm_params()
        seq = leaf((1, 3, 2), rng)
        worst["bilstm"] = finite_diff_grad_check(
            lambda: weighted_sum(bilstm(seq, fwd, bwd)),
            [seq, fwd.wx, fwd.wh, fwd.b, bwd.wx, bwd.wh, bwd.b],
        )

        xd = leaf((3, 4), rng)
        xd.data += 0.05 * np.sign(xd.data)
        wd, bd = leaf((4, 3), rng), leaf((3,), rng)
        worst["dense"] = finite_diff_grad_check(
            lambda: weighted_sum(dense(xd, wd, bd, activation="relu")), [xd, wd, bd]
        )

        h = leaf((1, 5, 3), rng)
        wv = leaf((3,), rng)
        worst["attention"] = finite_diff_grad_check(
            lambda: weighted_sum(attention_pool(h, wv)), [h, wv]
        )

        zl = leaf((4, 5), rng)
        labels = np.array([0, 3, 2, 4])
        worst["softmax_ce"] = finite_diff_grad_check(
            lambda: softmax_cross_entropy(zl, labels), [zl]
        )

        # Full autoencoder at toy width. The quantizer's gradient routing is
        # deliberately not the true derivative (that exactness is criterion
        # 3), so the differentiable compositions are checked: the whole
        # encode->decode stack, the codebook term against the codebook, and
        # the commitment term against the encoder, with codes frozen.
        toy = VqVaeConfig(codebook_size=8, code_dim=4, channels=(2, 2, 2, 4, 4), epochs=1, batch_size=2)
        vq_model = VqVae(toy, Rng(101), dtype=np.float64)
        # Zero-initialized biases leave some pre-activations exactly at the
        # ReLU kink (a degenerate point); jitter them off it for the probe.
        for name, param in vq_model.params().items():
            if name.endswith(".bias"):
                param.data = rng.normal(0, 0.05, param.shape, np.float64)
        mel_in = Tensor(two_pattern_mels(1, Rng(102))[0][:2, None].astype(np.float64))
        frozen_codes = quantize(vq_model.encode(mel_in), vq_model.codebook)[1]
        layer_params = [
            t for name, t in vq_model.params().items() if name != "codebook"
        ]

        def autoencoder_loss():
            x_hat = vq_model.decode(vq_model.encode(mel_in))
            diff = reference_add(mel_in, reference_neg(x_hat))
            return tensor_sum(reference_mul(diff, diff))

        worst["vqvae_autoencoder"] = finite_diff_grad_check(
            autoencoder_loss, layer_params,
            epsilon=1e-5, max_checks_per_tensor=3, rng=Rng(103),
        )

        frozen_z = Tensor(vq_model.encode(mel_in).data.copy())

        def codebook_term():
            return codebook_losses(frozen_z, vq_model.codebook, frozen_codes, toy.beta)[0]

        worst["vqvae_codebook_term"] = finite_diff_grad_check(
            codebook_term, [vq_model.codebook],
            epsilon=1e-5, max_checks_per_tensor=8, rng=Rng(106),
        )

        def commitment_term():
            z_e = vq_model.encode(mel_in)
            return codebook_losses(z_e, vq_model.codebook, frozen_codes, toy.beta)[1]

        encoder_params = [t for name, t in vq_model.params().items() if name.startswith("enc.")]
        worst["vqvae_commitment_term"] = finite_diff_grad_check(
            commitment_term, encoder_params,
            epsilon=1e-5, max_checks_per_tensor=3, rng=Rng(107),
        )

        mels, gold = corpus_arrays
        clf = EmotionClassifier(ClassifierConfig.desk(), Rng(104), dtype=np.float64)
        clf_in = Tensor(mels[:2, None].astype(np.float64))
        worst["classifier_full"] = finite_diff_grad_check(
            lambda: softmax_cross_entropy(clf.forward(clf_in), gold[:2]),
            list(clf.params().values()),
            epsilon=1e-5, max_checks_per_tensor=3, rng=Rng(105),
        )

        elapsed = time.monotonic() - started
        DURATIONS["c01"] = elapsed
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
        for name, err in worst.items():
            assert err < 1e-4, f"{name}: max relative error {err:.2e}"


# -- criterion 2: quantizer vs brute force -------------------------------


class TestC02QuantizerOracle:
    def test_c02_thousand_vectors_k64(self):
        gen = np.random.default_rng(202)
        z = gen.normal(size=(1000, 32))
        emb = gen.normal(size=(64, 32))
        fast = nearest_codes(z, emb)
        brute = np.array(
            [int(np.argmin([np.sum((row - e) ** 2) for e in emb])) for row in z]
        )
        assert np.array_equal(fast, brute)

    def test_c02_spot_check_k8192(self):
        gen = np.random.default_rng(203)
        z = gen.normal(size=(64, 512))
        emb = gen.normal(size=(8192, 512))
        fast = nearest_codes(z, emb)
        # independent formulation: |z|^2 - 2 z.e + |e|^2 expansion
        dists = (
            (z**2).sum(axis=1)[:, None]
            - 2.0 * z @ emb.T
            + (emb**2).sum(axis=1)[None, :]
        )
        assert np.array_equal(fast, dists.argmin(axis=1))


# -- criterion 3: straight-through and stop-gradient routing -------------


class TestC03StraightThrough:
    @pytest.fixture()
    def graph(self):
        model = VqVae(VqVaeConfig.desk(), Rng(33))
        mels, _ = two_pattern_mels(1, Rng(34))
        x = Tensor(mels[:2, None].astype(np.float32))
        z_e = model.encode(x)
        z_q, codes = quantize(z_e, model.codebook)
        recon = mse(x, model.decode(z_q))
        cb, commit = codebook_losses(z_e, model.codebook, codes, model.config.beta)
        return model, z_e, z_q, recon, cb, commit

    def test_c03_reconstruction_gradient_copied_bitwise(self, graph):
        model, z_e, z_q, recon, _, _ = graph
        recon.backward()
        assert z_q.grad is not None and z_e.grad is not None
        assert z_e.grad.tobytes() == z_q.grad.tobytes()
        assert model.codebook.grad is None

    def test_c03_commitment_never_moves_codebook(self, graph):
        model, z_e, _, _, _, commit = graph
        commit.backward()
        assert model.codebook.grad is None
        assert z_e.grad is not None and np.any(z_e.grad != 0)

    def test_c03_codebook_term_never_moves_encoder(self, graph):
        model, z_e, _, _, cb, _ = graph
        cb.backward()
        assert z_e.grad is None
        assert model.codebook.grad is not None and np.any(model.codebook.grad != 0)


# -- criterion 4: autoencoder learning on the two-pattern corpus ---------


class TestC04VqVaeLearning:
    def test_c04_learning_and_code_separation(self):
        mels, pattern_ids = two_pattern_mels(16, Rng(40))
        holdout, _ = two_pattern_mels(4, Rng(42))
        model, history = train_vqvae(mels, VqVaeConfig.desk(), seed=41, holdout=holdout)
        first, last = history[0]["reconstruction"], history[-1]["reconstruction"]
        assert last < 0.5 * first, f"reconstruction {first:.4f} -> {last:.4f}"
        held_first = history[0]["holdout_reconstruction"]
        held_last = history[-1]["holdout_reconstruction"]
        assert held_last < 0.5 * held_first, f"held-out {held_first:.4f} -> {held_last:.4f}"

        mels_by_id = {f"u{i:02d}": mels[i] for i in range(len(mels))}
        codes_a = extract_codes(mels_by_id, model)
        codes_b = extract_codes(mels_by_id, model)
        assert codes_a == codes_b, "extraction must be deterministic across reruns"

        def dominant(pattern):
            counter = Counter()
            for i in range(len(mels)):
                if pattern_ids[i] == pattern:
                    counter.update(codes_a[f"u{i:02d}"])
            total = sum(counter.values())
            covered, chosen = 0, set()
            for code, count in counter.most_common():
                chosen.add(code)
                covered += count
                if covered >= 0.9 * total:
                    break
            return chosen

        assert not (dominant(0) & dominant(1)), "dominant code sets must be disjoint"


# -- criterion 5: signal-processing references ----------------------------


class TestC05DspOracle:
    def test_c05_mel_matches_naive_dft(self):
        samples = dsp_oracles.tone(1000, 4.0, 0.8)
        ours = dsp.mel_spectrogram(dsp.AudioClip(samples))
        reference, mel_power = dsp_oracles.oracle_melspec(samples)
        assert ours.shape == (80, 256)
        assert ours.min() >= -1.0 and ours.max() <= 1.0
        assert np.max(np.abs(ours - reference)) < 1e-3

        centers = dsp.mel_to_hz(
            np.linspace(dsp.hz_to_mel(0.0), dsp.hz_to_mel(dsp.FMAX_HZ), dsp.N_MELS + 2)
        )[1:-1]
        band = int(np.argmin(np.abs(centers - 1000.0)))
        ratio = mel_power[:, band - 1 : band + 2].sum(axis=1) / mel_power.sum(axis=1)
        assert ratio.min() >= 0.90

    def test_c05_pitch_recovers_synthetic_tones(self):
        for freq in (120.0, 200.0, 300.0):
            clip = dsp.AudioClip(dsp_oracles.tone(freq, 1.5, 0.5))
            assert abs(dsp.average_pitch(clip) - freq) <= 3.0

    def test_c05_energy_of_half_scale_sine(self):
        clip = dsp.AudioClip(dsp_oracles.tone(1000, 1.0, 0.5))
        assert abs(dsp.average_energy(clip) - 0.5 / np.sqrt(2.0)) < 1e-3


# -- criterion 6: learning-rate schedule ----------------------------------


class TestC06Schedule:
    def test_c06_flat_trace_conformance(self, corpus_arrays):
        x, y = corpus_arrays
        cfg = ClassifierConfig.desk()
        cfg.lr_init, cfg.lr_floor, cfg.max_epochs = 1e-4, 1e-5, 60
        model = EmotionClassifier(cfg, Rng(60))
        reversions = []

        def hook(epoch, decision, m, state):
            if decision in (DECAY, STOP):
                restored = {k: t.data.tobytes() for k, t in m.params().items()}
                best = {k: v.tobytes() for k, v in state.best_checkpoint.items()}
                reversions.append(restored == best)

        result = train(
            model, x[:8], y[:8], None, None, seed=61,
            val_metric=lambda m, epoch: 0.25, epoch_hook=hook,
        )
        assert [e["epoch"] for e in result.events] == [6, 12, 18, 24]
        assert [e["event"] for e in result.events] == [DECAY, DECAY, DECAY, STOP]
        np.testing.assert_allclose(
            [e["lr"] for e in result.events], [5e-5, 2.5e-5, 1.25e-5, 6.25e-6]
        )
        assert result.events[-1]["lr"] < 1e-5
        assert result.epochs_run == 24
        assert reversions == [True, True, True, True]


# -- criterion 7: metric oracle -------------------------------------------


class TestC07MetricOracle:
    def test_c07_uar_vs_bruteforce_thousand_matrices(self):
        gen = np.random.default_rng(70)
        for _ in range(1000):
            counts = gen.integers(0, 60, size=(4, 4))
            counts[np.arange(4), gen.integers(0, 4, size=4)] += 1
            brute = sum(counts[c, c] / counts[c].sum() for c in range(4)) / 4.0
            assert abs(uar(ConfusionMatrix(counts)) - brute) <= 1e-12

    def test_c07_one_class_predictor_is_exactly_quarter(self):
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[:, 1] = 30
        assert uar(ConfusionMatrix(counts)) == 0.25


# -- criterion 8: split invariants ----------------------------------------


class TestC08SplitInvariants:
    def test_c08_loso_coverage_and_disjointness(self, corpus_records):
        plan = loso_folds(corpus_records)
        by_id = {r.utterance_id: r for r in corpus_records}
        assert len(plan.folds) == 10
        tested = []
        for fold in plan.folds:
            train_speakers = {by_id[u].speaker_id for u in fold.train_ids}
            test_speakers = {by_id[u].speaker_id for u in fold.test_ids}
            assert not (train_speakers & test_speakers), "speaker leakage"
            assert set(fold.train_ids) | set(fold.test_ids) == set(by_id)
            tested.extend(fold.test_ids)
        assert sorted(tested) == sorted(by_id)

    def test_c08_cross_corpus_partition_and_reproducibility(self, corpus_records):
        eval_side = [
            replace(r, utterance_id="e_" + r.utterance_id, corpus="mspimprov")
            for r in corpus_records
        ]
        a = cross_corpus_split(corpus_records, eval_side, 0.30, seed=80)
        b = cross_corpus_split(corpus_records, eval_side, 0.30, seed=80)
        assert a == b
        fold = a.folds[0]
        val, test = set(fold.val_ids), set(fold.test_ids)
        assert not (val & test)
        assert val | test == {r.utterance_id for r in eval_side}
        assert len(val) == round(0.30 * len(eval_side))


# -- criterion 9: end-to-end pipeline with mock backends ------------------


@pytest.fixture(scope="module")
def split(corpus_records):
    plan = fixed_split(corpus_records, val_fraction=0.2, test_fraction=0.4, seed=90)
    return plan.folds[0]


class TestC09EndToEnd:
    def test_c09_oracle_labels_reproduce_gold_checkpoints(
        self, corpus_records, corpus_mels, split, tmp_path_factory
    ):
        started = time.monotonic()
        tmp = tmp_path_factory.mktemp("c09a")
        backend = mock_backend("oracle", records=corpus_records)
        results, summary = annotate_corpus(corpus_records, ContextVariant.TEXT_ONLY, backend)
        assert summary.unparseable == 0
        llm_records = [
            replace(r, llm_label=res.label)
            for r, res in zip(corpus_records, sorted(results, key=lambda v: v.utterance_id))
        ]
        assert all(r.llm_label == r.gold_label for r in llm_records)

        paths = {}
        for source, records in (("gold", corpus_records), ("llm", llm_records)):
            by_id = {r.utterance_id: r for r in records}
            cfg = ClassifierConfig.desk()
            cfg.max_epochs = 4
            model = EmotionClassifier(cfg, Rng(91))
            train_set = materialize(split.train_ids, by_id, corpus_mels, source)
            val_set = materialize(split.val_ids, by_id, corpus_mels, source)
            train(model, train_set.x, train_set.y, val_set.x, val_set.y, seed=92)
            paths[source] = tmp / f"{source}.serann"
            save_checkpoint(paths[source], {k: t.data for k, t in model.params().items()})
        assert paths["gold"].read_bytes() == paths["llm"].read_bytes()
        DURATIONS["c09a"] = time.monotonic() - started

    def test_c09_uniform_random_mock_stays_near_chance(
        self, corpus_records, corpus_mels, split
    ):
        started = time.monotonic()
        backend = mock_backend("random", seed=93)
        results, _ = annotate_corpus(corpus_records, ContextVariant.TEXT_ONLY, backend)
        by_id = {r.utterance_id: r for r in corpus_records}
        agreement = np.mean(
            [res.label == by_id[res.utterance_id].gold_label for res in results]
        )
        assert 0.20 <= agreement <= 0.30, f"label agreement {agreement:.3f}"

        llm_records = {res.utterance_id: res.label for res in results}
        noisy = [replace(r, llm_label=llm_records[r.utterance_id]) for r in corpus_records]
        by_id = {r.utterance_id: r for r in noisy}
        cfg = ClassifierConfig.desk()
        cfg.max_epochs = 6
        model = EmotionClassifier(cfg, Rng(94))
        train_set = materialize(split.train_ids, by_id, corpus_mels, "llm")
        val_set = materialize(split.val_ids, by_id, corpus_mels, "llm")
        test_set = materialize(split.test_ids, by_id, corpus_mels, "gold")
        train(model, train_set.x, train_set.y, val_set.x, val_set.y, seed=95)
        pred, _ = predict(model, test_set.x)
        score = uar(ConfusionMatrix.from_pairs(test_set.y, pred, len(LABELS)))
        assert 0.20 <= score <= 0.30, f"downstream test UAR {score:.3f}"
        DURATIONS["c09b"] = time.monotonic() - started

    def test_c09_few_shot_prompt_structure(self, corpus_records, corpus_features, corpus_mels):
        started = time.monotonic()
        vq = VqVae(VqVaeConfig.desk(), Rng(96))
        subset = {r.utterance_id: corpus_mels[r.utterance_id] for r in corpus_records[:12]}
        codes_by_id = extract_codes(subset, vq)
        pool = corpus_records[:12]
        chosen = select_few_shot(pool, rng=Rng(97))
        variant = ContextVariant.TEXT_ENERGY_F0_GENDER_CODES
        block = few_shot_block(chosen, variant, corpus_features, codes_by_id)
        target = corpus_records[0]
        spec = build_prompt(
            target, variant, few_shot=block,
            features=corpus_features[target.utterance_id],
            codes=codes_by_id[target.utterance_id],
        )
        assert block.count("Transcript:") == 10
        user = spec.user
        assert user.count("Label:") == 11  # ten exemplars and the target stub
        code_lines = [l for l in user.splitlines() if l.startswith("Audio codes:")]
        assert len(code_lines) == 11
        for line in code_lines:
            assert len(line.split()[2:]) == 64
        DURATIONS["c09c"] = time.monotonic() - started

    def test_c09_within_time_budget(self):
        total = DURATIONS.get("c09a", 0) + DURATIONS.get("c09b", 0) + DURATIONS.get("c09c", 0)
        assert 0 < total < 600, f"end-to-end pipeline took {total:.0f}s"


# -- criterion 10: augmentation harness ------------------------------------


class TestC10Augmentation:
    def test_c10_oracle_extras_do_not_hurt(
        self, corpus_records, corpus_mels, tmp_path_factory
    ):
        extra_root = tmp_path_factory.mktemp("extras")
        manifest = build_synthetic_corpus(extra_root, speakers=6, per_speaker=4, seed=23)
        from serann.corpus import load_manifest, resolve_audio_path

        raw_extras = load_manifest(manifest)
        extra_mels = {}
        extras = []
        for record in raw_extras:
            renamed = replace(
                record,
                utterance_id="x_" + record.utterance_id,
                speaker_id="x_" + record.speaker_id,
            )
            clip = dsp.read_wav(resolve_audio_path(manifest, record))
            extra_mels[renamed.utterance_id] = dsp.mel_spectrogram(clip)
            extras.append(renamed)

        backend = mock_backend("oracle", records=extras)
        results, _ = annotate_corpus(extras, ContextVariant.TEXT_ONLY, backend)
        labels = {res.utterance_id: res.label for res in results}
        extras = [
            replace(r, gold_label=None, llm_label=labels[r.utterance_id]) for r in extras
        ]

        cfg = ClassifierConfig.desk()
        cfg.max_epochs = 6
        mels = {**corpus_mels, **extra_mels}
        seeds = list(range(300, 310))
        report = run_augment_eval(corpus_records, extras, mels, cfg, seeds=seeds)
        validate_report(report)
        assert len(report["baseline"]["uars"]) == 10
        assert len(report["augmented"]["uars"]) == 10
        assert report["delta_mean"] >= -0.02, f"delta {report['delta_mean']:+.4f}"

        # aggregate statistics against a hand oracle
        for side in ("baseline", "augmented"):
            values = report[side]["uars"]
            mean = sum(values) / len(values)
            std = (sum((v - mean) ** 2 for v in values) / (len(values) - 1)) ** 0.5
            assert abs(report[side]["mean"] - mean) <= 1e-12
            assert abs(report[side]["std"] - std) <= 1e-12


# -- criterion 11: full protocol smoke --------------------------------------


class TestC11ProtocolSmoke:
    def test_c11_ten_folds_ten_repeats(self, corpus_records, corpus_mels):
        backend = mock_backend("keyword")
        results, summary = annotate_corpus(
            corpus_records, ContextVariant.TEXT_ONLY, backend
        )
        labels = {res.utterance_id: res.label for res in results}
        llm_records = [replace(r, llm_label=labels[r.utterance_id]) for r in corpus_records]
        assert summary.unparseable == 0

        cfg = ClassifierConfig.desk()
        cfg.max_epochs = 2
        report = run_loso(llm_records, corpus_mels, "llm", cfg, seeds=list(range(10)))
        validate_report(report)
        assert report["aggregate"]["repeats"] == 10
        assert len(report["aggregate"]["uars"]) == 10
        assert len(report["folds"]) == 10
        for fold in report["folds"]:
            assert len(fold["uars"]) == 10
            assert all(0.0 <= u <= 1.0 for u in fold["uars"])
