"""The benchmark's three workloads.

Every workload runs the same stages in the same order, each stage calling
serann's public functions and handing its results to the next stage
through files, as the README quick start does:

    features -> train_vqvae -> encode -> annotate_cold -> annotate_resume
    -> classifier_train -> predict -> report

The workloads differ in their inputs and model sizes, which decides the
layer that dominates:

- desk_pipeline: the quick start at the desk profile on the synthetic
  corpus of short clips, with leave-one-speaker-out training.
- full_profile: the paper-size VqVaeConfig() and ClassifierConfig(); the
  VQ-VAE trains one step on two utterances, one utterance is encoded and
  the classifier runs one epoch of a fixed split.
- label_corpus: an unlabelled corpus of 1-8 s clips, partly past the mel
  window, annotated over the paper's variant x shots grid against a
  separate labelled few-shot pool, with generated codes in the prompts.
  Its model stages are a small desk-profile slice.

Each run repeats whole rounds of these stages on the same inputs until its
time is up, so every round attempts the same operations.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from serann import annotate as ann
from serann import dsp, experiments, reports, synthetic, vqvae
from serann.classifier import ClassifierConfig, EmotionClassifier, predict
from serann.corpus import (
    LABEL_INDEX,
    LABELS,
    ConfusionMatrix,
    UtteranceRecord,
    fixed_split,
    load_manifest,
    resolve_audio_path,
    save_manifest,
    uar,
)
from serann.coremath.ops import softmax_cross_entropy
from serann.coremath.optim import Adam
from serann.coremath.rng import Rng
from serann.coremath.tensor import Tensor
from serann.vqvae import VqVae, VqVaeConfig

import checks

GRID = [(variant, shots) for shots in ("zero", "few") for variant in ann.ContextVariant]
QUICK_START_CELL = (ann.ContextVariant.TEXT_ENERGY_F0_GENDER_CODES, "few")
# Samples the mel window covers: 256 frames at hop 256 with a 1024 window.
WINDOW_SAMPLES = (dsp.N_FRAMES - 1) * dsp.HOP + dsp.WIN


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str  # "synthetic" (short clips) or "long" (1-8 s clips)
    speakers: int
    per_speaker: int
    vqvae: VqVaeConfig
    vq_train_count: int  # utterances the VQ-VAE trains on (all when 0)
    vq_epochs: int
    encode_count: int  # utterances encoded (all when 0)
    classifier: ClassifierConfig
    protocol: str  # "loso" or "fixed"
    few_shot_draws: int  # few-shot seeds; each annotates the whole grid
    generated_codes: bool  # prompts carry generated codes, not encoded ones
    torn_resume: bool  # also resume from a cache with a torn final line
    repeats: dict  # stage -> repetitions per round, for stages too short to time once


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk_pipeline", corpus="synthetic", speakers=4, per_speaker=12,
            vqvae=VqVaeConfig.desk(), vq_train_count=0, vq_epochs=2, encode_count=0,
            classifier=ClassifierConfig.desk(), protocol="loso", few_shot_draws=8,
            generated_codes=False, torn_resume=False,
            repeats={"features": 8, "train_vqvae": 4, "encode": 8, "annotate_cold": 8,
                     "annotate_resume": 16, "predict": 10, "report": 4},
        ),
        Workload(
            name="full_profile", corpus="synthetic", speakers=8, per_speaker=8,
            vqvae=replace(VqVaeConfig(), batch_size=2), vq_train_count=2, vq_epochs=1,
            encode_count=1, classifier=replace(ClassifierConfig(), max_epochs=1),
            protocol="fixed", few_shot_draws=8, generated_codes=True, torn_resume=False,
            repeats={"features": 5, "train_vqvae": 5, "encode": 3, "annotate_cold": 6,
                     "annotate_resume": 8, "classifier_train": 3, "predict": 5, "report": 4},
        ),
        Workload(
            name="label_corpus", corpus="long", speakers=10, per_speaker=4,
            vqvae=VqVaeConfig.desk(), vq_train_count=0, vq_epochs=2, encode_count=0,
            classifier=replace(ClassifierConfig.desk(), max_epochs=4), protocol="fixed",
            few_shot_draws=8, generated_codes=True, torn_resume=True,
            repeats={"features": 3, "train_vqvae": 6, "encode": 12, "annotate_cold": 8,
                     "annotate_resume": 16, "classifier_train": 6, "predict": 24, "report": 4},
        ),
    )
}

# Seeds of the quick start's own commands; --seed only drives the inputs.
VQ_SEED = 1
ANNOTATE_SEED = 5
CLASSIFIER_SEED = 0


class CountingBackend:
    """The mock:keyword backend, counting the calls that reach it."""

    def __init__(self):
        self._inner = ann.mock_backend("keyword")
        self.backend_id = self._inner.backend_id
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return self._inner.complete(request)


# -- inputs ---------------------------------------------------------------


def _long_clip(emotion: str, gender: str, duration: float, rng: Rng) -> tuple[np.ndarray, float]:
    """A clip in the synthetic recipe of ``emotion`` at ``duration`` seconds;
    returns the samples and the f0 used."""
    kind, f0_base, jitter, amp, _ = synthetic.EMOTION_RECIPES[emotion]
    f0 = f0_base + float(rng.uniform(-jitter, jitter, None, np.float64))
    if gender == "female":
        f0 *= synthetic.FEMALE_PITCH_FACTOR
    t = np.arange(int(duration * dsp.SAMPLE_RATE)) / dsp.SAMPLE_RATE
    phase = f0 * t
    if kind == "saw":
        wave = 2.0 * (phase % 1.0) - 1.0
    elif kind == "triangle_vibrato":
        vib = phase + 0.004 * np.sin(2.0 * np.pi * 5.0 * t) * f0 / 5.0
        wave = 2.0 * np.abs(2.0 * (vib % 1.0) - 1.0) - 1.0
    elif kind == "sine_tremolo":
        wave = np.sin(2.0 * np.pi * phase) * (1.0 + 0.3 * np.sin(2.0 * np.pi * 3.0 * t)) / 1.3
    else:
        wave = np.sin(2.0 * np.pi * phase)
    noise = rng.normal(0.0, 0.01, len(t), np.float64)
    return np.clip(amp * wave + noise, -0.999, 0.999), f0


def build_long_corpus(root: Path, speakers: int, per_speaker: int, seed: int) -> tuple[Path, dict]:
    """Clips of 1-8 s with stratified durations, so every seed gives the
    same total audio; returns the manifest and each clip's f0."""
    rng = Rng(seed)
    n = speakers * per_speaker
    strata = rng.permutation(n)
    offsets = rng.uniform(0.0, 1.0, n, np.float64)
    durations = 1.0 + 7.0 * (strata + offsets) / n
    emotions = sorted(synthetic.EMOTION_RECIPES)
    records, f0s = [], {}
    for s in range(speakers):
        speaker_id = f"lspk{s:02d}"
        gender = "male" if s % 2 == 0 else "female"
        for u in range(per_speaker):
            i = s * per_speaker + u
            emotion = emotions[(u + s) % len(emotions)]
            clip_rng = rng.spawn(f"{speaker_id}:{u}")
            samples, f0 = _long_clip(emotion, gender, float(durations[i]), clip_rng)
            uid = f"{speaker_id}_long{u:03d}"
            rel = f"audio/{speaker_id}/long{u:03d}.wav"
            dsp.write_wav(root / rel, samples)
            templates = synthetic.TRANSCRIPT_TEMPLATES[emotion]
            records.append(UtteranceRecord(
                utterance_id=uid, audio_path=rel,
                transcript=templates[int(clip_rng.integers(0, len(templates)))],
                speaker_id=speaker_id, gender=gender, corpus="synthetic", gold_label=emotion,
            ))
            f0s[uid] = (f0, f0)
    manifest = root / "manifest.jsonl"
    save_manifest(manifest, records)
    return manifest, f0s


def synthetic_f0_ranges(records) -> dict:
    """The f0 range the synthetic corpus recipe draws each clip's pitch from."""
    out = {}
    for r in records:
        _, base, jitter, _, _ = synthetic.EMOTION_RECIPES[r.gold_label]
        scale = synthetic.FEMALE_PITCH_FACTOR if r.gender == "female" else 1.0
        out[r.utterance_id] = ((base - jitter) * scale, (base + jitter) * scale)
    return out


def labelled_pool(seed: int, size: int = 16) -> tuple[list, dict, dict]:
    """Gold-labelled few-shot exemplars with generated features and codes."""
    rng = Rng(seed).spawn("pool")
    records, feats, codes = [], {}, {}
    emotions = sorted(synthetic.EMOTION_RECIPES)
    for i in range(size):
        emotion = emotions[i % len(emotions)]
        templates = synthetic.TRANSCRIPT_TEMPLATES[emotion]
        uid = f"pool{i:03d}"
        gender = "male" if i % 2 == 0 else "female"
        records.append(UtteranceRecord(
            utterance_id=uid, audio_path=f"audio/{uid}.wav",
            transcript=templates[int(rng.integers(0, len(templates)))],
            speaker_id=f"pool{i % 4}", gender=gender, corpus="synthetic", gold_label=emotion,
        ))
        feats[uid] = dsp.UtteranceFeatures(
            avg_energy=float(rng.uniform(0.05, 0.6, None, np.float64)),
            avg_pitch_hz=float(rng.uniform(90.0, 360.0, None, np.float64)),
            gender=gender,
        )
        codes[uid] = [int(c) for c in rng.integers(0, 8192, 64)]
    return records, feats, codes


TORN_RECORDS = 8


def torn_cache_source(path: Path) -> list:
    """A filled cache over fixed records (independent of --seed); returns
    the records. Resuming from a copy with a torn last line is the one
    operation that fails today."""
    records = []
    emotions = sorted(synthetic.TRANSCRIPT_TEMPLATES)
    for i in range(TORN_RECORDS):
        emotion = emotions[i % len(emotions)]
        records.append(UtteranceRecord(
            utterance_id=f"torn{i:02d}", audio_path=f"torn{i:02d}.wav",
            transcript=synthetic.TRANSCRIPT_TEMPLATES[emotion][i // len(emotions)],
            speaker_id="torn", gender="unknown", corpus="synthetic", gold_label=emotion,
        ))
    ann.annotate_corpus(records, ann.ContextVariant.TEXT_ONLY, ann.mock_backend("keyword"),
                        cache=ann.AnnotationCache(path))
    return records


@dataclass
class Inputs:
    manifest: Path
    records: list
    f0_ranges: dict
    pool: list | None
    pool_features: dict
    pool_codes: Path | None
    codes: Path | None  # generated codes for the prompts
    torn_source: Path | None
    torn_records: list


def make_inputs(w: Workload, root: Path, seed: int) -> Inputs:
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    pool, pool_features, pool_codes = None, {}, None
    if w.corpus == "synthetic":
        manifest = synthetic.build_synthetic_corpus(root / "corpus", w.speakers, w.per_speaker, seed)
        records = load_manifest(manifest)
        f0_ranges = synthetic_f0_ranges(records)
    else:
        manifest, f0_ranges = build_long_corpus(root / "corpus", w.speakers, w.per_speaker, seed)
        records = load_manifest(manifest)
        pool, pool_features, codes_by_id = labelled_pool(seed)
        pool_codes = root / "pool_codes.jsonl"
        vqvae.write_codes(pool_codes, codes_by_id)
    codes = None
    if w.generated_codes:
        rng = Rng(seed).spawn("codes")
        codes = root / "generated_codes.jsonl"
        vqvae.write_codes(codes, {r.utterance_id: [int(c) for c in rng.integers(0, 8192, 64)]
                                  for r in records})
    torn_source, torn_records = None, []
    if w.torn_resume:
        torn_source = root / "torn_source.cache.jsonl"
        torn_records = torn_cache_source(torn_source)
    return Inputs(manifest, records, f0_ranges, pool, pool_features, pool_codes,
                  codes, torn_source, torn_records)


# -- the rounds -----------------------------------------------------------


@dataclass
class RoundResult:
    stage_samples: dict  # stage -> (start, end) of each repetition
    work: dict  # stage -> items one repetition of the stage counts
    attempted: int
    failed: int
    outputs: dict


STAGES = ("features", "train_vqvae", "encode", "annotate_cold", "annotate_resume",
          "classifier_train", "predict", "report")


def schedule(repeats: dict) -> list:
    """The order of one round's stage passes. The round is cut into as many
    passes of the pipeline as the most repeated stage has repetitions, and
    each stage's repetitions are spread evenly over them, starting in the
    first pass, so every stage runs once, in order, before any repeats and
    a short stage's samples are spread over the whole round rather than
    bunched in one stretch of the machine's drifting speed."""
    passes = max(repeats.get(stage, 1) for stage in STAGES)
    order = []
    for k in range(passes):
        for stage in STAGES:
            n = repeats.get(stage, 1)
            if -(-(k + 1) * n // passes) > -(-k * n // passes):
                order.append(stage)
    return order


def run_round(w: Workload, inp: Inputs, out: Path, rec) -> RoundResult:
    """One round: every stage, the short ones repeated, in the order that
    ``schedule`` gives; ``out`` receives the stage files."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    rec.begin_round()
    work: dict[str, int] = {}
    attempted = failed = 0
    outputs: dict = {}
    mels_path = out / "mels.serann"
    features_path = out / "features.jsonl"
    vq_path = out / "vq.serann"
    codes_path = out / "codes.jsonl"
    annotations_path = out / "annotations.jsonl"
    summary_path = out / "annotations.jsonl.summary.json"
    report_path = out / "report.json"
    artifacts = out / "artifacts"
    records = load_manifest(inp.manifest)
    ids = [r.utterance_id for r in records]
    train_ids = ids[: w.vq_train_count or None]
    encode_ids = ids[: w.encode_count or None]
    prompt_codes_path = inp.codes if w.generated_codes else codes_path
    prompts = len(records) * len(GRID) * w.few_shot_draws
    cold_backend, resume_backend = CountingBackend(), CountingBackend()
    cold_passes = 0
    caches: list = []

    def annotate_grid(caches, backend):
        features_by_id = dsp.load_features(features_path)
        prompt_codes = vqvae.load_codes(prompt_codes_path)
        pool = records
        if inp.pool is not None:
            pool = inp.pool
            features_by_id = {**inp.pool_features, **features_by_id}
            prompt_codes = {**vqvae.load_codes(inp.pool_codes), **prompt_codes}
        results, hits = {}, 0
        for k, path in enumerate(caches):
            cache = ann.AnnotationCache(path)
            for variant, shots in GRID:
                res, summary = ann.annotate_corpus(
                    records, variant, backend, shots=shots, seed=ANNOTATE_SEED + k,
                    features_by_id=features_by_id, codes_by_id=prompt_codes,
                    few_shot_pool=pool, cache=cache,
                )
                results[(k, variant, shots)] = (res, summary)
                hits += summary.cache_hits
        return results, hits

    def features():
        manifest_records = load_manifest(inp.manifest)
        mels, feats = {}, {}
        for record in manifest_records:
            clip = dsp.read_wav(resolve_audio_path(inp.manifest, record))
            mels[record.utterance_id] = dsp.mel_spectrogram(clip)
            feats[record.utterance_id] = dsp.extract_features(clip, record.gender)
        dsp.save_mel_cache(mels_path, mels)
        dsp.write_features(features_path, feats)
        work["features"] = len(manifest_records)
        outputs.update(mels=mels, features=feats)

    def train_vqvae():
        mels_by_id = dsp.load_mel_cache(mels_path)
        data = np.stack([mels_by_id[uid] for uid in train_ids])
        model, _ = vqvae.train_vqvae(data, w.vqvae, VQ_SEED, epochs=w.vq_epochs)
        model.save(vq_path)
        work["train_vqvae"] = w.vq_epochs * len(train_ids)
        outputs.update(vq_train_ids=train_ids, vq_path=vq_path)

    def encode():
        mels_by_id = dsp.load_mel_cache(mels_path)
        model = VqVae.load(vq_path)
        codes_by_id = vqvae.extract_codes({uid: mels_by_id[uid] for uid in encode_ids}, model)
        vqvae.write_codes(codes_path, codes_by_id)
        work["encode"] = len(encode_ids)
        outputs["codes"] = codes_by_id

    def annotate_cold():
        nonlocal cold_passes, caches
        caches = [out / f"cold{cold_passes}_draw{k}.cache.jsonl" for k in range(w.few_shot_draws)]
        cold_passes += 1
        cold, _ = annotate_grid(caches, cold_backend)
        res, summary = cold[(0, *QUICK_START_CELL)]
        ann.write_annotations(annotations_path, res)
        reports.write_report(summary_path, {"schema_version": reports.SCHEMA_VERSION,
                                            "kind": "annotation_summary", **summary.to_json()})
        work["annotate_cold"] = prompts
        outputs["cold"] = cold

    def annotate_resume():
        # Reopens the caches of the latest cold pass: all hits.
        resumed, resume_hits = annotate_grid(caches, resume_backend)
        work["annotate_resume"] = prompts
        outputs.update(resumed=resumed, resume_calls=resume_backend.calls,
                       resume_hits=resume_hits)

    def classifier_train():
        labelled = ann.apply_annotations(load_manifest(inp.manifest),
                                         ann.load_annotations(annotations_path))
        usable = [r for r in labelled if r.llm_label in LABELS]
        mels_by_id = dict(dsp.load_mel_cache(mels_path))
        if w.protocol == "loso":
            report = experiments.run_loso(usable, mels_by_id, "llm", w.classifier,
                                          [CLASSIFIER_SEED], artifacts)
        else:
            report = experiments.run_fixed(usable, mels_by_id, "llm", w.classifier,
                                           [CLASSIFIER_SEED], artifacts_dir=artifacts)
        reports.write_report(report_path, report)
        folds = [f["name"] for f in report["folds"]]
        work["classifier_train"], steps = _training_volume(w, artifacts, folds, usable)
        outputs.update(report=report, labelled=labelled, folds=folds, classifier_steps=steps)

    def predict_stage():
        mels_by_id = dsp.load_mel_cache(mels_path)
        pred_ids = sorted(mels_by_id)
        x = np.stack([mels_by_id[uid] for uid in pred_ids])
        predictions = {}
        for name in outputs["folds"]:
            model = EmotionClassifier.load(artifacts / f"{name}_seed{CLASSIFIER_SEED}.serann")
            pred, _ = predict(model, x)
            predictions[name] = dict(zip(pred_ids, pred.tolist()))
        work["predict"] = len(outputs["folds"]) * len(pred_ids)
        outputs.update(predictions=predictions, report_paths=(report_path, summary_path))

    def report():
        for path in (report_path, summary_path):
            reports.validate_report(reports.read_report(path))
        work["report"] = 2

    bodies = {"features": features, "train_vqvae": train_vqvae, "encode": encode,
              "annotate_cold": annotate_cold, "annotate_resume": annotate_resume,
              "classifier_train": classifier_train, "predict": predict_stage, "report": report}
    torn_tried = False
    for stage in schedule(w.repeats):
        with rec.stage(stage):
            bodies[stage]()
        if stage == "annotate_resume" and w.torn_resume and not torn_tried:
            torn_tried = True
            attempted += 1
            failed += not resume_torn_cache(inp, out)

    # Utterances featurized, encoded and predicted, training steps, prompts
    # answered, resumes, folds and reports, each counted per repetition.
    folds = outputs["folds"]
    per_repetition = {
        **work,
        "train_vqvae": w.vq_epochs * -(-len(train_ids) // w.vqvae.batch_size),
        "annotate_resume": prompts + w.few_shot_draws,
        "classifier_train": outputs["classifier_steps"] + len(folds),
    }
    attempted += sum(n * w.repeats.get(stage, 1) for stage, n in per_repetition.items())
    return RoundResult(rec.round_samples(), work, attempted, failed, outputs)


def _training_volume(w: Workload, artifacts: Path, folds: list, records: list) -> tuple[int, int]:
    """Training samples x epochs and optimizer steps over all folds, from
    the epoch histories the runner wrote."""
    samples = steps = 0
    by_speaker: dict[str, int] = {}
    for r in records:
        by_speaker[r.speaker_id] = by_speaker.get(r.speaker_id, 0) + 1
    for name in folds:
        history = artifacts / f"{name}_seed{CLASSIFIER_SEED}.history.jsonl"
        epochs = sum(1 for line in history.read_text().splitlines() if line.strip())
        if w.protocol == "loso":
            # Test speaker and one validation speaker are held out; every
            # speaker has the same number of utterances.
            train_n = len(records) - 2 * by_speaker[name]
        else:
            n = len(records)
            train_n = n - 2 * int(np.floor(0.2 * n + 0.5))
        samples += epochs * train_n
        steps += epochs * -(-train_n // w.classifier.batch_size)
    return samples, steps


def resume_torn_cache(inp: Inputs, out: Path) -> bool:
    """Resume from a copy of the torn-cache source whose last record is cut
    short, as an interrupted run leaves it. True when the resume succeeds
    with at most one backend call (the torn record)."""
    raw = inp.torn_source.read_bytes()
    last_start = raw.rstrip(b"\n").rfind(b"\n") + 1
    torn = out / "torn.cache.jsonl"
    torn.write_bytes(raw[: last_start + (len(raw) - last_start) // 2])
    backend = CountingBackend()
    try:
        cache = ann.AnnotationCache(torn)
        results, _ = ann.annotate_corpus(inp.torn_records, ann.ContextVariant.TEXT_ONLY,
                                         backend, cache=cache)
    except (ValueError, KeyError):
        return False
    gold = {r.utterance_id: r.gold_label for r in inp.torn_records}
    return backend.calls <= 1 and {r.utterance_id: r.label for r in results} == gold


# -- checks ---------------------------------------------------------------


def quality(w: Workload, inp: Inputs, result: RoundResult) -> dict:
    """The round's quality figures: the UAR of the machine labels against
    gold, the trained VQ-VAE's reconstruction error over its training
    utterances, and the protocol UAR the classifier report gives."""
    o = result.outputs
    gold = {r.utterance_id: r.gold_label for r in inp.records}
    quick = o["cold"][(0, *QUICK_START_CELL)][0]
    confusion = ConfusionMatrix.from_pairs([LABEL_INDEX[gold[r.utterance_id]] for r in quick],
                                           [LABEL_INDEX[r.label] for r in quick], len(LABELS))
    model = VqVae.load(o["vq_path"])
    train = np.stack([o["mels"][uid] for uid in o["vq_train_ids"]])
    untrained, _ = vqvae.train_vqvae(train, w.vqvae, VQ_SEED, epochs=0)
    return {"uar": uar(confusion), "vqvae_recon_mse": vqvae.reconstruction_loss(model, train),
            "vqvae_initial_recon_mse": vqvae.reconstruction_loss(untrained, train),
            "experiments.uar": o["report"]["aggregate"]["mean"]}


def check_round(w: Workload, inp: Inputs, result: RoundResult, figures: dict) -> None:
    """Check one round's outputs against values computed apart from the
    program; raises ``checks.CheckFailed``."""
    o = result.outputs
    records = {r.utterance_id: r for r in inp.records}
    gold = {uid: r.gold_label for uid, r in records.items()}

    for uid, mel in o["mels"].items():
        checks.check_mel(uid, mel)
        path = resolve_audio_path(inp.manifest, records[uid])
        samples = checks.read_pcm(path)
        feats = o["features"][uid]
        checks.check_energy(uid, feats.avg_energy, samples)
        checks.check_pitch(uid, feats.avg_pitch_hz, *inp.f0_ranges[uid])
        if len(samples) > WINDOW_SAMPLES:
            cut = dsp.mel_spectrogram(dsp.AudioClip(samples[:WINDOW_SAMPLES]))
            checks.check_window_cut(uid, mel, cut)

    model = VqVae.load(o["vq_path"])
    for uid in sorted(o["codes"])[:2]:
        z = model.encode(Tensor(o["mels"][uid][None, None].astype(np.float32)))
        checks.check_codes(uid, o["codes"][uid], vqvae.flatten_grid(z).data, model.codebook.data)
    checks.check_recon_falls(figures["vqvae_initial_recon_mse"], figures["vqvae_recon_mse"])

    backend = ann.mock_backend("keyword")
    for emotion, templates in synthetic.TRANSCRIPT_TEMPLATES.items():
        labels = {text: backend.complete(ann.CompletionRequest(
            system="", user=f'Transcript: "{text}"\n\nLabel:')) for text in templates}
        checks.check_labels(labels, dict.fromkeys(templates, emotion), "mock:keyword templates")
    cold_all, resumed_all = [], []
    for key, (res, _) in o["cold"].items():
        checks.check_labels({r.utterance_id: r.label for r in res}, gold, f"annotation {key}")
        cold_all += res
        resumed_all += o["resumed"][key][0]
    checks.check_resume(cold_all, resumed_all, o["resume_calls"], o["resume_hits"])

    report = o["report"]
    if w.protocol == "loso":
        checks.check_loso([f["name"] for f in report["folds"]],
                          sorted({r.speaker_id for r in inp.records}))
        tests = {f["name"]: sorted(u for u, r in records.items() if r.speaker_id == f["name"])
                 for f in report["folds"]}
    else:
        labelled = [r for r in o["labelled"] if r.llm_label in LABELS]
        tests = {"fixed": sorted(fixed_split(labelled, seed=CLASSIFIER_SEED).folds[0].test_ids)}
    folds = []
    for name, test_ids in tests.items():
        pred = o["predictions"][name]
        folds.append((np.array([LABEL_INDEX[gold[u]] for u in test_ids]),
                      np.array([pred[u] for u in test_ids])))
    checks.check_uar(report["aggregate"]["mean"], folds, above_chance=w.protocol == "loso")
    for path in o["report_paths"]:
        checks.check_report(reports.read_report(path))


def check_same_outputs(first: RoundResult, later: RoundResult) -> None:
    """Rounds repeat the same work on the same inputs, so their outputs match."""
    a, b = first.outputs, later.outputs
    same = (
        a["codes"] == b["codes"]
        and a["predictions"] == b["predictions"]
        and a["report"]["aggregate"] == b["report"]["aggregate"]
        and all(np.array_equal(a["mels"][u], b["mels"][u]) for u in a["mels"])
        and {k: [r.label for r in v[0]] for k, v in a["cold"].items()}
        == {k: [r.label for r in v[0]] for k, v in b["cold"].items()}
        and first.attempted == later.attempted
    )
    if not same:
        raise checks.CheckFailed("a later round's outputs differ from the first round's")


def warm_up(w: Workload, inp: Inputs, out: Path) -> None:
    """A small pass over every layer the rounds use, at the workload's model
    sizes, so lazy set-up and BLAS thread start-up fall outside the timing."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    records = inp.records[:2]
    mels = {}
    for record in records:
        clip = dsp.read_wav(resolve_audio_path(inp.manifest, record))
        mels[record.utterance_id] = dsp.mel_spectrogram(clip)
        dsp.extract_features(clip, record.gender)
    dsp.save_mel_cache(out / "mels.serann", mels)
    x = np.stack(list(dsp.load_mel_cache(out / "mels.serann").values()))
    model = EmotionClassifier(w.classifier, Rng(0))
    adam = Adam(model.params(), w.classifier.lr_init)
    loss = softmax_cross_entropy(model.forward(Tensor(x[:, None])), np.arange(len(x)) % 4)
    loss.backward()
    adam.step()
    predict(model, x)
    codebook = Rng(0).uniform(-1.0, 1.0, (w.vqvae.codebook_size, w.vqvae.code_dim))
    vqvae.nearest_codes(Rng(1).normal(0.0, 1.0, (4, w.vqvae.code_dim)), codebook)
    backend = CountingBackend()
    ann.annotate_corpus(records, ann.ContextVariant.TEXT_ONLY, backend,
                        cache=ann.AnnotationCache(out / "cache.jsonl"))
    ann.AnnotationCache(out / "cache.jsonl")
    reports.validate_report({"schema_version": reports.SCHEMA_VERSION,
                             "kind": "annotation_summary", "total": 0, "label_counts": {},
                             "unparseable_rate": 0.0})
    shutil.rmtree(out)
