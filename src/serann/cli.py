"""Command-line surface for the annotation pipeline.

Stages hand off through files: a manifest names the audio, ``features``
caches mels and scalar features, ``train-vqvae`` and ``encode`` produce the
code sequences, ``annotate`` produces labels, and the two training commands
emit schema-versioned JSON reports. Commands never mutate their inputs and
exit non-zero if any per-record failure occurred.

Errors: every command reports a bad input file or setting as one
``error: <message>`` line on stderr and exit status 1 (see ``_Pipeline``).

Configuration precedence: explicit flags > --config file > built-in
defaults. The effective configuration is echoed (hashed) into every report.
"""

from __future__ import annotations

import math
import sys

import click
import numpy as np

from . import annotate as ann
from . import dsp, experiments, reports, synthetic, vqvae
from .classifier import ClassifierConfig
from .corpus import LABELS, load_manifest, resolve_audio_path
from .fileio import read_config
from .vqvae import VqVae, VqVaeConfig


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _model_config(config_type, section: str, desk_scale: bool, config_path, **overrides):
    """Defaults (desk profile if ``desk_scale``) < --config ``section`` < set ``overrides``."""
    base = config_type.desk() if desk_scale else config_type()
    return read_config(config_type, config_path, section, base, **overrides)


def _load_manifest(path) -> list:
    """The manifest's records; a manifest with none is refused, naming the file."""
    records = load_manifest(path)
    if not records:
        _fail(f"{path}: manifest has no records")
    return records


def _load_mels_for(records, *mels_paths) -> dict:
    """The merged mel caches, later ones winning; each record must have a mel."""
    mels_by_id = {}
    for path in mels_paths:
        mels_by_id.update(dsp.load_mel_cache(path))
    missing = [r.utterance_id for r in records if r.utterance_id not in mels_by_id]
    if missing:
        caches = ", ".join(map(str, mels_paths))
        _fail(f"{caches}: mel cache is missing {len(missing)} records (first: {missing[0]!r})")
    return mels_by_id


class _FiniteFloat(click.ParamType):
    """A finite float, above zero if ``positive``; anything else is a usage
    error naming the option (``click.FloatRange`` lets NaN through)."""

    name = "float"

    def __init__(self, positive: bool = False):
        self.positive = positive

    def convert(self, value, param, ctx):
        number = click.FLOAT.convert(value, param, ctx)
        if not math.isfinite(number) or (self.positive and number <= 0):
            self.fail(f"{value!r} is not a {'positive ' if self.positive else ''}finite number",
                      param, ctx)
        return number


class _Pipeline(click.Group):
    """The one error boundary: a serann input error (a ``ValueError``), a
    missing or unwritable file, a non-finite loss, a failed annotation run or
    allocation becomes ``error: <message>`` and exit status 1. A ``KeyError``,
    ``TypeError`` or ``AttributeError`` is a bug and keeps its traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError, FloatingPointError, MemoryError, ann.BackendError,
                ann.AnnotationRunError) as exc:
            if isinstance(exc, BrokenPipeError):
                raise  # click's own handler exits quietly on a closed stdout
            _fail(str(exc) or type(exc).__name__)  # a bare MemoryError has no message


@click.group(cls=_Pipeline)
def main():
    """Speech emotion annotation pipeline."""


@main.command("synth-corpus")
@click.option("--out", required=True, type=click.Path(), help="Output corpus directory.")
@click.option("--speakers", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--per-speaker", type=click.IntRange(min=1), default=8, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def cmd_synth_corpus(out, speakers, per_speaker, seed):
    """Generate the synthetic tone corpus used for offline runs and tests."""
    manifest = synthetic.build_synthetic_corpus(out, speakers, per_speaker, seed)
    click.echo(f"wrote {manifest}")


@main.command("features")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--out", "features_out", required=True, type=click.Path(), help="Features JSONL.")
@click.option("--mels-out", required=True, type=click.Path(), help="Mel cache container.")
def cmd_features(manifest_path, features_out, mels_out):
    """Extract mel spectrograms plus average energy and pitch per record."""
    records = _load_manifest(manifest_path)
    mels, feats, failures = {}, {}, []
    for record in records:
        wav = resolve_audio_path(manifest_path, record)
        try:
            clip = dsp.read_wav(wav)
            mels[record.utterance_id] = dsp.mel_spectrogram(clip)
            feats[record.utterance_id] = dsp.extract_features(clip, record.gender)
        except (OSError, ValueError) as exc:
            failures.append((record.utterance_id, str(exc)))
    dsp.save_mel_cache(mels_out, mels)
    dsp.write_features(features_out, feats)
    click.echo(f"features: {len(feats)} ok, {len(failures)} failed")
    if failures:
        for uid, err in failures:
            click.echo(f"  {uid}: {err}", err=True)
        sys.exit(1)


@main.command("train-vqvae")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--mels", "mels_path", required=True, type=click.Path(exists=True))
@click.option("--out", "checkpoint_out", required=True, type=click.Path())
@click.option("--history-out", type=click.Path())
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--epochs", type=click.IntRange(min=1), default=None,
              help="Override configured epoch count.")
@click.option("--desk-scale", is_flag=True, help="Use the CI-sized model profile.")
@click.option("--config", "config_path", type=click.Path(exists=True))
def cmd_train_vqvae(manifest_path, mels_path, checkpoint_out, history_out, seed, epochs, desk_scale, config_path):
    """Train the speech-code autoencoder on cached mels."""
    records = _load_manifest(manifest_path)
    mels_by_id = _load_mels_for(records, mels_path)
    config = _model_config(VqVaeConfig, "vqvae", desk_scale, config_path)
    if history_out is None:
        history_out = f"{checkpoint_out}.history.jsonl"
    data = np.stack([mels_by_id[r.utterance_id] for r in records])
    model, history = vqvae.train_vqvae(data, config, seed, epochs=epochs, history_path=history_out)
    model.save(checkpoint_out)
    click.echo(
        f"trained {len(history)} epochs; final loss {history[-1]['total']:.4f} "
        f"(epoch 1: {history[0]['total']:.4f})"
    )


@main.command("encode")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--mels", "mels_path", required=True, type=click.Path(exists=True))
@click.option("--checkpoint", "checkpoint_path", required=True, type=click.Path(exists=True))
@click.option("--out", "codes_out", required=True, type=click.Path())
def cmd_encode(manifest_path, mels_path, checkpoint_path, codes_out):
    """Extract the discrete code sequence for every record."""
    records = _load_manifest(manifest_path)
    mels_by_id = _load_mels_for(records, mels_path)
    model = VqVae.load(checkpoint_path)
    codes = vqvae.extract_codes(
        {r.utterance_id: mels_by_id[r.utterance_id] for r in records}, model
    )
    vqvae.write_codes(codes_out, codes)
    click.echo(f"encoded {len(codes)} utterances ({vqvae.GRID_POSITIONS} codes each)")


def _build_backend(backend_spec, endpoint, model_name, api_key_env, rpm, timeout, max_retries, temperature, records, seed):
    if backend_spec.startswith("mock:"):
        policy, _, label = backend_spec[len("mock:"):].partition(":")
        return ann.mock_backend(policy, records=records, seed=seed, label=label or None)
    if backend_spec == "http":
        if not endpoint or not model_name:
            _fail("http backend requires --endpoint and --model")
        try:
            config = ann.BackendConfig(
                endpoint=endpoint,
                model=model_name,
                api_key_env=api_key_env,
                timeout_s=timeout,
                max_retries=max_retries,
                requests_per_minute=rpm,
                temperature=temperature,
            )
        except ValueError as exc:
            _fail(f"invalid http backend settings: {exc}")
        return ann.ChatCompletionBackend(config)
    _fail(f"unknown backend {backend_spec!r}; use http or mock:<policy>")


@main.command("annotate")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--variant", default="text", show_default=True,
              help="text | text-energy-f0 | text-energy-f0-gender | text-energy-f0-gender-codes | full")
@click.option("--shots", type=click.Choice(["zero", "few"]), default="zero", show_default=True)
@click.option("--backend", "backend_spec", default="mock:keyword", show_default=True,
              help="http or mock:oracle | mock:random | mock:fixed:<label> | mock:keyword")
@click.option("--features", "features_path", type=click.Path(exists=True))
@click.option("--codes", "codes_path", type=click.Path(exists=True))
@click.option("--few-shot-manifest", type=click.Path(exists=True),
              help="Pool for exemplars; defaults to the target manifest.")
@click.option("--few-shot-features", type=click.Path(exists=True))
@click.option("--few-shot-codes", type=click.Path(exists=True))
@click.option("--balanced-few-shot", is_flag=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "annotations_out", required=True, type=click.Path())
@click.option("--cache", "cache_path", type=click.Path(), help="Defaults to <out>.cache.jsonl")
@click.option("--failure-budget", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--concurrency", type=click.IntRange(min=1), default=1, show_default=True,
              help="Distinct prompts asked in parallel. A run asks the backend once per "
                   "distinct prompt whatever this is, and reports the same cache hits.")
@click.option("--endpoint", help="Chat-completion URL for the http backend.")
@click.option("--model", "model_name", help="Model name for the http backend.")
@click.option("--api-key-env", default="SERANN_API_KEY", show_default=True)
@click.option("--rpm", type=click.IntRange(min=1), default=60, show_default=True)
@click.option("--timeout", type=_FiniteFloat(positive=True), default=30.0, show_default=True)
@click.option("--max-retries", type=click.IntRange(min=0), default=3, show_default=True)
@click.option("--temperature", type=_FiniteFloat(), default=0.0, show_default=True)
def cmd_annotate(manifest_path, variant, shots, backend_spec, features_path, codes_path,
                 few_shot_manifest, few_shot_features, few_shot_codes, balanced_few_shot,
                 seed, annotations_out, cache_path, failure_budget, concurrency,
                 endpoint, model_name, api_key_env, rpm, timeout, max_retries, temperature):
    """Label every record through the configured backend, with caching."""
    ctx_variant = ann.ContextVariant.parse(variant)
    records = _load_manifest(manifest_path)
    features_by_id = dsp.load_features(features_path) if features_path else {}
    codes_by_id = vqvae.load_codes(codes_path) if codes_path else {}
    if ctx_variant.needs_features and not features_path:
        _fail(f"variant {ctx_variant.value} requires --features")
    if ctx_variant.needs_codes and not codes_path:
        _fail(f"variant {ctx_variant.value} requires --codes")

    pool = _load_manifest(few_shot_manifest) if few_shot_manifest else records
    if few_shot_features:
        features_by_id = {**dsp.load_features(few_shot_features), **features_by_id}
    if few_shot_codes:
        codes_by_id = {**vqvae.load_codes(few_shot_codes), **codes_by_id}

    backend = _build_backend(backend_spec, endpoint, model_name, api_key_env, rpm,
                             timeout, max_retries, temperature, records, seed)
    cache = ann.AnnotationCache(cache_path or f"{annotations_out}.cache.jsonl")
    if cache.dropped:
        click.echo(f"dropped {cache.dropped} torn record at the end of {cache.path}", err=True)
    with cache:
        try:
            results, summary = ann.annotate_corpus(
                records,
                ctx_variant,
                backend,
                shots=shots,
                seed=seed,
                features_by_id=features_by_id,
                codes_by_id=codes_by_id,
                few_shot_pool=pool,
                cache=cache,
                balanced_few_shot=balanced_few_shot,
                failure_budget=failure_budget,
                concurrency=concurrency,
            )
        except ann.MissingContextFileError as exc:
            files = {"--features": features_path, "--few-shot-features": few_shot_features,
                     "--codes": codes_path, "--few-shot-codes": few_shot_codes}
            named = (f"{path} ({flag})" for flag, path in files.items() if path and flag.endswith(exc.context))
            _fail(f"{', '.join(named)}: {exc}")
    ann.write_annotations(annotations_out, results)
    summary_doc = {"schema_version": reports.SCHEMA_VERSION, "kind": "annotation_summary",
                   **summary.to_json()}
    reports.write_report(f"{annotations_out}.summary.json", summary_doc)
    click.echo(
        f"annotated {len(results)}/{summary.total} "
        f"(unparseable {summary.unparseable}, cache hits {summary.cache_hits})"
    )
    if summary.failures:
        sys.exit(1)


def _records_with_labels(manifest_path, labels_source, annotations_path):
    records = _load_manifest(manifest_path)
    if labels_source == "llm":
        if not annotations_path:
            _fail("--labels-source llm requires --annotations")
        annotations = ann.load_annotations(annotations_path)
        records = ann.apply_annotations(records, annotations)
        usable = [r for r in records if r.llm_label in LABELS]
        skipped = len(records) - len(usable)
        if skipped:
            click.echo(f"excluding {skipped} records without usable llm labels", err=True)
        records = usable
    return records


@main.command("train-classifier")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--mels", "mels_path", required=True, type=click.Path(exists=True))
@click.option("--labels-source", type=click.Choice(["gold", "llm"]), default="gold", show_default=True)
@click.option("--annotations", "annotations_path", type=click.Path(exists=True))
@click.option("--folds", type=click.Choice(["loso", "cross", "fixed"]), default="loso", show_default=True)
@click.option("--eval-manifest", type=click.Path(exists=True), help="Held-out corpus for cross-corpus runs.")
@click.option("--eval-mels", type=click.Path(exists=True))
@click.option("--repeats", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="Base seed; repeat r uses seed + r.")
@click.option("--out", "report_out", required=True, type=click.Path())
@click.option("--artifacts-dir", type=click.Path(),
              help="Directory for per-fold checkpoints and histories; defaults to <out>.artifacts")
@click.option("--desk-scale", is_flag=True)
@click.option("--max-epochs", type=int, default=None)
@click.option("--config", "config_path", type=click.Path(exists=True))
def cmd_train_classifier(manifest_path, mels_path, labels_source, annotations_path, folds,
                         eval_manifest, eval_mels, repeats, seed, report_out, artifacts_dir,
                         desk_scale, max_epochs, config_path):
    """Train and evaluate under the chosen protocol; emit a run report."""
    config = _model_config(ClassifierConfig, "classifier", desk_scale, config_path,
                           max_epochs=max_epochs)
    records = _records_with_labels(manifest_path, labels_source, annotations_path)
    seeds = [seed + r for r in range(repeats)]
    if artifacts_dir is None:
        artifacts_dir = f"{report_out}.artifacts"
    if folds == "cross":
        if not eval_manifest or not eval_mels:
            _fail("cross-corpus runs require --eval-manifest and --eval-mels")
        eval_records = _load_manifest(eval_manifest)
        mels_by_id = _load_mels_for([*records, *eval_records], mels_path, eval_mels)
        report = experiments.run_cross_corpus(records, eval_records, mels_by_id, labels_source,
                                              config, seeds, artifacts_dir=artifacts_dir)
    else:
        mels_by_id = _load_mels_for(records, mels_path)
        run = experiments.run_loso if folds == "loso" else experiments.run_fixed
        report = run(records, mels_by_id, labels_source, config, seeds, artifacts_dir=artifacts_dir)
    reports.write_report(report_out, report)
    agg = report["aggregate"]
    click.echo(f"UAR {agg['mean']:.4f} +/- {agg['std']:.4f} over {agg['repeats']} repeats")


@main.command("augment-eval")
@click.option("--base-manifest", required=True, type=click.Path(exists=True))
@click.option("--base-mels", required=True, type=click.Path(exists=True))
@click.option("--extra-manifest", required=True, type=click.Path(exists=True))
@click.option("--extra-mels", required=True, type=click.Path(exists=True))
@click.option("--extra-annotations", required=True, type=click.Path(exists=True))
@click.option("--repeats", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "report_out", required=True, type=click.Path())
@click.option("--desk-scale", is_flag=True)
@click.option("--max-epochs", type=int, default=None)
@click.option("--config", "config_path", type=click.Path(exists=True))
def cmd_augment_eval(base_manifest, base_mels, extra_manifest, extra_mels, extra_annotations,
                     repeats, seed, report_out, desk_scale, max_epochs, config_path):
    """Compare training on the base corpus alone vs adding machine-labeled extras."""
    config = _model_config(ClassifierConfig, "classifier", desk_scale, config_path,
                           max_epochs=max_epochs)
    base_records = _load_manifest(base_manifest)
    extra_records = ann.apply_annotations(
        _load_manifest(extra_manifest), ann.load_annotations(extra_annotations)
    )
    unannotated = sum(r.llm_label is None for r in extra_records)
    if unannotated:
        click.echo(f"excluding {unannotated} extra records without annotations", err=True)
    extra_records = [r for r in extra_records if r.llm_label is not None]
    trained = [*base_records, *(r for r in extra_records if r.llm_label in LABELS)]
    mels_by_id = _load_mels_for(trained, base_mels, extra_mels)
    seeds = [seed + r for r in range(repeats)]
    report = experiments.run_augment_eval(base_records, extra_records, mels_by_id, config, seeds)
    reports.write_report(report_out, report)
    click.echo(
        f"baseline {report['baseline']['mean']:.4f} -> augmented {report['augmented']['mean']:.4f} "
        f"(delta {report['delta_mean']:+.4f})"
    )


@main.command("report")
@click.option("--in", "report_path", required=True, type=click.Path(exists=True))
@click.option("--validate", "do_validate", is_flag=True, help="Schema-check and exit.")
def cmd_report(report_path, do_validate):
    """Summarize (and optionally schema-validate) a report document."""
    doc = reports.read_report(report_path)
    try:
        reports.validate_report(doc)
    except reports.ReportValidationError as exc:
        _fail(f"{report_path}: {exc}")
    if do_validate:
        click.echo("valid")
        return
    kind = doc["kind"]
    click.echo(f"kind: {kind} (schema v{doc['schema_version']})")
    if kind == "classifier_run":
        agg = doc["aggregate"]
        click.echo(f"protocol: {doc['protocol']}  labels: {doc['labels_source']}")
        click.echo(f"UAR: {agg['mean']:.4f} +/- {agg['std']:.4f} over {agg['repeats']} repeats")
        for fold in doc["folds"]:
            scores = ", ".join(f"{u:.3f}" for u in fold["uars"])
            click.echo(f"  fold {fold['name']}: {scores}")
    elif kind == "augment_eval":
        click.echo(
            f"baseline {doc['baseline']['mean']:.4f} -> augmented {doc['augmented']['mean']:.4f} "
            f"(delta {doc['delta_mean']:+.4f})"
        )
    elif kind == "annotation_summary":
        click.echo(f"total: {doc['total']}  unparseable rate: {doc['unparseable_rate']:.3f}")
        for label, count in sorted(doc["label_counts"].items()):
            click.echo(f"  {label}: {count}")


if __name__ == "__main__":
    main()
