"""The benchmark in ``perfbench/`` wraps serann functions and methods by name;
these tests fail when a rename would break it, before a benchmark run does."""

import importlib.util
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from serann import classifier, dsp, vqvae
from serann.annotate import runner
from serann.coremath import Rng, layers, tensor

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_layer_spans_install_and_uninstall():
    originals = (dsp.read_wav, vqvae.extract_codes, layers.BiLstm.__call__,
                 runner.AnnotationCache.put, tensor.Tensor.backward)
    rec = tracing.Recorder(traced=True, probe=lambda: 0.0)
    tracing.install_layer_spans(rec)
    try:
        assert dsp.read_wav is not originals[0]
        assert layers.BiLstm.__call__ is not originals[2]
    finally:
        rec.uninstall()
    assert (dsp.read_wav, vqvae.extract_codes, layers.BiLstm.__call__,
            runner.AnnotationCache.put, tensor.Tensor.backward) == originals


def test_training_under_layer_spans_records_the_training_metrics():
    """The training metrics are read from spans taken while the trainers
    run, so a refactor of either trainer must keep producing them."""
    x = Rng(0).normal(0.0, 1.0, (8, dsp.N_MELS, dsp.N_FRAMES))
    y = np.arange(8) % 4
    rec = tracing.Recorder(traced=True, probe=lambda: 0.0)
    tracing.install_layer_spans(rec)
    try:
        model = classifier.EmotionClassifier(replace(classifier.ClassifierConfig.desk(), max_epochs=1), Rng(1))
        classifier.train(model, x, y, x[:4], y[:4], seed=2)
        classifier_spans = Counter(name for name, *_ in rec.spans)
        del rec.spans[:]
        vqvae.train_vqvae(x, vqvae.VqVaeConfig.desk(), seed=3, epochs=1)
        vqvae_spans = Counter(name for name, *_ in rec.spans)
    finally:
        rec.uninstall()
    assert classifier_spans["classifier.train_epoch"] == 1
    # Each forward step runs the model and, inside it, the BiLSTM once.
    assert classifier_spans["classifier.forward"] >= 1
    assert classifier_spans["classifier.blstm"] == classifier_spans["classifier.forward"]
    for spans in (classifier_spans, vqvae_spans):
        assert spans["coremath.adam_step"] >= 1 and spans["coremath.backward"] >= 1


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
