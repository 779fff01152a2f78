"""The benchmark in ``perfbench/`` wraps serann functions and methods by name;
these tests fail when a rename would break it, before a benchmark run does."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from serann import dsp, vqvae
from serann.annotate import runner
from serann.coremath import layers, tensor

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


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
