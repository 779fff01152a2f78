"""Same inputs and seeds give byte-identical model files and inference
outputs whatever the BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Two epochs of the desk classifier (batches of 16, 16 and 5) and two desk
# VQ-VAE steps (batches of 32 and 5), then both model files and, from the
# trained models, the classifier's logits, the codes and the reconstruction
# error.
TRAIN = """
import json
import sys
from serann.classifier import ClassifierConfig, EmotionClassifier, predict, train_epoch
from serann.coremath import Adam, Rng
from serann.vqvae import VqVae, VqVaeConfig, extract_codes, reconstruction_loss, train_step

out = sys.argv[1]
x = Rng(1).normal(0, 1, (37, 80, 256))
y = Rng(2).integers(0, 4, 37)
model = EmotionClassifier(ClassifierConfig.desk(), Rng(3))
adam, order = Adam(model.params(), 3e-3), Rng(4)
for _ in range(2):
    train_epoch(model, x, y, adam, order)
model.save(out + "/classifier.serann")
vq = VqVae(VqVaeConfig.desk(), Rng(5))
adam = Adam(vq.params(), 5e-3)
for start in range(0, len(x), 32):
    train_step(vq, x[start : start + 32, None], adam)
vq.save(out + "/vqvae.serann")
with open(out + "/logits.bin", "wb") as handle:
    handle.write(predict(model, x)[1].tobytes())
codes = extract_codes({f"u{i:02d}": mel for i, mel in enumerate(x)}, vq)
with open(out + "/inference.json", "w") as handle:
    json.dump({"codes": codes, "reconstruction": reconstruction_loss(vq, x).hex()}, handle)
"""


def test_model_files_identical_at_one_and_two_blas_threads(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", TRAIN, str(out)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
    for name in ("classifier.serann", "vqvae.serann", "logits.bin", "inference.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name
