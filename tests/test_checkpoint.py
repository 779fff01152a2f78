import re

import numpy as np
import pytest

from serann.classifier import ClassifierConfig, EmotionClassifier
from serann.coremath import (
    CheckpointError,
    CheckpointVersionError,
    Rng,
    Tensor,
    load_checkpoint,
    load_into,
    save_checkpoint,
)
from serann.coremath.checkpoint import FORMAT_VERSION, MAGIC
from serann.vqvae import VqVae, VqVaeConfig


@pytest.fixture()
def blobs(rng):
    return {
        "conv.kernels": rng.normal(0, 1, (4, 1, 3, 3), np.float32),
        "conv.bias": rng.normal(0, 1, (4,), np.float32),
        "dense.weights": rng.normal(0, 1, (8, 2), np.float64),
    }


def test_roundtrip(tmp_path, blobs):
    path = tmp_path / "model.serann"
    save_checkpoint(path, blobs)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(blobs)
    for name in blobs:
        np.testing.assert_array_equal(loaded[name], blobs[name])
        assert loaded[name].dtype == blobs[name].dtype


def test_identical_blobs_identical_bytes(tmp_path, blobs):
    a, b = tmp_path / "a", tmp_path / "b"
    save_checkpoint(a, blobs)
    save_checkpoint(b, dict(reversed(list(blobs.items()))))
    assert a.read_bytes() == b.read_bytes()


def test_magic_and_version_prefix(tmp_path, blobs):
    path = tmp_path / "model.serann"
    save_checkpoint(path, blobs)
    raw = path.read_bytes()
    assert raw.startswith(MAGIC)
    assert int.from_bytes(raw[len(MAGIC) : len(MAGIC) + 2], "little") == FORMAT_VERSION


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"NOTSER" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_unknown_version_rejected(tmp_path, blobs):
    path = tmp_path / "model.serann"
    save_checkpoint(path, blobs)
    raw = bytearray(path.read_bytes())
    raw[len(MAGIC)] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointVersionError, match="99"):
        load_checkpoint(path)


def test_file_cut_at_any_byte_names_the_file(tmp_path):
    # A 0-d blob, an empty blob and a small matrix: every field kind.
    path = tmp_path / "model.serann"
    save_checkpoint(path, {"a": np.float32(1.5), "b": np.zeros((0, 3)), "c": np.ones((2, 3))})
    raw = path.read_bytes()
    cut = tmp_path / "cut.serann"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(CheckpointError, match=re.escape(str(cut))):
            load_checkpoint(cut)


def test_load_into_checks_names_and_shapes(tmp_path):
    path = tmp_path / "model.serann"
    save_checkpoint(path, {"w": np.zeros((2, 2), dtype=np.float32)})
    blobs = load_checkpoint(path)
    with pytest.raises(CheckpointError, match="names"):
        load_into({"other": Tensor(np.zeros((2, 2)))}, blobs)
    with pytest.raises(CheckpointError, match="shape"):
        load_into({"w": Tensor(np.zeros((3, 2)))}, blobs)


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="dtype"):
        save_checkpoint(tmp_path / "x", {"w": np.zeros(3, dtype=np.int32)})


@pytest.mark.parametrize(
    "model_type, config",
    [(VqVae, VqVaeConfig.desk()), (EmotionClassifier, ClassifierConfig.desk())],
)
def test_model_load_draws_nothing_and_restores_every_bit(tmp_path, monkeypatch, model_type, config):
    model = model_type(config, Rng(9))
    path = tmp_path / "model.serann"
    model.save(path)

    def no_draws(*args, **kwargs):
        raise AssertionError("load drew random numbers")

    for name in ("__init__", "uniform", "normal"):
        monkeypatch.setattr(Rng, name, no_draws)
    loaded = model_type.load(path)
    saved = model.params()
    assert set(loaded.params()) == set(saved)
    for name, tensor in loaded.params().items():
        assert tensor.dtype == saved[name].dtype
        assert tensor.data.tobytes() == saved[name].data.tobytes()
