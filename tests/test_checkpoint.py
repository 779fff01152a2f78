import re
import struct
import tracemalloc

import numpy as np
import pytest

from serann.classifier import ClassifierConfig, EmotionClassifier
from serann.coremath import (
    Adam,
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


def test_load_into_copies_the_blobs(blobs):
    # Adam updates ``data`` in place, so a parameter must never share
    # memory with the blob it was loaded from.
    params = {name: Tensor(np.zeros(b.shape, b.dtype)) for name, b in blobs.items()}
    load_into(params, blobs)
    kept = {name: t.data.copy() for name, t in params.items()}
    for blob in blobs.values():
        blob += 1
    for name, t in params.items():
        assert t.data.tobytes() == kept[name].tobytes(), name


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


def one_blob_header(dims, data=bytes(16)):
    """A container holding one float32 blob ``w`` whose header claims
    ``dims``, followed by ``data``."""
    return (MAGIC + struct.pack("<HIH", FORMAT_VERSION, 1, 1) + b"w"
            + struct.pack(f"<BB{len(dims)}I", 0, len(dims), *dims) + data)


@pytest.mark.parametrize("dims", [(2**32 - 1, 2**32 - 1), (2**31, 2**31, 4)], ids=["huge", "wraps-to-0"])
def test_header_dims_that_overflow_name_the_file(tmp_path, dims):
    path = tmp_path / "bad.serann"
    path.write_bytes(one_blob_header(dims))
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_undecodable_blob_name_names_the_file(tmp_path):
    path = tmp_path / "bad.serann"
    path.write_bytes(one_blob_header((4,)).replace(b"w", b"\xff", 1))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: blob name at byte 14 is not UTF-8")):
        load_checkpoint(path)


def test_rank_numpy_cannot_hold_names_the_file(tmp_path):
    path = tmp_path / "bad.serann"
    path.write_bytes(one_blob_header((0,) * 65, data=b""))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: blob 'w'")):
        load_checkpoint(path)


def test_model_file_with_other_names_or_shapes_names_the_file(tmp_path):
    model = VqVae(VqVaeConfig.desk(), Rng(3))
    path = tmp_path / "vq.serann"
    model.save(path)
    blobs = {name: t.data for name, t in model.params().items()}
    save_checkpoint(path, {**blobs, "codebook": blobs["codebook"][:-1]})
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: blob 'codebook' shape")):
        VqVae.load(path)
    save_checkpoint(path, {("book" if name == "codebook" else name): b for name, b in blobs.items()})
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: parameter names")):
        VqVae.load(path)


def test_blob_named_twice_rejected(tmp_path):
    path = tmp_path / "twice.serann"
    blob = struct.pack("<H", 1) + b"w" + struct.pack("<BBI", 0, 1, 1) + bytes(4)
    path.write_bytes(MAGIC + struct.pack("<HI", FORMAT_VERSION, 2) + blob + blob)
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: blob 'w' appears twice")):
        load_checkpoint(path)


def peak_bytes(call):
    """The tracemalloc peak, in bytes, while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_header_claiming_16_gb_allocates_nothing(tmp_path):
    path = tmp_path / "bad.serann"
    path.write_bytes(one_blob_header((2**31, 2)))

    def load():
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(path)

    assert peak_bytes(load) < 2**20


@pytest.fixture()
def big_checkpoint(tmp_path, rng):
    """A 3 MB container of three blobs, with its blobs."""
    blobs = {
        "a": rng.normal(0, 1, (512, 1024), np.float32),
        "b": rng.normal(0, 1, (256, 512), np.float64),
        "c": rng.normal(0, 1, (7,), np.float32),
    }
    path = tmp_path / "big.serann"
    save_checkpoint(path, blobs)
    return path, blobs


def test_load_reads_each_blob_once(big_checkpoint):
    path, _ = big_checkpoint
    assert peak_bytes(lambda: load_checkpoint(path)) <= 1.05 * path.stat().st_size


def test_save_stages_no_copy(big_checkpoint):
    path, blobs = big_checkpoint
    assert peak_bytes(lambda: save_checkpoint(path, blobs)) <= 0.05 * path.stat().st_size


def test_paper_size_model_load_holds_the_model_and_one_file(tmp_path):
    path = tmp_path / "vq.serann"
    VqVae(VqVaeConfig(), Rng(2)).save(path)
    assert peak_bytes(lambda: VqVae.load(path)) <= 2.05 * path.stat().st_size


MODELS = [(VqVae, VqVaeConfig.desk()), (EmotionClassifier, ClassifierConfig.desk())]


@pytest.mark.parametrize("model_type, config", MODELS)
def test_loaded_parameters_are_writeable_contiguous_and_disjoint(tmp_path, model_type, config):
    path = tmp_path / "model.serann"
    model_type(config, Rng(4)).save(path)
    params = list(model_type.load(path).params().values())
    for t in params:
        assert t.data.flags.writeable and t.data.flags.c_contiguous
    for i, a in enumerate(params):
        for b in params[i + 1 :]:
            assert not np.shares_memory(a.data, b.data)


@pytest.mark.parametrize("model_type, config", MODELS)
def test_adam_step_on_loaded_model_matches_the_saved_one(tmp_path, model_type, config):
    model = model_type(config, Rng(5))
    path = tmp_path / "model.serann"
    model.save(path)
    loaded = model_type.load(path)
    gen = np.random.default_rng(6)
    grads = {name: gen.normal(0, 1, t.shape).astype(t.dtype) for name, t in model.params().items()}
    for m in (model, loaded):
        for name, t in m.params().items():
            t.grad = grads[name].copy()
        Adam(m.params(), learning_rate=1e-3).step()
    for name, t in model.params().items():
        assert loaded.params()[name].data.tobytes() == t.data.tobytes(), name
