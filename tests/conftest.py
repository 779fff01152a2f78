import re
from collections import defaultdict

import numpy as np
import pytest

from serann import dsp, synthetic
from serann.corpus import (
    LABEL_INDEX,
    Fold,
    aggregate_runs,
    augment_merge,
    config_digest,
    fixed_split,
    load_manifest,
    resolve_audio_path,
)
from serann.coremath.rng import Rng
from serann.coremath.tensor import Tensor, _needs_grad, mul, reshape
from serann.experiments import run_fold
from serann.reports import SCHEMA_VERSION
from serann.vqvae import _DISTANCE_BLOCK, CodebookError

ACCEPTANCE_CRITERIA = {
    1: "gradient suite: every differentiable op within 1e-4 of central differences, under 60 s",
    2: "quantizer matches brute-force nearest neighbor exactly (k=64 and k=8192)",
    3: "straight-through gradient copied bitwise; stop-gradients route loss terms exactly",
    4: "desk VQ-VAE halves reconstruction in 50 epochs; pattern codes disjoint; extraction deterministic",
    5: "mel/energy/pitch agree with independent references at stated tolerances",
    6: "plateau schedule halves at epochs 6/12/18/24 with bit-exact reversion, stops below the floor",
    7: "UAR matches brute-force recall to 1e-12; one-class predictor scores exactly 0.25",
    8: "LOSO covers all speakers with zero leakage; 30/70 split partitions and reproduces per seed",
    9: "end-to-end mock pipeline: oracle==gold checkpoints, random mock near chance, prompt structure",
    10: "augmentation delta >= -0.02 over 10 repeats; report stats match a hand oracle to 1e-12",
    11: "full 10-fold x 10-repeat protocol completes at desk scale with schema-valid reports",
}


# Damage to a good WAV file's bytes that read_wav must reject naming the file,
# with a fragment of the message it gives.
WAV_DAMAGE = {
    "empty": (lambda raw: b"", "not a WAV file"),
    "cut-at-4": (lambda raw: raw[:4], "not a WAV file"),
    "cut-at-20": (lambda raw: raw[:20], "not a WAV file"),
    "not-riff": (lambda raw: b"JUNK" + raw[4:], "RIFF"),
    "odd-data-bytes": (lambda raw: raw[:44 + 101], "ends inside a sample"),
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, set] = defaultdict(set)
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = re.search(r"test_acceptance\.py::.*test_c(\d\d)", getattr(report, "nodeid", ""))
            if match:
                outcomes[int(match.group(1))].add(status)
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_CRITERIA):
        if number not in outcomes:
            continue
        verdict = "PASS" if outcomes[number] == {"passed"} else "FAIL"
        terminalreporter.write_line(
            f"criterion {number:2d}: {verdict} - {ACCEPTANCE_CRITERIA[number]}"
        )


def brute_force_codes(z, embeddings):
    """Nearest codebook row per latent: the argmin, lowest index on ties, of
    explicit float64 squared differences to every row, one latent at a time.
    Each distance has the same bits as ``float(np.sum((row - e) ** 2))``
    taken pair by pair."""
    e = np.asarray(embeddings, dtype=np.float64)
    return np.array(
        [int(np.argmin(((row - e) ** 2).sum(axis=1))) for row in np.asarray(z, dtype=np.float64)],
        dtype=np.int64,
    )


def reference_nearest_codes(z, embeddings):
    """``vqvae.nearest_codes`` as it was before the screen ran in the inputs'
    own precision: a float64 copy of the codebook per call, the float64 GEMM
    expansion ``|z|^2 - 2 z.e + |e|^2`` with a (|z| + max|e|)^2 bound, and a
    per-row loop over rows with several candidates; non-finite rows go to
    ``brute_force_codes``, the same argmin. Its codes are the bitwise oracle
    for the new screen."""
    z64 = np.asarray(z, dtype=np.float64)
    e64 = np.asarray(embeddings, dtype=np.float64)
    n = e64.shape[1] + 3
    gamma = n * 2.0**-53 / (1 - n * 2.0**-53)
    underflow = n * 2.0**-1074
    ee = np.einsum("kd,kd->k", e64, e64)
    e_norm_max = np.sqrt(ee.max())
    block = max(1, _DISTANCE_BLOCK // len(e64))
    codes = np.empty(len(z64), dtype=np.int64)
    for start in range(0, len(z64), block):
        chunk = z64[start : start + block]
        zz = np.einsum("nd,nd->n", chunk, chunk)
        with np.errstate(invalid="ignore", over="ignore"):
            approx = chunk @ e64.T
            approx *= -2.0
            approx += zz[:, None]
            approx += ee
        lo = approx.min(axis=1)
        scale = (np.sqrt(zz) + e_norm_max) ** 2
        limit = lo + 4.0 * (gamma * scale + underflow)
        finite = np.isfinite(lo) & (scale < 2.0**1000)
        out = codes[start : start + len(chunk)]
        out[:] = approx.argmin(axis=1)
        if not finite.all():
            out[~finite] = brute_force_codes(chunk[~finite], e64)
        candidates = approx <= limit[:, None]
        for row in np.flatnonzero(finite & (candidates.sum(axis=1) > 1)):
            cand = np.flatnonzero(candidates[row])
            out[row] = cand[((chunk[row] - e64[cand]) ** 2).sum(axis=-1).argmin()]
    return codes


def _reference_gather(xp, kh, kw, sh, sw, oh, ow):
    n, c = xp.shape[:2]
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw]
    return cols


def _reference_scatter(cols, buf, kh, kw, sh, sw, oh, ow):
    for i in range(kh):
        for j in range(kw):
            buf[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += cols[:, :, i, j]


# -- general tape ops ----------------------------------------------------
# The primitives that layers were chains of before each became one tape node,
# as they were in serann.coremath.tensor. The chains built from them below
# are the oracle the fused ops must match bit for bit.


def reference_relu(a):
    # Derivative at exactly 0 is 0.
    out_data = np.maximum(a.data, 0)
    if not _needs_grad(a):
        return Tensor(out_data)

    def backprop(g):
        a.accumulate_grad(g * (a.data > 0))

    return Tensor(out_data, True, (a,), backprop)


def reference_matmul(a, b):
    out_data = a.data @ b.data
    if not _needs_grad(a, b):
        return Tensor(out_data)

    def backprop(g):
        a.accumulate_grad(g @ b.data.T)
        b.accumulate_grad(a.data.T @ g)

    return Tensor(out_data, True, (a, b), backprop)


def reference_softmax(a, axis=-1):
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=axis, keepdims=True)
    if not _needs_grad(a):
        return Tensor(out_data)

    def backprop(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        a.accumulate_grad((g - inner) * out_data)

    return Tensor(out_data, True, (a,), backprop)


def _restore_axes(g, shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g, shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(shape) for a in axes)
    if not keepdims:
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape)


def reference_tensor_sum(a, axis=None, keepdims=False):
    out_data = a.data.sum(axis=axis, keepdims=keepdims)
    if not _needs_grad(a):
        return Tensor(out_data)

    def backprop(g):
        a.accumulate_grad(_restore_axes(g, a.shape, axis, keepdims).astype(a.dtype))

    return Tensor(out_data, True, (a,), backprop)


def reference_tensor_mean(a, axis=None, keepdims=False):
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.data.size // out_data.size
    if not _needs_grad(a):
        return Tensor(out_data)

    def backprop(g):
        spread = _restore_axes(g, a.shape, axis, keepdims).astype(a.dtype)
        a.accumulate_grad(spread / count)

    return Tensor(out_data, True, (a,), backprop)


def reference_dense(x, weights, bias, activation=None):
    """``ops.dense`` as a matmul, a broadcast add and a ReLU node."""
    out = reference_matmul(x, weights) + bias
    return reference_relu(out) if activation == "relu" else out


def reference_attention_pool(h, w):
    """``classifier.attention_pool`` as eight nodes: scores by matmul, a
    softmax over time, then a weighted sum over time."""
    n, t, d = h.shape
    scores = reshape(reference_matmul(reshape(h, (n * t, d)), reshape(w, (d, 1))), (n, t))
    alpha = reference_softmax(scores, axis=1)
    return reference_tensor_sum(mul(reshape(alpha, (n, t, 1)), h), axis=1)


def reference_mse(a, b):
    """``ops.mse`` as a difference, a product and a mean node."""
    diff = a - b
    return reference_tensor_mean(diff * diff)


def _reference_epilogue(out, bias, activation):
    if bias is not None:
        out = out + reshape(bias, (1, bias.shape[0], 1, 1))
    return reference_relu(out) if activation == "relu" else out


def reference_conv2d(x, kernels, stride, padding, bias=None, activation=None):
    """Unchunked im2col lowering with a ``tensordot`` kernel gradient, bias
    and ReLU as separate tape ops. ``stride`` is an (sh, sw) pair and
    ``padding`` ((top, bottom), (left, right))."""
    n, c, h, w = x.shape
    f, _, kh, kw = kernels.shape
    sh, sw = stride
    (pt, pb), (pl, pr) = padding
    oh = (h + pt + pb - kh) // sh + 1
    ow = (w + pl + pr - kw) // sw + 1
    xp = np.pad(x.data, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    cols2 = _reference_gather(xp, kh, kw, sh, sw, oh, ow).reshape(n, c * kh * kw, oh * ow)
    k2 = kernels.data.reshape(f, c * kh * kw)

    def backprop(g):
        g2 = g.reshape(n, f, oh * ow)
        if kernels.requires_grad:
            dk = np.tensordot(g2, cols2, axes=([0, 2], [0, 2]))
            kernels.accumulate_grad(dk.reshape(kernels.shape))
        if x.requires_grad:
            dcols = np.matmul(k2.T, g2).reshape(n, c, kh, kw, oh, ow)
            dxp = np.zeros_like(xp)
            _reference_scatter(dcols, dxp, kh, kw, sh, sw, oh, ow)
            x.accumulate_grad(dxp[:, :, pt : pt + h, pl : pl + w])

    out = Tensor(np.matmul(k2, cols2).reshape(n, f, oh, ow), True, (x, kernels), backprop)
    return _reference_epilogue(out, bias, activation)


def reference_conv2d_transpose(x, kernels, stride, padding, output_padding, bias=None, activation=None):
    """The adjoint lowering of ``reference_conv2d``, same conventions, with
    ``output_padding`` an (h, w) pair."""
    n, f, h, w = x.shape
    _, c, kh, kw = kernels.shape
    sh, sw = stride
    (pt, pb), (pl, pr) = padding
    bh = (h - 1) * sh + kh + output_padding[0]
    bw = (w - 1) * sw + kw + output_padding[1]
    k2 = kernels.data.reshape(f, c * kh * kw)
    x2 = x.data.reshape(n, f, h * w)
    buf = np.zeros((n, c, bh, bw), dtype=x.dtype)
    _reference_scatter(np.matmul(k2.T, x2).reshape(n, c, kh, kw, h, w), buf, kh, kw, sh, sw, h, w)

    def backprop(g):
        gbuf = np.zeros((n, c, bh, bw), dtype=g.dtype)
        gbuf[:, :, pt : bh - pb, pl : bw - pr] = g
        gcols2 = _reference_gather(gbuf, kh, kw, sh, sw, h, w).reshape(n, c * kh * kw, h * w)
        if x.requires_grad:
            x.accumulate_grad(np.matmul(k2, gcols2).reshape(n, f, h, w))
        if kernels.requires_grad:
            dk = np.tensordot(x2, gcols2, axes=([0, 2], [0, 2]))
            kernels.accumulate_grad(dk.reshape(kernels.shape))

    out = Tensor(buf[:, :, pt : bh - pb, pl : bw - pr].copy(), True, (x, kernels), backprop)
    return _reference_epilogue(out, bias, activation)


def _stop_gradient(a):
    return Tensor(a.data.copy())


def _straight_through(carrier, values):
    def backprop(g):
        carrier.accumulate_grad(g)

    return Tensor(np.asarray(values, dtype=carrier.dtype).copy(), True, (carrier,), backprop)


def _gather_rows(table, idx):
    def backprop(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, idx, g)
        table.accumulate_grad(buf)

    return Tensor(table.data[idx].copy(), True, (table,), backprop)


def reference_vq_losses(model, x):
    """One VQ-VAE loss built from general tape ops: a gradient-blocking copy,
    a straight-through value swap and a scatter-adding row lookup. Returns
    ``(z_e, z_q, codes, recon, codebook_term, commitment_term)``."""
    from serann.vqvae import flatten_grid, nearest_codes

    z_e = model.encode(x)
    flat = flatten_grid(z_e)
    codes = nearest_codes(flat.data, model.codebook.data)
    e_selected = _gather_rows(model.codebook, codes)
    n, d, h, w = z_e.shape
    z_q_values = model.codebook.data[codes].reshape(n, h, w, d).transpose(0, 3, 1, 2)
    z_q = _straight_through(z_e, z_q_values)
    recon = reference_mse(x, model.decode(z_q))
    codebook_term = reference_mse(_stop_gradient(flat), e_selected)
    beta = Tensor(np.asarray(model.config.beta, dtype=z_e.dtype))
    commitment_term = mul(beta, reference_mse(flat, _stop_gradient(e_selected)))
    return z_e, z_q, codes, recon, codebook_term, commitment_term


def reference_frame_autocorr(frame, max_lag):
    """Normalized autocorrelation r(tau) of one frame for tau in 0..max_lag."""
    n = len(frame)
    spectrum = np.fft.rfft(frame, n=2 * n)
    raw = np.fft.irfft(spectrum * np.conj(spectrum))[: max_lag + 1]
    energy = np.concatenate([[0.0], np.cumsum(frame * frame)])
    total = energy[-1]
    lags = np.arange(max_lag + 1)
    head = energy[n - lags]  # sum x[0..n-tau-1]^2
    tail = total - energy[lags]  # sum x[tau..n-1]^2
    denom = np.sqrt(head * tail)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0, raw / denom, 0.0)


def _reference_frame_pitch(frame):
    """F0 of one frame in Hz, or 0.0 when unvoiced."""
    rms = float(np.sqrt(np.mean(frame * frame)))
    if rms < dsp.VOICING_RMS:
        return 0.0
    lag_min = int(dsp.SAMPLE_RATE / dsp.PITCH_MAX_HZ)
    lag_max = int(dsp.SAMPLE_RATE / dsp.PITCH_MIN_HZ)
    r = reference_frame_autocorr(frame, lag_max + 1)
    window = r[lag_min : lag_max + 1]
    best = float(window.max(initial=0.0))
    if best < dsp.VOICING_CORR:
        return 0.0
    peaks = [
        i
        for i in range(1, len(window) - 1)
        if window[i] >= window[i - 1]
        and window[i] >= window[i + 1]
        and window[i] >= 0.9 * best
        and window[i] >= dsp.VOICING_CORR
    ]
    if not peaks:
        return 0.0
    lag = lag_min + peaks[0]
    left, mid, right = r[lag - 1], r[lag], r[lag + 1]
    curvature = left - 2.0 * mid + right
    delta = 0.5 * (left - right) / curvature if abs(curvature) > 1e-12 else 0.0
    delta = float(np.clip(delta, -0.5, 0.5))
    f0 = dsp.SAMPLE_RATE / (lag + delta)
    return float(np.clip(f0, dsp.PITCH_MIN_HZ, dsp.PITCH_MAX_HZ))


def reference_average_pitch(samples):
    """``dsp.average_pitch`` one frame at a time: a per-frame FFT
    autocorrelation and a Python scan of its lag window for the first peak.
    The batched tracker must give the same bits."""
    n = 1 + (len(samples) - dsp.WIN) // dsp.HOP
    frames = samples[np.arange(dsp.WIN)[None, :] + dsp.HOP * np.arange(n)[:, None]]
    pitches = [p for p in (_reference_frame_pitch(f) for f in frames) if p > 0.0]
    return float(np.mean(pitches)) if pitches else 0.0


def reference_average_energy(samples):
    """``dsp.average_energy`` with every 25 ms frame of the clip gathered at
    once by fancy indexing. The chunked version must give the same bits."""
    n = 1 + (len(samples) - dsp.ENERGY_WIN) // dsp.ENERGY_HOP
    frames = samples[np.arange(dsp.ENERGY_WIN)[None, :] + dsp.ENERGY_HOP * np.arange(n)[:, None]]
    rms = np.sqrt(np.mean(frames * frames, axis=1))
    return float(rms.mean())


def reference_check_codebook_rows(embeddings):
    """The codebook check as a set of row bytes: rows must differ in their
    bytes, then be finite."""
    rows = {row.tobytes() for row in embeddings}
    if len(rows) != embeddings.shape[0]:
        raise CodebookError("codebook initialization produced identical rows")
    if not np.all(np.isfinite(embeddings)):
        raise CodebookError("codebook contains non-finite entries")


def reference_adam_step(params, grads, state):
    """``adam_step`` as whole-array expressions, each building a new array.
    ``Adam.step`` and ``adam_step`` must give the same bits."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"gradient for {name!r} is not finite")
    state.t += 1
    b1, b2, eps = state.beta1, state.beta2, state.epsilon
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    updated = {}
    for name, p in params.items():
        g = np.asarray(grads.get(name, np.zeros_like(p)), dtype=p.dtype)
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p)
            v = np.zeros_like(p)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        mhat = m / bc1
        vhat = v / bc2
        updated[name] = p - state.learning_rate * mhat / (np.sqrt(vhat) + eps)
    return updated


def reference_run_augment_eval(
    base_records, extra_records, mels_by_id, config, seeds, val_fraction=0.2, test_fraction=0.2
):
    """``experiments.run_augment_eval`` with its own seed loop: both arms
    trained seed by seed through ``run_fold``, each aggregated on its own.
    The ``run_plan`` version must give the same document."""
    merged = augment_merge(base_records, extra_records)
    records_by_id = {r.utterance_id: r for r in merged.records}
    extra_ids = tuple(uid for uid, src in merged.provenance.items() if src == "llm")

    base_uars, aug_uars = [], []
    for seed in seeds:
        fold = fixed_split(base_records, val_fraction, test_fraction, seed=seed).folds[0]
        base_uars.append(run_fold(fold, records_by_id, mels_by_id, "gold", config, seed))
        augmented_fold = Fold(
            name="augmented",
            train_ids=fold.train_ids + extra_ids,
            val_ids=fold.val_ids,
            test_ids=fold.test_ids,
        )
        aug_uars.append(run_fold(augmented_fold, records_by_id, mels_by_id, "auto", config, seed))
    digest = config_digest({"classifier": config.to_json(), "protocol": "augment_eval"})
    baseline = aggregate_runs(base_uars, digest)
    augmented = aggregate_runs(aug_uars, digest)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "augment_eval",
        "seeds": [int(s) for s in seeds],
        "config": config.to_json(),
        "baseline": baseline.to_json(),
        "augmented": augmented.to_json(),
        "delta_mean": augmented.mean - baseline.mean,
        "extra_records_used": len(extra_ids),
        "extra_records_excluded": merged.excluded_unparseable,
    }


def tape_nodes(root):
    """Number of tensors reachable from ``root`` through recorded parents,
    ``root`` and the leaves included."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


@pytest.fixture()
def taped_tensors(monkeypatch):
    """Every Tensor built with tape parents or a backprop closure while the
    test runs, in construction order."""
    taped = []
    init = Tensor.__init__

    def recording_init(self, data, requires_grad=False, parents=(), backprop=None):
        init(self, data, requires_grad, parents, backprop)
        if parents or backprop is not None:
            taped.append(self)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    return taped


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """Ten-speaker synthetic corpus (5 male, 5 female), 8 utterances each."""
    root = tmp_path_factory.mktemp("corpus")
    synthetic.build_synthetic_corpus(root, speakers=10, per_speaker=8, seed=7)
    return root


@pytest.fixture(scope="session")
def corpus_records(corpus_dir):
    return load_manifest(corpus_dir / "manifest.jsonl")


@pytest.fixture(scope="session")
def corpus_mels(corpus_dir, corpus_records):
    manifest = corpus_dir / "manifest.jsonl"
    mels = {}
    for record in corpus_records:
        clip = dsp.read_wav(resolve_audio_path(manifest, record))
        mels[record.utterance_id] = dsp.mel_spectrogram(clip)
    return mels


@pytest.fixture(scope="session")
def corpus_features(corpus_dir, corpus_records):
    manifest = corpus_dir / "manifest.jsonl"
    feats = {}
    for record in corpus_records:
        clip = dsp.read_wav(resolve_audio_path(manifest, record))
        feats[record.utterance_id] = dsp.extract_features(clip, record.gender)
    return feats


@pytest.fixture(scope="session")
def corpus_arrays(corpus_records, corpus_mels):
    x = np.stack([corpus_mels[r.utterance_id] for r in corpus_records])
    y = np.array([LABEL_INDEX[r.gold_label] for r in corpus_records])
    return x, y


@pytest.fixture()
def rng():
    return Rng(1234)
