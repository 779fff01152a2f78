"""Single-op timings at a workload's shapes, each on an isolated graph built
from serann's public functions. The traced run reports the median of a few
repetitions of each op's forward and backward pass."""

from __future__ import annotations

import statistics
import time

from serann.classifier import EmotionClassifier
from serann.coremath import layers, ops, optim
from serann.coremath.rng import Rng
from serann.coremath.tensor import Tensor, tensor_sum
from serann.vqvae import GRID_POSITIONS, nearest_codes


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _fwd_bwd(build, repeats: int) -> tuple[float, float]:
    """Median forward and backward time of ``build()``, which returns the
    op's output tensor."""
    fwd, bwd = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        out = build()
        mid = time.perf_counter()
        loss = tensor_sum(out)
        loss.backward()
        fwd.append(mid - start)
        bwd.append(time.perf_counter() - mid)
    return statistics.median(fwd), statistics.median(bwd)


def op_timings(w, inp) -> dict[str, float]:
    rng = Rng(11)
    cfg = w.classifier
    repeats = 2 if w.vqvae.codebook_size > 1024 else 5
    batch = cfg.batch_size
    vq_batch = w.vqvae.batch_size
    out: dict[str, float] = {}

    x = Tensor(rng.uniform(-1.0, 1.0, (batch, 1, cfg.input_bands, cfg.input_frames)),
               requires_grad=True)
    kernels = Tensor(rng.normal(0.0, 0.1, (cfg.conv1_filters, 1, cfg.conv1_kernel,
                                           cfg.conv1_kernel)), requires_grad=True)
    pad = cfg.conv1_kernel // 2
    out["op.conv2d.fwd_s"], out["op.conv2d.bwd_s"] = _fwd_bwd(
        lambda: ops.conv2d(x, kernels, cfg.conv_stride, pad), repeats)

    # The VQ-VAE decoder's last layer: widest input, full-size output.
    c0 = w.vqvae.channels[0]
    z = Tensor(rng.normal(0.0, 1.0, (vq_batch, c0, cfg.input_bands // 2, cfg.input_frames // 2)),
               requires_grad=True)
    tkernels = Tensor(rng.normal(0.0, 0.1, (c0, 1, w.vqvae.kernel, w.vqvae.kernel)),
                      requires_grad=True)
    out["op.conv2d_transpose.fwd_s"], out["op.conv2d_transpose.bwd_s"] = _fwd_bwd(
        lambda: ops.conv2d_transpose(z, tkernels, (2, 2), (1, 1), (1, 1)), repeats)

    model = EmotionClassifier(cfg, Rng(12))
    seq = Tensor(rng.normal(0.0, 1.0, (batch, model.seq_len, model.seq_dim)), requires_grad=True)
    lstm = layers.BiLstm(model.seq_dim, cfg.blstm_units, Rng(13))
    out["op.bilstm.fwd_s"], out["op.bilstm.bwd_s"] = _fwd_bwd(lambda: lstm(seq), repeats)

    k, d = w.vqvae.codebook_size, w.vqvae.code_dim
    codebook = rng.uniform(-1.0 / k, 1.0 / k, (k, d))
    latents = rng.normal(0.0, 1.0 / k, (vq_batch * GRID_POSITIONS, d))
    out["op.nearest_codes_s"] = _median_time(lambda: nearest_codes(latents, codebook), repeats)

    params = {name: t.data for name, t in model.params().items()}
    grads = {name: rng.normal(0.0, 1e-3, p.shape) for name, p in params.items()}
    state = optim.AdamState(cfg.lr_init)
    out["op.adam_step_s"] = _median_time(lambda: optim.adam_step(params, grads, state), repeats)
    return out
