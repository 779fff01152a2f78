"""Discrete speech-code learning over mel spectrograms.

A convolutional encoder maps an 80x256 mel to a 1x64 grid of latent vectors;
each vector snaps to its nearest codebook row (squared Euclidean, ties to
the lowest index), giving 64 integer codes per utterance. A mirrored stack
of transpose convolutions reconstructs the input from the selected rows.

Gradient routing makes the non-differentiable snap trainable (van den Oord
et al., arXiv 1711.00937). Two ops with hand-written adjoints carry it.
``quantize`` passes the decoder's gradient on the quantized grid straight
onto the encoder output. ``codebook_losses`` gives the codebook term to the
codebook alone, as if the encoder output were frozen, and the commitment
term, scaled by beta, to the encoder alone, as if the codebook were frozen.

Encoder stack: five conv layers, kernel 3, strides (2,2), (2,2), (2,1),
(2,1), (5,1). Heights: 80 -> 40 -> 20 -> 10 -> 5 -> 1; widths:
256 -> 128 -> 64 -> 64 -> 64 -> 64. The final stride-5 layer uses no height
padding so its window sits on rows 0..2 of the residual 5-row map. Its
layers do not keep their convolution columns for the backward pass but
gather them again there (``conv2d``'s ``keep_columns``): kept, all five
would stay alive through the whole decoder's forward and backward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .coremath.checkpoint import Checkpointable
from .coremath.layers import Conv2d, ConvTranspose2d
from .coremath.ops import _mean_square_grad, conv_output_size, mse
from .coremath.optim import Adam, History, NonFiniteLossError, minibatch_step, shuffled_batches
from .coremath.rng import Rng
from .coremath.tensor import ShapeError, Tensor, _needs_grad, no_grad, reshape, transpose
from .dsp import N_FRAMES, N_MELS
from .fileio import check_config_fields, json_string, read_records, write_jsonl

GRID_POSITIONS = 64

# (stride, padding, transpose output_padding) per encoder layer, in encoder
# order; the decoder applies them reversed.
_LAYER_PLAN = (
    ((2, 2), (1, 1), (1, 1)),
    ((2, 2), (1, 1), (1, 1)),
    ((2, 1), (1, 1), (1, 0)),
    ((2, 1), (1, 1), (1, 0)),
    ((5, 1), (0, 1), (2, 0)),
)


class CodebookError(ValueError):
    pass


@dataclass
class VqVaeConfig:
    codebook_size: int = 8192
    code_dim: int = 512
    channels: tuple[int, ...] = (32, 64, 128, 256, 512)
    kernel: int = 3
    batch_size: int = 256
    epochs: int = 1000
    learning_rate: float = 1e-4
    beta: float = 0.25

    def __post_init__(self):
        check_config_fields(self)
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if len(self.channels) != len(_LAYER_PLAN):
            raise ValueError(f"channels must list {len(_LAYER_PLAN)} widths")
        if self.channels[-1] != self.code_dim:
            raise ValueError(
                f"last channel width ({self.channels[-1]}) must equal code_dim ({self.code_dim})"
            )
        h, w = N_MELS, N_FRAMES
        for (sh, sw), (ph, pw), _ in _LAYER_PLAN:
            h = conv_output_size(h, self.kernel, sh, 2 * ph)
            w = conv_output_size(w, self.kernel, sw, 2 * pw)
        if h * w != GRID_POSITIONS:
            raise ValueError(f"encoder grid is {h}x{w}, expected {GRID_POSITIONS} positions")

    @classmethod
    def desk(cls) -> "VqVaeConfig":
        """CI-sized profile (small codebook, thin channels, a faster rate);
        the full-size configuration stays the default."""
        return cls(
            codebook_size=256,
            code_dim=64,
            channels=(4, 8, 16, 32, 64),
            epochs=50,
            batch_size=32,
            learning_rate=5e-3,
        )


@dataclass
class LossBundle:
    reconstruction: float
    codebook: float
    commitment: float
    total: float


class VqVae(Checkpointable):
    config_type = VqVaeConfig

    def __init__(self, config: VqVaeConfig, rng: Rng, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        enc_rng = rng.spawn("encoder")
        dec_rng = rng.spawn("decoder")
        widths = config.channels
        self.encoder: list[Conv2d] = []
        in_ch = 1
        for i, ((stride, padding, _), out_ch) in enumerate(zip(_LAYER_PLAN, widths)):
            last = i == len(widths) - 1
            self.encoder.append(
                Conv2d(
                    in_ch,
                    out_ch,
                    config.kernel,
                    stride,
                    padding,
                    enc_rng.spawn(f"layer{i}"),
                    activation=None if last else "relu",
                    dtype=dtype,
                    keep_columns=False,
                )
            )
            in_ch = out_ch
        self.decoder: list[ConvTranspose2d] = []
        dec_out = (*widths[:-1][::-1], 1)
        in_ch = config.code_dim
        for i, ((stride, padding, out_pad), out_ch) in enumerate(
            zip(_LAYER_PLAN[::-1], dec_out)
        ):
            last = i == len(dec_out) - 1
            self.decoder.append(
                ConvTranspose2d(
                    in_ch,
                    out_ch,
                    config.kernel,
                    stride,
                    padding,
                    out_pad,
                    dec_rng.spawn(f"layer{i}"),
                    activation=None if last else "relu",
                    dtype=dtype,
                )
            )
            in_ch = out_ch
        k, d = config.codebook_size, config.code_dim
        init = rng.spawn("codebook").uniform(-1.0 / k, 1.0 / k, (k, d), dtype)
        self.codebook = Tensor(init, requires_grad=True)
        if isinstance(rng, Rng):  # not the draw-free stand-in that load passes
            _check_codebook_rows(self.codebook.data)

    # -- plumbing --------------------------------------------------------

    def params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, layer in enumerate(self.encoder):
            out.update(layer.params(f"enc.{i}"))
        for i, layer in enumerate(self.decoder):
            out.update(layer.params(f"dec.{i}"))
        out["codebook"] = self.codebook
        return out

    # -- forward ---------------------------------------------------------

    def encode(self, mels: Tensor) -> Tensor:
        """(N, 1, 80, 256) -> latent grid (N, d, 1, 64)."""
        if mels.ndim != 4 or mels.shape[1] != 1 or mels.shape[2:] != (N_MELS, N_FRAMES):
            raise ShapeError(
                f"encoder input must be (N, 1, {N_MELS}, {N_FRAMES}), got {mels.shape}"
            )
        out = mels
        for layer in self.encoder:
            out = layer(out)
        return out

    def decode(self, z_q: Tensor) -> Tensor:
        """(N, d, 1, 64) -> reconstruction (N, 1, 80, 256)."""
        d = self.config.code_dim
        if z_q.ndim != 4 or z_q.shape[1:] != (d, 1, GRID_POSITIONS):
            raise ShapeError(
                f"decoder input must be (N, {d}, 1, {GRID_POSITIONS}), got {z_q.shape}"
            )
        out = z_q
        for layer in self.decoder:
            out = layer(out)
        return out


def _check_codebook_rows(embeddings: np.ndarray) -> None:
    """Rows must differ in their bytes, so +0.0 and -0.0 differ and NaNs of
    the same bits are equal, and be finite. Rows are ordered by the bit
    pattern of their first entry; only rows that tie there are compared whole."""
    bits = np.ascontiguousarray(embeddings).view(f"u{embeddings.itemsize}")
    order = np.argsort(bits[:, 0])
    first = bits[order, 0]
    ties = first[1:] == first[:-1]
    tied = np.zeros(len(bits), dtype=bool)
    tied[1:] |= ties
    tied[:-1] |= ties
    suspects = bits[order[tied]]
    if len(suspects) and len(np.unique(suspects, axis=0)) != len(suspects):
        raise CodebookError("codebook initialization produced identical rows")
    if not np.all(np.isfinite(embeddings)):
        raise CodebookError("codebook contains non-finite entries")


# Rows per GEMM block in ``nearest_codes`` are sized so a (rows, K) distance
# block holds about this many elements (4 MB in float32, 8 MB in float64).
_DISTANCE_BLOCK = 2**20


def nearest_codes(z: np.ndarray, embeddings: np.ndarray) -> np.ndarray:
    """Index of the nearest embedding row per latent vector.

    The result is the argmin, ties to the lowest index, of the explicit
    float64 distances ``((z - e) ** 2).sum(-1)`` (``_explicit_codes``); the
    GEMM below only narrows down which rows that formula must be run on.

    The screen runs in the inputs' own precision: float32 when latents and
    codebook are both float32 (every model call), float64 otherwise. Each
    row block ranks the whole codebook by ``a_k = |e_k|^2 - 2 z.e_k``, one
    GEMM plus the codebook's row norms (the exact-L2 expansion of Johnson,
    Douze and Jegou, arXiv 1702.08734, less the |z|^2 all codes share).
    Let u be the screen's unit roundoff, n = D + 3, g(u) = n u / (1 - n u)
    and tiny its smallest normal number. Whatever the summation order or FMA
    use, the dot product is within g(u) |z| |e_k| of z.e_k and the norm
    within g(u) |e_k|^2 of |e_k|^2, n leaves room in g(u) for the one
    rounding of their difference, and at most 6 n results that underflow,
    gradually or flushed to zero, lose under tiny each. With |z| and E upper
    bounds on the latent's norm and on max_k |e_k|, got from the rounded
    norms, and M = |z| + E, a_k is within
    err_s = g(u) (E^2 + 2 |z| E) + 6 n tiny of t_k = |z - e_k|^2 - |z|^2,
    and the explicit sum x_k within err_x = g(2**-53) M^2 + 6 n tiny_64 of
    |z - e_k|^2. The explicit winner w then satisfies
    a_w <= t_w + err_s <= t_m + 2 err_x + err_s <= a_m + 2 (err_s + err_x)
    for m = argmin a, and lies in {k : a_k <= a_m + 2 (err_s + err_x)}. That
    slack is evaluated in float64 and enlarged by 2**-40 relative to cover
    its own roundings; adding it to a_m rounds once in float64, so no
    float32 or float64 value at most a_m + slack lies above the limit.

    A row with one candidate takes it. The explicit formula runs on every
    (row, candidate) pair of the other rows at once; each pair is the same
    contiguous reduction as in the full formula, so the per-row argmin, ties
    to the lowest index, is bitwise the full formula's answer. Rows whose
    minimum is not finite, or whose M**2 reaches 2**(emax - 24) (2**104 in
    float32, 2**1000 in float64) so that a sum could overflow (NaN or inf
    latents or codebook rows, huge values), take the explicit formula over
    the whole codebook.
    """
    if embeddings.size == 0:
        raise CodebookError("codebook is empty")
    z = np.asarray(z)
    if z.ndim != 2 or embeddings.ndim != 2 or z.shape[1] != embeddings.shape[1]:
        raise ShapeError(
            f"latent dim {z.shape[-1]} does not match embedding dim {embeddings.shape[-1]}"
        )
    work = np.float32 if z.dtype == embeddings.dtype == np.float32 else np.float64
    z_w = np.asarray(z, dtype=work)
    e_w = np.asarray(embeddings, dtype=work)
    info, info64 = np.finfo(work), np.finfo(np.float64)
    n = e_w.shape[1] + 3
    u, u64 = float(info.eps) / 2, float(info64.eps) / 2
    gamma = n * u / (1 - n * u)
    gamma64 = n * u64 / (1 - n * u64)
    underflow = 6 * n * float(info.tiny)
    underflow64 = 6 * n * float(info64.tiny)
    cutoff = 2.0 ** (info.maxexp - 24)
    ee = np.einsum("kd,kd->k", e_w, e_w)
    e_sq = (float(ee.max()) + underflow) / (1 - gamma)
    e_norm = np.sqrt(e_sq)
    block = max(1, _DISTANCE_BLOCK // len(e_w))
    codes = np.empty(len(z_w), dtype=np.int64)
    for start in range(0, len(z_w), block):
        chunk = z_w[start : start + block]
        z64 = np.asarray(chunk, dtype=np.float64)
        out = codes[start : start + len(chunk)]
        # Non-finite rows are answered by the explicit formula below, which
        # raises its own floating-point warnings.
        with np.errstate(invalid="ignore", over="ignore"):
            approx = chunk @ e_w.T
            approx *= -2.0
            approx += ee
            out[:] = approx.argmin(axis=1)
            z_norm = np.sqrt((np.einsum("nd,nd->n", z64, z64) + underflow64) / (1 - gamma64))
            err_s = gamma * (e_sq + 2.0 * z_norm * e_norm) + underflow
            err_x = gamma64 * (z_norm + e_norm) ** 2 + underflow64
            slack = 2.0 * (err_s + err_x) * (1.0 + 2.0**-40)
            limit = approx[np.arange(len(chunk)), out] + slack
            finite = np.isfinite(limit) & ((z_norm + e_norm) ** 2 < cutoff)
            candidates = approx <= limit[:, None]
        if not finite.all():
            out[~finite] = _explicit_codes(z64[~finite], np.asarray(embeddings, dtype=np.float64))
        rerank = np.flatnonzero(finite & (np.count_nonzero(candidates, axis=1) > 1))
        if len(rerank):
            out[rerank] = _rerank(z64[rerank], embeddings, candidates[rerank])
    return codes


def _rerank(z64: np.ndarray, embeddings: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Per row of the (rows, K) mask ``candidates``, the candidate with the
    smallest explicit float64 distance, ties to the lowest index. Pairs are
    taken in blocks that keep the (pairs, D) temporaries near 2 MB."""
    rows, cols = np.nonzero(candidates)
    dist = np.empty(len(rows))
    step = max(1, 2**18 // z64.shape[1])
    for start in range(0, len(rows), step):
        r, c = rows[start : start + step], cols[start : start + step]
        diff = z64[r] - np.asarray(embeddings[c], dtype=np.float64)
        dist[start : start + step] = (diff**2).sum(axis=-1)
    # Pairs come ordered by row, then index; a stable sort by row, then
    # distance leaves each row's lowest-index best pair first.
    order = np.lexsort((dist, rows))
    ranked = rows[order]
    return cols[order[np.r_[True, ranked[1:] != ranked[:-1]]]]


def _explicit_codes(z64: np.ndarray, e64: np.ndarray) -> np.ndarray:
    """Argmin, ties to the lowest index, of explicit float64 squared
    differences; row blocks keep the (rows, K, D) temporaries near 2 MB."""
    block = max(1, 2**18 // e64.size)
    codes = np.empty(len(z64), dtype=np.int64)
    for start in range(0, len(z64), block):
        chunk = z64[start : start + block]
        dist = ((chunk[:, None, :] - e64[None, :, :]) ** 2).sum(axis=-1)
        codes[start : start + len(chunk)] = dist.argmin(axis=1)
    return codes


def flatten_grid(z_e: Tensor) -> Tensor:
    """(N, d, 1, 64) -> (N * 64, d), position-major."""
    n, d, h, w = z_e.shape
    return reshape(transpose(z_e, (0, 2, 3, 1)), (n * h * w, d))


def quantize(z_e: Tensor, codebook: Tensor) -> tuple[Tensor, np.ndarray]:
    """Snap each latent position to its nearest codebook row.

    Returns the quantized grid (the selected rows, shaped like ``z_e``) and
    the integer codes, one per position, position-major. The grid is one
    tape node whose adjoint hands its output gradient to ``z_e`` unchanged
    (the straight-through estimator); it never moves the codebook.
    """
    n, d, h, w = z_e.shape
    codes = nearest_codes(z_e.data.transpose(0, 2, 3, 1).reshape(-1, d), codebook.data)
    rows = codebook.data[codes].astype(z_e.dtype, copy=False)
    values = rows.reshape(n, h, w, d).transpose(0, 3, 1, 2)
    if not _needs_grad(z_e):
        return Tensor(values), codes

    def backprop(g):
        z_e.accumulate_grad(g)

    return Tensor(values, True, (z_e,), backprop), codes


def codebook_losses(
    z_e: Tensor, codebook: Tensor, codes: np.ndarray, beta: float
) -> tuple[Tensor, Tensor]:
    """The codebook term and the commitment term for the rows ``codes``
    picked at ``z_e``'s positions.

    Both are the mean of (z_e - e)**2 over every position and dimension,
    and the commitment term is scaled by ``beta``. Each term is one tape
    node. The codebook term moves only ``codebook``: its gradient is
    scatter-added onto the selected rows, so a row picked at several
    positions gets their sum. The commitment term moves only ``z_e``.
    """
    n, d, h, w = z_e.shape
    diff = z_e.data.transpose(0, 2, 3, 1).reshape(-1, d) - codebook.data[codes]
    square = (diff * diff).mean()
    beta = np.asarray(beta, dtype=z_e.dtype)

    def codebook_backprop(g):
        rows = np.zeros_like(codebook.data)
        np.add.at(rows, codes, -_mean_square_grad(g, diff))
        if codebook.grad is None:  # hand the fresh array over rather than copy it
            codebook.grad = rows
        else:
            codebook.accumulate_grad(rows)

    def commitment_backprop(g):
        grad = _mean_square_grad(g * beta, diff)
        z_e.accumulate_grad(grad.reshape(n, h, w, d).transpose(0, 3, 1, 2))

    codebook_term = (
        Tensor(square, True, (codebook,), codebook_backprop)
        if _needs_grad(codebook)
        else Tensor(square)
    )
    commitment = beta * square
    commitment_term = (
        Tensor(commitment, True, (z_e,), commitment_backprop)
        if _needs_grad(z_e)
        else Tensor(commitment)
    )
    return codebook_term, commitment_term


def train_step(model: VqVae, batch: np.ndarray, adam: Adam) -> tuple[LossBundle, np.ndarray]:
    """One optimization step on a (B, 1, 80, 256) batch; returns losses and
    the codes picked this step."""
    x = Tensor(np.asarray(batch, dtype=model.dtype))
    z_e = model.encode(x)
    z_q, codes = quantize(z_e, model.codebook)
    recon = mse(x, model.decode(z_q))
    cb, commit = codebook_losses(z_e, model.codebook, codes, model.config.beta)
    terms = {"recon": float(recon.data), "codebook": float(cb.data), "commitment": float(commit.data)}
    total = minibatch_step(recon + cb + commit, adam, **terms)
    return LossBundle(terms["recon"], terms["codebook"], terms["commitment"], total), codes


def _quantized_batches(model: VqVae, mels: Sequence[np.ndarray]):
    """Encode and quantize ``mels`` (a sequence of (80, 256) arrays) in
    batches of 32; yields each batch's input, quantized grid and per-row codes."""
    for start in range(0, len(mels), 32):
        chunk = np.asarray(mels[start : start + 32], dtype=model.dtype)
        x = Tensor(chunk[:, None, :, :])
        with no_grad():
            z_q, codes = quantize(model.encode(x), model.codebook)
        yield x, z_q, codes.reshape(len(chunk), -1)


def reconstruction_loss(model: VqVae, mels: np.ndarray) -> float:
    """Mean squared reconstruction error over a (N, 80, 256) array."""
    if len(mels) == 0:
        raise ValueError("no mels to reconstruct")
    total = 0.0
    for x, z_q, _ in _quantized_batches(model, mels):
        with no_grad():
            total += float(mse(x, model.decode(z_q)).data) * len(x.data)
    return total / len(mels)


def train_vqvae(
    mels: np.ndarray,
    config: VqVaeConfig,
    seed: int,
    epochs: int | None = None,
    holdout: np.ndarray | None = None,
    history_path=None,
) -> tuple[VqVae, list[dict]]:
    """Train on a (N, 80, 256) array of normalized mels.

    Per-epoch history records the mean of each loss term; when ``holdout``
    is given its reconstruction error is tracked as well.
    """
    if len(mels) == 0:
        raise ValueError("training set is empty")
    if holdout is not None and len(holdout) == 0:
        raise ValueError("holdout set is empty")
    rng = Rng(seed)
    model = VqVae(config, rng.spawn("model"))
    shuffle_rng = rng.spawn("shuffle")
    adam = Adam(model.params(), config.learning_rate)
    epochs = config.epochs if epochs is None else epochs
    data = np.asarray(mels, dtype=model.dtype)[:, None, :, :]
    history = History(history_path)
    for epoch in range(1, epochs + 1):
        batches = shuffled_batches(shuffle_rng, len(data), config.batch_size)
        sums = np.zeros(4)
        for idx in batches:
            losses, _ = train_step(model, data[idx], adam)
            sums += (losses.reconstruction, losses.codebook, losses.commitment, losses.total)
        steps = len(batches)
        entry = {
            "epoch": epoch,
            "reconstruction": sums[0] / steps,
            "codebook": sums[1] / steps,
            "commitment": sums[2] / steps,
            "total": sums[3] / steps,
        }
        if holdout is not None:
            entry["holdout_reconstruction"] = reconstruction_loss(model, holdout)
        history.append(entry)
    return model, history.entries


def extract_codes(
    mels_by_id: Mapping[str, np.ndarray], model: VqVae
) -> dict[str, list[int]]:
    """Deterministic 64-code sequence per utterance, keyed by id."""
    ids = sorted(mels_by_id)
    batches = _quantized_batches(model, [mels_by_id[uid] for uid in ids])
    rows = [row for _, _, codes in batches for row in codes.tolist()]
    return dict(zip(ids, rows))


def write_codes(path, codes_by_id: Mapping[str, Sequence[int]]) -> None:
    write_jsonl(
        path,
        ({"utterance_id": uid, "codes": list(codes_by_id[uid])} for uid in sorted(codes_by_id)),
    )


def _code_row(values) -> list[int]:
    """``values`` itself if it is a list of non-negative JSON integers;
    booleans, floats and negative numbers are refused, not rounded."""
    if not isinstance(values, list):
        raise TypeError(f"expected a list of codes, got {type(values).__name__}")
    for code in values:
        if type(code) is not int or code < 0:
            raise ValueError(f"expected non-negative integer codes, got {code!r}")
    return values


def load_codes(path) -> dict[str, list[int]]:
    fields = {"utterance_id": json_string, "codes": _code_row}
    return {uid: row for _, (uid, row) in read_records(path, fields)}
