"""CNN-BLSTM emotion classifier with attention pooling.

Two ReLU conv layers (a wider first kernel, then a narrower one, both stride
2) extract local time-frequency structure; their output is laid out as a
time-major sequence (frequency x channels flattened per frame) and read by a
bidirectional LSTM. A learned vector scores each timestep, the softmax of
those scores weights a sum over hidden states, and two dense layers map the
pooled vector to four class logits. Every layer is one tape node with a
hand-written adjoint: the two convolutions, the BiLSTM, the attention
pooling and the two dense layers. A loss tape holds those six nodes, the
loss, the input, the parameters, and the transpose and reshape that lay
the convolution output out as a sequence.

Training follows a plateau schedule: when validation recall fails to improve
for `patience` consecutive epochs, the learning rate halves and the model
reverts to the best epoch seen so far; the epoch right after a reversion
re-establishes the comparison baseline. Training stops once the rate falls
below the floor, or at the hard epoch cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .corpus import LABELS, mean_recall_present
from .coremath.checkpoint import Checkpointable, load_into
from .coremath.layers import BiLstm, Conv2d, Dense, xavier_uniform
from .coremath.ops import conv_output_size, softmax_cross_entropy
from .coremath.optim import Adam, History, minibatch_step, shuffled_batches
from .coremath.rng import Rng
from .coremath.tensor import ShapeError, Tensor, _needs_grad, no_grad, reshape, transpose
from .fileio import check_config_fields


class DegenerateDataError(ValueError):
    pass


@dataclass
class ClassifierConfig:
    conv1_filters: int = 32
    conv1_kernel: int = 7
    conv2_filters: int = 64
    conv2_kernel: int = 3
    conv_stride: int = 2
    blstm_units: int = 128
    dense_units: int = 128
    classes: int = 4
    lr_init: float = 1e-4
    lr_decay: float = 0.5
    lr_floor: float = 1e-5
    plateau_patience: int = 5
    batch_size: int = 32
    max_epochs: int = 300
    input_bands: int = 80
    input_frames: int = 256

    def __post_init__(self):
        check_config_fields(self)
        if self.conv1_kernel <= self.conv2_kernel:
            raise ValueError(
                f"first kernel ({self.conv1_kernel}) must be larger than the second "
                f"({self.conv2_kernel})"
            )
        if self.classes != len(LABELS):
            raise ValueError(f"classes must be {len(LABELS)}")
        h, w = self.input_bands, self.input_frames
        for name, k in (("conv1_kernel", self.conv1_kernel), ("conv2_kernel", self.conv2_kernel)):
            if k > min(h, w):
                raise ValueError(f"field {name!r}: {k} is larger than the {h}x{w} map it slides over")
            h, w = (conv_output_size(n, k, self.conv_stride, 2 * (k // 2)) for n in (h, w))

    @classmethod
    def desk(cls) -> "ClassifierConfig":
        """CI-sized profile: same architecture, small widths, a faster rate,
        and a hard epoch cap; the full-size configuration stays the default."""
        return cls(
            conv1_filters=4,
            conv2_filters=8,
            blstm_units=8,
            dense_units=16,
            batch_size=16,
            max_epochs=12,
            lr_init=3e-3,
            lr_floor=3e-4,
        )


def attention_weights(h: Tensor, w: Tensor) -> np.ndarray:
    """Softmax over timesteps of the scores w . h_t for ``h`` (N, T, D) and
    ``w`` (D,); returns (N, T) and records no tape."""
    if h.ndim != 3:
        raise ShapeError(f"attention input must be (N, T, D), got {h.shape}")
    n, t, d = h.shape
    if w.shape != (d,):
        raise ShapeError(f"attention vector shape {w.shape} must be ({d},)")
    scores = (h.data.reshape(n * t, d) @ w.data.reshape(d, 1)).reshape(n, t)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def attention_pool(h: Tensor, w: Tensor) -> Tensor:
    """Attention pooling, (N, T, D) -> (N, D): sum_t alpha_t * h_t with the
    weights alpha of ``attention_weights(h, w)``.

    One tape node. Its adjoint takes every product and sum in the order of
    the chain of general tape ops it replaces (``reference_attention_pool``
    in tests/conftest.py), so values and gradients are bitwise equal to it.
    """
    alpha = attention_weights(h, w)
    n, t, d = h.shape
    out_data = (alpha.reshape(n, t, 1) * h.data).sum(axis=1)
    if not _needs_grad(h, w):
        return Tensor(out_data)

    def backprop(g):
        spread = np.broadcast_to(g[:, None, :], h.shape).astype(h.dtype)
        g_alpha = (spread * h.data).sum(axis=2)
        g_scores = (g_alpha - (g_alpha * alpha).sum(axis=1, keepdims=True)) * alpha
        g_scores = g_scores.reshape(n * t, 1)
        if h.requires_grad:
            through_scores = g_scores @ w.data.reshape(d, 1).T
            h.accumulate_grad(spread * alpha.reshape(n, t, 1) + through_scores.reshape(n, t, d))
        if w.requires_grad:
            w.accumulate_grad((h.data.reshape(n * t, d).T @ g_scores).reshape(d))

    return Tensor(out_data, True, (h, w), backprop)


class EmotionClassifier(Checkpointable):
    config_type = ClassifierConfig

    def __init__(self, config: ClassifierConfig, rng: Rng, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        s = config.conv_stride
        self.conv1 = Conv2d(
            1, config.conv1_filters, config.conv1_kernel, s, config.conv1_kernel // 2,
            rng.spawn("conv1"), activation="relu", dtype=dtype,
        )
        self.conv2 = Conv2d(
            config.conv1_filters, config.conv2_filters, config.conv2_kernel, s,
            config.conv2_kernel // 2, rng.spawn("conv2"), activation="relu", dtype=dtype,
        )
        h = conv_output_size(config.input_bands, config.conv1_kernel, s, 2 * (config.conv1_kernel // 2))
        h = conv_output_size(h, config.conv2_kernel, s, 2 * (config.conv2_kernel // 2))
        w = conv_output_size(config.input_frames, config.conv1_kernel, s, 2 * (config.conv1_kernel // 2))
        w = conv_output_size(w, config.conv2_kernel, s, 2 * (config.conv2_kernel // 2))
        self.seq_len = w
        self.seq_dim = h * config.conv2_filters
        self.blstm = BiLstm(self.seq_dim, config.blstm_units, rng.spawn("blstm"), dtype)
        att_dim = 2 * config.blstm_units
        self.att_w = Tensor(
            xavier_uniform((att_dim,), att_dim, 1, rng.spawn("attention"), dtype),
            requires_grad=True,
        )
        self.fc = Dense(att_dim, config.dense_units, rng.spawn("fc"), activation="relu", dtype=dtype)
        self.out = Dense(config.dense_units, config.classes, rng.spawn("out"), activation=None, dtype=dtype)

    def params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.conv1.params("conv1"))
        out.update(self.conv2.params("conv2"))
        out.update(self.blstm.params("blstm"))
        out["attention.w"] = self.att_w
        out.update(self.fc.params("fc"))
        out.update(self.out.params("out"))
        return out

    def forward(self, mels: Tensor) -> Tensor:
        """(N, 1, bands, frames) -> logits (N, classes)."""
        cfg = self.config
        expected = (1, cfg.input_bands, cfg.input_frames)
        if mels.ndim != 4 or mels.shape[1:] != expected:
            raise ShapeError(f"classifier input must be (N,) + {expected}, got {mels.shape}")
        n = mels.shape[0]
        feat = self.conv2(self.conv1(mels))  # (N, C, H', T)
        seq = reshape(transpose(feat, (0, 3, 1, 2)), (n, self.seq_len, self.seq_dim))
        hidden = self.blstm(seq)  # (N, T, 2U)
        return self.out(self.fc(attention_pool(hidden, self.att_w)))


def predict(model: EmotionClassifier, mels: np.ndarray, batch_size: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Argmax labels and raw logits for a (N, bands, frames) array."""
    logits_parts = []
    data = np.asarray(mels, dtype=model.dtype)
    for start in range(0, len(data), batch_size):
        chunk = data[start : start + batch_size]
        with no_grad():
            out = model.forward(Tensor(chunk[:, None, :, :]))
        logits_parts.append(out.data.copy())
    logits = np.concatenate(logits_parts, axis=0) if logits_parts else np.zeros((0, model.config.classes))
    return logits.argmax(axis=1), logits


# -- plateau learning-rate schedule -------------------------------------

IMPROVED = "improved"
WAIT = "wait"
REBASED = "rebased"
DECAY = "decay"
STOP = "stop"


@dataclass
class TrainState:
    best_val_uar: float = float("-inf")
    best_checkpoint: dict[str, np.ndarray] = field(default_factory=dict)


class PlateauSchedule:
    """Halve the rate after `patience` stagnant epochs and signal reversion.

    The epoch immediately after a reversion resets the comparison baseline
    to its own validation value (the restored model is re-measured), so on a
    flat validation trace decays land every patience + 1 epochs. A decay
    that pushes the rate below the floor signals a stop instead.
    """

    def __init__(self, lr_init: float, patience: int = 5, decay: float = 0.5, lr_floor: float = 1e-5):
        self.current_lr = lr_init
        self.patience = patience
        self.decay = decay
        self.lr_floor = lr_floor
        self.baseline = float("-inf")
        self.stale = 0
        self._rebase_pending = False

    def update(self, val_metric: float) -> str:
        if self._rebase_pending:
            self._rebase_pending = False
            self.baseline = val_metric
            self.stale = 0
            return REBASED
        if val_metric > self.baseline:
            self.baseline = val_metric
            self.stale = 0
            return IMPROVED
        self.stale += 1
        if self.stale < self.patience:
            return WAIT
        self.current_lr *= self.decay
        self.stale = 0
        self._rebase_pending = True
        return STOP if self.current_lr < self.lr_floor else DECAY


@dataclass
class TrainResult:
    best_params: dict[str, np.ndarray]
    best_val_uar: float
    history: list[dict]
    events: list[dict]
    epochs_run: int


def _snapshot(model: EmotionClassifier) -> dict[str, np.ndarray]:
    return {name: t.data.copy() for name, t in model.params().items()}


def train_epoch(
    model: EmotionClassifier, x: np.ndarray, y: np.ndarray, adam: Adam, rng: Rng
) -> float:
    """One pass over (N, bands, frames) inputs; returns mean batch loss."""
    batches = shuffled_batches(rng, len(x), model.config.batch_size)
    total = 0.0
    for idx in batches:
        inputs = Tensor(np.asarray(x[idx], dtype=model.dtype)[:, None, :, :])
        total += minibatch_step(softmax_cross_entropy(model.forward(inputs), y[idx]), adam)
    return total / max(len(batches), 1)


def train(
    model: EmotionClassifier,
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray | None,
    val_y: np.ndarray | None,
    seed: int,
    val_metric: Callable[[EmotionClassifier, int], float] | None = None,
    history_path=None,
    epoch_hook: Callable[[int, str, EmotionClassifier, TrainState], None] | None = None,
) -> TrainResult:
    """Fit with the plateau schedule; returns the best checkpoint seen.

    ``val_metric`` overrides validation scoring (it receives the model and
    the epoch number); by default the mean per-class recall on the provided
    validation split is used.
    """
    cfg = model.config
    if len(train_x) == 0:
        raise DegenerateDataError("training split is empty")
    if len(np.unique(train_y)) < 2:
        raise DegenerateDataError("training split contains a single class")
    if val_metric is None and (val_x is None or len(val_x) == 0):
        raise DegenerateDataError("validation split is empty and no metric override given")

    rng = Rng(seed).spawn("shuffle")
    adam = Adam(model.params(), cfg.lr_init)
    schedule = PlateauSchedule(cfg.lr_init, cfg.plateau_patience, cfg.lr_decay, cfg.lr_floor)
    state = TrainState(best_checkpoint=_snapshot(model))
    events: list[dict] = []
    history = History(history_path)
    for epoch in range(1, cfg.max_epochs + 1):
        lr_in_effect = schedule.current_lr
        train_loss = train_epoch(model, train_x, train_y, adam, rng)
        if val_metric is not None:
            val = float(val_metric(model, epoch))
        else:
            pred, _ = predict(model, val_x)
            val = mean_recall_present(val_y, pred)
        decision = schedule.update(val)
        if val > state.best_val_uar:
            state.best_val_uar = val
            state.best_checkpoint = _snapshot(model)
        history.append({"epoch": epoch, "train_loss": train_loss, "val_uar": val, "lr": lr_in_effect})
        if decision in (DECAY, STOP):
            load_into(model.params(), state.best_checkpoint)
            adam = Adam(model.params(), schedule.current_lr)
            events.append({"epoch": epoch, "event": decision, "lr": schedule.current_lr})
        if epoch_hook is not None:
            epoch_hook(epoch, decision, model, state)
        if decision == STOP:
            break
    load_into(model.params(), state.best_checkpoint)
    return TrainResult(
        best_params=state.best_checkpoint,
        best_val_uar=state.best_val_uar,
        history=history.entries,
        events=events,
        epochs_run=len(history.entries),
    )
