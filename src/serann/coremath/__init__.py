"""Differentiable computation core: tensors, layer ops, Adam, gradient checks."""

from .checkpoint import (
    CheckpointError,
    CheckpointVersionError,
    load_checkpoint,
    load_into,
    save_checkpoint,
)
from .gradcheck import finite_diff_grad_check
from .layers import BiLstm, Conv2d, ConvTranspose2d, Dense, he_uniform, xavier_uniform
from .ops import (
    conv2d,
    conv2d_transpose,
    conv_output_size,
    dense,
    mse,
    softmax_cross_entropy,
)
from .optim import Adam, AdamState, NonFiniteGradientError, NonFiniteLossError, adam_step
from .rng import Rng
from .rnn import EmptySequenceError, LstmParams, bilstm
from .tensor import (
    ConsumedGraphError,
    ShapeError,
    Tensor,
    add,
    no_grad,
    reshape,
    tensor_sum,
    transpose,
)

__all__ = [
    "Adam",
    "AdamState",
    "BiLstm",
    "CheckpointError",
    "CheckpointVersionError",
    "ConsumedGraphError",
    "Conv2d",
    "ConvTranspose2d",
    "Dense",
    "EmptySequenceError",
    "LstmParams",
    "NonFiniteGradientError",
    "NonFiniteLossError",
    "Rng",
    "ShapeError",
    "Tensor",
    "adam_step",
    "bilstm",
    "conv2d",
    "conv2d_transpose",
    "conv_output_size",
    "dense",
    "finite_diff_grad_check",
    "he_uniform",
    "add",
    "load_checkpoint",
    "load_into",
    "mse",
    "no_grad",
    "reshape",
    "save_checkpoint",
    "softmax_cross_entropy",
    "tensor_sum",
    "transpose",
    "xavier_uniform",
]
