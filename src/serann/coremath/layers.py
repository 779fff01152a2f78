"""Parametered layers over the functional ops, with fan-scaled uniform init:
He-style limits on ReLU paths, Xavier-style on tanh/sigmoid and linear paths.
"""

from __future__ import annotations

import math

import numpy as np

from .ops import conv2d, conv2d_transpose, dense
from .rng import Rng
from .rnn import LstmParams, bilstm
from .tensor import Tensor


def he_uniform(shape, fan_in: int, rng: Rng, dtype=np.float32) -> np.ndarray:
    limit = math.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, shape, dtype)


def xavier_uniform(shape, fan_in: int, fan_out: int, rng: Rng, dtype=np.float32) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape, dtype)


def _weights_and_bias(
    shape, fan_in: int, fan_out: int, activation: str | None, rng: Rng, dtype
) -> tuple[Tensor, Tensor]:
    """He-uniform weights on ReLU paths, Xavier-uniform otherwise, and a zero
    bias of width ``fan_out``."""
    if activation == "relu":
        init = he_uniform(shape, fan_in, rng, dtype)
    else:
        init = xavier_uniform(shape, fan_in, fan_out, rng, dtype)
    bias = np.zeros(fan_out, dtype=dtype)
    return Tensor(init, requires_grad=True), Tensor(bias, requires_grad=True)


class Conv2d:
    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride,
        padding,
        rng: Rng,
        activation: str | None = "relu",
        dtype=np.float32,
        keep_columns: bool = True,
    ):
        self.kernels, self.bias = _weights_and_bias(
            (out_channels, in_channels, kernel, kernel), in_channels * kernel * kernel,
            out_channels, activation, rng, dtype,
        )
        self.stride = stride
        self.padding = padding
        self.activation = activation
        self.keep_columns = keep_columns

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(
            x, self.kernels, self.stride, self.padding, self.bias, self.activation,
            self.keep_columns,
        )

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.kernels": self.kernels, f"{prefix}.bias": self.bias}


class ConvTranspose2d:
    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride,
        padding,
        output_padding,
        rng: Rng,
        activation: str | None = "relu",
        dtype=np.float32,
    ):
        self.kernels, self.bias = _weights_and_bias(
            (in_channels, out_channels, kernel, kernel), in_channels * kernel * kernel,
            out_channels, activation, rng, dtype,
        )
        self.stride = stride
        self.padding = padding
        self.output_padding = output_padding
        self.activation = activation

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d_transpose(
            x, self.kernels, self.stride, self.padding, self.output_padding, self.bias,
            self.activation,
        )

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.kernels": self.kernels, f"{prefix}.bias": self.bias}


class Dense:
    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: Rng,
        activation: str | None = None,
        dtype=np.float32,
    ):
        self.weights, self.bias = _weights_and_bias(
            (in_dim, out_dim), in_dim, out_dim, activation, rng, dtype
        )
        self.activation = activation

    def __call__(self, x: Tensor) -> Tensor:
        return dense(x, self.weights, self.bias, self.activation)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weights": self.weights, f"{prefix}.bias": self.bias}


class BiLstm:
    def __init__(self, in_dim: int, units: int, rng: Rng, dtype=np.float32):
        self.units = units

        def make(r: Rng) -> LstmParams:
            return LstmParams(
                wx=Tensor(xavier_uniform((in_dim, 4 * units), in_dim, 4 * units, r, dtype), requires_grad=True),
                wh=Tensor(xavier_uniform((units, 4 * units), units, 4 * units, r, dtype), requires_grad=True),
                b=Tensor(np.zeros(4 * units, dtype=dtype), requires_grad=True),
            )

        self.forward = make(rng)
        self.backward = make(rng)

    def __call__(self, x: Tensor) -> Tensor:
        return bilstm(x, self.forward, self.backward)

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for direction, p in (("fw", self.forward), ("bw", self.backward)):
            out[f"{prefix}.{direction}.wx"] = p.wx
            out[f"{prefix}.{direction}.wh"] = p.wh
            out[f"{prefix}.{direction}.b"] = p.b
        return out
