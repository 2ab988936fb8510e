"""Minimal dense network with hand-written forward/backward and Adam.

Only what the desk-scale experiments need: a stack of affine layers with a
leaky rectifier (slope 0.01) on the hidden ones, a linear output, explicit
gradient propagation from an injected output gradient, and Adam in its
efficient form.  Parameter gradients are plain sums over the batch rows;
callers that want mean-over-batch semantics scale the output gradient by 1/B.

Every weight and bias lives in one float64 parameter vector
(``Mlp.params``); ``weights[i]`` and ``biases[i]`` are views of it.
``backward`` writes into a gradient vector of the same layout
(``Mlp.grad``) through the rectifier slopes that ``forward`` caches, and
``adam_step`` updates the parameter vector in place through one scratch
vector, so a training step allocates no parameter-sized array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

LEAKY_SLOPE = 0.01


def _views(flat: np.ndarray, shapes) -> list:
    """Consecutive views of ``flat`` with the given shapes."""
    out, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        out.append(flat[start:start + size].reshape(shape))
        start += size
    return out


class Mlp:
    """Affine layers; weights[i] is (fan_in, fan_out), biases[i] is (fan_out,).

    The arrays passed in are copied into one parameter vector ``params``,
    laid out as every weight (row-major) followed by every bias, and
    ``weights``/``biases`` become views of it.  ``grad``, with
    ``grad_weights``/``grad_biases``, is the matching gradient vector that
    ``backward`` fills.
    """

    def __init__(self, weights, biases) -> None:
        arrays = [np.asarray(a, dtype=np.float64) for a in (*weights, *biases)]
        shapes = [a.shape for a in arrays]
        k = len(weights)
        self.params = np.concatenate([a.ravel() for a in arrays])
        self.grad = np.zeros_like(self.params)
        views = _views(self.params, shapes)
        self.weights, self.biases = views[:k], views[k:]
        grad_views = _views(self.grad, shapes)
        self.grad_weights, self.grad_biases = grad_views[:k], grad_views[k:]

    @property
    def layer_sizes(self) -> list:
        return [w.shape[0] for w in self.weights] + [self.weights[-1].shape[1]]


class ForwardCache(NamedTuple):
    activations: list  # layer inputs, activations[0] is the network input
    slopes: list       # hidden layers' rectifier slopes: 1 where z > 0, else LEAKY_SLOPE


def init_mlp(layer_sizes, rng: np.random.Generator) -> Mlp:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)); zero biases."""
    if len(layer_sizes) < 2 or any(n <= 0 for n in layer_sizes):
        raise ValueError(f"need at least two positive layer sizes, got {layer_sizes}")
    weights, biases = [], []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        a = np.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-a, a, (n_in, n_out)))
        biases.append(np.zeros(n_out))
    return Mlp(weights, biases)


def forward(mlp: Mlp, x, keep_cache: bool = True) -> tuple:
    """Batch forward pass; returns (output, cache for backward).

    A hidden layer rectifies z in place, ``z *= slope`` with slope 1 where
    z > 0 and ``LEAKY_SLOPE`` elsewhere: the bits of selecting z or
    ``LEAKY_SLOPE * z``, signed zeros, infinities, NaN and subnormals
    included; the cache keeps the slopes.  With ``keep_cache=False`` it
    returns (output, None) for a pass that feeds no backward (evaluation,
    calibration): each layer's input and slopes are dropped before the next
    product is allocated, so at most two layer-sized arrays are alive at
    once.  The output is the same bits either way.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != mlp.weights[0].shape[0]:
        raise ValueError(f"expected (B, {mlp.weights[0].shape[0]}) input, got {x.shape}")
    activations, slopes = [x], []
    h = x
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        h = np.matmul(h, w)
        h += b
        if i < last:
            # max(z > 0, LEAKY_SLOPE) in one array: np.where's mask would take the
            # freed input's memory, and a 1638-row pass's heap grew by a layer
            slopes.append(np.greater(h, 0.0, out=np.empty_like(h)))
            np.maximum(slopes[-1], LEAKY_SLOPE, out=slopes[-1])
            h *= slopes[-1]
        if keep_cache:
            activations.append(h)
        else:
            slopes.clear()
    return h, (ForwardCache(activations, slopes) if keep_cache else None)


def backward(mlp: Mlp, cache: ForwardCache, output_gradient) -> tuple:
    """Propagate an output-space gradient to (weight grads, bias grads).

    Gradients are summed over the batch: for a single linear layer the
    weight gradient is exactly input^T @ output_gradient.  They are
    written into ``mlp.grad``, and the returned lists are views of it
    (``mlp.grad_weights``, ``mlp.grad_biases``): they stay valid until the
    next ``backward`` call on the same network overwrites them.  Copy them
    to keep them longer.
    """
    g = np.asarray(output_gradient, dtype=np.float64)
    if g.shape != cache.activations[-1].shape:
        raise ValueError(f"output gradient shape {g.shape} != output shape "
                         f"{cache.activations[-1].shape}")
    dws, dbs = mlp.grad_weights, mlp.grad_biases
    for i in range(len(mlp.weights) - 1, -1, -1):
        np.matmul(cache.activations[i].T, g, out=dws[i])
        np.add.reduce(g, axis=0, out=dbs[i])
        if i > 0:
            g = g @ mlp.weights[i].T
            g *= cache.slopes[i - 1]
    return dws, dbs


@dataclass
class AdamState:
    """Moments and one scratch vector, each shaped like the parameters."""
    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    step: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(params: np.ndarray, lr: float = 1e-3) -> AdamState:
    return AdamState(m=np.zeros_like(params), v=np.zeros_like(params),
                     scratch=np.empty_like(params), lr=lr)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """One bias-corrected Adam update of ``params``, in place; returns it.

    Kingma and Ba's efficient form (arXiv:1412.6980, end of Section 2):
    ``p -= lr_t * m / (sqrt(v) + eps_hat)`` with lr_t = lr sqrt(c2) / c1 and
    eps_hat = eps sqrt(c2), c1 = 1 - beta1**t, c2 = 1 - beta2**t, the textbook
    update up to rounding.  Mutates the moments and overwrites the scratch vector.
    """
    if not (params.shape == grads.shape == state.m.shape):
        raise ValueError("params, grads and optimizer state must align")
    state.step += 1
    root_c2 = math.sqrt(1.0 - state.beta2 ** state.step)
    lr_t = state.lr * root_c2 / (1.0 - state.beta1 ** state.step)
    eps_hat = state.eps * root_c2
    m, v, s = state.m, state.v, state.scratch
    m *= state.beta1
    np.multiply(grads, 1.0 - state.beta1, out=s)
    m += s
    v *= state.beta2
    np.multiply(grads, 1.0 - state.beta2, out=s)
    s *= grads
    v += s
    np.sqrt(v, out=s)
    s += eps_hat
    np.divide(m, s, out=s)
    s *= lr_t
    params -= s
    return params
