"""Fully-connected surrogate for the RyR gating dynamics.

The network maps (P, u, du/dt) to an estimate of dP/dt through the fixed
architecture 3 -> 200 -> 64 -> 16 -> 1 (ReLU hidden layers, linear output,
14721 parameters).  Forward, backward, and the Adam optimizer are written
directly against numpy so the arithmetic is fully specified: gradients are
exact backpropagation with the ReLU subgradient taken as 0 at 0, and both
initialization and minibatch order are driven by a seeded PCG64 generator so
a training run is reproducible bit for bit.

During a simulation the network advances the open probability explicitly,

    P_next = clip(P + dt * F(P, u, du/dt), 0, 1),

with du/dt formed from the two most recent interface concentrations and taken
as 0 on the first step.

Weights travel in a small binary container (magic "CWNN", little-endian,
CRC32 trailer); see save_weights / load_weights.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import container
from .errors import CorruptFileError, ShapeMismatchError

LAYER_SIZES = (3, 200, 64, 16, 1)
PARAMETER_COUNT = 14721  # sum over layers of (fan_in + 1) * fan_out
WEIGHTS_MAGIC = b"CWNN"
WEIGHTS_VERSION = 1


@dataclass
class NetworkParams:
    """Weight matrices (fan_out, fan_in) and bias vectors per layer."""

    weights: list
    biases: list

    def __post_init__(self):
        expected = list(zip(LAYER_SIZES[1:], LAYER_SIZES[:-1]))
        shapes = [w.shape for w in self.weights]
        if shapes != expected:
            raise ValueError(f"weight shapes {shapes} != {expected}")
        bias_shapes = [b.shape for b in self.biases]
        if bias_shapes != [(n,) for n in LAYER_SIZES[1:]]:
            raise ValueError(f"bias shapes {bias_shapes} wrong")
        for arr in self.weights + self.biases:
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite network parameter")

    def parameter_count(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def copy(self) -> "NetworkParams":
        return NetworkParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])


def init_network(seed: int = 0) -> NetworkParams:
    """He-normal weights, zero biases, from a seeded generator."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_out, fan_in in zip(LAYER_SIZES[1:], LAYER_SIZES[:-1]):
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.standard_normal((fan_out, fan_in)) * std)
        biases.append(np.zeros(fan_out))
    return NetworkParams(weights, biases)


def forward(params: NetworkParams, x: np.ndarray):
    """Network output for a single input (3,) or a batch (N, 3)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.shape[1] != 3:
        raise ValueError(f"inputs must have 3 features, got shape {x.shape}")
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        a = a @ w.T + b
        np.maximum(a, 0.0, out=a)
    out = (a @ params.weights[-1].T + params.biases[-1])[:, 0]
    return float(out[0]) if single else out


def loss(params: NetworkParams, batch: np.ndarray) -> float:
    """Mean squared error of predicted dP/dt over a (N, 4) sample block."""
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != 4 or batch.shape[0] == 0:
        raise ValueError(f"batch must be (N, 4) with N >= 1, got {batch.shape}")
    pred = forward(params, batch[:, :3])
    err = pred - batch[:, 3]
    return float(np.mean(err * err))


def backward(params: NetworkParams, batch: np.ndarray):
    """Batch loss and its exact MSE gradient via backpropagation.

    Returns (loss, (weight_grads, bias_grads)) with the gradients shaped like
    the parameters; the loss is the value loss() gives, from the same forward
    pass.  The ReLU subgradient at exactly 0 is taken as 0 (the unit stays off).
    """
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != 4 or batch.shape[0] == 0:
        raise ValueError(f"batch must be (N, 4) with N >= 1, got {batch.shape}")
    x = batch[:, :3]
    y = batch[:, 3]
    n = batch.shape[0]

    acts = [x]  # post-activation per layer, starting with the input
    pre = []
    a = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ w.T + b
        pre.append(z)
        a = np.maximum(z, 0.0)
        acts.append(a)
    out = (a @ params.weights[-1].T + params.biases[-1])[:, 0]
    err = out - y

    w_grads = [None] * len(params.weights)
    b_grads = [None] * len(params.biases)
    delta = (2.0 / n) * err[:, None]  # d loss / d output, (N, 1)
    w_grads[-1] = delta.T @ acts[-1]
    b_grads[-1] = delta.sum(axis=0)
    for layer in range(len(params.weights) - 2, -1, -1):
        delta = (delta @ params.weights[layer + 1]) * (pre[layer] > 0.0)
        w_grads[layer] = delta.T @ acts[layer]
        b_grads[layer] = delta.sum(axis=0)
    return float(np.mean(err * err)), (w_grads, b_grads)


@dataclass
class AdamState:
    """First/second moment accumulators plus hyperparameters."""

    m_w: list
    v_w: list
    m_b: list
    v_b: list
    step: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


def init_adam(
    learning_rate: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> AdamState:
    if learning_rate <= 0:
        raise ValueError("learning rate must be positive")
    if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
        raise ValueError("betas must lie in [0, 1)")
    zeros = lambda: [np.zeros((fo, fi)) for fo, fi in zip(LAYER_SIZES[1:], LAYER_SIZES[:-1])]
    zeros_b = lambda: [np.zeros(fo) for fo in LAYER_SIZES[1:]]
    return AdamState(zeros(), zeros(), zeros_b(), zeros_b(), 0, learning_rate, beta1, beta2, epsilon)


def adam_step(params: NetworkParams, grads, state: AdamState):
    """One Adam update; returns (new_params, new_state), inputs untouched."""
    w_grads, b_grads = grads
    t = state.step + 1
    b1, b2, lr, eps = state.beta1, state.beta2, state.learning_rate, state.epsilon
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t

    def update(theta, g, m, v):
        m_new = b1 * m + (1 - b1) * g
        v_new = b2 * v + (1 - b2) * g * g
        theta_new = theta - lr * (m_new / corr1) / (np.sqrt(v_new / corr2) + eps)
        return theta_new, m_new, v_new

    new_w, new_mw, new_vw = [], [], []
    for theta, g, m, v in zip(params.weights, w_grads, state.m_w, state.v_w):
        a, b, c = update(theta, g, m, v)
        new_w.append(a), new_mw.append(b), new_vw.append(c)
    new_b, new_mb, new_vb = [], [], []
    for theta, g, m, v in zip(params.biases, b_grads, state.m_b, state.v_b):
        a, b, c = update(theta, g, m, v)
        new_b.append(a), new_mb.append(b), new_vb.append(c)
    new_state = AdamState(
        new_mw, new_vw, new_mb, new_vb, t, lr, state.beta1, state.beta2, state.epsilon
    )
    return NetworkParams(new_w, new_b), new_state


@dataclass
class LossHistory:
    train: np.ndarray
    validation: np.ndarray


def validation_split(n_samples: int, validation_fraction: float, rng: np.random.Generator):
    """Seeded shuffle, validation = trailing fraction (rounded) of the shuffle."""
    perm = rng.permutation(n_samples)
    n_val = int(round(validation_fraction * n_samples))
    if n_val >= n_samples:
        raise ValueError("validation fraction leaves no training data")
    return perm[: n_samples - n_val], perm[n_samples - n_val :]


def train(
    samples: np.ndarray,
    epochs: int = 100,
    batch_size: int = 640,
    validation_fraction: float = 0.10,
    seed: int = 0,
    adam: AdamState | None = None,
    normalize_inputs: bool = False,
    params: NetworkParams | None = None,
):
    """Minibatch Adam training; returns (params, LossHistory).

    The epoch training loss is the sample-weighted mean of minibatch losses
    (each evaluated before its update); the validation loss is a full pass at
    the end of the epoch over the held-out trailing split.  With
    normalize_inputs the inputs are standardized with training-split moments
    and the affine map is folded back into the first layer afterwards, so the
    returned network always consumes raw (P, u, du/dt).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 4:
        raise ValueError(f"samples must be (N, 4), got {samples.shape}")
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be positive")
    if not 0.0 <= validation_fraction < 1.0:
        raise ValueError("validation_fraction must lie in [0, 1)")

    rng = np.random.default_rng(seed)
    if params is None:
        params = init_network(seed)
    state = adam if adam is not None else init_adam()

    train_idx, val_idx = validation_split(samples.shape[0], validation_fraction, rng)
    train_set = samples[train_idx]
    val_set = samples[val_idx]

    mu = np.zeros(3)
    sigma = np.ones(3)
    if normalize_inputs:
        mu = train_set[:, :3].mean(axis=0)
        sigma = train_set[:, :3].std(axis=0)
        sigma[sigma == 0.0] = 1.0
        train_set = train_set.copy()
        train_set[:, :3] = (train_set[:, :3] - mu) / sigma
        if val_set.size:
            val_set = val_set.copy()
            val_set[:, :3] = (val_set[:, :3] - mu) / sigma

    n_train = train_set.shape[0]
    train_hist = np.empty(epochs)
    val_hist = np.empty(epochs)
    for epoch in range(epochs):
        order = rng.permutation(n_train)
        loss_sum = 0.0
        for start in range(0, n_train, batch_size):
            batch = train_set[order[start : start + batch_size]]
            batch_loss, grads = backward(params, batch)
            if not np.isfinite(batch_loss):
                raise FloatingPointError(f"training loss diverged at epoch {epoch}")
            params, state = adam_step(params, grads, state)
            loss_sum += batch_loss * batch.shape[0]
        train_hist[epoch] = loss_sum / n_train
        val_hist[epoch] = loss(params, val_set) if val_set.size else np.nan

    if normalize_inputs:
        w1 = params.weights[0] / sigma[None, :]
        b1 = params.biases[0] - params.weights[0] @ (mu / sigma)
        params = NetworkParams([w1] + params.weights[1:], [b1] + params.biases[1:])
    return params, LossHistory(train_hist, val_hist)


def predict_next_probability(
    params: NetworkParams, p_prev: float, u_prev: float, dudt_prev: float, dt: float
) -> float:
    """One explicit gating step, clipped into [0, 1]."""
    if not 0.0 <= p_prev <= 1.0:
        raise ValueError(f"open probability outside [0, 1]: {p_prev}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    rate = forward(params, np.array([p_prev, u_prev, dudt_prev]))
    return min(max(p_prev + dt * rate, 0.0), 1.0)


def rollout_probability(
    params: NetworkParams, u_series: np.ndarray, dt: float, p0: float = 0.0
) -> np.ndarray:
    """Advance P along a sampled signal; du/dt is the lagged backward difference."""
    u_series = np.asarray(u_series, dtype=float)
    p = np.empty(u_series.shape[0])
    p[0] = p0
    for n in range(1, u_series.shape[0]):
        dudt = 0.0 if n == 1 else (u_series[n - 1] - u_series[n - 2]) / dt
        p[n] = predict_next_probability(params, p[n - 1], u_series[n - 1], dudt, dt)
    return p


def save_weights(path, params: NetworkParams) -> None:
    """Write the CWNN container: layer count, per-layer blocks, CRC32 trailer."""
    body = bytearray(struct.pack("<I", len(params.weights)))
    for w, b in zip(params.weights, params.biases):
        body += struct.pack("<II", *w.shape)
        body += np.ascontiguousarray(w, dtype="<f8").tobytes()
        body += np.ascontiguousarray(b, dtype="<f8").tobytes()
    container.write(path, WEIGHTS_MAGIC, WEIGHTS_VERSION, bytes(body))


def load_weights(path) -> NetworkParams:
    """Read and validate a CWNN container written by save_weights."""
    body = container.read(path, WEIGHTS_MAGIC, WEIGHTS_VERSION, 4, "weight")
    n_layers = struct.unpack_from("<I", body)[0]
    if n_layers != len(LAYER_SIZES) - 1:
        raise ShapeMismatchError(f"{path}: {n_layers} layers, expected {len(LAYER_SIZES) - 1}")
    offset = 4
    weights, biases = [], []
    for fan_out, fan_in in zip(LAYER_SIZES[1:], LAYER_SIZES[:-1]):
        if offset + 8 > len(body):
            raise CorruptFileError(f"{path}: truncated layer header")
        rows, cols = struct.unpack_from("<II", body, offset)
        offset += 8
        if (rows, cols) != (fan_out, fan_in):
            raise ShapeMismatchError(
                f"{path}: layer shape ({rows}, {cols}) != ({fan_out}, {fan_in})"
            )
        nbytes = 8 * rows * (cols + 1)
        if offset + nbytes > len(body):
            raise CorruptFileError(f"{path}: truncated layer data")
        w = np.frombuffer(body, dtype="<f8", count=rows * cols, offset=offset).reshape(rows, cols)
        offset += 8 * rows * cols
        b = np.frombuffer(body, dtype="<f8", count=rows, offset=offset)
        offset += 8 * rows
        weights.append(w.astype(float))
        biases.append(b.astype(float))
    if offset != len(body):
        raise CorruptFileError(f"{path}: trailing bytes after last layer")
    return NetworkParams(weights, biases)
