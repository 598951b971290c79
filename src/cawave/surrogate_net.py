"""Fully-connected surrogate for the RyR gating dynamics.

The network maps (P, u, du/dt) to an estimate of dP/dt through the fixed
architecture 3 -> 200 -> 64 -> 16 -> 1 (ReLU hidden layers, linear output,
14721 parameters).  Forward, backward, and the Adam optimizer are written
directly against numpy: gradients are exact backpropagation with the ReLU
subgradient taken as 0 at 0, and both initialization and minibatch order are
driven by a seeded PCG64 generator so a training run is reproducible bit for
bit at a fixed BLAS thread count.

All parameters live in one flat vector, NetworkParams.theta; the per-layer
weights and biases are views into it.  Layer 0 comes first as the 4 x 200
matrix [W0^T; b0], and every path feeds it the augmented input [P, u, du/dt,
1] from a buffer of its own, so its pre-activation and bias are one product
and its weight and bias gradient another.  W1, b1, ... follow in the CWNN
order; those layers add their biases, and their bias gradients are products
ones^T delta.  Gradients use the same layout, so Adam (in Kingma and Ba's
efficient form) is a handful of in-place vector operations on theta, its two
moment vectors and one scratch vector.

Training runs in mixed precision (Micikevicius et al., "Mixed Precision
Training", ICLR 2018).  The corpus, the master theta, the Adam moments and
the saved weights are float64.  Each minibatch is gathered from the corpus by
index into a float64 staging block and cast into a float32 batch, theta is
cast into a float32 copy, and forward and backward run in float32; the
float32 gradient is cast back to float64 for Adam.  The per-epoch validation
pass runs in the same precision, on a float32 cast of the epoch's theta, with
its errors held and averaged in float64.  A training run allocates its
buffers once, in one float32 _Workspace; backward writes each layer's delta
over that layer's activations.  Beyond the corpus, train holds only that
workspace, the two parameter-sized casts, the Adam moments and scratch and
one int32 index array (the split, whose training part each epoch shuffles in
place).  forward, loss and backward without a workspace run in float64, in
one pass over their rows.

During a simulation the network advances the open probability explicitly,

    P_next = clip(P + dt * F(P, u, du/dt), 0, 1),

with du/dt formed from the two most recent interface concentrations and taken
as 0 on the first step.  SurrogateChannel is that step's one implementation:
a run's gating handle, and what rollout_probability steps along a signal.

Weights travel in a small binary container (magic "CWNN", little-endian,
CRC32 trailer); see save_weights / load_weights.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import container
from .errors import CorruptFileError, ShapeMismatchError, StateInvariantError

LAYER_SIZES = (3, 200, 64, 16, 1)
PARAMETER_COUNT = 14721  # sum over layers of (fan_in + 1) * fan_out
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # moment decays, denominator floor
WEIGHTS_MAGIC = b"CWNN"
WEIGHTS_VERSION = 1


class NetworkParams:
    """Weight matrices (fan_out, fan_in) and bias vectors per layer.

    theta is the one flat parameter vector; weights[i] and biases[i] are views
    into it, so an in-place edit of either shows in the other.  Its first 800
    entries are layer0, the 4 x 200 matrix [W0^T; b0], so that layer 0 of an
    augmented input [x, 1] is the one product [x, 1] . layer0; weights[0] is
    the transposed view layer0[:3].T and biases[0] is layer0[3].  W1, b1, W2,
    b2, W3, b3 follow in the CWNN order.  The constructor copies the given
    arrays into a new vector and checks their shapes and finiteness.
    """

    def __init__(self, weights, biases):
        expected = list(zip(LAYER_SIZES[1:], LAYER_SIZES[:-1]))
        shapes = [w.shape for w in weights]
        if shapes != expected:
            raise ValueError(f"weight shapes {shapes} != {expected}")
        bias_shapes = [b.shape for b in biases]
        if bias_shapes != [(n,) for n in LAYER_SIZES[1:]]:
            raise ValueError(f"bias shapes {bias_shapes} wrong")
        theta = np.empty(PARAMETER_COUNT)
        self._bind(theta)
        for dst, src in zip(self.weights + self.biases, list(weights) + list(biases)):
            dst[...] = src
        if not np.isfinite(theta).all():
            raise ValueError("non-finite network parameter")

    @classmethod
    def _wrap(cls, theta: np.ndarray) -> "NetworkParams":
        """Views into theta with no checks (gradient buffers, float32 casts)."""
        params = cls.__new__(cls)
        params._bind(theta)
        return params

    def _bind(self, theta: np.ndarray) -> None:
        self.theta = theta
        pos = (LAYER_SIZES[0] + 1) * LAYER_SIZES[1]
        self.layer0 = theta[:pos].reshape(LAYER_SIZES[0] + 1, LAYER_SIZES[1])
        self.weights, self.biases = [self.layer0[:-1].T], [self.layer0[-1]]
        for fan_out, fan_in in zip(LAYER_SIZES[2:], LAYER_SIZES[1:-1]):
            self.weights.append(theta[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in))
            pos += fan_out * fan_in
            self.biases.append(theta[pos : pos + fan_out])
            pos += fan_out


def _activation_buffers(rows: int, dtype=np.float64) -> list:
    return [np.empty((rows, n), dtype) for n in LAYER_SIZES[1:]]


class _Workspace:
    """Buffers of one float dtype for forward/backward over up to `rows`
    samples, allocated once.

    batch holds the sample rows gathered for a minibatch or a validation
    block and index their row numbers; in a workspace of another dtype,
    staging is the float64 block that float64 rows are gathered into before
    they are cast into batch.  inputs holds layer 0's augmented input [x, 1]
    (its last column is ones and is never written), acts each layer's
    outputs, ones the vector whose products with the deltas are the bias
    gradients, masks the hidden layers' ReLU masks and grads one flat
    gradient of the given dtype.  A workspace made with gradients=False has
    no ones, masks or grads and serves loss only.  A smaller block uses the
    first rows of each buffer.  backward leaves each layer's delta in that
    layer's acts buffer and overwrites the gradients; a loss over a
    workspace overwrites index, staging, batch, inputs and acts.  Arithmetic
    through a workspace runs in its dtype when the parameters and the batch
    share it.
    """

    def __init__(self, rows: int, dtype=np.float64, gradients: bool = True):
        self.index = np.empty(rows, np.intp)
        self.batch = np.empty((rows, 4), dtype)
        self.staging = None if dtype == np.float64 else np.empty((rows, 4))
        self.inputs = np.ones((rows, LAYER_SIZES[0] + 1), dtype)
        self.acts = _activation_buffers(rows, dtype)
        if gradients:
            self.ones = np.ones(rows, dtype)
            self.masks = [np.empty((rows, n), dtype=bool) for n in LAYER_SIZES[1:-1]]
            self.grads = NetworkParams._wrap(np.empty(PARAMETER_COUNT, dtype))


def init_network(seed: int = 0) -> NetworkParams:
    """He-normal weights, zero biases, from a seeded generator."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_out, fan_in in zip(LAYER_SIZES[1:], LAYER_SIZES[:-1]):
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.standard_normal((fan_out, fan_in)) * std)
        biases.append(np.zeros(fan_out))
    return NetworkParams(weights, biases)


def _augmented(x: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """The first n rows of inputs, holding [x[:, :3], 1] for x (n, >= 3);
    x is only read."""
    rows = inputs[: x.shape[0]]
    rows[:, :-1] = x[:, : LAYER_SIZES[0]]
    return rows


def _forward_pass(params: NetworkParams, inputs: np.ndarray, acts: list) -> np.ndarray:
    """Forward pass of augmented inputs [x, 1] (n, 4) through the first n rows
    of the acts buffers; returns the outputs (n,), a view into acts[-1].
    Layer 0 and its bias are one product; layers 1-3 add their biases."""
    n = inputs.shape[0]
    a = np.matmul(inputs, params.layer0, out=acts[0][:n])
    for w, b, z in zip(params.weights[1:], params.biases[1:], acts[1:]):
        np.maximum(a, 0.0, out=a)
        a = np.matmul(a, w.T, out=z[:n])
        a += b
    return a[:, 0]


def _gather(data: np.ndarray, rows: np.ndarray, work: _Workspace) -> np.ndarray:
    """data[rows] in the first rows of work.batch; returns those rows.

    Nothing is allocated: the row numbers are copied into work.index first (a
    take converts other index types in a temporary), and rows of another
    dtype than the batch's are gathered into work.staging and cast after (a
    take that casts as it writes makes a temporary of the block).
    """
    index = work.index[: rows.size]
    np.copyto(index, rows)
    out = work.batch if data.dtype == work.batch.dtype else work.staging
    block = data.take(index, axis=0, out=out[: rows.size], mode="clip")
    np.copyto(work.batch[: rows.size], block)  # nothing to do when block is in batch
    return work.batch[: rows.size]


def _forward_blocks(params: NetworkParams, data: np.ndarray, work: _Workspace, rows=None):
    """Yield (block, x, outputs) over the rows of data, or those listed in
    rows, as many at a time as the workspace holds.

    block is the slice of the rows the block covers and x its rows of data;
    listed rows are gathered into the batch buffer.  outputs are the network's
    for x[:, :3], a view into acts[-1].  A row's output can differ in its last
    bits with the number of rows it runs with (BLAS picks its kernel by the
    shapes; one row takes gemv), so the block size is part of the arithmetic.
    """
    n = data.shape[0] if rows is None else rows.size
    size = work.acts[0].shape[0]
    for start in range(0, n, max(size, 1)):  # buffers of 0 rows only for 0 rows
        block = slice(start, min(start + size, n))
        x = data[block] if rows is None else _gather(data, rows[block], work)
        yield block, x, _forward_pass(params, _augmented(x, work.inputs), work.acts)


def forward(params: NetworkParams, x: np.ndarray):
    """Network output for a single input (3,) or a batch (N, 3), in one pass;
    a single input is a one-row batch."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.shape[1] != 3:
        raise ValueError(f"inputs must have 3 features, got shape {x.shape}")
    inputs = _augmented(a, np.ones((a.shape[0], 4)))
    out = _forward_pass(params, inputs, _activation_buffers(a.shape[0]))
    return float(out[0]) if single else out


def _check_batch(batch) -> np.ndarray:
    """batch as an array: float32 as given, any other dtype as float64."""
    batch = np.asarray(batch)
    if batch.dtype != np.float32:
        batch = batch.astype(float, copy=False)
    if batch.ndim != 2 or batch.shape[1] != 4 or batch.shape[0] == 0:
        raise ValueError(f"batch must be (N, 4) with N >= 1, got {batch.shape}")
    return batch


def loss(params: NetworkParams, samples: np.ndarray, rows=None, workspace=None) -> float:
    """Mean squared error of predicted dP/dt over a (N, 4) sample block, or
    over its rows listed in rows.

    The rows run through the workspace's buffers a block at a time (listed
    rows are gathered into its batch buffer, so none is copied out of
    samples); without a workspace, listed rows are copied out, and a float64
    workspace of N rows is made for this call, so the arithmetic is float64
    as for samples[rows].  Listed rows run in float32 through float32 params
    and workspace (train's validation pass), each error a float32 difference.
    The errors fill one float64 vector, squared in place, whose mean is one
    pairwise sum.
    """
    samples = _check_batch(samples)
    if workspace is None and rows is not None:
        samples, rows = samples[rows], None
    n = samples.shape[0] if rows is None else rows.size
    work = workspace if workspace is not None else _Workspace(n, gradients=False)
    err = np.empty(n)
    for block, batch, pred in _forward_blocks(params, samples, work, rows):
        np.subtract(pred, batch[:, 3], out=err[block])
    np.multiply(err, err, out=err)
    return float(np.mean(err))


def backward(params: NetworkParams, batch: np.ndarray, workspace: _Workspace | None = None):
    """Batch loss and its exact MSE gradient via backpropagation.

    Returns (loss, grads): grads is a NetworkParams-shaped view of one flat
    gradient vector, grads.theta, laid out like params.theta; the loss is the
    value loss() gives, from the same forward pass.  The ReLU subgradient at
    exactly 0 is taken as 0 (the unit stays off).  Layer 0's weight and bias
    gradient is the one product [x, 1]^T delta0, written into grads.layer0;
    the other layers' bias gradients are ones^T delta.  The batch is only
    read: its inputs are copied into the workspace's augmented input buffer.
    With a workspace of at least N rows, every intermediate and the gradients
    go into its buffers (and the returned grads are the workspace's); without
    one, float64 buffers are allocated for this call.  A float32 batch,
    float32 params and a float32 workspace give float32 activations, deltas,
    gradients and loss arithmetic (train's mixed-precision step); a batch of
    any other dtype is converted to float64, so a float64 call without a
    workspace runs wholly in float64.  After the call the workspace's acts
    buffers hold the deltas (d loss / d pre-activation of each layer), not
    the activations: each hidden layer's delta is written over its
    activations once its ReLU mask is taken.
    """
    batch = _check_batch(batch)
    n = batch.shape[0]
    work = workspace if workspace is not None else _Workspace(n)
    x = _augmented(batch, work.inputs)
    out = _forward_pass(params, x, work.acts)
    err = out - batch[:, 3]
    batch_loss = float(np.mean(err * err))

    acts = [x] + [a[:n] for a in work.acts[:-1]]  # each layer's (augmented) input
    grads, ones = work.grads, work.ones[:n]
    delta = work.acts[-1][:n]  # d loss / d output, (N, 1), in the output's buffer
    np.multiply(err[:, None], 2.0 / n, out=delta)
    for layer in range(len(params.weights) - 1, 0, -1):
        np.matmul(delta.T, acts[layer], out=grads.weights[layer])
        np.matmul(ones, delta, out=grads.biases[layer])
        # post-activation > 0 exactly where the pre-activation is > 0; once
        # the mask is taken the layer's input is not read again, and the
        # delta of the layer below is written over it
        hidden = acts[layer]
        mask = np.greater(hidden, 0.0, out=work.masks[layer - 1][:n])
        np.matmul(delta, params.weights[layer], out=hidden)
        hidden *= mask
        delta = hidden
    np.matmul(x.T, delta, out=grads.layer0)  # W0 and b0 together
    return batch_loss, grads


@dataclass
class AdamState:
    """Flat first/second moment vectors (laid out like theta), learning rate,
    step count, and the step's float and bool scratch vectors."""

    m: np.ndarray
    v: np.ndarray
    learning_rate: float
    step: int
    scratch: np.ndarray
    finite: np.ndarray


def init_adam(learning_rate: float) -> AdamState:
    if learning_rate <= 0:
        raise ValueError("learning rate must be positive")
    zeros, finite = np.zeros(PARAMETER_COUNT), np.empty(PARAMETER_COUNT, bool)
    return AdamState(zeros, zeros.copy(), learning_rate, 0, np.empty(PARAMETER_COUNT), finite)


def adam_step(params: NetworkParams, grads: NetworkParams, state: AdamState):
    """One Adam update, in place; returns (params, state), the objects passed in.

    params.theta, state.m and state.v are overwritten, the intermediates go
    into the state's scratch vectors (nothing is allocated) and state.step
    advances.  The update is Kingma and Ba's efficient form (ICLR 2015, sec.
    2), in this operation order: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    theta = theta - alpha_t * (m / (sqrt(v) + eps_t)) with
    alpha_t = lr*sqrt(1-b2**t)/(1-b1**t) and eps_t = eps*sqrt(1-b2**t).
    A non-finite theta after the update raises FloatingPointError; params
    then hold that update.
    """
    g = grads.theta
    t = state.step + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    root = math.sqrt(1.0 - b2**t)
    alpha = state.learning_rate * root / (1.0 - b1**t)
    m, v, s, theta = state.m, state.v, state.scratch, params.theta
    np.multiply(g, 1 - b1, out=s)
    m *= b1
    m += s
    np.multiply(g, 1 - b2, out=s)
    s *= g
    v *= b2
    v += s
    np.sqrt(v, out=s)
    s += ADAM_EPSILON * root
    np.divide(m, s, out=s)
    s *= alpha
    theta -= s
    state.step = t
    if np.count_nonzero(np.isfinite(theta, out=state.finite)) < theta.size:
        raise FloatingPointError(f"non-finite network parameter after Adam step {t}")
    return params, state


@dataclass
class LossHistory:
    train: np.ndarray
    validation: np.ndarray


def _index_range(n: int) -> np.ndarray:
    """0 .. n-1 as int32, or as intp where int32 cannot hold them."""
    return np.arange(n, dtype=np.int32 if n < 2**31 else np.intp)


def validation_split(n_samples: int, validation_fraction: float, rng: np.random.Generator):
    """Seeded shuffle, validation = trailing fraction (rounded) of the shuffle.

    The shuffle is an int32 index range shuffled in place, which draws what
    rng.permutation(n_samples) draws and gives the same order; both splits
    are views of it.
    """
    perm = _index_range(n_samples)
    rng.shuffle(perm)
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
    learning_rate: float = 1e-3,
):
    """Mixed-precision minibatch Adam training; returns (params, LossHistory).

    Each minibatch's forward and backward pass runs in float32 on a float32
    cast of the float64 parameters; its float32 gradient, cast to float64,
    drives the float64 Adam step.  The epoch training loss is the
    sample-weighted mean of minibatch losses (each evaluated in float32
    before its update); the validation loss is loss() over the held-out
    trailing split at the end of the epoch, on a fresh float32 cast of the
    parameters, through the same float32 workspace in blocks of the
    minibatch size.  Training starts from init_network(seed) and fresh Adam
    moments.  Neither split is ever copied out of samples: each minibatch
    and validation block is gathered by index into the workspace (see
    _gather).  Each epoch shuffles the training split in place, so its order
    is the previous epoch's, permuted.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 4:
        raise ValueError(f"samples must be (N, 4), got {samples.shape}")
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be positive")
    if not 0.0 <= validation_fraction < 1.0:
        raise ValueError("validation_fraction must lie in [0, 1)")

    state = init_adam(learning_rate)
    rng = np.random.default_rng(seed)
    params = init_network(seed)

    train_idx, val_idx = validation_split(samples.shape[0], validation_fraction, rng)
    n_train = train_idx.size
    work = _Workspace(min(batch_size, n_train), np.float32)
    params32 = NetworkParams._wrap(np.empty(PARAMETER_COUNT, np.float32))
    grads64 = NetworkParams._wrap(np.empty(PARAMETER_COUNT))
    train_hist = np.empty(epochs)
    val_hist = np.empty(epochs)
    for epoch in range(epochs):
        rng.shuffle(train_idx)  # the previous epoch's order, permuted
        loss_sum = 0.0
        for start in range(0, n_train, batch_size):
            batch = _gather(samples, train_idx[start : start + batch_size], work)
            np.copyto(params32.theta, params.theta)
            batch_loss, grads = backward(params32, batch, work)
            if not np.isfinite(batch_loss):
                raise FloatingPointError(f"training loss diverged at epoch {epoch}")
            np.copyto(grads64.theta, grads.theta)
            params, state = adam_step(params, grads64, state)
            loss_sum += batch_loss * batch.shape[0]
        train_hist[epoch] = loss_sum / n_train
        np.copyto(params32.theta, params.theta)  # the epoch's last update
        val_hist[epoch] = loss(params32, samples, val_idx, work) if val_idx.size else np.nan
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
    if not math.isfinite(rate):
        raise StateInvariantError(
            f"surrogate rate dP/dt is non-finite ({rate}) at P={p_prev}, u={u_prev}, "
            f"du/dt={dudt_prev}"
        )
    return min(max(p_prev + dt * rate, 0.0), 1.0)


@dataclass(frozen=True)
class SurrogateChannel:
    """Gating by the trained network; du/dt is differenced against u_prev.

    advance pairs the interface concentration it is given with its backward
    difference from the previous one, taken as 0 on the first step.
    """

    params: NetworkParams
    probability: float
    u_prev: float | None = None

    def advance(self, u_interface: float, dt: float) -> "SurrogateChannel":
        dudt = 0.0 if self.u_prev is None else (u_interface - self.u_prev) / dt
        p_next = predict_next_probability(self.params, self.probability, u_interface, dudt, dt)
        return SurrogateChannel(self.params, p_next, u_interface)


def rollout_probability(
    params: NetworkParams, u_series: np.ndarray, dt: float, p0: float = 0.0
) -> np.ndarray:
    """Advance P along a sampled signal: p[n] is a SurrogateChannel's step
    from p[n-1] on u[n-1], with the lagged backward difference."""
    u_series = np.asarray(u_series, dtype=float)
    p = np.empty(u_series.shape[0])
    p[0] = p0
    channel = SurrogateChannel(params, p0)
    for n in range(1, u_series.shape[0]):
        channel = channel.advance(u_series[n - 1], dt)
        p[n] = channel.probability
    return p


def save_weights(path, params: NetworkParams) -> None:
    """Write the CWNN container: layer count, per-layer blocks, CRC32 trailer."""
    body = bytearray(struct.pack("<I", len(params.weights)))
    for w, b in zip(params.weights, params.biases):
        body += struct.pack("<II", *w.shape)
        body += np.ascontiguousarray(w, dtype="<f8").tobytes()
        body += np.ascontiguousarray(b, dtype="<f8").tobytes()
    container.write(path, WEIGHTS_MAGIC, WEIGHTS_VERSION, body)


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
        weights.append(w)
        biases.append(b)
    if offset != len(body):
        raise CorruptFileError(f"{path}: trailing bytes after last layer")
    return NetworkParams(weights, biases)  # copies the file's views into one vector
