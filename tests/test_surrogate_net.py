"""Network arithmetic: gradients, optimizer identities, serialization.

Backpropagation is validated against central finite differences away from
ReLU kinks; the first Adam step against its closed form (a fresh optimizer
moves every coordinate by learning_rate * sign(g) up to the epsilon floor);
ReLU dead paths by exact loss invariance under perturbations of weights that
feed inactive units.  A float32 backward must agree with the float64 one to
float32 accuracy, and a backward without a workspace must stay float64.  In
both dtypes, layer 0's one product [x, 1] . [W0^T; b0] must equal the affine
map, and each bias gradient the row sum of its delta, to a few rounding
errors, and backward and loss must leave the caller's batch unchanged.  The
in-place mixed-precision trainer must match a list-based reference trainer
(allocating float32 forward/backward and validation, per-layer float64 Adam)
bit for bit, its validation loss must be the float32 loss of the epoch's
parameters and lie within 1e-4 of the float64 one, and a single input must
match the one-row batch bit for bit.  The CWNN container must reject every
single-byte flip and every truncation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from cawave import cli, datasets
from cawave import surrogate_net as sn
from cawave.errors import CorruptFileError, FormatVersionError, StateInvariantError


def clone(params):
    """An independent copy of params, through the checking constructor."""
    return sn.NetworkParams(params.weights, params.biases)


def test_architecture():
    params = sn.init_network(seed=0)
    assert params.theta.size == sn.PARAMETER_COUNT == 14721
    assert [w.shape for w in params.weights] == [(200, 3), (64, 200), (16, 64), (1, 16)]
    assert all(np.all(b == 0.0) for b in params.biases)


def test_init_deterministic():
    a, b = sn.init_network(seed=5), sn.init_network(seed=5)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    c = sn.init_network(seed=6)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_forward_batch_matches_single():
    params = sn.init_network(seed=2)
    xs = np.random.default_rng(0).uniform(-1, 1, (7, 3))
    batch_out = sn.forward(params, xs)
    single = [sn.forward(params, x) for x in xs]
    # BLAS may reassociate the batched accumulation; only ulp-level slack
    assert_allclose(batch_out, single, rtol=1e-12, atol=1e-15)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    seed=st.integers(0, 3),
    inputs=st.lists(
        st.tuples(st.floats(0.0, 1.0), *2 * [st.one_of(st.floats(-10.0, 10.0), st.floats())]),
        min_size=1, max_size=4,
    ),
    dt=st.floats(1e-6, 1.0),
)
def test_single_input_forward_is_the_one_row_batch(seed, inputs, dt):
    # a single input runs as a one-row batch: the same bits, call after call
    params = sn.init_network(seed=seed)
    for p_prev, u, dudt in inputs:
        x = np.array([p_prev, u, dudt])
        with np.errstate(all="ignore"):  # infinite inputs
            rate = sn.forward(params, x[None, :])[0]
            assert np.array_equal(sn.forward(params, x), rate, equal_nan=True)
            if np.isfinite(rate):
                want = min(max(p_prev + dt * rate, 0.0), 1.0)
                assert sn.predict_next_probability(params, p_prev, u, dudt, dt) == want
            else:
                with pytest.raises(StateInvariantError, match="surrogate rate"):
                    sn.predict_next_probability(params, p_prev, u, dudt, dt)


def test_forward_rejects_bad_shapes():
    params = sn.init_network(seed=0)
    with pytest.raises(ValueError):
        sn.forward(params, np.zeros(4))
    with pytest.raises(ValueError):
        sn.loss(params, np.zeros((0, 4)))
    with pytest.raises(ValueError):
        sn.backward(params, np.zeros((3, 3)))


def test_gradient_matches_finite_differences():
    # spot check on 160 coordinates; the acceptance gate covers 1000
    rng = np.random.default_rng(10)
    params = sn.init_network(seed=3)
    batch = np.column_stack(
        [
            rng.uniform(0.1, 0.9, 4),
            rng.uniform(0.5, 8.0, 4),
            rng.uniform(-20.0, 20.0, 4),
            rng.uniform(-1.0, 1.0, 4),
        ]
    )
    _, grads = sn.backward(params, batch)
    g_flat = grads.theta
    step = 1e-6
    for c in rng.choice(sn.PARAMETER_COUNT, size=160, replace=False):
        plus, minus = clone(params), clone(params)
        plus.theta[c] += step
        minus.theta[c] -= step
        fd = (sn.loss(plus, batch) - sn.loss(minus, batch)) / (2 * step)
        denom = max(abs(fd), abs(g_flat[c]), 1e-8)
        assert abs(fd - g_flat[c]) / denom <= 1e-5


def test_backward_loss_is_the_loss():
    # train takes the batch loss from backward's forward pass, not from loss()
    rng = np.random.default_rng(11)
    params = sn.init_network(seed=11)
    batch = np.column_stack([rng.uniform(0, 1, (640, 3)), rng.uniform(-1, 1, 640)])
    batch_loss, _ = sn.backward(params, batch)
    assert batch_loss == sn.loss(params, batch)


def test_listed_float32_rows_without_a_workspace_run_in_float64():
    # without a workspace, listed rows of a float32 block are the float64
    # loss of those rows taken out first, bit for bit
    params = sn.init_network(seed=5)
    block = _sample_batch(5, 10).astype(np.float32)
    rows = np.array([7, 2, 2, 9, 0])
    assert sn.loss(params, block, rows) == sn.loss(params, block[rows])


def _float32(params):
    """A float32 cast of params' vector, laid out like it."""
    return sn.NetworkParams._wrap(params.theta.astype(np.float32))


def _sample_batch(seed, n):
    rng = np.random.default_rng(seed)
    return np.column_stack(
        [rng.uniform(0.1, 0.9, n), rng.uniform(0.5, 8.0, n), rng.uniform(-20.0, 20.0, n),
         rng.uniform(-1.0, 1.0, n)]
    )


def test_float32_backward_agrees_with_float64_to_float32_accuracy():
    # train's mixed-precision step: float32 params, batch and workspace give
    # float32 gradients within a few float32 ulps (relative norm, per layer)
    # of the float64 gradients; measured at most 5.6e-7 on 640-row batches
    bound = 16 * np.finfo(np.float32).eps
    for seed in range(3):
        params = sn.init_network(seed=seed)
        batch = _sample_batch(seed, 640)
        work = sn._Workspace(640, np.float32)
        loss32, grads32 = sn.backward(_float32(params), batch.astype(np.float32), work)
        assert grads32 is work.grads and grads32.theta.dtype == np.float32
        loss64, grads64 = sn.backward(params, batch)
        assert abs(loss32 - loss64) <= bound * loss64
        for got, want in zip(grads32.weights + grads32.biases, grads64.weights + grads64.biases):
            assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)


def test_backward_without_a_workspace_runs_in_float64():
    # c05's 1e-5 finite-difference check relies on this; a non-float batch
    # is converted to float64 too
    params = sn.init_network(seed=20)
    batch = _sample_batch(20, 16)
    batch_loss, grads = sn.backward(params, batch)
    assert grads.theta.dtype == np.float64
    _, in_workspace = sn.backward(params, batch, sn._Workspace(16))
    assert np.array_equal(grads.theta, in_workspace.theta)
    ints = np.rint(10 * batch).astype(np.int64)
    int_loss, int_grads = sn.backward(params, ints)
    assert int_grads.theta.dtype == np.float64
    want_loss, want = sn.backward(params, ints.astype(np.float64))
    assert int_loss == want_loss and np.array_equal(int_grads.theta, want.theta)


DTYPES = st.sampled_from([np.float32, np.float64])


def _biased(seed, dtype):
    """init_network(seed) with normal biases, in dtype."""
    params = sn.init_network(seed=seed)
    rng = np.random.default_rng(seed)
    for b in params.biases:
        b[:] = rng.normal(0.0, 0.5, b.shape)
    return params if dtype == np.float64 else _float32(params)


def _batches(max_rows):
    """(dtype, batch): 1 .. max_rows sample rows of finite values of dtype."""
    def batches(dtype):
        shape = st.tuples(st.integers(1, max_rows), st.just(4))
        elements = st.floats(-50.0, 50.0, width=np.finfo(dtype).bits)
        return st.tuples(st.just(dtype), arrays(dtype, shape, elements=elements))
    return DTYPES.flatmap(batches)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(seed=st.integers(0, 3), drawn=_batches(16))
def test_layer0_product_is_the_affine_map_to_a_few_ulps(seed, drawn):
    # [x, 1] . [W0^T; b0] is one product; after the ReLU it must equal
    # relu(x W0^T + b0), taken in extended precision, within 4 eps of the sum
    # of its four terms' magnitudes (a 4-term dot product errs by <= 2 eps)
    dtype, batch = drawn
    n = batch.shape[0]
    params = _biased(seed, dtype)
    work = sn._Workspace(n, dtype, gradients=False)
    sn.loss(params, batch, workspace=work)  # one block: acts[0] is layer 0's output
    x = batch[:, :3].astype(np.longdouble)
    w0, b0 = params.weights[0].astype(np.longdouble), params.biases[0].astype(np.longdouble)
    exact = np.maximum(x @ w0.T + b0, 0.0)
    scale = np.abs(x) @ np.abs(w0.T) + np.abs(b0)
    assert np.all(np.abs(work.acts[0][:n] - exact) <= 4 * np.finfo(dtype).eps * scale)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(seed=st.integers(0, 3), drawn=_batches(64))
def test_bias_gradients_are_the_row_sums_of_the_deltas(seed, drawn):
    # each bias gradient is ones^T delta (layer 0's is the ones column of
    # its product), with the delta left in that layer's acts buffer; it must
    # equal the exact row sum within the bound that holds for any order of
    # summation, gamma_(n-1) * sum |delta|, so a single row is exact
    dtype, batch = drawn
    n = batch.shape[0]
    params = _biased(seed, dtype)
    work = sn._Workspace(n, dtype)
    _, grads = sn.backward(params, batch, work)
    u = np.finfo(dtype).eps / 2
    gamma = (n - 1) * u / (1 - (n - 1) * u)
    for layer, bias in enumerate(grads.biases):
        delta = work.acts[layer][:n].astype(float)
        for col, got in zip(delta.T, bias):
            assert abs(math.fsum([*col, -float(got)])) <= gamma * math.fsum(np.abs(col))


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(seed=st.integers(0, 3), drawn=_batches(16))
def test_backward_and_loss_leave_the_batch_unchanged(seed, drawn):
    # layer 0's augmented input [x, 1] lives in a workspace buffer, never in
    # the caller's array, with or without a workspace and with listed rows
    dtype, batch = drawn
    n = batch.shape[0]
    params = _biased(seed, dtype)
    before = batch.tobytes()
    sn.backward(params, batch)
    sn.backward(params, batch, sn._Workspace(n, dtype))
    sn.loss(params, batch)
    sn.loss(params, batch, np.arange(n)[::-1].copy(), sn._Workspace(2, dtype, gradients=False))
    assert batch.tobytes() == before


def test_dead_relu_path_is_exactly_flat():
    # perturbing a weight into a unit that never fires cannot change the loss
    params = sn.init_network(seed=4)
    batch = np.array([[0.3, 2.0, 5.0, 0.1], [0.6, 1.0, -4.0, -0.2]])
    z1 = batch[:, :3] @ params.weights[0].T + params.biases[0]
    dead_units = np.where((z1 < -1e-6).all(axis=0))[0]
    assert dead_units.size > 0
    base = sn.loss(params, batch)
    bumped = clone(params)
    bumped.weights[0][dead_units[0], :] += 1e-9  # small enough to keep z < 0
    assert sn.loss(bumped, batch) == base
    _, grads = sn.backward(params, batch)
    assert np.all(grads.weights[0][dead_units, :] == 0.0)
    assert np.all(grads.biases[0][dead_units] == 0.0)


def test_first_adam_step_magnitude():
    # with zero moments, m_hat/sqrt(v_hat) = sign(g), so |step| ~ lr
    params = sn.init_network(seed=1)
    batch = np.array([[0.2, 3.0, 1.0, 0.4], [0.8, 0.5, -2.0, -0.3]])
    _, grads = sn.backward(params, batch)
    state = sn.init_adam(learning_rate=1e-3)
    before = params.theta.copy()  # the step updates theta in place
    new_params, new_state = sn.adam_step(params, grads, state)
    assert new_params is params and new_state is state
    assert new_state.step == 1
    delta = np.abs(new_params.theta - before)
    g = np.abs(grads.theta)
    strong = g > 1e-4  # far above the epsilon floor
    assert strong.any()
    assert_allclose(delta[strong], 1e-3, rtol=1e-3)
    assert delta.max() <= 1e-3 * (1 + 1e-6)
    # the gradient is only read
    assert np.array_equal(grads.theta, sn.backward(sn.init_network(seed=1), batch)[1].theta)


def test_adam_validation():
    with pytest.raises(ValueError):
        sn.init_adam(learning_rate=0.0)


def test_training_fits_linear_map():
    # targets linear in the inputs: squared loss must drop by 10x or more
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.0, 1.0, (2000, 3))
    y = 0.3 * x[:, 0] - 0.5 * x[:, 1] + 0.1 * x[:, 2]
    samples = np.column_stack([x, y])
    params, hist = sn.train(samples, epochs=40, batch_size=200, validation_fraction=0.1, seed=8)
    assert hist.train[-1] < hist.train[0] / 10.0
    assert np.all(np.isfinite(hist.validation))


def test_training_deterministic():
    rng = np.random.default_rng(9)
    samples = np.column_stack(
        [rng.uniform(0, 1, (300, 3)), rng.uniform(-0.5, 0.5, 300)]
    )
    p1, h1 = sn.train(samples, epochs=3, batch_size=64, validation_fraction=0.1, seed=21)
    p2, h2 = sn.train(samples, epochs=3, batch_size=64, validation_fraction=0.1, seed=21)
    assert np.array_equal(h1.train, h2.train)
    for a, b in zip(p1.weights, p2.weights):
        assert np.array_equal(a, b)


def test_training_validation_errors():
    samples = np.zeros((50, 4))
    with pytest.raises(ValueError):
        sn.train(samples, epochs=0)
    with pytest.raises(ValueError):
        sn.train(samples, validation_fraction=1.0)
    with pytest.raises(ValueError):
        sn.train(np.zeros((50, 3)))
    with pytest.raises(ValueError, match="learning rate"):
        sn.train(samples, learning_rate=-1e-3)


def reference_train(samples, epochs, batch_size, validation_fraction, seed):
    """The list-based mixed-precision trainer: allocating float32 forward and
    backward, per-layer float64 Adam in its efficient form.

    Same data order, split, initialization and operation order as sn.train,
    with every intermediate a fresh array.  Layer 0 is the matrix [W0^T; b0]
    applied to the inputs with a column of ones appended, so its gradient is
    one product too; the other layers' bias gradients are ones^T delta.  Each
    batch casts every layer and the batch rows to float32 and the float32
    gradients to float64; Adam stays float64.  The validation loss is the
    float32 forward on the float32 cast of the epoch's layers, in blocks of
    min(batch_size, n_train) rows, its float32 errors averaged in float64.
    The layers come back as [layer0, W1, W2, W3, b1, b2, b3].
    """
    rng = np.random.default_rng(seed)
    init = sn.init_network(seed)
    layers = [np.vstack([init.weights[0].T, init.biases[0]])]
    layers += [w.copy() for w in init.weights[1:]] + [b.copy() for b in init.biases[1:]]
    moments = [[np.zeros_like(a) for a in layers] for _ in range(2)]
    nl = len(init.weights)
    train_idx, val_idx = sn.validation_split(samples.shape[0], validation_fraction, rng)
    train_set, val_set = samples[train_idx], samples[val_idx].astype(np.float32)
    block = min(batch_size, train_set.shape[0])

    def forward(layers, x):
        augmented = np.column_stack([x, np.ones(x.shape[0], x.dtype)])
        z = augmented @ layers[0]
        acts, pre = [augmented], []
        for w, b in zip(layers[1:nl], layers[nl:]):
            pre.append(z)
            a = np.maximum(z, 0.0)
            acts.append(a)
            z = a @ w.T + b
        return z[:, 0], acts, pre

    b1, b2, lr, eps = 0.9, 0.999, 1e-3, 1e-8
    step = 0
    train_hist, val_hist = [], []
    for _ in range(epochs):
        train_set = train_set[rng.permutation(train_set.shape[0])]  # the last order, permuted
        loss_sum = 0.0
        for start in range(0, train_set.shape[0], batch_size):
            batch = train_set[start : start + batch_size].astype(np.float32)
            layers32 = [a.astype(np.float32) for a in layers]
            out, acts, pre = forward(layers32, batch[:, :3])
            err = out - batch[:, 3]
            loss_sum += float(np.mean(err * err)) * batch.shape[0]
            ones = np.ones(batch.shape[0], np.float32)
            grads = [None] * len(layers)
            delta = (2.0 / batch.shape[0]) * err[:, None]
            for layer in range(nl - 1, 0, -1):
                grads[layer], grads[nl - 1 + layer] = delta.T @ acts[layer], ones @ delta
                delta = (delta @ layers32[layer]) * (pre[layer - 1] > 0.0)
            grads[0] = acts[0].T @ delta
            assert all(g.dtype == np.float32 for g in grads)
            step += 1
            root = math.sqrt(1.0 - b2**step)
            alpha, eps_hat = lr * root / (1.0 - b1**step), eps * root
            for i, g in enumerate(grads):
                g = g.astype(np.float64)
                m = b1 * moments[0][i] + (1 - b1) * g
                v = b2 * moments[1][i] + (1 - b2) * g * g
                layers[i] = layers[i] - alpha * (m / (np.sqrt(v) + eps_hat))
                moments[0][i], moments[1][i] = m, v
        train_hist.append(loss_sum / train_set.shape[0])
        layers32 = [a.astype(np.float32) for a in layers]
        blocks = range(0, val_set.shape[0], block)
        out = np.concatenate([forward(layers32, val_set[i : i + block, :3])[0] for i in blocks])
        err = (out - val_set[:, 3]).astype(np.float64)
        val_hist.append(float(np.mean(err * err)))
    return layers, np.array(train_hist), np.array(val_hist)


def smooth_samples(seed, n=3000):
    """(n, 4) samples of a smooth target over the corpus's input ranges."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([rng.uniform(0, 1, n), rng.uniform(0, 10, n), rng.uniform(-40, 40, n)])
    return np.column_stack([x, 0.05 * x[:, 1] - 0.01 * x[:, 2] + 0.1 * np.sin(6 * x[:, 0])])


def test_training_matches_list_based_reference_bit_for_bit():
    # 1800 training rows in batches of 256 leave a partial batch of 8, and
    # the 1200 validation rows run through the 256-row workspace in five
    # blocks, the last one partial
    samples = smooth_samples(14)
    params, hist = sn.train(samples, epochs=3, batch_size=256, validation_fraction=0.4, seed=6)
    assert params.theta.dtype == np.float64
    layers, train_hist, val_hist = reference_train(samples, 3, 256, 0.4, 6)
    for got, want in zip([params.layer0] + params.weights[1:] + params.biases[1:], layers):
        assert np.array_equal(got, want)
    assert np.array_equal(hist.train, train_hist)
    assert np.array_equal(hist.validation, val_hist)


@pytest.mark.parametrize("epochs", [1, 3])
def test_validation_loss_is_the_float32_loss_of_the_epoch_parameters(epochs):
    # train validates in the minibatch precision: the last recorded loss is
    # loss() of the returned parameters' float32 cast through a float32
    # workspace of the training block size, and within 1e-4 of the float64 loss
    samples, seed, batch_size, fraction = smooth_samples(15), 7, 256, 0.4
    params, hist = sn.train(
        samples, epochs=epochs, batch_size=batch_size, validation_fraction=fraction, seed=seed
    )
    _, val_idx = sn.validation_split(samples.shape[0], fraction, np.random.default_rng(seed))
    float32 = sn.NetworkParams._wrap(params.theta.astype(np.float32))
    work = sn._Workspace(batch_size, np.float32, gradients=False)
    assert hist.validation[-1] == sn.loss(float32, samples, val_idx, work)
    assert_allclose(hist.validation[-1], sn.loss(params, samples, val_idx), rtol=1e-4)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    n=st.integers(2, 5000),
    fraction=st.floats(0.0, 0.49),
    seed=st.integers(0, 2**64 - 1),
)
def test_in_place_index_shuffles_draw_what_permutation_draws(n, fraction, seed):
    # train's split is an int32 range shuffled in place, and each epoch
    # shuffles the training split in place; each shuffle must permute what it
    # is given as rng.permutation of its length does, leave the validation
    # split alone and leave the generator where rng.permutation leaves it
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    train_idx, val_idx = sn.validation_split(n, fraction, rng)
    assert train_idx.dtype == val_idx.dtype == np.int32
    assert np.array_equal(np.concatenate([train_idx, val_idx]), reference.permutation(n))
    before, held_out = train_idx.copy(), val_idx.copy()
    rng.shuffle(train_idx)
    assert np.array_equal(train_idx, before[reference.permutation(train_idx.size)])
    assert np.array_equal(val_idx, held_out)
    assert rng.integers(2**63) == reference.integers(2**63)


def test_forward_blocks_equal_per_block_results():
    # loss runs its rows through a workspace a block at a time; each block
    # gives the bits of forward on that block's rows, in the order listed
    params = sn.init_network(seed=16)
    block = 256
    samples = np.random.default_rng(16).uniform(-2, 2, (2 * block + 37, 4))
    work = sn._Workspace(block, gradients=False)
    for rows in (None, np.arange(samples.shape[0])[::-1].copy()):
        listed = samples if rows is None else samples[rows]
        parts = [sn.forward(params, listed[i : i + block, :3]) for i in range(0, listed.shape[0], block)]
        blocks = [pred.copy() for _, _, pred in sn._forward_blocks(params, samples, work, rows)]
        assert np.array_equal(np.concatenate(blocks), np.concatenate(parts))
        err = np.concatenate(parts) - listed[:, 3]
        assert sn.loss(params, samples, rows, work) == float(np.mean(err * err))


def test_parameter_views_share_one_vector():
    params = sn.init_network(seed=17)
    assert params.theta.shape == (sn.PARAMETER_COUNT,)
    # layer 0 first as the 4 x 200 matrix [W0^T; b0], then W1, b1, ... as in CWNN
    assert np.array_equal(params.layer0, np.vstack([params.weights[0].T, params.biases[0]]))
    rest = [a.ravel() for p in zip(params.weights[1:], params.biases[1:]) for a in p]
    assert np.array_equal(params.theta, np.concatenate([params.layer0.ravel()] + rest))
    params.biases[0][5] = 4.5
    assert params.theta[3 * 200 + 5] == 4.5
    params.biases[-1][:] = 2.5
    assert params.theta[-1] == 2.5
    params.theta[0] = -1.0
    assert params.weights[0][0, 0] == -1.0
    copied = clone(params)
    copied.theta[0] = 3.0
    assert params.theta[0] == -1.0


def test_non_finite_parameters_are_rejected_on_construction(tmp_path):
    params = sn.init_network(seed=18)
    weights = [w.copy() for w in params.weights]
    weights[1][3, 4] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        sn.NetworkParams(weights, params.biases)
    # a checksummed file holding a NaN parameter still fails to load
    bad = clone(params)
    bad.biases[2][0] = np.nan
    sn.save_weights(tmp_path / "nan.cwnn", bad)
    with pytest.raises(ValueError, match="non-finite"):
        sn.load_weights(tmp_path / "nan.cwnn")


def _inf_gradient_backward(monkeypatch):
    """Patch backward so the loss stays finite and one gradient entry is inf."""
    real = sn.backward

    def backward(params, batch, workspace=None):
        batch_loss, grads = real(params, batch, workspace)
        grads.theta[7] = np.inf
        return batch_loss, grads

    monkeypatch.setattr(sn, "backward", backward)


def test_non_finite_adam_update_is_a_floating_point_error(monkeypatch, tmp_path, capsys):
    _inf_gradient_backward(monkeypatch)
    rng = np.random.default_rng(19)
    samples = np.column_stack([rng.uniform(0, 1, (100, 3)), rng.uniform(-0.5, 0.5, 100)])
    with np.errstate(invalid="ignore"):
        with pytest.raises(FloatingPointError, match="non-finite network parameter"):
            sn.train(samples, epochs=1, batch_size=32, seed=19)
        data = tmp_path / "samples.cwds"
        datasets.save_samples(data, samples)
        argv = ["train", "--data", str(data), "--epochs", "1", "--out", str(tmp_path)]
        assert cli.main(argv) == 3
    assert "numeric failure: non-finite network parameter" in capsys.readouterr().err


def test_non_finite_surrogate_rate_is_a_state_error(monkeypatch, tmp_path, capsys):
    params = sn.init_network(seed=0)
    monkeypatch.setattr(sn, "forward", lambda params, x: float("nan"))
    with pytest.raises(StateInvariantError, match="surrogate rate"):
        sn.predict_next_probability(params, 0.5, 1.0, 0.0, 0.0125)
    weights = tmp_path / "w.cwnn"
    sn.save_weights(weights, params)
    argv = ["simulate", "--preset", "example1-reduced", "--channel", "surrogate",
            "--weights", str(weights), "--dt", "0.0125", "--t-end", "0.1", "--out", str(tmp_path)]
    assert cli.main(argv) == 3
    assert "numeric failure: surrogate rate dP/dt is non-finite" in capsys.readouterr().err


def test_predict_next_probability_clips_and_validates():
    params = sn.init_network(seed=0)
    p = sn.predict_next_probability(params, 0.5, 1.0, 0.0, 0.0125)
    assert 0.0 <= p <= 1.0
    # a huge rate must clip, not escape the unit interval
    big = clone(params)
    big.biases[-1][:] = 1e6
    assert sn.predict_next_probability(big, 0.5, 1.0, 0.0, 0.0125) == 1.0
    big.biases[-1][:] = -1e6
    assert sn.predict_next_probability(big, 0.5, 1.0, 0.0, 0.0125) == 0.0
    with pytest.raises(ValueError):
        sn.predict_next_probability(params, 1.5, 1.0, 0.0, 0.0125)
    with pytest.raises(ValueError):
        sn.predict_next_probability(params, 0.5, 1.0, 0.0, 0.0)


def test_rollout_first_step_uses_zero_slope():
    params = sn.init_network(seed=7)
    u = np.array([0.05, 0.7, 1.9, 2.4])
    p = sn.rollout_probability(params, u, dt=0.1, p0=0.2)
    assert p[0] == 0.2
    assert p[1] == sn.predict_next_probability(params, 0.2, 0.05, 0.0, 0.1)
    # second step sees the lagged backward difference
    expected2 = sn.predict_next_probability(params, p[1], 0.7, (0.7 - 0.05) / 0.1, 0.1)
    assert p[2] == expected2


def test_weights_round_trip(tmp_path):
    params = sn.init_network(seed=13)
    path = tmp_path / "w.cwnn"
    sn.save_weights(path, params)
    loaded = sn.load_weights(path)
    for a, b in zip(params.weights + params.biases, loaded.weights + loaded.biases):
        assert np.array_equal(a, b)


def test_weights_file_errors(tmp_path):
    params = sn.init_network(seed=13)
    path = tmp_path / "w.cwnn"
    sn.save_weights(path, params)
    blob = path.read_bytes()

    bad_crc = tmp_path / "crc.cwnn"
    bad_crc.write_bytes(blob[:-1] + bytes([blob[-1] ^ 0xFF]))
    with pytest.raises(CorruptFileError):
        sn.load_weights(bad_crc)

    bad_magic = tmp_path / "magic.cwnn"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CorruptFileError):
        sn.load_weights(bad_magic)

    truncated = tmp_path / "short.cwnn"
    truncated.write_bytes(blob[:10])
    with pytest.raises(CorruptFileError):
        sn.load_weights(truncated)

    import struct as _struct
    import zlib as _zlib

    body = bytearray(blob[:-4])
    body[4:8] = _struct.pack("<I", 99)  # future version
    body += _struct.pack("<I", _zlib.crc32(bytes(body)) & 0xFFFFFFFF)
    versioned = tmp_path / "ver.cwnn"
    versioned.write_bytes(bytes(body))
    with pytest.raises(FormatVersionError):
        sn.load_weights(versioned)


@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_weights_container_rejects_any_corruption(tmp_path_factory, seed, data):
    path = tmp_path_factory.getbasetemp() / "property.cwnn"
    sn.save_weights(path, sn.init_network(seed=seed))
    blob = path.read_bytes()

    offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
    mask = data.draw(st.integers(1, 255), label="mask")
    path.write_bytes(blob[:offset] + bytes([blob[offset] ^ mask]) + blob[offset + 1 :])
    with pytest.raises(CorruptFileError):
        sn.load_weights(path)

    path.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1), label="length")])
    with pytest.raises(CorruptFileError):
        sn.load_weights(path)
