"""Network arithmetic: gradients, optimizer identities, serialization.

Backpropagation is validated against central finite differences away from
ReLU kinks; the first Adam step against its closed form (a fresh optimizer
moves every coordinate by learning_rate * sign(g) up to the epsilon floor);
ReLU dead paths by exact loss invariance under perturbations of weights that
feed inactive units.  The CWNN container must reject every single-byte flip
and every truncation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cawave import surrogate_net as sn
from cawave.errors import CorruptFileError, FormatVersionError


def flatten(params):
    return np.concatenate(
        [a.ravel() for pair in zip(params.weights, params.biases) for a in pair]
    )


def unflatten(template, vec):
    ws, bs, pos = [], [], 0
    for w, b in zip(template.weights, template.biases):
        ws.append(vec[pos : pos + w.size].reshape(w.shape))
        pos += w.size
        bs.append(vec[pos : pos + b.size])
        pos += b.size
    return sn.NetworkParams(ws, bs)


def test_architecture():
    params = sn.init_network(seed=0)
    assert params.parameter_count() == sn.PARAMETER_COUNT == 14721
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
    theta = flatten(params)
    _, grads = sn.backward(params, batch)
    g_flat = flatten(sn.NetworkParams(list(grads[0]), list(grads[1])))
    step = 1e-6
    for c in rng.choice(theta.size, size=160, replace=False):
        tp, tm = theta.copy(), theta.copy()
        tp[c] += step
        tm[c] -= step
        fd = (sn.loss(unflatten(params, tp), batch) - sn.loss(unflatten(params, tm), batch)) / (
            2 * step
        )
        denom = max(abs(fd), abs(g_flat[c]), 1e-8)
        assert abs(fd - g_flat[c]) / denom <= 1e-5


def test_backward_loss_is_the_loss():
    # train takes the batch loss from backward's forward pass, not from loss()
    rng = np.random.default_rng(11)
    params = sn.init_network(seed=11)
    batch = np.column_stack([rng.uniform(0, 1, (640, 3)), rng.uniform(-1, 1, 640)])
    batch_loss, _ = sn.backward(params, batch)
    assert batch_loss == sn.loss(params, batch)


def test_dead_relu_path_is_exactly_flat():
    # perturbing a weight into a unit that never fires cannot change the loss
    params = sn.init_network(seed=4)
    batch = np.array([[0.3, 2.0, 5.0, 0.1], [0.6, 1.0, -4.0, -0.2]])
    z1 = batch[:, :3] @ params.weights[0].T + params.biases[0]
    dead_units = np.where((z1 < -1e-6).all(axis=0))[0]
    assert dead_units.size > 0
    base = sn.loss(params, batch)
    bumped = params.copy()
    bumped.weights[0][dead_units[0], :] += 1e-9  # small enough to keep z < 0
    assert sn.loss(bumped, batch) == base
    _, grads = sn.backward(params, batch)
    assert np.all(grads[0][0][dead_units, :] == 0.0)
    assert np.all(grads[1][0][dead_units] == 0.0)


def test_first_adam_step_magnitude():
    # with zero moments, m_hat/sqrt(v_hat) = sign(g), so |step| ~ lr
    params = sn.init_network(seed=1)
    batch = np.array([[0.2, 3.0, 1.0, 0.4], [0.8, 0.5, -2.0, -0.3]])
    _, grads = sn.backward(params, batch)
    state = sn.init_adam(learning_rate=1e-3)
    new_params, new_state = sn.adam_step(params, grads, state)
    assert new_state.step == 1
    delta = np.abs(flatten(new_params) - flatten(params))
    g = np.abs(flatten(sn.NetworkParams(list(grads[0]), list(grads[1]))))
    strong = g > 1e-4  # far above the epsilon floor
    assert strong.any()
    assert_allclose(delta[strong], 1e-3, rtol=1e-3)
    assert delta.max() <= 1e-3 * (1 + 1e-6)
    # inputs must not be mutated
    assert np.all(flatten(params) == flatten(sn.init_network(seed=1)))


def test_adam_validation():
    with pytest.raises(ValueError):
        sn.init_adam(learning_rate=0.0)
    with pytest.raises(ValueError):
        sn.init_adam(beta1=1.0)


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


def test_normalized_training_returns_raw_input_network():
    rng = np.random.default_rng(12)
    x = np.column_stack(
        [rng.uniform(0, 1, 500), rng.uniform(0, 10, 500), rng.uniform(-40, 40, 500)]
    )
    y = 0.05 * x[:, 1] - 0.01 * x[:, 2]
    samples = np.column_stack([x, y])
    params, hist = sn.train(
        samples, epochs=20, batch_size=100, validation_fraction=0.1, seed=3, normalize_inputs=True
    )
    # the folded network consumes raw inputs and still fits the raw targets
    assert sn.loss(params, samples) < hist.train[0] / 10.0


def test_predict_next_probability_clips_and_validates():
    params = sn.init_network(seed=0)
    p = sn.predict_next_probability(params, 0.5, 1.0, 0.0, 0.0125)
    assert 0.0 <= p <= 1.0
    # a huge rate must clip, not escape the unit interval
    big = params.copy()
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
