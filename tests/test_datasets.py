"""Training corpora: counts, shape conventions, and label semantics.

The batched gating integrator is cross-checked signal by signal against the
scalar stepper; the hand-designed series families are checked against their
stated qualitative contracts (lead/width structure, monotone decay windows,
exact unit peaks on the sampling grid).  The CWDS container must round-trip
any sample block and reject every single-byte flip and every truncation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from cawave import datasets as ds
from cawave import ryr_markov as rm
from cawave.errors import CorruptFileError, FormatVersionError


def test_signal_grid_counts():
    pairs = ds.grid_signals()
    assert len(pairs) == 26000
    amps = sorted({a for a, _ in pairs})
    durs = sorted({d for _, d in pairs})
    assert len(amps) == 200 and len(durs) == 130
    assert amps[0] == 0.05 and amps[-1] == 10.0
    assert durs[0] == 0.5 and durs[-1] == 4.0


def test_signal_shape_and_baseline():
    u = ds.gen_cosine_signal(2.0, 1.0)
    t = ds.signal_times()
    assert u.shape == t.shape == (81,)
    assert u[0] == ds.BASELINE and u[-1] == ds.BASELINE
    assert u.max() == pytest.approx(2.0, abs=1e-12)  # peak sits on the grid
    assert np.argmax(u) == 40  # centred pulse
    outside = np.abs(t - 2.0) > 0.5
    assert np.all(u[outside] == ds.BASELINE)


def test_signal_spec_validation():
    # the generator range is wider than the training grid: held-out pulses
    # up to 30 uM are allowed, anything below baseline or past the window not
    with pytest.raises(ValueError):
        ds.gen_cosine_signal(50.0, 1.0)
    with pytest.raises(ValueError):
        ds.gen_cosine_signal(2.0, 5.0)  # longer than the sampling window
    with pytest.raises(ValueError):
        ds.gen_cosine_signal(0.01, 1.0)  # below baseline
    assert ds.gen_cosine_signal(20.0, 3.0).max() == pytest.approx(20.0, abs=1e-12)


def test_batched_labels_match_scalar_stepper():
    sigs = np.stack(
        [ds.gen_cosine_signal(a, d) for a, d in [(2.0, 1.0), (7.5, 0.5), (0.3, 3.0), (10.0, 2.0)]]
    )
    p_block = ds.label_signals(sigs, ds.SIGNAL_DT)
    for i in range(sigs.shape[0]):
        state = rm.FULLY_CLOSED_STATE
        expected = [rm.open_probability(state)]
        for n in range(1, sigs.shape[1]):
            state = rm.step_backward_euler(state, float(sigs[i, n]), ds.SIGNAL_DT)
            expected.append(rm.open_probability(state))
        assert np.array_equal(p_block[i], expected)


def test_ode_dataset_layout():
    samples = ds.build_ode_dataset(num_signals=3, seed=5)
    assert samples.shape == (3 * 80, 4)
    # within one signal block, the stored rate is the forward difference of
    # the stored state column
    p = samples[:80, 0]
    dpdt = samples[:80, 3]
    assert_allclose(dpdt[:-1], np.diff(p) / ds.SIGNAL_DT, atol=1e-12)
    # samples out of the full grid: 26000 signals x 80 transitions
    assert ds.GRID_SHAPE[0] * ds.GRID_SHAPE[1] * (len(ds.signal_times()) - 1) == 2_080_000


def test_ode_dataset_subset_determinism_and_threads():
    a = ds.build_ode_dataset(num_signals=40, seed=9, threads=1)
    b = ds.build_ode_dataset(num_signals=40, seed=9, threads=3)
    assert np.array_equal(a, b)
    c = ds.build_ode_dataset(num_signals=40, seed=10)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        ds.build_ode_dataset(num_signals=0)
    with pytest.raises(ValueError):
        ds.build_ode_dataset(num_signals=26001)


def test_training_set_one_contract():
    series = ds.gen_training_set_I()
    assert len(series) == 121
    for s in series:
        assert s.u.max() == 1.0  # unit pulse, exact on the grid
        assert s.p.max() == 1.0  # lead snapped so the peak is sampled
        assert np.argmax(s.p) < np.argmax(s.u)  # response leads the signal
        # response dies out while the signal is still positive
        last_active = np.max(np.nonzero(s.p > 0.0))
        assert last_active < s.p.size - 1
        assert s.u[last_active + 1] > 0.0
        assert np.all(s.p >= 0.0) and np.all(s.p <= 1.0)


def test_training_set_two_contract():
    series = ds.gen_training_set_II()
    assert len(series) == 200
    t = series[0].times
    for s in series:
        assert s.u.max() == pytest.approx(2.0, abs=1e-12)
        assert np.all(s.p >= 0.0) and np.all(s.p <= 1.0)
        # wherever the rising signal exceeds 1 uM the response is not growing
        window = (t <= 0.0) & (s.u > 1.0)
        dp = np.diff(s.p)[window[:-1]]
        assert np.all(dp <= 1e-12)


def test_series_to_samples_counts():
    series = ds.gen_training_set_I()
    samples = ds.series_to_samples(series)
    assert samples.shape == (121 * 200, 4)
    series2 = ds.gen_training_set_II()
    assert ds.series_to_samples(series2).shape == (200 * 200, 4)


def test_difference_samples_over_the_last_axis():
    u = np.array([[1.0, 3.0, 2.0], [0.5, 0.5, 4.5]])
    p = np.array([[0.0, 0.2, 0.1], [0.4, 0.3, 0.3]])
    rows = ds.difference_samples(p, u, 0.5)
    assert np.array_equal(rows[:2], [[0.0, 1.0, 4.0, 0.4], [0.2, 3.0, -2.0, -0.2]])
    # a block gives its series' samples in series order
    assert np.array_equal(rows, np.concatenate([ds.difference_samples(p[k], u[k], 0.5) for k in (0, 1)]))


def test_eval_signals():
    sigs = ds.gen_eval_signals()
    assert len(sigs) == 4
    assert [s.in_training_range for s in sigs] == [True, True, False, False]
    for s in sigs:
        assert s.u.shape == ds.signal_times().shape
        assert s.u.max() == pytest.approx(s.amplitude, rel=1e-12)
        assert s.u.min() >= 0.0


def test_samples_round_trip(tmp_path):
    samples = ds.build_ode_dataset(num_signals=5, seed=2)
    path = tmp_path / "s.cwds"
    ds.save_samples(path, samples)
    loaded = ds.load_samples(path)
    assert np.array_equal(samples, loaded)
    # identical bytes on rewrite
    path2 = tmp_path / "s2.cwds"
    ds.save_samples(path2, samples)
    assert path.read_bytes() == path2.read_bytes()


def test_samples_file_errors(tmp_path):
    samples = np.arange(8.0).reshape(2, 4)
    path = tmp_path / "ok.cwds"
    ds.save_samples(path, samples)
    blob = path.read_bytes()

    flipped = tmp_path / "crc.cwds"
    flipped.write_bytes(blob[:20] + bytes([blob[20] ^ 1]) + blob[21:])
    with pytest.raises(CorruptFileError):
        ds.load_samples(flipped)

    magic = tmp_path / "magic.cwds"
    magic.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(CorruptFileError):
        ds.load_samples(magic)

    short = tmp_path / "short.cwds"
    short.write_bytes(blob[:10])
    with pytest.raises(CorruptFileError):
        ds.load_samples(short)

    import struct as _struct
    import zlib as _zlib

    body = bytearray(blob[:-4])
    body[4:8] = _struct.pack("<I", 2)
    body += _struct.pack("<I", _zlib.crc32(bytes(body)) & 0xFFFFFFFF)
    ver = tmp_path / "ver.cwds"
    ver.write_bytes(bytes(body))
    with pytest.raises(FormatVersionError):
        ds.load_samples(ver)

    with pytest.raises(ValueError):
        ds.save_samples(tmp_path / "bad.cwds", np.zeros((3, 3)))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(
    samples=arrays(
        np.float64,
        st.tuples(st.integers(0, 6), st.just(4)),
        elements=st.floats(allow_nan=False),
    ),
    data=st.data(),
)
def test_samples_container_rejects_any_corruption(tmp_path_factory, samples, data):
    path = tmp_path_factory.getbasetemp() / "property.cwds"
    ds.save_samples(path, samples)
    assert np.array_equal(ds.load_samples(path), samples)
    blob = path.read_bytes()

    offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
    mask = data.draw(st.integers(1, 255), label="mask")
    path.write_bytes(blob[:offset] + bytes([blob[offset] ^ mask]) + blob[offset + 1 :])
    with pytest.raises(CorruptFileError):
        ds.load_samples(path)

    path.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1), label="length")])
    with pytest.raises(CorruptFileError):
        ds.load_samples(path)


def test_samples_csv(tmp_path):
    samples = ds.build_ode_dataset(num_signals=2, seed=0)
    path = tmp_path / "s.csv"
    ds.write_samples_csv(path, samples)
    lines = path.read_text().splitlines()
    assert lines[0] == "p_prev,u_prev,dudt,dpdt"
    assert len(lines) == samples.shape[0] + 1
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert_allclose(parsed, samples, rtol=1e-16)
