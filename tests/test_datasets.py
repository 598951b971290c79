"""Training corpora: counts, shape conventions, and label semantics.

The batched gating integrator is cross-checked signal by signal against the
scalar stepper, and the broadcast block generators bit for bit against the
per-series loops kept here.  The hand-designed series families are checked
against their stated qualitative contracts (lead/width structure, monotone
decay windows, exact unit peaks on the sampling grid).  The CWDS container
must round-trip any sample block and reject every single-byte flip and every
truncation.
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


def loop_cosine_signal(amplitude, duration):
    """Reference pulse: one signal at a time, the bump evaluated only inside it."""
    t = ds.signal_times()
    center = ds.SIGNAL_WINDOW / 2.0
    u = np.full(t.shape, ds.BASELINE)
    inside = np.abs(t - center) <= duration / 2.0
    bump = 0.5 * (1.0 + np.cos(2.0 * np.pi * (t[inside] - center) / duration))
    u[inside] = ds.BASELINE + (amplitude - ds.BASELINE) * bump
    return u


def loop_training_set_I():
    """Reference set I: (p, u) per series, one lead x width pair at a time."""
    t = np.linspace(-2.0, 2.0, 201)
    u = 0.5 * (1.0 + np.cos(np.pi * t / 2.0))
    series = []
    for lead in np.linspace(0.1, 0.6, 11):
        lead_s = round(lead / 0.02) * 0.02
        for width in np.linspace(0.3, 0.8, 11):
            half = width * (2.0 - lead_s)
            p = np.zeros(t.shape)
            inside = np.abs(t + lead_s) <= half
            p[inside] = 0.5 * (1.0 + np.cos(np.pi * (t[inside] + lead_s) / half))
            series.append((p, u))
    return series


def loop_training_set_II():
    """Reference set II, built like loop_training_set_I."""
    t = np.linspace(-4.0, 4.0, 201)
    u = 1.0 + np.cos(np.pi * t / 4.0)
    series = []
    for lead in np.linspace(0.1, 0.6, 20):
        peak = -2.0 - lead
        for width in np.linspace(0.3, 0.8, 10):
            rise = width * (2.0 - lead)
            fall = 1.5 * rise
            p = np.zeros(t.shape)
            left = (t >= peak - rise) & (t <= peak)
            p[left] = 0.5 * (1.0 + np.cos(np.pi * (t[left] - peak) / rise))
            right = (t > peak) & (t <= peak + fall)
            p[right] = 0.5 * (1.0 + np.cos(np.pi * (t[right] - peak) / fall))
            series.append((p, u))
    return series


def test_signal_grid_counts():
    amps, durs = ds.grid_signals()
    assert amps.shape == durs.shape == (26000,)
    assert len(np.unique(amps)) == 200 and len(np.unique(durs)) == 130
    assert amps.min() == amps[0] == 0.05 and amps.max() == amps[-1] == 10.0
    assert durs.min() == durs[0] == 0.5 and durs.max() == durs[-1] == 4.0
    # amplitude-major: the durations cycle fastest
    assert np.all(amps[:130] == 0.05) and np.array_equal(durs[:130], np.unique(durs))


def test_block_generators_match_per_series_loops():
    amps, durs = ds.grid_signals()
    block = ds.gen_cosine_signal(amps, durs)
    loop = np.stack([loop_cosine_signal(a, d) for a, d in zip(amps.tolist(), durs.tolist())])
    assert block.tobytes() == loop.tobytes()
    for gen, loop_gen, dt in (
        (ds.gen_training_set_I, loop_training_set_I, 0.02),
        (ds.gen_training_set_II, loop_training_set_II, 0.04),
    ):
        p, u, step = gen()
        series = loop_gen()
        assert step == pytest.approx(dt, rel=1e-12)
        assert p.shape == u.shape == (len(series), 201)
        assert p.tobytes() == np.stack([s[0] for s in series]).tobytes(), gen.__name__
        assert u.tobytes() == np.stack([s[1] for s in series]).tobytes(), gen.__name__
        per_series = np.concatenate([ds.difference_samples(sp, su, step) for sp, su in series])
        assert ds.difference_samples(p, u, step).tobytes() == per_series.tobytes()


def test_ode_signal_block_matches_per_signal_loop():
    # the seeded subset, as build_ode_dataset draws it, labelled row by row
    amps, durs = ds.grid_signals()
    idx = np.sort(np.random.default_rng(3).choice(amps.size, size=25, replace=False))
    u_block = np.stack([loop_cosine_signal(a, d) for a, d in zip(amps[idx], durs[idx])])
    expected = np.concatenate(
        [ds.difference_samples(ds.label_signals(u[None], ds.SIGNAL_DT)[0], u, ds.SIGNAL_DT) for u in u_block]
    )
    assert ds.build_ode_dataset(num_signals=25, seed=3).tobytes() == expected.tobytes()


_AMPLITUDES = st.floats(ds.BASELINE, 30.0)
_DURATIONS = st.floats(0.0, ds.SIGNAL_WINDOW, exclude_min=True)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(
    amps=st.lists(_AMPLITUDES, min_size=1, max_size=6),
    durs=st.lists(_DURATIONS, min_size=1, max_size=6),
    data=st.data(),
)
def test_broadcast_signal_rows_equal_scalar_calls(amps, durs, data):
    block = ds.gen_cosine_signal(np.array(amps)[:, None], np.array(durs))
    assert block.shape == (len(amps), len(durs), ds.signal_times().size)
    for i, a in enumerate(amps):
        for j, d in enumerate(durs):
            row = block[i, j].tobytes()
            assert row == ds.gen_cosine_signal(a, d).tobytes() == loop_cosine_signal(a, d).tobytes()

    # a single NaN or out-of-range entry anywhere in either array is rejected
    which = data.draw(st.sampled_from(["amplitude", "duration"]), label="which")
    below, above = (ds.BASELINE, 30.0) if which == "amplitude" else (0.0, ds.SIGNAL_WINDOW)
    outside = (
        st.just(np.nan)
        | st.floats(max_value=below, exclude_max=which == "amplitude")
        | st.floats(min_value=above, exclude_min=True)
    )
    args = {"amplitude": np.array(amps)[:, None], "duration": np.array(durs)}
    bad = args[which]
    bad.flat[data.draw(st.integers(0, bad.size - 1), label="at")] = data.draw(outside, label="bad")
    with pytest.raises(ValueError, match=which):
        ds.gen_cosine_signal(args["amplitude"], args["duration"])


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


def test_ode_dataset_subset_determinism():
    a = ds.build_ode_dataset(num_signals=40, seed=9)
    b = ds.build_ode_dataset(num_signals=40, seed=9)
    assert np.array_equal(a, b)
    c = ds.build_ode_dataset(num_signals=40, seed=10)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        ds.build_ode_dataset(num_signals=0)
    with pytest.raises(ValueError):
        ds.build_ode_dataset(num_signals=26001)


def test_training_set_one_contract():
    p_block, u_block, _ = ds.gen_training_set_I()
    assert len(p_block) == 121
    for p, u in zip(p_block, u_block):
        assert u.max() == 1.0  # unit pulse, exact on the grid
        assert p.max() == 1.0  # lead snapped so the peak is sampled
        assert np.argmax(p) < np.argmax(u)  # response leads the signal
        # response dies out while the signal is still positive
        last_active = np.max(np.nonzero(p > 0.0))
        assert last_active < p.size - 1
        assert u[last_active + 1] > 0.0
        assert np.all(p >= 0.0) and np.all(p <= 1.0)


def test_training_set_two_contract():
    p_block, u_block, _ = ds.gen_training_set_II()
    assert len(p_block) == 200
    t = np.linspace(-4.0, 4.0, 201)  # the generator's grid, with t[100] == 0 exactly
    for p, u in zip(p_block, u_block):
        assert u.max() == pytest.approx(2.0, abs=1e-12)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
        # wherever the rising signal exceeds 1 uM the response is not growing
        window = (t <= 0.0) & (u > 1.0)
        dp = np.diff(p)[window[:-1]]
        assert np.all(dp <= 1e-12)


def test_training_set_sample_counts():
    samples = ds.difference_samples(*ds.gen_training_set_I())
    assert samples.shape == (121 * 200, 4)
    assert ds.difference_samples(*ds.gen_training_set_II()).shape == (200 * 200, 4)


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
    # a view of the read buffer, which callers may edit in place
    assert loaded.flags.writeable
    loaded[0, 0] += 1.0
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
