"""Training corpora for the gating surrogate.

Three families of labeled series are produced:

* an ODE-labeled corpus: raised-cosine calcium pulses on a fixed
  amplitude x duration grid, each integrated through the Markov gating model
  with backward Euler to obtain P(t);
* two hand-designed families ("artificial" sets) whose P(t) responses encode
  qualitative gating behavior directly, without the ODE: in the first, P leads
  the calcium peak and dies out before the signal does; in the second the
  signal is twice as large, P's decay is stretched, and P never increases
  while the rising signal exceeds 1 uM.

Every corpus is a pair of (K, T) blocks, P and u with one series per row on
one time grid.  difference_samples reduces a corpus to supervised samples
(P_{n-1}, u_{n-1}, du/dt) -> dP/dt with forward differences over the grid
step.  Sample blocks travel in a binary container (magic "CWDS",
little-endian, CRC32 trailer) or CSV.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import container
from .errors import CorruptFileError
from .ryr_markov import FULLY_CLOSED_STATE, MarkovRates, MarkovState, backward_euler_update

BASELINE = 0.05  # uM, resting calcium of every generated pulse
SIGNAL_DT = 0.05  # s, sampling step of the ODE corpus
SIGNAL_WINDOW = 4.0  # s
AMPLITUDE_RANGE = (0.05, 10.0)
DURATION_RANGE = (0.5, 4.0)
GRID_SHAPE = (200, 130)  # amplitudes x durations = 26000 signals
SAMPLES_MAGIC = b"CWDS"
SAMPLES_VERSION = 1


def difference_samples(p: np.ndarray, u: np.ndarray, dt: float) -> np.ndarray:
    """Forward-difference samples (P, u, du/dt) -> dP/dt of series along the last axis.

    Each series gives one row per step but its last, series in row-major order.
    The rows are filled into one preallocated block, column by column; the
    differences are np.diff(x) / dt, operand for operand.
    """
    block = np.empty(p.shape[:-1] + (p.shape[-1] - 1, 4))
    block[..., 0] = p[..., :-1]
    block[..., 1] = u[..., :-1]
    np.subtract(u[..., 1:], u[..., :-1], out=block[..., 2])
    np.subtract(p[..., 1:], p[..., :-1], out=block[..., 3])
    block[..., 2:] /= dt
    return block.reshape(-1, 4)


def signal_times() -> np.ndarray:
    n = int(round(SIGNAL_WINDOW / SIGNAL_DT)) + 1
    return np.linspace(0.0, SIGNAL_WINDOW, n)


def gen_cosine_signal(amplitude, duration) -> np.ndarray:
    """Raised-cosine pulses centred in the sampling window, resting elsewhere.

    amplitude and duration broadcast against each other; the pulses are laid
    out in their broadcast shape with time as the last axis.
    """
    amplitude = np.asarray(amplitude, dtype=float)[..., None]
    duration = np.asarray(duration, dtype=float)[..., None]
    # written as "not all inside" so that a NaN entry fails the check
    if not np.all((amplitude >= BASELINE) & (amplitude <= 30.0)):
        raise ValueError(f"an amplitude lies outside [{BASELINE}, 30]")
    if not np.all((duration > 0.0) & (duration <= SIGNAL_WINDOW)):
        raise ValueError(f"a duration lies outside (0, {SIGNAL_WINDOW}]")
    t = signal_times()
    center = SIGNAL_WINDOW / 2.0
    # outside a tiny pulse the phase may overflow; np.where discards it there
    with np.errstate(over="ignore", invalid="ignore"):
        bump = 0.5 * (1.0 + np.cos(2.0 * np.pi * (t - center) / duration))
    return np.where(
        np.abs(t - center) <= duration / 2.0,
        BASELINE + (amplitude - BASELINE) * bump,
        BASELINE,
    )


def _skewed_cosine(t, peak_time, rise, fall, height, baseline=0.0):
    """C1 bump: cosine quarter-waves with different rise and fall half-widths.

    peak_time, rise and fall broadcast against t; the result has their shape.
    """
    left = baseline + height * 0.5 * (1.0 + np.cos(np.pi * (t - peak_time) / rise))
    right = baseline + height * 0.5 * (1.0 + np.cos(np.pi * (t - peak_time) / fall))
    y = np.where((t > peak_time) & (t <= peak_time + fall), right, baseline)
    return np.where((t >= peak_time - rise) & (t <= peak_time), left, y)


def grid_signals():
    """Amplitudes and durations of the full corpus grid, (26000,) each, amplitude-major."""
    amps = np.linspace(*AMPLITUDE_RANGE, GRID_SHAPE[0])
    durs = np.linspace(*DURATION_RANGE, GRID_SHAPE[1])
    return np.repeat(amps, durs.size), np.tile(durs, amps.size)


def label_signals(
    u_block: np.ndarray,
    dt: float,
    state0: MarkovState = FULLY_CLOSED_STATE,
    rates: MarkovRates = MarkovRates(),
) -> np.ndarray:
    """Open probability for a block of signals (K, T), integrated in lockstep.

    Each step runs ryr_markov.backward_euler_update on (K,) occupancy arrays,
    the lines step_backward_euler runs on floats, so row k equals
    ryr_markov.integrate_series(u_block[k], dt, state0, rates) bit for bit.
    """
    u_block = np.asarray(u_block, dtype=float)
    k_sig, n_t = u_block.shape
    c1, o, c2 = (np.full(k_sig, v) for v in (state0.c1, state0.o, state0.c2))
    p = np.empty((k_sig, n_t))
    p[:, 0] = 1.0 - c1 - c2
    for n in range(1, n_t):
        c1, o, c2 = backward_euler_update(c1, o, c2, u_block[:, n], dt, rates)
        p[:, n] = 1.0 - c1 - c2
    if p.min() < -1e-9 or p.max() > 1.0 + 1e-9:
        raise FloatingPointError("gating labels left the probability simplex")
    return np.clip(p, 0.0, 1.0, out=p)


def build_ode_dataset(
    num_signals: int = GRID_SHAPE[0] * GRID_SHAPE[1],
    seed: int = 0,
    rates: MarkovRates = MarkovRates(),
) -> np.ndarray:
    """Supervised samples from the pulse grid; (num_signals * (T-1), 4).

    num_signals below the full grid selects a seeded sorted subset of the
    enumeration, so a small corpus still spans the whole grid statistically.
    The selected pulses are labelled as one block by label_signals, in one
    thread, and differenced in enumeration order.
    """
    amps, durs = grid_signals()
    total = amps.size
    if not 1 <= num_signals <= total:
        raise ValueError(f"num_signals must lie in [1, {total}], got {num_signals}")
    if num_signals < total:
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(total, size=num_signals, replace=False))
        amps, durs = amps[idx], durs[idx]
    u_block = gen_cosine_signal(amps, durs)
    p_block = label_signals(u_block, SIGNAL_DT, FULLY_CLOSED_STATE, rates)
    return difference_samples(p_block, u_block, SIGNAL_DT)


def gen_training_set_I():
    """121 unit-pulse pairs on [-2, 2]: P peaks before u and dies out earlier.

    The gating response is a raised cosine whose peak leads the calcium peak
    by 0.1-0.6 s (snapped to the 0.02 s grid so the sampled maximum is exactly
    1) and whose half-width is a 0.3-0.8 fraction of the remaining span.
    Returns (p, u, dt): (121, 201) blocks, lead-major, and the series step.
    """
    t = np.linspace(-2.0, 2.0, 201)
    u = 0.5 * (1.0 + np.cos(np.pi * t / 2.0))
    lead = np.round(np.linspace(0.1, 0.6, 11) / 0.02)[:, None, None] * 0.02  # grid-aligned peak
    half = np.linspace(0.3, 0.8, 11)[:, None] * (2.0 - lead)
    p = np.where(
        np.abs(t + lead) <= half,
        0.5 * (1.0 + np.cos(np.pi * (t + lead) / half)),
        0.0,
    )
    p = p.reshape(-1, t.size)
    return p, np.broadcast_to(u, p.shape), float(t[1] - t[0])


def gen_training_set_II():
    """200 pairs on [-4, 4] with u peaking at 2 uM.

    P peaks before the rising signal crosses 1 uM (at t = -2) and its decay
    side is stretched 1.5x relative to the rise, so P is strictly
    non-increasing wherever the rising signal exceeds 1 and every response
    outlasts its first-set counterpart with the same width parameter.
    Returns (p, u, dt): (200, 201) blocks, lead-major, and the series step.
    """
    t = np.linspace(-4.0, 4.0, 201)
    u = 1.0 + np.cos(np.pi * t / 4.0)
    lead = np.linspace(0.1, 0.6, 20)[:, None, None]
    rise = np.linspace(0.3, 0.8, 10)[:, None] * (2.0 - lead)
    p = _skewed_cosine(t, -2.0 - lead, rise, 1.5 * rise, 1.0).reshape(-1, t.size)
    return p, np.broadcast_to(u, p.shape), float(t[1] - t[0])


@dataclass(frozen=True)
class EvalSignal:
    name: str
    times: np.ndarray
    u: np.ndarray
    amplitude: float
    in_training_range: bool


def gen_eval_signals() -> list:
    """Four pulses deliberately absent from the training grid.

    Two in-range amplitudes with skewed (non-cosine-grid) shapes, and two
    amplitudes far above the grid ceiling, one symmetric and one skewed.
    """
    t = signal_times()

    def skewed(peak_time, rise, fall, height):
        return _skewed_cosine(t, peak_time, rise, fall, height - BASELINE, BASELINE)

    return [
        EvalSignal("slow-tail-0.5", t, skewed(1.4, 0.6, 1.8, 0.5), 0.5, True),
        EvalSignal("fast-tail-2.5", t, skewed(2.4, 1.2, 0.6, 2.5), 2.5, True),
        EvalSignal("symmetric-20", t, gen_cosine_signal(20.0, 3.0), 20.0, False),
        EvalSignal("slow-tail-25", t, skewed(1.2, 0.5, 1.5, 25.0), 25.0, False),
    ]


def save_samples(path, samples: np.ndarray) -> None:
    """Write the CWDS container: count header, 4 doubles per sample, CRC32."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 4:
        raise ValueError(f"samples must be (N, 4), got {samples.shape}")
    count = struct.pack("<Q", samples.shape[0])
    rows = np.ascontiguousarray(samples, dtype="<f8")  # no copy of a C-ordered float block
    container.write(path, SAMPLES_MAGIC, SAMPLES_VERSION, count, rows)


def load_samples(path) -> np.ndarray:
    """Samples of a CWDS container, (N, 4): a writable view of the buffer the file is read into."""
    body = container.read(path, SAMPLES_MAGIC, SAMPLES_VERSION, 8, "sample")
    count = struct.unpack("<Q", body[:8])[0]
    if len(body) != 8 + 32 * count:
        raise CorruptFileError(f"{path}: {len(body) + 12} bytes, expected {20 + 32 * count}")
    return np.frombuffer(body, dtype="<f8", offset=8).reshape(count, 4).astype(float, copy=False)


def write_samples_csv(path, samples: np.ndarray) -> None:
    """Sample rows as CSV with 17 significant digits per value."""
    rows = zip(*np.asarray(samples, dtype=float).T)
    with open(path, "w") as fh:
        fh.write("p_prev,u_prev,dudt,dpdt\n")
        fh.writelines("%.17g,%.17g,%.17g,%.17g\n" % row for row in rows)
