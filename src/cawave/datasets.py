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

Every series is reduced to supervised samples (P_{n-1}, u_{n-1}, du/dt) ->
dP/dt with forward differences over the series step.  Sample blocks travel in
a binary container (magic "CWDS", little-endian, CRC32 trailer) or CSV.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
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


@dataclass
class LabeledSeries:
    """A calcium signal with its gating response on a uniform time grid."""

    times: np.ndarray
    u: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        if not (self.times.shape == self.u.shape == self.p.shape):
            raise ValueError("times, u, p must share one shape")
        if self.times.shape[0] < 2:
            raise ValueError("series needs at least two samples")
        if np.any(self.p < -1e-12) or np.any(self.p > 1.0 + 1e-12):
            raise ValueError("P labels leave [0, 1]")
        if np.any(self.u < 0.0):
            raise ValueError("negative calcium in series")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def difference_samples(p: np.ndarray, u: np.ndarray, dt: float) -> np.ndarray:
    """Forward-difference samples (P, u, du/dt) -> dP/dt of series along the last axis.

    Each series gives one row per step but its last, series in row-major order.
    """
    dudt = np.diff(u) / dt
    dpdt = np.diff(p) / dt
    return np.stack([p[..., :-1].ravel(), u[..., :-1].ravel(), dudt.ravel(), dpdt.ravel()], axis=1)


def signal_times() -> np.ndarray:
    n = int(round(SIGNAL_WINDOW / SIGNAL_DT)) + 1
    return np.linspace(0.0, SIGNAL_WINDOW, n)


def gen_cosine_signal(amplitude: float, duration: float) -> np.ndarray:
    """Raised-cosine pulse centred in the sampling window, resting elsewhere."""
    if not BASELINE <= amplitude <= 30.0:
        raise ValueError(f"amplitude {amplitude} outside [{BASELINE}, 30]")
    if not 0.0 < duration <= SIGNAL_WINDOW:
        raise ValueError(f"duration {duration} outside (0, {SIGNAL_WINDOW}]")
    t = signal_times()
    center = SIGNAL_WINDOW / 2.0
    u = np.full(t.shape, BASELINE)
    inside = np.abs(t - center) <= duration / 2.0
    bump = 0.5 * (1.0 + np.cos(2.0 * np.pi * (t[inside] - center) / duration))
    u[inside] = BASELINE + (amplitude - BASELINE) * bump
    return u


def _skewed_cosine(t, peak_time, rise, fall, height, baseline=0.0):
    """C1 bump: cosine quarter-waves with different rise and fall half-widths."""
    y = np.full(t.shape, baseline)
    left = (t >= peak_time - rise) & (t <= peak_time)
    y[left] = baseline + height * 0.5 * (1.0 + np.cos(np.pi * (t[left] - peak_time) / rise))
    right = (t > peak_time) & (t <= peak_time + fall)
    y[right] = baseline + height * 0.5 * (1.0 + np.cos(np.pi * (t[right] - peak_time) / fall))
    return y


def grid_signals():
    """(amplitude, duration) pairs of the full corpus grid, amplitude-major."""
    amps = np.linspace(*AMPLITUDE_RANGE, GRID_SHAPE[0])
    durs = np.linspace(*DURATION_RANGE, GRID_SHAPE[1])
    pairs = [(a, d) for a in amps for d in durs]
    return pairs


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
    return np.clip(p, 0.0, 1.0)


def build_ode_dataset(
    num_signals: int = GRID_SHAPE[0] * GRID_SHAPE[1],
    seed: int = 0,
    rates: MarkovRates = MarkovRates(),
    threads: int = 1,
) -> np.ndarray:
    """Supervised samples from the pulse grid; (num_signals * (T-1), 4).

    num_signals below the full grid selects a seeded sorted subset of the
    enumeration, so a small corpus still spans the whole grid statistically.
    Work is split into per-thread signal chunks whose results are concatenated
    in enumeration order: the output is identical for any thread count.
    """
    pairs = grid_signals()
    total = len(pairs)
    if not 1 <= num_signals <= total:
        raise ValueError(f"num_signals must lie in [1, {total}], got {num_signals}")
    if num_signals < total:
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(total, size=num_signals, replace=False))
        pairs = [pairs[i] for i in idx]
    u_block = np.stack([gen_cosine_signal(a, d) for a, d in pairs])
    dt = SIGNAL_DT

    if threads <= 1 or len(pairs) < 2 * threads:
        p_block = label_signals(u_block, dt, FULLY_CLOSED_STATE, rates)
    else:
        chunks = np.array_split(np.arange(len(pairs)), threads)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda c: label_signals(u_block[c], dt, FULLY_CLOSED_STATE, rates), chunks))
        p_block = np.concatenate(parts, axis=0)
    return difference_samples(p_block, u_block, dt)


def gen_training_set_I() -> list:
    """121 unit-pulse pairs on [-2, 2]: P peaks before u and dies out earlier.

    The gating response is a raised cosine whose peak leads the calcium peak
    by 0.1-0.6 s (snapped to the 0.02 s grid so the sampled maximum is exactly
    1) and whose half-width is a 0.3-0.8 fraction of the remaining span.
    """
    dt = 0.02
    t = np.linspace(-2.0, 2.0, 201)
    u = 0.5 * (1.0 + np.cos(np.pi * t / 2.0))
    series = []
    for lead in np.linspace(0.1, 0.6, 11):
        lead_s = round(lead / dt) * dt  # grid-aligned peak
        for width in np.linspace(0.3, 0.8, 11):
            half = width * (2.0 - lead_s)
            p = np.where(
                np.abs(t + lead_s) <= half,
                0.5 * (1.0 + np.cos(np.pi * (t + lead_s) / half)),
                0.0,
            )
            series.append(LabeledSeries(t.copy(), u.copy(), p))
    return series


def gen_training_set_II() -> list:
    """200 pairs on [-4, 4] with u peaking at 2 uM.

    P peaks before the rising signal crosses 1 uM (at t = -2) and its decay
    side is stretched 1.5x relative to the rise, so P is strictly
    non-increasing wherever the rising signal exceeds 1 and every response
    outlasts its first-set counterpart with the same width parameter.
    """
    t = np.linspace(-4.0, 4.0, 201)
    u = 1.0 + np.cos(np.pi * t / 4.0)
    series = []
    for lead in np.linspace(0.1, 0.6, 20):
        peak_time = -2.0 - lead
        for width in np.linspace(0.3, 0.8, 10):
            rise = width * (2.0 - lead)
            p = _skewed_cosine(t, peak_time, rise, 1.5 * rise, 1.0)
            series.append(LabeledSeries(t.copy(), u.copy(), p))
    return series


def series_to_samples(series_list) -> np.ndarray:
    """Concatenate per-series forward-difference samples, series order kept."""
    return np.concatenate([difference_samples(s.p, s.u, s.dt) for s in series_list], axis=0)


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
    base = BASELINE

    def skewed(peak_time, rise, fall, height):
        return _skewed_cosine(t, peak_time, rise, fall, height - base, base)

    signals = [
        EvalSignal("slow-tail-0.5", t, skewed(1.4, 0.6, 1.8, 0.5), 0.5, True),
        EvalSignal("fast-tail-2.5", t, skewed(2.4, 1.2, 0.6, 2.5), 2.5, True),
        EvalSignal("symmetric-20", t, gen_cosine_signal(20.0, 3.0), 20.0, False),
        EvalSignal("slow-tail-25", t, skewed(1.2, 0.5, 1.5, 25.0), 25.0, False),
    ]
    return signals


def save_samples(path, samples: np.ndarray) -> None:
    """Write the CWDS container: count header, 4 doubles per sample, CRC32."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 4:
        raise ValueError(f"samples must be (N, 4), got {samples.shape}")
    body = struct.pack("<Q", samples.shape[0]) + np.ascontiguousarray(samples, dtype="<f8").tobytes()
    container.write(path, SAMPLES_MAGIC, SAMPLES_VERSION, body)


def load_samples(path) -> np.ndarray:
    body = container.read(path, SAMPLES_MAGIC, SAMPLES_VERSION, 8, "sample")
    count = struct.unpack("<Q", body[:8])[0]
    if len(body) != 8 + 32 * count:
        raise CorruptFileError(f"{path}: {len(body) + 12} bytes, expected {20 + 32 * count}")
    return np.frombuffer(body, dtype="<f8", offset=8).reshape(count, 4).astype(float)


def write_samples_csv(path, samples: np.ndarray) -> None:
    samples = np.asarray(samples, dtype=float)
    with open(path, "w") as fh:
        fh.write(",".join(("p_prev", "u_prev", "dudt", "dpdt")) + "\n")
        for row in samples:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
