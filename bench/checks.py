"""Output checks for the benchmark workloads.

Every checker raises CheckFailure with a message naming what was wrong.  Each
one compares the program's output with a computation or a property that does
not go through the code under check:

* the Markov wave against the BDF method-of-lines reference in
  wave_reference.json (see bdf_reference.py) and the field invariants;
* corpus labels against the scalar ryr_markov.integrate_series;
* training by its loss history and by the c08 surrogate properties;
* the convergence table against errors recomputed here with dense LU solves
  and the closed-form manufactured solutions.
"""

from __future__ import annotations

import filecmp
import json
import math

import numpy as np
import scipy.linalg

# Allowed relative deficit of the IMEX peak below the BDF peak.  The IMEX
# scheme is first order in dt (README: deficits 10.5% at dt = 1/2500 and 2.3%
# at 1/12500, ratio 4.7 for a step ratio of 5), so at dt = 1/2500 the deficit
# is about 0.105; 0.15 leaves 40% margin on the first-order constant.  A peak
# above the reference by more than 1% is not a time-step effect.
WAVE_PEAK_DEFICIT = (-0.01, 0.15)
# Allowed shift of the peak time: the measured first-order lag at
# dt = 1/2500 is 8.4 ms (21 steps); three times that is allowed.
WAVE_PEAK_TIME_SHIFT = 0.025
LABEL_TOL = 1e-12
MIN_ORDER = 1.9
ERROR_RTOL = 1e-8
LOSS_DROP = 0.05  # final epoch's training loss at most this share of the first


class CheckFailure(Exception):
    """A workload output failed a correctness check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def read_columns(path) -> dict:
    """CSV with a header line -> {column: float array}."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    require(data.shape[1] == len(header), f"{path}: ragged rows")
    return {name: data[:, i] for i, name in enumerate(header)}


def same_files(first_dir, later_dir, names) -> None:
    """Every repeat in one invocation must write byte-identical data files."""
    for name in names:
        require(
            filecmp.cmp(f"{first_dir}/{name}", f"{later_dir}/{name}", shallow=False),
            f"{name} differs between repeats",
        )


# --- wave runs --------------------------------------------------------------


def wave_invariants(series: dict, final_state, buffer_total: float) -> None:
    """u, u_e >= 0, b within [0, total], P within [0, 1], all values finite."""
    for name in ("t", "u_R", "u_L", "ue_L", "P"):
        require(bool(np.all(np.isfinite(series[name]))), f"{name} not finite")
    for name in ("u_R", "u_L", "ue_L"):
        require(float(series[name].min()) >= 0.0, f"{name} negative: {series[name].min()}")
    p = series["P"]
    require(float(p.min()) >= 0.0 and float(p.max()) <= 1.0, f"P left [0, 1]: [{p.min()}, {p.max()}]")
    if final_state is not None:
        for name in ("u", "b", "ue"):
            field = getattr(final_state, name)
            require(bool(np.all(np.isfinite(field))), f"final {name} not finite")
            require(float(field.min()) >= 0.0, f"final {name} negative: {field.min()}")
        require(float(final_state.b.max()) <= buffer_total, f"final b above {buffer_total}")


def wave_peak(series: dict):
    i = int(np.argmax(series["u_L"]))
    return float(series["u_L"][i]), float(series["t"][i])


def wave_matches_reference(series: dict, reference: dict) -> None:
    peak, when = wave_peak(series)
    ref_peak, ref_time = reference["peak_u_l"], reference["peak_time"]
    deficit = (ref_peak - peak) / ref_peak
    lo, hi = WAVE_PEAK_DEFICIT
    require(
        lo <= deficit <= hi,
        f"peak u(L) {peak:.6f} is {100 * deficit:.2f}% below the BDF {ref_peak:.6f} "
        f"(allowed {100 * lo:.0f}% to {100 * hi:.0f}%)",
    )
    require(
        abs(when - ref_time) <= WAVE_PEAK_TIME_SHIFT,
        f"peak at t = {when:.4f}, BDF reference at {ref_time:.4f} "
        f"(allowed shift {WAVE_PEAK_TIME_SHIFT})",
    )


def load_reference(path) -> dict:
    with open(path) as fh:
        ref = json.load(fh)
    require(math.isfinite(ref["peak_u_l"]) and ref["peak_u_l"] > 0, f"{path}: bad reference")
    return ref


def surrogate_wave(series: dict, final_state, u_init: float, buffer_total: float) -> None:
    wave_invariants(series, final_state, buffer_total)
    peak, _ = wave_peak(series)
    require(peak > 2.0 * u_init, f"surrogate wave never fires: peak u(L) {peak} <= {2 * u_init}")


# --- corpus and training ----------------------------------------------------


def corpus_series(samples: np.ndarray, steps: int, dt: float):
    """Undo the forward differences: per-signal u and P series, shape (K, steps + 1)."""
    require(samples.ndim == 2 and samples.shape[1] == 4, f"corpus shape {samples.shape}")
    require(samples.shape[0] % steps == 0, f"{samples.shape[0]} rows is not whole signals")
    rows = samples.reshape(-1, steps, 4)
    u = np.concatenate([rows[:, :, 1], rows[:, -1:, 1] + dt * rows[:, -1:, 2]], axis=1)
    p = np.concatenate([rows[:, :, 0], rows[:, -1:, 0] + dt * rows[:, -1:, 3]], axis=1)
    return u, p


def corpus_labels(samples: np.ndarray, steps: int, dt: float, picks, integrate_series) -> None:
    """Labels in [0, 1]; picked signals match the scalar Markov integrator."""
    u, p = corpus_series(samples, steps, dt)
    require(bool(np.all(np.isfinite(samples))), "corpus has non-finite entries")
    require(float(p.min()) >= 0.0 and float(p.max()) <= 1.0, f"labels left [0, 1]: [{p.min()}, {p.max()}]")
    # interior differences must agree with the next row's values
    rows = samples.reshape(-1, steps, 4)
    require(
        np.allclose(rows[:, :-1, 0] + dt * rows[:, :-1, 3], rows[:, 1:, 0], rtol=0, atol=LABEL_TOL),
        "dP/dt column disagrees with successive P labels",
    )
    for k in picks:
        ref = integrate_series(u[k], dt)
        err = float(np.max(np.abs(ref - p[k])))
        require(err <= LABEL_TOL, f"signal {k}: labels differ from integrate_series by {err:.3e}")


def training_history(path) -> None:
    hist = read_columns(path)
    train, val = hist["train_loss"], hist["val_loss"]
    require(bool(np.all(np.isfinite(train))), "training loss not finite")
    require(bool(np.all(np.isfinite(val))), "validation loss not finite")
    require(
        train[-1] <= LOSS_DROP * train[0],
        f"training loss fell only from {train[0]:.4g} to {train[-1]:.4g}",
    )


def surrogate_properties(params, eval_signals, rollout, dt: float, baseline: float) -> None:
    """The c08 properties: P in [0, 1], quiet before onset, rise follows u."""
    problems = []
    for sig in eval_signals:
        p = rollout(params, sig.u, dt, p0=0.0)
        if p.min() < 0.0 or p.max() > 1.0:
            problems.append(f"{sig.name}: P leaves [0,1]")
        swing = sig.amplitude - baseline
        u_on = int(np.argmax(sig.u > baseline + 0.01 * swing))
        if u_on > 0 and p[:u_on].max() >= 0.05:
            problems.append(f"{sig.name}: P={p[:u_on].max():.3f} before the signal moves")
        if sig.in_training_range:
            if p.max() < 0.05:
                problems.append(f"{sig.name}: no response")
            elif int(np.argmax(p >= 0.05)) <= u_on:
                problems.append(f"{sig.name}: P rises before u")
    require(not problems, "; ".join(problems))


# --- convergence study ------------------------------------------------------


def _exact(r, length):
    return np.cos(np.pi * r / length)


def _source(r, diffusivity, length):
    """-D (v'' + v'/r) for v = cos(pi r / L); the r -> 0 limit is 2 D k^2."""
    k = np.pi / length
    radial = np.divide(np.sin(k * r), r, out=np.full(r.shape, k), where=r > 0)
    return diffusivity * k * (k * np.cos(k * r) + radial)


def recompute_errors(fem_core, num_elements, diffusivity, length, horizon):
    """(steady, transient) L2 errors by dense LU on the same P1 system."""
    mesh = fem_core.build_mesh(0.0, length, num_elements)
    r = mesh.nodes
    mass = fem_core.assemble_mass(mesh).to_dense()
    op = diffusivity * (
        fem_core.assemble_stiffness(mesh).to_dense() - fem_core.assemble_convection(mesh).to_dense()
    )
    exact = _exact(r, length)

    def l2(e):
        return math.sqrt(e @ mass @ e)

    a = op.copy()
    rhs = mass @ _source(r, diffusivity, length)
    a[-1, :] = 0.0
    a[-1, -1] = 1.0
    rhs[-1] = exact[-1]
    steady = l2(np.linalg.solve(a, rhs) - exact)

    steps = num_elements * num_elements
    dt = horizon / steps
    factor = scipy.linalg.lu_factor(mass / dt + op)
    source_m = mass @ (_source(r, diffusivity, length) - exact)
    w = exact.copy()
    for n in range(1, steps + 1):
        w = scipy.linalg.lu_solve(factor, mass @ (w / dt) + math.exp(-n * dt) * source_m)
    transient = l2(w - math.exp(-horizon) * exact)
    return steady, transient


def convergence_table(table: dict, meshes, recomputed=None) -> None:
    """Every row present, errors as recomputed, observed orders >= MIN_ORDER.

    table maps (case, num_elements) -> (l2_error, order); recomputed maps
    (case, num_elements) -> an independently computed error.
    """
    for case in ("steady", "transient"):
        prev = None
        for n in meshes:
            require((case, n) in table, f"missing row {case} n={n}")
            err, order = table[(case, n)]
            require(math.isfinite(err) and err > 0.0, f"{case} n={n}: error {err}")
            if recomputed is not None:
                ref = recomputed[(case, n)]
                require(
                    abs(err - ref) <= ERROR_RTOL * ref,
                    f"{case} n={n}: error {err:.10e}, recomputed {ref:.10e}",
                )
            if prev is not None:
                observed = math.log2(prev / err)
                require(abs(observed - order) <= 1e-9, f"{case} n={n}: order {order} != {observed}")
                require(observed >= MIN_ORDER, f"{case} n={n}: observed order {observed:.3f} < {MIN_ORDER}")
            prev = err


def read_convergence_csv(path) -> dict:
    table = {}
    with open(path) as fh:
        require(fh.readline().strip() == "case,num_elements,h,l2_error,order", f"{path}: header")
        for line in fh:
            case, n, _h, err, order = line.strip().split(",")
            table[(case, int(n))] = (float(err), float(order) if order else math.nan)
    return table
