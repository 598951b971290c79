r"""Coupled cytosol/ER calcium dynamics on a 1D radial cross-section.

Three fields evolve: cytosolic calcium u and free buffer b on [L, R], and ER
calcium u_e on [0, L], each obeying

    w_t = D (w_rr + w_r / r) + reaction,

with Neumann data tying the domains together at r = L (flux through the ER
membrane, gated by the channel open probability P) and feeding u at r = R
(plasma-membrane fluxes plus an optional stimulus pulse).  The weak form uses
unweighted inner products; the 1/r term becomes the convection matrix of
fem_core, with Hadamard finite-part entries on the ER mesh where it touches
the origin.

Time stepping is a first-order IMEX splitting.  Per step:

  (i)   advance the gating model with the newest interface concentration
        (Markov backward-Euler step, surrogate explicit step, or P = 0);
  (ii)  solve for u implicitly, with b, u_e and P lagged: the reaction is
        linear in the new u and goes into the matrix, the membrane fluxes
        (plasma at R, ER at L) are resolved by a fixed-point iteration whose
        passes linearize them at the current end values;
  (iii) solve for b implicitly against the old u (single linear solve);
  (iv)  solve for u_e implicitly against the old u at L, same fixed-point
        treatment of the ER flux; its passes are made in (ii)'s loop.

With b, u_e and P lagged the three implicit systems are independent, so one
step makes one tridiagonal solve: the matrices (M/dt + D K - D A) plus the
reaction sit side by side in one block-diagonal fem_core.BandedMatrix, whose
zero seams let each block solve as it would alone.  Column 0 of the
right-hand side holds the IMEX data and gives y; column 1 holds unit data at
the L rows of u and u_e and gives g_L and g_e; column 2 holds it at u's R row
and gives g_R.  The boundary passes only change end entries of the u and
u_e systems, so by the Sherman-Morrison-Woodbury identity

    u   = y_u + alpha g_L + beta g_R      (2x2 system in alpha, beta)
    u_e = y_e + beta_e g_e                (scalar Sherman-Morrison update)

and a pass is plain float arithmetic on the end values.  One boundary loop
makes both updates in each pass, and exits at the first pass where
change_within_tol accepts both the scalar |d alpha| max|g_L| + |d beta|
max|g_R| of u and |d beta_e| max|g_e| of u_e, the d's taken from the pass
before and the maxima once per step.  Each scalar bounds its part's change,
d alpha g_L + d beta g_R or d beta_e g_e, at every node from above, so at
an exit no node of u or u_e moved by more than BOUNDARY_ITER_TOL = 1e-10.
A first pass has nothing to compare with, so the loop makes at least two
passes; with no exit after BOUNDARY_ITER_MAX + 1 passes it raises
SolverDivergenceError naming the part or parts still moving.  u and u_e are
formed once, after the loop.  A zero 2x2 determinant or Sherman-Morrison
denominator, which is where the full matrix would be singular, raises
SingularMatrixError.

The membranes enter only through channel_flux's two laws, plasma_exchange
and er_exchange, which give each flux with its slopes: the block matrix holds
no membrane term, and each pass puts the linearized fluxes on the end rows.

A run is one SimState that step_imex advances in place; run_simulation calls
step_imex by its module-level name once per step.  The state owns the stacked
fields w = (u, b, u_e), of which u, b and u_e are read-only views, the step's
BandedMatrix (the u_e block never changes), the Fortran (N, 3) right-hand
side, and the scale, source, data, clamp and |g| buffers with views of their
u and b blocks fixed at construction, so the reaction's scaling and data
take a few whole-block calls.  It also counts the boundary passes, in total
and as the most in one step; SimOutput and the simulate sidecar carry both.
Two reduceat calls bound all three new fields at once, before they are
copied into w: they are the range check (NaN fails it; a step that raises
leaves the state as it was, counts included) and the observer's u maximum.
Every step clamps the fields at zero for the reaction and flux terms while
the data keep the raw fields; SimState and the range check,
check_field_ranges, admit nothing below -1e-8, so the clamp only removes
roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import channel_flux, fem_core, ryr_markov, surrogate_net
from .channel_flux import BufferParams, ErParams, PlasmaParams, er_exchange, plasma_exchange
from .errors import ConfigError, SingularMatrixError, SolverDivergenceError, StateInvariantError
from .fem_core import BandedMatrix, Mesh1D, build_mesh, solve_tridiagonal
from .ryr_markov import MarkovRates, MarkovState
from .surrogate_net import SurrogateChannel

UNDERSHOOT_TOL = 1e-8
FIELD_NAMES = ("cytosolic calcium", "free buffer", "ER calcium")  # the blocks of w, in order
BOUNDARY_ITER_TOL = 1e-10
BOUNDARY_ITER_MAX = 50
PRESET_AMPLITUDES = {"example1": 1200.0, "example1-reduced": 600.0}  # stimulus per preset


@dataclass
class StimulusSpec:
    """Polynomial influx pulse at the outer membrane, active on 0 <= t <= 1."""

    amplitude: float = PRESET_AMPLITUDES["example1"]

    def value(self, t: float) -> float:
        if 0.0 <= t <= 1.0:
            return self.amplitude * t * t * (1.0 - t) ** 2
        return 0.0


@dataclass
class SimConfig:
    """Geometry, physics, discretization and channel selection for one run."""

    er_radius: float = 1.5
    cell_radius: float = math.pi
    er_elements: int = 40
    cyto_elements: int = 40
    d_calcium: float = 220.0
    d_buffer: float = 20.0
    plasma: PlasmaParams = field(default_factory=PlasmaParams)
    er: ErParams = field(default_factory=ErParams)
    buffer: BufferParams = field(default_factory=BufferParams)
    rates: MarkovRates = field(default_factory=MarkovRates)
    u_init: float = 0.05
    b_init: float = 37.0
    ue_init: float = 250.0
    stimulus: StimulusSpec = field(default_factory=StimulusSpec)
    dt: float = 0.01
    t_end: float = 4.0
    channel: str = "markov"  # markov | surrogate | zero
    initial_markov_state: MarkovState = ryr_markov.RESTING_STATE
    weights_path: str | None = None

    def validate(self) -> None:
        if not 0.0 < self.er_radius < self.cell_radius:
            raise ConfigError(f"need 0 < er_radius < cell_radius, got {self.er_radius}, {self.cell_radius}")
        if self.er_elements < 1 or self.cyto_elements < 1:
            raise ConfigError("element counts must be positive")
        if self.d_calcium <= 0 or self.d_buffer <= 0:
            raise ConfigError("diffusivities must be positive")
        if self.dt <= 0 or self.t_end <= 0:
            raise ConfigError("dt and t_end must be positive")
        if self.t_end < self.dt:
            raise ConfigError("t_end shorter than one step")
        if self.channel not in ("markov", "surrogate", "zero"):
            raise ConfigError(f"unknown channel model: {self.channel!r}")
        if self.channel == "surrogate" and self.weights_path is None:
            raise ConfigError("surrogate channel needs a weight file")
        if self.u_init < 0 or self.ue_init <= 0 or not 0 <= self.b_init <= self.buffer.total:
            raise ConfigError("initial concentrations out of range")


@dataclass(frozen=True)
class ZeroChannel:
    """Channel held shut: P identically zero.

    Gating handles are immutable values: advance(u_interface, dt) returns
    the handle one step later and leaves the receiver as it was.
    """

    probability = 0.0

    def advance(self, u_interface: float, dt: float) -> "ZeroChannel":
        return self


@dataclass(frozen=True)
class MarkovChannel:
    """Gating by the Markov master equation; advance takes one backward-Euler step."""

    rates: MarkovRates
    state: MarkovState

    @property
    def probability(self) -> float:
        return ryr_markov.open_probability(self.state)

    def advance(self, u_interface: float, dt: float) -> "MarkovChannel":
        return MarkovChannel(
            self.rates, ryr_markov.step_backward_euler(self.state, u_interface, dt, self.rates)
        )


def initial_channel(cfg: SimConfig):
    """The t = 0 gating handle; both gated models start from initial_markov_state."""
    if cfg.channel == "zero":
        return ZeroChannel()
    if cfg.channel == "markov":
        return MarkovChannel(cfg.rates, cfg.initial_markov_state)
    params = surrogate_net.load_weights(cfg.weights_path)
    return SurrogateChannel(params, ryr_markov.open_probability(cfg.initial_markov_state))


@dataclass
class _System:
    """Stacked bands of the u, b and u_e solves, fixed for a given config.

    The unknowns (u, b, u_e) sit side by side in one vector of length
    N = 2 n_c + n_e.  Band arrays are (3, N) in the layout of
    fem_core.BandedMatrix.bands, the three blocks stacked with np.hstack, so
    a reaction term M diag(s) is the column scaling band * s.
    """

    cyto: Mesh1D
    er: Mesh1D
    static: np.ndarray  # M/dt + D (K - A) per field, no membrane term
    mass: BandedMatrix  # M of all three blocks: nodal data to right-hand side


def build_system(cfg: SimConfig) -> _System:
    cfg.validate()
    cyto = build_mesh(cfg.er_radius, cfg.cell_radius, cfg.cyto_elements)
    er = build_mesh(0.0, cfg.er_radius, cfg.er_elements)
    assemble = (fem_core.assemble_mass, fem_core.assemble_stiffness, fem_core.assemble_convection)
    mass_c, stiff_c, conv_c = (f(cyto).bands for f in assemble)
    mass_e, stiff_e, conv_e = (f(er).bands for f in assemble)
    static = np.hstack(
        (
            mass_c / cfg.dt + cfg.d_calcium * (stiff_c - conv_c),
            mass_c / cfg.dt + cfg.d_buffer * (stiff_c - conv_c),
            mass_e / cfg.dt + cfg.d_calcium * (stiff_e - conv_e),
        )
    )
    return _System(cyto, er, static, BandedMatrix(np.hstack((mass_c, mass_c, mass_e))))


class SimState:
    """The state of one run: fields, time, gating handle and its P, with the
    work buffers that step_imex advances them in (see the module docstring).

    u, b and ue are read-only views of w; the state shares no memory with its
    inputs, which must match their meshes and pass check_field_ranges.
    passes is the number of boundary passes summed over the steps taken and
    max_passes the most in one step.
    """

    def __init__(self, cfg: SimConfig, system: _System, u, b, ue, channel, t: float = 0.0):
        self.cfg, self.system, self.channel, self.t = cfg, system, channel, t
        self.p_open = channel.probability
        n_c = self.n_c = system.cyto.num_nodes
        for name, values, size in zip(FIELD_NAMES, (u, b, ue), (n_c, n_c, system.er.num_nodes)):
            if np.shape(values) != (size,):
                raise ValueError(f"{name} has shape {np.shape(values)}, expected ({size},)")
        self.w = np.concatenate((u, b, ue))
        self.starts = np.array([0, n_c, 2 * n_c])
        self.ceilings = (1e9, cfg.buffer.total + UNDERSHOOT_TOL, 1e9)  # as FIELD_NAMES
        self.u_max = check_field_ranges(self.w, self.starts, self.ceilings)[0]
        self.matrix = BandedMatrix(system.static.copy(order="F"))  # the u_e block never changes
        self.rhs = np.zeros((self.w.size, 3), order="F")
        self.rhs[0, 1] = self.rhs[-1, 1] = self.rhs[n_c - 1, 2] = 1.0  # L rows of u, u_e; R of u
        self.data, self.clamped = np.empty((2, self.w.size))
        # |columns 1-2| of the solve, one after the other, and where g_L, g_e
        # and g_R start in them
        self.g_abs = np.empty(2 * self.w.size)
        self.g_abs_columns = self.g_abs.reshape(2, self.w.size).T
        self.g_starts = np.array([0, 2 * n_c, self.w.size])
        # Views of the u and b blocks, the first 2 n_c entries, for the
        # reaction.  scale, (bind b_old, unbind + bind u_old), is one multiply
        # of clamped_bu, the clamped (b, u) pair, and one add.  source is the
        # reaction's data: unbind (total - b_old) on u, refreshed every step,
        # and the constant unbind total on b.
        ub = slice(2 * n_c)
        self.scale = np.empty(2 * n_c)
        self.scale_rows, self.scale_b = self.scale.reshape(2, n_c), self.scale[n_c:]
        self.clamped_bu = self.clamped[ub].reshape(2, n_c)[::-1]
        self.clamped_b = self.clamped[n_c : 2 * n_c]
        self.source = np.full(2 * n_c, cfg.buffer.unbind_rate * cfg.buffer.total)
        self.source_u, self.data_ub = self.source[:n_c], self.data[ub]
        self.bands_ub = self.matrix.bands[:, ub]
        self.mass_ub, self.static_ub = system.mass.bands[:, ub], system.static[:, ub]
        self.passes = self.max_passes = 0
        self.u, self.b, self.ue = np.split(self.w, self.starts[1:])
        for view in (self.u, self.b, self.ue):
            view.flags.writeable = False


def check_field_ranges(w: np.ndarray, starts: np.ndarray, ceilings: tuple) -> list:
    """Each field's maximum, once every block of w (from starts) lies in
    [-UNDERSHOOT_TOL, its ceiling]: two reductions bound all six ends, NaN
    fails every comparison, and StateInvariantError names the first bad field."""
    lows = np.minimum.reduceat(w, starts).tolist()
    highs = np.maximum.reduceat(w, starts).tolist()
    floor, (u_hi, b_hi, e_hi) = -UNDERSHOOT_TOL, ceilings
    if not (lows[0] >= floor and lows[1] >= floor and lows[2] >= floor
            and highs[0] <= u_hi and highs[1] <= b_hi and highs[2] <= e_hi):
        for name, low, high, hi in zip(FIELD_NAMES, lows, highs, ceilings):
            if not (low >= floor and high <= hi):
                if not (math.isfinite(low) and math.isfinite(high)):
                    raise StateInvariantError(f"{name} became non-finite")
                raise StateInvariantError(f"{name} left [{floor}, {hi}]: range [{low}, {high}]")
    return highs


def make_initial_state(cfg: SimConfig, system: _System | None = None) -> SimState:
    cfg.validate()
    sys_ = system if system is not None else build_system(cfg)
    n_c, n_e = sys_.cyto.num_nodes, sys_.er.num_nodes
    fields = (np.full(n_c, cfg.u_init), np.full(n_c, cfg.b_init), np.full(n_e, cfg.ue_init))
    return SimState(cfg, sys_, *fields, initial_channel(cfg))


def change_within_tol(d_alpha: float, g_l: float, d_beta: float = 0.0, g_r: float = 0.0) -> bool:
    """Whether |d_alpha| g_l + |d_beta| g_r is within BOUNDARY_ITER_TOL: the
    exit test of each part of step_imex's boundary loop.

    g_l and g_r are the largest magnitudes of the unit responses g_L and
    g_R.  Float rounding is monotone and symmetric, so this float sum is at
    least every entry of the change d_alpha g_L + d_beta g_R formed in
    floats: when it accepts, no node moved by more than the tolerance.  A NaN
    or an overflow anywhere makes it reject.  The u_e part passes d_beta_e
    and max |g_e| alone.
    """
    return abs(d_alpha) * g_l + abs(d_beta) * g_r <= BOUNDARY_ITER_TOL


def step_imex(state: SimState) -> None:
    """Advance state by one IMEX step to t + dt, in place."""
    cfg, sys_, w, n_c = state.cfg, state.system, state.w, state.n_c
    dt, pl, er_p, bf = cfg.dt, cfg.plasma, cfg.er, cfg.buffer
    t_next = state.t + dt

    # clamp roundoff undershoots for the reaction and flux terms
    old = np.maximum(w, 0.0, out=state.clamped)
    u_l, ue_l = float(old[0]), float(old[-1])
    if ue_l <= channel_flux.ER_CONCENTRATION_FLOOR:
        raise StateInvariantError(f"ER interface concentration collapsed: {ue_l}")

    # (i) gating update with the newest interface concentration
    channel = state.channel.advance(u_l, dt)
    p_open = channel.probability

    # One block-diagonal solve for (ii)-(iv): the reactions M diag(bind b_old)
    # on u and M diag(unbind + bind u_old) on b are column scalings, and the
    # data w / dt gain the reaction's source.
    np.multiply(state.clamped_bu, bf.bind_rate, out=state.scale_rows)
    state.scale_b += bf.unbind_rate
    mat, ub = state.matrix, state.bands_ub
    np.multiply(state.mass_ub, state.scale, out=ub)
    ub += state.static_ub
    source_u = np.subtract(bf.total, state.clamped_b, out=state.source_u)
    source_u *= bf.unbind_rate
    data = np.divide(w, dt, out=state.data)
    state.data_ub += state.source
    y = sys_.mass.matvec(data, out=state.rhs[:, 0])
    y[n_c - 1] += cfg.stimulus.value(t_next)
    x = solve_tridiagonal(mat.lower, mat.diag, mat.upper, state.rhs)
    # the largest |g_L|, |g_e| and |g_R| for the loop's exit bounds (g_L and
    # g_R over the u and b rows, whose b entries are zero)
    np.abs(x[:, 1:], out=state.g_abs_columns)
    g_l_max, g_e_max, g_r_max = np.maximum.reduceat(state.g_abs, state.g_starts).tolist()

    # (ii) and (iv) in one loop whose passes make both updates, and which
    # exits once both parts' bounds accept.  u = y_u + alpha g_L + beta g_R:
    # J is linearized at (u_L, old u_e(L)) and F at u_R, and the 2x2 system
    # alpha = -J, beta = F is solved at the new end values.  u_e = y_e +
    # beta_e g_e against the old interface u: J is linearized at (old u_L,
    # u_e(L)) and beta_e = J solved at the new end value (Sherman-Morrison);
    # u_e(L) starts from w[-1], above the floor as ue_l is, and each iterate
    # is checked.
    y_u, g_l, g_r = x[:n_c, 0], x[:n_c, 1], x[:n_c, 2]
    y_e, g_e = x[2 * n_c :, 0], x[2 * n_c :, 1]
    y_ll, g_ll, g_rl = x[0].tolist()
    y_rr, g_lr, g_rr = x[n_c - 1].tolist()
    y_el, g_el = x[-1, :2].tolist()
    ul, ur, uel = float(w[0]), float(w[n_c - 1]), float(w[-1])
    alpha = beta = beta_e = None
    for passes in range(1, BOUNDARY_ITER_MAX + 2):
        f, f_u = plasma_exchange(ur, pl)
        j, j_u, _ = er_exchange(ul, ue_l, p_open, er_p)
        r_l = j_u * (ul - y_ll) - j
        r_r = f - f_u * (ur - y_rr)
        a11, a12 = 1.0 + j_u * g_ll, j_u * g_rl
        a21, a22 = -f_u * g_lr, 1.0 - f_u * g_rr
        det = a11 * a22 - a12 * a21
        if det == 0.0:
            raise SingularMatrixError(f"singular cytosolic boundary system at t = {t_next}")
        new_alpha = (r_l * a22 - a12 * r_r) / det
        new_beta = (a11 * r_r - a21 * r_l) / det
        j, _, j_e = er_exchange(u_l, uel, p_open, er_p)
        denom = 1.0 - j_e * g_el
        if denom == 0.0:
            raise SingularMatrixError(f"singular ER boundary system at t = {t_next}")
        new_beta_e = (j - j_e * (uel - y_el)) / denom
        new_l = y_el + new_beta_e * g_el
        if new_l <= channel_flux.ER_CONCENTRATION_FLOOR:
            raise StateInvariantError(f"ER interface concentration collapsed: {new_l}")
        u_done = passes > 1 and change_within_tol(
            new_alpha - alpha, g_l_max, new_beta - beta, g_r_max)
        ue_done = passes > 1 and change_within_tol(new_beta_e - beta_e, g_e_max)
        if u_done and ue_done:
            break
        alpha, beta, beta_e = new_alpha, new_beta, new_beta_e
        ul, ur = y_ll + alpha * g_ll + beta * g_rl, y_rr + alpha * g_lr + beta * g_rr
        uel = new_l
    else:
        parts = " and ".join(name for name, done in (("u", u_done), ("u_e", ue_done)) if not done)
        raise SolverDivergenceError(
            f"boundary iteration for {parts} did not converge at t = {t_next}")

    # (iii) free buffer: fully linear in the new b, so y_b is the answer.  u
    # and u_e are formed in x's column 0, ((y + alpha g_L) + beta g_R) and
    # y_e + beta_e g_e, and checked there before they are copied into w; the
    # terms go through g_abs, which the maxima no longer need.
    work = state.g_abs
    y_u += np.multiply(g_l, new_alpha, out=work[:n_c])
    y_u += np.multiply(g_r, new_beta, out=work[:n_c])
    y_e += np.multiply(g_e, new_beta_e, out=work[: y_e.size])
    new = x[:, 0]
    highs = check_field_ranges(new, state.starts, state.ceilings)
    w[:] = new
    state.u_max = highs[0]
    state.t, state.channel, state.p_open = t_next, channel, p_open
    state.passes += passes
    state.max_passes = max(state.max_passes, passes)


def conserved_quantity(state: SimState) -> float:
    """Q = int_L^R (u - b) r dr + int_0^L u_e r dr (nodal trapezoid).

    With the outer membrane sealed, dQ/dt = 0: the reaction cancels in u - b
    and the interface fluxes cancel by the sign convention.  A cell is sealed
    by a PlasmaParams whose pump scales and conductance are zero, and by
    stimulus=StimulusSpec(amplitude=0).
    """
    rc = state.system.cyto.nodes
    re = state.system.er.nodes
    return float(
        np.trapezoid((state.u - state.b) * rc, rc) + np.trapezoid(state.ue * re, re)
    )


@dataclass
class SimOutput:
    """Observer series at the two membranes plus summary wave metrics, and
    the run's boundary-pass counts: summed over its steps and the largest in
    one step."""

    times: np.ndarray
    u_r: np.ndarray
    u_l: np.ndarray
    ue_l: np.ndarray
    p: np.ndarray
    peak_u_l: float
    peak_time: float
    peak_u_anywhere: float
    wave_duration: float
    final_state: SimState
    passes: int
    max_passes: int


def _longest_run(mask: np.ndarray, dt: float) -> float:
    best = run = 0
    for flag in mask:
        run = run + 1 if flag else 0
        best = max(best, run)
    return best * dt


def run_simulation(cfg: SimConfig) -> SimOutput:
    """Integrate from the initial state to t_end, observing every step.

    The series hold t = 0 and every step after it, so the wave metrics read
    the same values as the CSV.  The wave duration is the longest contiguous
    stretch with u(L) > 2 * u_init (twice resting calcium).
    """
    sys_ = build_system(cfg)
    state = make_initial_state(cfg, sys_)
    n_steps = int(round(cfg.t_end / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * max(1.0, cfg.t_end):
        raise ConfigError(f"t_end = {cfg.t_end} is not a whole number of steps of {cfg.dt}")

    u, ue = state.u, state.ue
    times, u_r, u_l, ue_l, p_series, u_max = np.empty((6, n_steps + 1))
    for n in range(n_steps + 1):
        if n:
            step_imex(state)
        times[n], u_r[n], u_l[n], ue_l[n] = state.t, u[-1], u[0], ue[-1]
        p_series[n], u_max[n] = state.p_open, state.u_max

    peak = int(np.argmax(u_l))
    duration = _longest_run(u_l > 2.0 * cfg.u_init, cfg.dt)
    return SimOutput(
        times, u_r, u_l, ue_l, p_series, float(u_l[peak]), float(times[peak]),
        float(u_max.max()), duration, state, state.passes, state.max_passes,
    )


def write_simulation_csv(path, output: SimOutput) -> None:
    """Observer series as CSV with 17 significant digits per value."""
    rows = zip(output.times, output.u_r, output.u_l, output.ue_l, output.p)
    with open(path, "w") as fh:
        fh.write("t,u_R,u_L,ue_L,P\n")
        fh.writelines("%.17g,%.17g,%.17g,%.17g,%.17g\n" % row for row in rows)

