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
        linear in the new u and goes into the matrix, the Hill-type boundary
        terms (PMCA/NCX at R, SERCA at L) are resolved by a fixed-point
        iteration whose passes linearize the boundary terms at the current
        end values (tolerance 1e-10 on the change at every node, at most 50
        passes);
  (iii) solve for b implicitly against the old u (single linear solve);
  (iv)  solve for u_e implicitly against the old u at L, same fixed-point
        treatment of the SERCA term.

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

and a pass is plain float arithmetic on the end values.  The full-vector
change is formed only once both ends have settled, because the change at
the ends bounds the change anywhere from below.  A zero 2x2 determinant or
Sherman-Morrison denominator, which is where the full matrix would be
singular, raises SingularMatrixError.

The PMCA, NCX and SERCA laws and their slopes come from channel_flux
(outer_pumps, serca_pump); this module only places them in the boundary rows.

A run is one SimState that step_imex advances in place; run_simulation calls
step_imex by its module-level name once per step.  The state owns the stacked
fields w = (u, b, u_e), of which u, b and u_e are read-only views, the step's
BandedMatrix (the u_e block never changes), the Fortran (N, 3) right-hand
side, and the scale, data and clamp buffers.  Two reduceat calls bound all
three new fields at once, before they are copied into w: they are the range
check (NaN fails it; a step that raises leaves the state as it was) and the
observer's u maximum.  Every step clamps the fields at zero for the reaction
and flux terms while the data keep the raw fields; SimState and the range
check admit nothing below -1e-8, so the clamp only removes roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import channel_flux, fem_core, ryr_markov, surrogate_net
from .channel_flux import BufferParams, ErParams, PlasmaParams, outer_pumps, serca_pump
from .errors import ConfigError, SingularMatrixError, SolverDivergenceError, StateInvariantError
from .fem_core import BandedMatrix, Mesh1D, build_mesh, solve_tridiagonal
from .ryr_markov import MarkovRates, MarkovState

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


@dataclass(frozen=True)
class SurrogateChannel:
    """Gating by the trained network; du/dt is differenced against u_prev."""

    params: surrogate_net.NetworkParams
    probability: float
    u_prev: float | None = None

    def advance(self, u_interface: float, dt: float) -> "SurrogateChannel":
        dudt = 0.0 if self.u_prev is None else (u_interface - self.u_prev) / dt
        p_next = surrogate_net.predict_next_probability(
            self.params, self.probability, u_interface, dudt, dt
        )
        return SurrogateChannel(self.params, p_next, u_interface)


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
    static: np.ndarray  # M/dt + D (K - A) per field, plasma leak on u's R row
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
    static[1, cyto.num_nodes - 1] += cfg.plasma.leak
    return _System(cyto, er, static, BandedMatrix(np.hstack((mass_c, mass_c, mass_e))))


class SimState:
    """The state of one run: fields, time, gating handle and its P, with the
    work buffers that step_imex advances them in (see the module docstring).

    u, b and ue are read-only views of w; the state shares no memory with its
    inputs, which must match their meshes and undershoot by at most 1e-8.
    """

    def __init__(self, cfg: SimConfig, system: _System, u, b, ue, channel, t: float = 0.0):
        self.cfg, self.system, self.channel, self.t = cfg, system, channel, t
        self.p_open = channel.probability
        n_c = self.n_c = system.cyto.num_nodes
        for name, values, size in zip(FIELD_NAMES, (u, b, ue), (n_c, n_c, system.er.num_nodes)):
            if np.shape(values) != (size,):
                raise ValueError(f"{name} has shape {np.shape(values)}, expected ({size},)")
            if (low := float(np.min(values))) < -UNDERSHOOT_TOL:
                raise StateInvariantError(f"{name} undershot to {low}")
        self.w = np.concatenate((u, b, ue))
        self.starts = np.array([0, n_c, 2 * n_c])
        self.matrix = BandedMatrix(system.static.copy())  # the u_e block never changes
        self.rhs = np.zeros((self.w.size, 3), order="F")
        self.rhs[0, 1] = self.rhs[-1, 1] = self.rhs[n_c - 1, 2] = 1.0  # L rows of u, u_e; R of u
        self.scale = np.empty(2 * n_c)
        self.data, self.clamped = np.empty((2, self.w.size))
        self.u, self.b, self.ue = np.split(self.w, self.starts[1:])
        for view in (self.u, self.b, self.ue):
            view.flags.writeable = False
        self.u_max = float(self.w[:n_c].max())


def make_initial_state(cfg: SimConfig, system: _System | None = None) -> SimState:
    cfg.validate()
    sys_ = system if system is not None else build_system(cfg)
    n_c, n_e = sys_.cyto.num_nodes, sys_.er.num_nodes
    fields = (np.full(n_c, cfg.u_init), np.full(n_c, cfg.b_init), np.full(n_e, cfg.ue_init))
    return SimState(cfg, sys_, *fields, initial_channel(cfg))


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
    gate = er_p.ryr_scale * p_open + er_p.leak  # linear interface conductance

    # One block-diagonal solve for (ii)-(iv): the reactions M diag(bind b_old)
    # on u and M diag(unbind + bind u_old) on b are column scalings.
    scale, b_old = state.scale, old[n_c : 2 * n_c]
    np.multiply(b_old, bf.bind_rate, out=scale[:n_c])
    np.multiply(old[:n_c], bf.bind_rate, out=scale[n_c:])
    scale[n_c:] += bf.unbind_rate
    mat = state.matrix
    ub = mat.bands[:, : 2 * n_c]
    np.multiply(sys_.mass.bands[:, : 2 * n_c], scale, out=ub)
    ub += sys_.static[:, : 2 * n_c]
    data = np.divide(w, dt, out=state.data)
    data[:n_c] += bf.unbind_rate * (bf.total - b_old)
    data[n_c : 2 * n_c] += bf.unbind_rate * bf.total
    y = sys_.mass.matvec(data, out=state.rhs[:, 0])
    y[n_c - 1] += pl.leak * pl.c_out + cfg.stimulus.value(t_next)
    x = solve_tridiagonal(mat.lower, mat.diag, mat.upper, state.rhs)

    # (ii) u = y_u + alpha g_L + beta g_R: each pass linearizes SERCA at u_L
    # and PMCA/NCX at u_R and solves the 2x2 system for (alpha, beta)
    y_u, g_l, g_r = x[:n_c, 0], x[:n_c, 1], x[:n_c, 2]
    y_ll, g_ll, g_rl = x[0].tolist()
    y_rr, g_lr, g_rr = x[n_c - 1].tolist()
    ul, ur = float(w[0]), float(w[n_c - 1])
    alpha = beta = None
    for _ in range(BOUNDARY_ITER_MAX + 1):
        pumps, pumps_d = outer_pumps(ur, pl)
        serca, serca_d, _ = serca_pump(ul, ue_l, er_p)
        c_l = gate + serca_d
        r_l = gate * ue_l - serca + serca_d * ul - c_l * y_ll
        r_r = -pumps + pumps_d * ur - pumps_d * y_rr
        a11, a12 = 1.0 + c_l * g_ll, c_l * g_rl
        a21, a22 = pumps_d * g_lr, 1.0 + pumps_d * g_rr
        det = a11 * a22 - a12 * a21
        if det == 0.0:
            raise SingularMatrixError(f"singular cytosolic boundary system at t = {t_next}")
        new_alpha = (r_l * a22 - a12 * r_r) / det
        new_beta = (a11 * r_r - a21 * r_l) / det
        new_l = y_ll + new_alpha * g_ll + new_beta * g_rl
        new_r = y_rr + new_alpha * g_lr + new_beta * g_rr
        if max(abs(new_l - ul), abs(new_r - ur)) <= BOUNDARY_ITER_TOL:
            u_new = y_u + new_alpha * g_l + new_beta * g_r
            change = u_new - w[:n_c] if alpha is None else (
                (new_alpha - alpha) * g_l + (new_beta - beta) * g_r)
            if np.maximum.reduce(np.abs(change, out=change)) <= BOUNDARY_ITER_TOL:
                break
        alpha, beta, ul, ur = new_alpha, new_beta, new_l, new_r
    else:
        raise SolverDivergenceError(
            f"outer-boundary iteration did not converge at t = {t_next}")

    # (iv) u_e = y_e + beta_e g_e against the old interface u; each pass puts
    # gate - dSERCA/du_e on the L row as a Sherman-Morrison update; it starts
    # from w[-1], above the floor as ue_l is, and checks each iterate it makes
    y_e, g_e = x[2 * n_c :, 0], x[2 * n_c :, 1]
    y_el, g_el = x[-1, :2].tolist()
    uel = float(w[-1])
    beta_e = None
    for _ in range(BOUNDARY_ITER_MAX + 1):
        serca, _, serca_d = serca_pump(u_l, uel, er_p)  # serca_d = d/du_e < 0
        s = gate - serca_d
        denom = 1.0 + s * g_el
        if denom == 0.0:
            raise SingularMatrixError(f"singular ER boundary system at t = {t_next}")
        new_beta = (gate * u_l + serca - serca_d * uel - s * y_el) / denom
        new_l = y_el + new_beta * g_el
        if new_l <= channel_flux.ER_CONCENTRATION_FLOOR:
            raise StateInvariantError(f"ER interface concentration collapsed: {new_l}")
        if abs(new_l - uel) <= BOUNDARY_ITER_TOL:
            ue_new = y_e + new_beta * g_e
            change = ue_new - w[2 * n_c :] if beta_e is None else (new_beta - beta_e) * g_e
            if np.maximum.reduce(np.abs(change, out=change)) <= BOUNDARY_ITER_TOL:
                break
        beta_e, uel = new_beta, new_l
    else:
        raise SolverDivergenceError(f"ER-boundary iteration did not converge at t = {t_next}")

    # (iii) free buffer: fully linear in the new b, so y_b is the answer; the
    # new fields are checked in x's column 0 before they are copied into w
    new = x[:, 0]
    new[:n_c], new[2 * n_c :] = u_new, ue_new

    # All six field bounds from two reductions; NaN fails both comparisons.
    lows = np.minimum.reduceat(new, state.starts).tolist()
    highs = np.maximum.reduceat(new, state.starts).tolist()
    ceilings = (1e9, bf.total + UNDERSHOOT_TOL, 1e9)
    for name, low, high, hi in zip(FIELD_NAMES, lows, highs, ceilings):
        if not (low >= -UNDERSHOOT_TOL and high <= hi):
            if not (math.isfinite(low) and math.isfinite(high)):
                raise StateInvariantError(f"{name} became non-finite")
            raise StateInvariantError(
                f"{name} left [{-UNDERSHOOT_TOL}, {hi}]: range [{low}, {high}]")
    w[:] = new
    state.u_max = highs[0]
    state.t, state.channel, state.p_open = t_next, channel, p_open


def conserved_quantity(state: SimState) -> float:
    """Q = int_L^R (u - b) r dr + int_0^L u_e r dr (nodal trapezoid).

    With the outer membrane sealed, dQ/dt = 0: the reaction cancels in u - b
    and the interface fluxes cancel by the sign convention.  A cell is sealed
    by zero plasma-membrane fluxes and no stimulus:
    plasma=PlasmaParams(pmca_scale=0, ncx_scale=0, leak=0) and
    stimulus=StimulusSpec(amplitude=0).
    """
    rc = state.system.cyto.nodes
    re = state.system.er.nodes
    return float(
        np.trapezoid((state.u - state.b) * rc, rc) + np.trapezoid(state.ue * re, re)
    )


@dataclass
class SimOutput:
    """Observer series at the two membranes plus summary wave metrics."""

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
        float(u_max.max()), duration, state,
    )


def write_simulation_csv(path, output: SimOutput) -> None:
    """Observer series as CSV with 17 significant digits per value."""
    rows = zip(output.times, output.u_r, output.u_l, output.ue_l, output.p)
    with open(path, "w") as fh:
        fh.write("t,u_R,u_L,ue_L,P\n")
        fh.writelines("%.17g,%.17g,%.17g,%.17g,%.17g\n" % row for row in rows)

