"""Coupled-cell stepper: equilibria, order, bookkeeping, and guards.

The resting state must persist without stimulation; the splitting error must
shrink linearly with dt (both in a Richardson sense on the solution and in
the drift of the conserved total); and the sealed-membrane conserved quantity
must be exact for fields where the trapezoid rule is exact.  Wave causality
is asserted on onset times: the outer membrane sees the stimulus first, the
store interface later.

One condensed step is checked against a dense reference that assembles the
three matrices in full and runs the boundary fixed point with a full solve
per pass, with roundoff undershoots in some of the inputs.  Neither step has
a maximum principle, so where step_imex rejects a field that left its band,
the reference's field must leave that band too.  A whole run must equal a
chain of in-place step_imex calls bit for bit, boundary-pass counts
included; a boundary system made exactly singular must raise
SingularMatrixError, and the CLI must report it with exit code 3; an ER
interface iterate at or below the collapse floor must raise in the step
that makes it.  A state must refuse at construction, naming the field, what
the step's range check refuses: NaN, a value below the floor or above a
ceiling.  The step's one solve must give g_e, the u_e block's
response to unit data at r = L, bit for bit as the block alone would.  The
scalar bound, the exit test of each part of the one boundary loop, must
never accept a change that exceeds the tolerance at some node.  The loop
makes at least two passes, exactly two from rest, and runs until both the u
and the u_e part accept; a loop where a part's bound never accepts must
raise SolverDivergenceError naming that part, which the CLI reports with
exit code 3.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cawave import cli, fem_core
from cawave import hybrid_solver as hs
from cawave import surrogate_net as sn
from cawave.channel_flux import ErParams, PlasmaParams, er_exchange, plasma_exchange
from cawave.config import load_config
from cawave.errors import (
    ConfigError, SingularMatrixError, SolverDivergenceError, StateInvariantError,
)


# a sealed outer membrane: no pumps, no leak and no stimulus
SEALED = dict(
    plasma=PlasmaParams(pmca_scale=0.0, ncx_scale=0.0, leak=0.0),
    stimulus=hs.StimulusSpec(amplitude=0.0),
)


def sealed_config(**overrides):
    return hs.SimConfig(**SEALED, **overrides)


def saved_network(path, seed):
    """Path (as str) of a CWNN file holding the untrained network of seed."""
    sn.save_weights(path, sn.init_network(seed=seed))
    return str(path)


def test_stimulus_profile():
    stim = hs.StimulusSpec(amplitude=1200.0)
    assert stim.value(-0.1) == 0.0
    assert stim.value(1.0) == 0.0
    assert stim.value(2.0) == 0.0
    assert stim.value(0.5) == pytest.approx(1200.0 / 16.0, rel=1e-14)  # t^2 (1-t)^2 peak
    reduced = hs.StimulusSpec(amplitude=600.0)
    assert reduced.value(0.5) == pytest.approx(37.5, rel=1e-14)


def test_config_validation():
    with pytest.raises(ConfigError):
        hs.SimConfig(dt=0.0).validate()
    with pytest.raises(ConfigError):
        hs.SimConfig(er_radius=4.0).validate()  # past the cell edge
    with pytest.raises(ConfigError):
        hs.SimConfig(channel="none").validate()
    with pytest.raises(ConfigError):
        hs.SimConfig(ue_init=0.0).validate()
    with pytest.raises(ConfigError):
        hs.SimConfig(er_elements=0).validate()


def test_initial_state():
    cfg = hs.SimConfig()
    state = hs.make_initial_state(cfg)
    assert np.all(state.u == 0.05)
    assert np.all(state.b == 37.0)
    assert np.all(state.ue == 250.0)
    assert state.t == 0.0
    assert state.u.shape == (cfg.cyto_elements + 1,)
    assert state.ue.shape == (cfg.er_elements + 1,)


def test_state_fields_are_read_only_copies():
    cfg = hs.SimConfig(cyto_elements=8, er_elements=8)
    sys_ = hs.build_system(cfg)
    u, b, ue = np.full(9, 0.05), np.full(9, 37.0), np.full(9, 250.0)
    state = hs.SimState(cfg, sys_, u, b, ue, hs.initial_channel(cfg))
    with pytest.raises(ValueError):
        state.u[0] = 1.0
    for field, source in zip((state.u, state.b, state.ue), (u, b, ue)):
        assert np.array_equal(field, source) and not np.shares_memory(field, source)
    hs.step_imex(state)
    assert np.all(u == 0.05) and np.all(b == 37.0) and np.all(ue == 250.0)


def test_state_rejects_fields_that_do_not_match_their_meshes():
    # concatenated and re-split at n_c, mis-sized fields would land in the
    # wrong block: b would hold ER values
    cfg = hs.SimConfig(cyto_elements=8, er_elements=8)
    sys_ = hs.build_system(cfg)
    rest = hs.make_initial_state(cfg, sys_)
    u, b, ue = rest.u, rest.b, rest.ue
    for fields in (
        (u[:-1], b[:-1], np.append(ue, [250.0, 250.0])),
        (u, b[:-1], np.append(ue, 250.0)),
        (u, b, ue[:-1]),
        (u, b, ue.reshape(1, -1)),
    ):
        with pytest.raises(ValueError, match="expected"):
            hs.SimState(cfg, sys_, *fields, rest.channel)


def test_channel_selection(tmp_path):
    rest_p = 1.0 - 0.994 - 5.6625e-3  # open fraction of the resting occupancies
    markov = hs.initial_channel(hs.SimConfig())
    assert abs(markov.probability - rest_p) <= 1e-9
    stepped = markov.advance(5.0, 0.01)  # a new value; the handle itself is unchanged
    assert stepped.probability > markov.probability
    assert abs(markov.probability - rest_p) <= 1e-9
    zero = hs.initial_channel(hs.SimConfig(channel="zero"))
    assert zero.probability == 0.0
    assert zero.advance(5.0, 0.01).probability == 0.0
    with pytest.raises(ConfigError):
        hs.SimConfig(channel="surrogate").validate()  # no weights given
    with pytest.raises(ConfigError):
        hs.SimConfig(channel="colgate").validate()
    weights = saved_network(tmp_path / "weights.cwnn", seed=0)
    surro = hs.initial_channel(hs.SimConfig(channel="surrogate", weights_path=weights))
    assert surro.probability == markov.probability  # both start from the resting state
    assert surro.advance(0.05, 0.01).u_prev == 0.05 and surro.u_prev is None


def test_equilibrium_persists_without_stimulus():
    cfg = hs.SimConfig(dt=0.01, t_end=2.0)
    cfg.stimulus = hs.StimulusSpec(amplitude=0.0)
    out = hs.run_simulation(cfg)
    assert np.max(np.abs(out.u_l - 0.05)) <= 1e-4
    assert np.max(np.abs(out.u_r - 0.05)) <= 1e-4
    assert np.max(np.abs(out.ue_l - 250.0)) <= 1e-2
    assert abs(out.final_state.b[0] - 37.0) <= 1e-3


def test_first_order_in_time():
    # Richardson on the interface value at a fixed horizon
    finals = {}
    for dt in (0.02, 0.01, 0.005):
        cfg = hs.SimConfig(channel="zero", dt=dt, t_end=1.5)
        finals[dt] = hs.run_simulation(cfg).final_state.u[0]
    d1 = abs(finals[0.02] - finals[0.01])
    d2 = abs(finals[0.01] - finals[0.005])
    assert d1 / d2 == pytest.approx(2.0, abs=0.4)


def test_conserved_quantity_exact_for_linear_fields():
    cfg = sealed_config(dt=1e-3, t_end=1e-3)
    sys_ = hs.build_system(cfg)
    n_c, n_e = sys_.cyto.num_nodes, sys_.er.num_nodes
    state = hs.SimState(
        cfg, sys_, np.zeros(n_c), np.zeros(n_c), np.full(n_e, 3.0), hs.initial_channel(cfg)
    )
    # int_0^L 3 r dr = 3 L^2 / 2, and the trapezoid rule is exact there
    assert hs.conserved_quantity(state) == 3.0 * 1.5**2 / 2.0


def test_sealed_membrane_conserves_total_calcium():
    cfg = sealed_config(dt=1e-3, t_end=1.0)
    sys_ = hs.build_system(cfg)
    state = hs.make_initial_state(cfg, sys_)
    q0 = hs.conserved_quantity(state)
    for _ in range(1000):
        hs.step_imex(state)
    assert abs(hs.conserved_quantity(state) - q0) / abs(q0) <= 1e-3


def test_conservation_drift_is_first_order_in_dt():
    # a perturbed start activates the buffer and store exchange; the
    # remaining drift is pure splitting error and must shrink with dt
    drifts = {}
    for dt, n_steps in ((2e-3, 500), (5e-4, 2000)):
        cfg = sealed_config(dt=dt, t_end=1.0)
        sys_ = hs.build_system(cfg)
        rest = hs.make_initial_state(cfg, sys_)
        u = rest.u.copy()
        u[:5] += 0.5
        state = hs.SimState(cfg, sys_, u, rest.b, rest.ue, rest.channel)
        q0 = hs.conserved_quantity(state)
        for _ in range(n_steps):
            hs.step_imex(state)
        drifts[dt] = abs(hs.conserved_quantity(state) - q0) / abs(q0)
    assert drifts[2e-3] <= 5e-3
    assert drifts[2e-3] / drifts[5e-4] >= 2.5  # ~4 for a first-order scheme


def test_negative_undershoot_policy():
    cfg = hs.SimConfig(dt=1e-3)
    sys_ = hs.build_system(cfg)
    rest = hs.make_initial_state(cfg, sys_)
    # roundoff-scale: clamped quietly, so the Markov step, which rejects
    # u < 0, sees zero at the interface node
    u = rest.u.copy()
    u[0] = u[3] = -1e-9
    hs.step_imex(hs.SimState(cfg, sys_, u, rest.b, rest.ue, rest.channel))

    u = rest.u.copy()
    u[3] = -1e-7  # beyond roundoff: no state holds it, so no step starts from it
    with pytest.raises(StateInvariantError, match=r"cytosolic calcium left \[-1e-08, .*-1e-07"):
        hs.SimState(cfg, sys_, u, rest.b, rest.ue, rest.channel)


@pytest.mark.parametrize(
    "field, node, value, message",
    [
        ("ue", 3, np.nan, "ER calcium became non-finite"),
        ("u", 0, np.nan, "cytosolic calcium became non-finite"),
        ("b", 2, 45.0, r"free buffer left \[-1e-08, 40.00000001\]"),
        ("u", 4, 2e9, r"cytosolic calcium left \[-1e-08, 1000000000.0\]"),
    ],
    ids=["nan-ue", "nan-u", "b-above-total", "u-above-1e9"],
)
def test_state_admits_only_what_a_step_admits(field, node, value, message):
    # the step's range check, applied to the fields a state is built from
    # (test_negative_undershoot_policy has the floor): a bad field is named
    # here, not by a misleading failure in the first step
    cfg = hs.SimConfig(cyto_elements=8, er_elements=8, dt=0.01)
    sys_ = hs.build_system(cfg)
    rest = hs.make_initial_state(cfg, sys_)
    fields = {"u": rest.u.copy(), "b": rest.b.copy(), "ue": rest.ue.copy()}
    fields[field][node] = value
    with pytest.raises(StateInvariantError, match=message):
        hs.SimState(cfg, sys_, *fields.values(), rest.channel)


def test_depleted_store_aborts():
    cfg = hs.SimConfig(dt=1e-3)
    sys_ = hs.build_system(cfg)
    rest = hs.make_initial_state(cfg, sys_)
    state = hs.SimState(cfg, sys_, rest.u, rest.b, np.zeros_like(rest.ue), rest.channel)
    with pytest.raises(StateInvariantError):
        hs.step_imex(state)


def test_wave_onset_travels_inward():
    cfg = hs.SimConfig(dt=1.0 / 500, t_end=2.0)
    out = hs.run_simulation(cfg)
    threshold = 2.0 * cfg.u_init
    assert np.any(out.u_r > threshold) and np.any(out.u_l > threshold)
    onset_r = out.times[np.argmax(out.u_r > threshold)]
    onset_l = out.times[np.argmax(out.u_l > threshold)]
    # stimulus enters at the outer membrane, so the rise is seen there first
    assert onset_r < onset_l


def test_time_grid_must_divide_horizon():
    cfg = hs.SimConfig(dt=0.036, t_end=4.0)
    with pytest.raises(ConfigError):
        hs.run_simulation(cfg)


def test_output_bookkeeping():
    cfg = hs.SimConfig(dt=0.01, t_end=1.2)
    out = hs.run_simulation(cfg)
    assert out.times.shape == (121,)  # t = 0 and every one of the 120 steps
    assert np.allclose(np.diff(out.times), cfg.dt, rtol=1e-9, atol=0.0)
    assert out.times[0] == 0.0
    assert out.times[-1] == pytest.approx(1.2, abs=1e-12)
    assert out.peak_u_l == np.max(out.u_l)
    assert out.peak_time == out.times[np.argmax(out.u_l)]
    assert out.peak_u_anywhere >= out.peak_u_l
    assert np.all(out.p >= 0.0) and np.all(out.p <= 1.0)
    assert out.u_r.shape == out.times.shape


def test_csv_round_trip_and_determinism(tmp_path):
    cfg = hs.SimConfig(dt=0.01, t_end=0.3)
    out1 = hs.run_simulation(cfg)
    out2 = hs.run_simulation(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    hs.write_simulation_csv(p1, out1)
    hs.write_simulation_csv(p2, out2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "t,u_R,u_L,ue_L,P"
    assert len(lines) == out1.times.size + 1
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(parsed[:, 1], out1.u_r)  # 17 digits round-trip doubles
    assert np.array_equal(parsed[:, 4], out1.p)


def test_surrogate_channel_runs(tmp_path):
    weights = saved_network(tmp_path / "weights.cwnn", seed=0)  # untrained: small, finite rates
    reduced = hs.StimulusSpec(hs.PRESET_AMPLITUDES["example1-reduced"])
    cfg = hs.SimConfig(
        stimulus=reduced, channel="surrogate", weights_path=weights, dt=0.0125, t_end=0.5
    )
    out = hs.run_simulation(cfg)
    assert np.all(out.p >= 0.0) and np.all(out.p <= 1.0)
    assert np.all(np.isfinite(out.u_l))


def test_wave_duration_definition():
    cfg = hs.SimConfig(dt=1.0 / 500, t_end=2.0)
    out = hs.run_simulation(cfg)
    above = out.u_l > 2.0 * cfg.u_init
    runs, best = 0, 0
    for flag in above:
        runs = runs + 1 if flag else 0
        best = max(best, runs)
    assert out.wave_duration == pytest.approx(best * cfg.dt, rel=1e-12)


class FixedChannel:
    """Gating handle that holds the open probability at a given value.

    Like the Markov step, it rejects a negative interface concentration, so
    an undershoot that reaches it unclamped fails the step.
    """

    def __init__(self, probability):
        self.probability = probability

    def advance(self, u_interface, dt):
        assert u_interface >= 0.0, f"unclamped interface value {u_interface}"
        return self


def _fixed_point(start, system):
    """Boundary iteration with one full dense solve per pass."""
    x = start
    for _ in range(hs.BOUNDARY_ITER_MAX + 1):
        new = np.linalg.solve(*system(x))
        if np.max(np.abs(new - x)) <= hs.BOUNDARY_ITER_TOL:
            return new
        x = new
    raise AssertionError("reference boundary iteration did not converge")


def reference_step(state, cfg):
    """One IMEX step on dense matrices: (ii) u, (iii) b, (iv) u_e in turn.

    The gate's and the plasma leak's linear terms sit in the matrices here;
    SERCA and the pumps come from the laws with those terms zeroed."""
    cyto = fem_core.build_mesh(cfg.er_radius, cfg.cell_radius, cfg.cyto_elements)
    er = fem_core.build_mesh(0.0, cfg.er_radius, cfg.er_elements)
    assemble = (fem_core.assemble_mass, fem_core.assemble_stiffness, fem_core.assemble_convection)
    mc, kc, ac = (f(cyto).to_dense() for f in assemble)
    me, ke, ae = (f(er).to_dense() for f in assemble)
    dt, pl, er_p, bf = cfg.dt, cfg.plasma, cfg.er, cfg.buffer
    pumps_only, serca_only = replace(pl, leak=0.0), replace(er_p, leak=0.0)
    u_old, b_old, ue_old = (np.maximum(f, 0.0) for f in (state.u, state.b, state.ue))
    u_l, ue_l = u_old[0], ue_old[-1]
    gate = er_p.ryr_scale * state.channel.advance(u_l, dt).probability + er_p.leak

    a_u = mc / dt + cfg.d_calcium * (kc - ac) + mc @ np.diag(bf.bind_rate * b_old)
    a_u[0, 0] += gate
    r_u = mc @ (state.u / dt + bf.unbind_rate * (bf.total - b_old))
    r_u[0] += gate * ue_l
    a_u[-1, -1] += pl.leak
    r_u[-1] += pl.leak * pl.c_out + cfg.stimulus.value(state.t + dt)

    def u_system(x):
        inward, inward_d = plasma_exchange(x[-1], pumps_only)
        serca, serca_d, _ = er_exchange(x[0], ue_l, 0.0, serca_only)
        a, r = a_u.copy(), r_u.copy()
        a[-1, -1] -= inward_d
        a[0, 0] += serca_d
        r[-1] += inward - inward_d * x[-1]
        r[0] += -serca + serca_d * x[0]
        return a, r

    a_b = mc / dt + cfg.d_buffer * (kc - ac) + mc @ np.diag(
        bf.unbind_rate + bf.bind_rate * u_old)
    b_new = np.linalg.solve(a_b, mc @ (state.b / dt + bf.unbind_rate * bf.total))

    a_e = me / dt + cfg.d_calcium * (ke - ae)
    a_e[-1, -1] += gate
    r_e = me @ (state.ue / dt)
    r_e[-1] += gate * u_l

    def ue_system(x):
        serca, _, serca_d = er_exchange(u_l, x[-1], 0.0, serca_only)
        a, r = a_e.copy(), r_e.copy()
        a[-1, -1] -= serca_d
        r[-1] += serca - serca_d * x[-1]
        return a, r

    return _fixed_point(state.u, u_system), b_new, _fixed_point(state.ue, ue_system)


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(cyto_elements=st.integers(1, 160), er_elements=st.integers(1, 160))
@example(cyto_elements=1, er_elements=1)
@example(cyto_elements=160, er_elements=160)
def test_one_solve_gives_the_er_response(cyto_elements, er_elements):
    # column 1 of the step's block-diagonal solve, on the u_e rows, is g_e as
    # the static u_e block alone gives it, bit for bit; the b rows of the
    # unit columns stay zero
    cfg = hs.SimConfig(channel="zero", cyto_elements=cyto_elements, er_elements=er_elements)
    state = hs.make_initial_state(cfg)
    solves = []

    def recording(*args):
        solves.append(fem_core.solve_tridiagonal(*args))
        return solves[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hs, "solve_tridiagonal", recording)
        hs.step_imex(state)
    (x,) = solves
    n_c = state.n_c
    assert np.array_equal(x[2 * n_c :, 1], _static_er_response(cfg))
    assert np.all(x[n_c : 2 * n_c, 1:] == 0.0)


def _perturbed(n, low, high):
    return arrays(np.float64, n, elements=st.floats(low, high), fill=st.nothing())


FIELD_NODES = {"u": 13, "b": 13, "ue": 8}  # ue's interface node (index 8) stays positive


def _left_band(name, field, cfg):
    """Whether field lies outside the band that step_imex admits for it."""
    ceiling = cfg.buffer.total + hs.UNDERSHOOT_TOL if name == "free buffer" else 1e9
    return not (field.min() >= -hs.UNDERSHOOT_TOL and field.max() <= ceiling)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    du=_perturbed(13, 0.0, 3.0),
    db=_perturbed(13, -15.0, 3.0),
    due=_perturbed(9, -100.0, 100.0),
    undershoots=st.lists(
        st.tuples(
            st.sampled_from(sorted(FIELD_NODES)),
            st.one_of(st.just(0), st.integers(0, 12)),  # 0: the L node of u and b
            st.floats(-hs.UNDERSHOOT_TOL, 0.0, exclude_max=True),
        ),
        max_size=4,
    ),
    p_open=st.floats(0.0, 1.0),
    dt=st.sampled_from([1e-4, 4e-4, 2e-3, 1e-2]),
    t=st.floats(0.0, 1.5),
    plasma=st.booleans(),
)
@example(  # the consistent-mass step drives b below the band at both nodes
    du=np.zeros(13), db=np.zeros(13), due=np.zeros(9),
    undershoots=[("b", 0, -8.986517029647154e-09), ("b", 1, -1e-08)],
    p_open=0.0, dt=1e-4, t=0.0, plasma=True,
)
@example(
    du=np.zeros(13), db=np.zeros(13), due=np.zeros(9),
    undershoots=[("b", 0, -8.986517029647154e-09), ("b", 1, -1e-08)],
    p_open=0.0, dt=1e-4, t=0.0, plasma=False,
)
def test_step_matches_dense_reference(du, db, due, undershoots, p_open, dt, t, plasma):
    # roundoff undershoots in [-1e-8, 0) are clamped for the reaction and
    # flux terms, while the data keep the raw values
    cfg = hs.SimConfig(cyto_elements=12, er_elements=8, dt=dt, **({} if plasma else SEALED))
    sys_ = hs.build_system(cfg)
    rest = hs.make_initial_state(cfg, sys_)
    fields = {"u": rest.u + du, "b": rest.b + db, "ue": rest.ue + due}
    for name, node, value in undershoots:
        fields[name][node % FIELD_NODES[name]] = value
    state = hs.SimState(cfg, sys_, *fields.values(), FixedChannel(p_open), t)
    want = reference_step(state, cfg)
    try:
        hs.step_imex(state)
    except StateInvariantError as exc:
        # neither step has a maximum principle: a field that step_imex
        # rejects must leave its band in the dense step too
        name = next(name for name in hs.FIELD_NAMES if str(exc).startswith(name))
        assert _left_band(name, want[hs.FIELD_NAMES.index(name)], cfg), exc
        return
    for got, ref in zip((state.u, state.b, state.ue), want):
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_a_raising_step_leaves_its_state_untouched():
    # the sharp buffer front pinned above: b drops from rest to zero over the
    # first two nodes, and the step drives it below the band
    cfg = hs.SimConfig(cyto_elements=12, er_elements=8, dt=1e-4)
    sys_ = hs.build_system(cfg)
    rest = hs.make_initial_state(cfg, sys_)
    b = rest.b.copy()
    b[0], b[1] = -8.986517029647154e-09, -1e-08
    state = hs.SimState(cfg, sys_, rest.u, b, rest.ue, hs.initial_channel(cfg))
    fields = [getattr(state, name).copy() for name in ("u", "b", "ue")]
    t, u_max, channel = state.t, state.u_max, state.channel
    errors = []
    for _ in range(2):
        with pytest.raises(StateInvariantError, match="free buffer left") as exc:
            hs.step_imex(state)
        errors.append(str(exc.value))
        for name, before in zip(("u", "b", "ue"), fields):
            assert np.array_equal(getattr(state, name), before), name
        assert state.t == t and state.u_max == u_max
        assert state.channel is channel
    assert errors[0] == errors[1]


@pytest.fixture(scope="module")
def surrogate_weights(tmp_path_factory):
    return saved_network(tmp_path_factory.mktemp("surrogate") / "weights.cwnn", seed=5)


def _chain_of_steps(cfg):
    """run_simulation's series and final state, rebuilt from step_imex calls."""
    sys_ = hs.build_system(cfg)
    state = hs.make_initial_state(cfg, sys_)
    rows, u_max = [], -np.inf
    for n in range(round(cfg.t_end / cfg.dt) + 1):
        if n:
            hs.step_imex(state)
        rows.append((state.t, state.u[-1], state.u[0], state.ue[-1], state.channel.probability))
        u_max = max(u_max, state.u.max())
    return np.array(rows).T, u_max, state


# the runs the whole-run properties draw
RUN_DRAWS = dict(
    channel=st.sampled_from(["zero", "markov", "surrogate"]),
    plasma=st.booleans(),
    cyto_elements=st.integers(1, 10),
    er_elements=st.integers(1, 10),
    steps=st.integers(1, 30),
    dt=st.sampled_from([1e-3, 1e-2, 4e-2]),
)


def _run_config(weights, channel, plasma, cyto_elements, er_elements, steps, dt):
    return hs.SimConfig(
        channel=channel, cyto_elements=cyto_elements, er_elements=er_elements,
        dt=dt, t_end=steps * dt, weights_path=weights if channel == "surrogate" else None,
        **({} if plasma else SEALED),
    )


@settings(derandomize=True, deadline=None, database=None, max_examples=15)
@given(**RUN_DRAWS)
def test_run_is_a_chain_of_steps(
    surrogate_weights, channel, plasma, cyto_elements, er_elements, steps, dt
):
    # the run and a chain of step_imex calls on a state of our own must agree
    # bit for bit and count the same boundary passes, the loop making 2 to
    # BOUNDARY_ITER_MAX + 1 a step; two runs must not share a field buffer
    cfg = _run_config(surrogate_weights, channel, plasma, cyto_elements, er_elements, steps, dt)
    out, again = hs.run_simulation(cfg), hs.run_simulation(cfg)
    series, u_max, final = _chain_of_steps(cfg)
    for got, want in zip((out.times, out.u_r, out.u_l, out.ue_l, out.p), series):
        assert np.array_equal(got, want)
    assert out.peak_u_anywhere == u_max
    counts = (out.passes, out.max_passes)
    assert counts == (again.passes, again.max_passes) == (final.passes, final.max_passes)
    total, top = counts
    assert type(total) is type(top) is int
    assert 2 * steps <= total <= (hs.BOUNDARY_ITER_MAX + 1) * steps
    assert 2 <= top <= min(total, hs.BOUNDARY_ITER_MAX + 1)
    runs = (out.final_state, again.final_state)
    for name in ("u", "b", "ue"):
        assert np.array_equal(getattr(out.final_state, name), getattr(final, name))
    arrays = [getattr(state, name) for state in runs for name in ("u", "b", "ue")]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])


# Step changes for the exit bound: +-0, subnormals, tiny, huge, inf and NaN.
CHANGES = st.one_of(st.floats(), st.floats(-1e-9, 1e-9))
RESPONSES = arrays(
    np.float64, st.tuples(st.just(2), st.integers(1, 12)),
    elements=st.one_of(st.floats(), st.floats(-10.0, 10.0)),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(d_alpha=CHANGES, d_beta=CHANGES, g=RESPONSES)
@example(d_alpha=1e-10, d_beta=0.0, g=np.ones((2, 3)))
@example(d_alpha=5e-11, d_beta=-5e-11, g=np.array([[1.0, -1.0], [-1.0, 1.0]]))
@example(d_alpha=5e-324, d_beta=-0.0, g=np.array([[1e-300, np.inf], [0.0, 0.0]]))
@example(d_alpha=-0.0, d_beta=1e-20, g=np.array([[np.nan, 1.0], [1e10, -1e10]]))
def test_a_certified_exit_passes_the_exact_test(d_alpha, d_beta, g):
    # whenever the scalar bound accepts a pass's change, the full-vector
    # change, formed as step_imex forms it, is within the tolerance too; a
    # non-finite input never passes
    g_l, g_r = g
    g_l_max, g_r_max = np.maximum.reduce(np.abs(g), axis=1).tolist()
    finite = np.isfinite([d_alpha, d_beta, g_l_max, g_r_max])
    with np.errstate(all="ignore"):
        if hs.change_within_tol(d_alpha, g_l_max, d_beta, g_r_max):
            change = d_alpha * g_l + d_beta * g_r
            assert np.maximum.reduce(np.abs(change)) <= hs.BOUNDARY_ITER_TOL
        # the single-column form of the u_e part
        if hs.change_within_tol(d_alpha, g_l_max):
            assert np.maximum.reduce(np.abs(d_alpha * g_l)) <= hs.BOUNDARY_ITER_TOL
            assert finite[[0, 2]].all()
    if not finite.all():
        assert not hs.change_within_tol(d_alpha, g_l_max, d_beta, g_r_max)


# exit bounds under which a part's bound never accepts: the u part's
# four-argument calls, the u_e part's two-argument calls, or every call; keyed
# by the part or parts the divergence error names
CHANGE_WITHIN_TOL = hs.change_within_tol
REJECTIONS = {
    "u": lambda *args: len(args) == 2 and CHANGE_WITHIN_TOL(*args),
    "u_e": lambda *args: len(args) == 4 and CHANGE_WITHIN_TOL(*args),
    "u and u_e": lambda *args: False,
}
DIVERGENCE_CONFIG = dict(channel="zero", cyto_elements=8, er_elements=8)


@pytest.mark.parametrize("parts", sorted(REJECTIONS))
def test_a_boundary_loop_that_never_exits_diverges(monkeypatch, parts):
    # with a part's bound rejecting every pass, the loop makes
    # BOUNDARY_ITER_MAX + 1 passes, one plasma_exchange call each, and raises
    # naming that part, with the state untouched
    cfg = hs.SimConfig(**DIVERGENCE_CONFIG)
    state = hs.make_initial_state(cfg)
    w = state.w.copy()
    calls = []

    def counted(u, params):
        calls.append(u)
        return plasma_exchange(u, params)

    monkeypatch.setattr(hs, "plasma_exchange", counted)
    monkeypatch.setattr(hs, "change_within_tol", REJECTIONS[parts])
    with pytest.raises(SolverDivergenceError) as raised:
        hs.step_imex(state)
    assert str(raised.value) == f"boundary iteration for {parts} did not converge at t = 0.01"
    assert len(calls) == hs.BOUNDARY_ITER_MAX + 1
    assert np.array_equal(state.w, w) and state.t == 0.0
    assert state.passes == state.max_passes == 0


@pytest.mark.parametrize("parts", sorted(REJECTIONS))
def test_boundary_divergence_exits_3(monkeypatch, tmp_path, capsys, parts):
    monkeypatch.setattr(hs, "change_within_tol", REJECTIONS[parts])
    argv = ["simulate", "--channel", "zero", "--dt", "0.01", "--t-end", "0.01",
            "--elements", "8", "--out", str(tmp_path)]
    assert cli.main(argv) == 3
    assert f"boundary iteration for {parts} did not converge" in capsys.readouterr().err
    assert not (tmp_path / "simulation.csv").exists()


@pytest.mark.parametrize("u_passes, ue_passes", [(2, 5), (5, 2)])
def test_the_loop_runs_until_both_parts_accept(monkeypatch, u_passes, ue_passes):
    # each part's bound may accept only from its part's p-th pass on (the
    # u part's four-argument calls, the u_e part's two-argument ones): the
    # step makes max(p_u, p_e) passes, more than it makes unpatched, and the
    # part that could have stopped earlier moves on by no more than the
    # tolerance at any node
    cfg = hs.SimConfig(channel="markov", cyto_elements=8, er_elements=8, dt=0.05)
    want = hs.make_initial_state(cfg)
    hs.step_imex(want)
    assert want.passes < max(u_passes, ue_passes)
    calls = {2: 0, 4: 0}

    def held_back(*args):
        calls[len(args)] += 1  # the k-th call of a part is made in pass k + 1
        needed = u_passes if len(args) == 4 else ue_passes
        return calls[len(args)] + 1 >= needed and CHANGE_WITHIN_TOL(*args)

    monkeypatch.setattr(hs, "change_within_tol", held_back)
    state = hs.make_initial_state(cfg)
    hs.step_imex(state)
    assert state.passes == state.max_passes == max(u_passes, ue_passes)
    for name in ("u", "ue"):
        change = np.abs(getattr(state, name) - getattr(want, name))
        assert np.max(change) <= hs.BOUNDARY_ITER_TOL


def test_a_run_from_rest_makes_two_passes_per_loop_per_step():
    # nothing moves at rest (a sealed cell, buffer at equilibrium, an inert ER
    # membrane): the one boundary loop exits on its second pass, the first
    # that has a pass to compare with
    steps = 20
    cfg = sealed_config(
        channel="zero", cyto_elements=6, er_elements=6, dt=1e-2, t_end=steps * 1e-2,
        er=ErParams(serca_scale=0.0, leak=0.0),
    )
    out = hs.run_simulation(cfg)
    assert (out.passes, out.max_passes) == (2 * steps, 2)


def _static_er_response(cfg):
    """g_e: the static u_e block's response to unit data at r = L, solved alone."""
    sys_ = hs.build_system(cfg)
    block = fem_core.BandedMatrix(sys_.static[:, 2 * sys_.cyto.num_nodes :])
    unit_l = np.zeros(sys_.er.num_nodes)
    unit_l[-1] = 1.0
    return fem_core.solve_tridiagonal(block.lower, block.diag, block.upper, unit_l)


def _singular_er_slope(cfg):
    """An ER flux slope d/du_e that makes the ER Sherman-Morrison denominator
    1 - slope g_e(L) exactly zero.  Only a g_e(L) equal bit for bit to the
    one step_imex reads makes it zero."""
    g_el = float(_static_er_response(cfg)[-1])
    slope = 1.0 / g_el
    for _ in range(64):
        denom = 1.0 - slope * g_el
        if denom == 0.0:
            return slope
        slope = np.nextafter(slope, np.inf if denom > 0.0 else -np.inf)
    raise AssertionError("no slope makes the denominator exactly zero")


def _patch_er_slope(monkeypatch, slope):
    def er_with_slope(u, u_e, open_probability, params):
        return 0.0, 0.0, slope

    monkeypatch.setattr(hs, "er_exchange", er_with_slope)


def test_singular_boundary_system_raises(monkeypatch):
    cfg = hs.SimConfig(channel="zero", cyto_elements=8, er_elements=8)
    _patch_er_slope(monkeypatch, _singular_er_slope(cfg))
    sys_ = hs.build_system(cfg)
    with pytest.raises(SingularMatrixError):
        hs.step_imex(hs.make_initial_state(cfg, sys_))


def test_singular_boundary_system_exits_3(monkeypatch, tmp_path, capsys):
    overrides = dict(channel="zero", dt=0.01, t_end=0.01, er_elements=8, cyto_elements=8)
    _patch_er_slope(monkeypatch, _singular_er_slope(load_config(None).sim_config(**overrides)))
    argv = ["simulate", "--channel", "zero", "--dt", "0.01", "--t-end", "0.01",
            "--elements", "8", "--out", str(tmp_path)]
    assert cli.main(argv) == 3
    assert "singular ER boundary system" in capsys.readouterr().err


def test_a_collapsing_er_iterate_raises_at_once(monkeypatch):
    # The store holds 5e-11 everywhere, above the collapse floor of 1e-12.  A
    # constant ER flux, with zero slopes, pulls the L node down by 6e-11 in
    # a first pass that already converges: the iterate is at or below the
    # floor, yet inside the range check's band.  The step must raise then and
    # there, not commit it for the next step to find.
    cfg = hs.SimConfig(channel="zero", cyto_elements=8, er_elements=8)
    sys_ = hs.build_system(cfg)
    rest = hs.make_initial_state(cfg, sys_)
    level, drop = 5e-11, 6e-11
    flux = -drop / float(_static_er_response(cfg)[-1])
    monkeypatch.setattr(hs, "er_exchange", lambda u, u_e, p, params: (flux, 0.0, 0.0))
    ue = np.full_like(rest.ue, level)
    state = hs.SimState(cfg, sys_, rest.u, rest.b, ue, rest.channel)
    with pytest.raises(StateInvariantError, match="ER interface concentration collapsed"):
        hs.step_imex(state)
    assert state.t == 0.0 and np.array_equal(state.ue, ue)
