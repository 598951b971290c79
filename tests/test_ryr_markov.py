"""Gating-chain fixed points, integrator order, and simplex preservation.

The closed-form steady state must solve M(u) x = -k(u) against the dense
system_matrix, and a singular M(u) must surface as a numeric failure;
backward Euler must reach the same point from any start because the affine
system's fixed point is dt-independent.  Integrator order is measured against
a fine classical Runge-Kutta reference.  Over random rates, calcium levels,
step sizes and starting states, one backward-Euler step must stay in the
probability simplex and solve its dense linear system to roundoff, and the
closed-form kernel run on a block of states must give the scalar stepper's
bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cawave import cli
from cawave import ryr_markov as rm
from cawave.errors import SingularMatrixError, StateInvariantError


def rk4_reference(state, u, t_end, n_steps, rates=rm.MarkovRates()):
    """Classical fourth-order reference for the affine gating ODE."""
    m, k = rm.system_matrix(u, rates)
    x = state.as_array()
    dt = t_end / n_steps

    def f(y):
        return m @ y + k

    for _ in range(n_steps):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def test_closed_fixed_point_at_zero_calcium():
    state = rm.steady_state(0.0)
    assert abs(state.c1 - 1.0) <= 1e-12
    assert abs(state.o) <= 1e-12
    assert abs(state.c2) <= 1e-12
    assert rm.open_probability(state) <= 1e-12


def test_resting_fixed_point():
    state = rm.steady_state(0.05)
    assert state.c1 == pytest.approx(0.9940137573309856, abs=1e-12)
    assert state.o == pytest.approx(1.5721633841243538e-07, abs=1e-18)
    assert state.c2 == pytest.approx(0.0056625132660447506, abs=1e-14)
    # agrees with the rounded occupancies used as the solver's initial state
    assert state.c1 == pytest.approx(rm.RESTING_STATE.c1, abs=1e-2)
    assert state.o == pytest.approx(rm.RESTING_STATE.o, abs=1e-2)
    assert state.c2 == pytest.approx(rm.RESTING_STATE.c2, abs=1e-2)
    assert 3.0e-4 <= rm.open_probability(state) <= 3.5e-4


def test_activated_fixed_points():
    assert rm.open_probability(rm.steady_state(7.0)) == pytest.approx(0.987, abs=1e-3)
    assert rm.open_probability(rm.steady_state(10.0)) == pytest.approx(0.9955, abs=1e-3)


def test_open_probability_monotone_in_calcium():
    grid = np.concatenate([[0.0], np.logspace(-2, 2, 30)])
    p = [rm.open_probability(rm.steady_state(float(u))) for u in grid]
    assert all(a < b or (a == b == 0.0) for a, b in zip(p, p[1:]))


def test_backward_euler_reaches_fixed_point():
    # the BE fixed point is the steady state exactly, for any dt
    target = rm.steady_state(0.05)
    state = rm.FULLY_CLOSED_STATE
    for _ in range(4000):
        state = rm.step_backward_euler(state, 0.05, 0.5)
    assert abs(state.c1 - target.c1) <= 1e-8
    assert abs(state.o - target.o) <= 1e-8
    assert abs(state.c2 - target.c2) <= 1e-8


def test_backward_euler_first_order():
    # halving dt must roughly halve the error against an RK4 reference;
    # u is kept moderate so the explicit reference stays inside its
    # stability region (the activation rate grows like u^4)
    u, t_end = 2.0, 0.5
    ref = rk4_reference(rm.FULLY_CLOSED_STATE, u, t_end, 20000)
    errs = []
    for n in (50, 100, 200):
        state = rm.FULLY_CLOSED_STATE
        for _ in range(n):
            state = rm.step_backward_euler(state, u, t_end / n)
        errs.append(np.max(np.abs(state.as_array() - ref)))
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.2)
    assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.2)


def test_backward_euler_preserves_simplex():
    rng = np.random.default_rng(1)
    state = rm.FULLY_CLOSED_STATE
    for u in rng.uniform(0.0, 10.0, 400):
        state = rm.step_backward_euler(state, float(u), 0.05)
        total = state.c1 + state.o + state.c2
        assert -rm.SIMPLEX_TOL <= state.c1 <= 1.0 + rm.SIMPLEX_TOL
        assert -rm.SIMPLEX_TOL <= state.o <= 1.0 + rm.SIMPLEX_TOL
        assert -rm.SIMPLEX_TOL <= state.c2 <= 1.0 + rm.SIMPLEX_TOL
        assert total <= 1.0 + rm.SIMPLEX_TOL


def test_integrate_series_matches_stepper():
    u_series = np.concatenate([np.full(10, 0.05), np.linspace(0.05, 6.0, 30)])
    p = rm.integrate_series(u_series, 0.01, rm.FULLY_CLOSED_STATE)
    state = rm.FULLY_CLOSED_STATE
    manual = [rm.open_probability(state)]
    for u in u_series[1:]:
        state = rm.step_backward_euler(state, float(u), 0.01)
        manual.append(rm.open_probability(state))
    assert_allclose(p, manual, atol=1e-14)


def test_open_probability_conservation_identity():
    # P + c1 + c2 = 1 - o2 stays within [0, 1]
    state = rm.steady_state(3.0)
    p = rm.open_probability(state)
    o2 = 1.0 - state.c1 - state.o - state.c2
    assert p == pytest.approx(state.o + o2, rel=1e-12)
    assert 0.0 <= o2 <= 1.0


def test_state_validation():
    with pytest.raises(StateInvariantError):
        rm.MarkovState(1.2, 0.0, 0.0)
    with pytest.raises(StateInvariantError):
        rm.MarkovState(-0.5, 0.0, 0.0)
    with pytest.raises(StateInvariantError):
        rm.MarkovState(0.7, 0.5, 0.4)  # sums past one


def test_rate_validation():
    with pytest.raises(ValueError):
        rm.MarkovRates(ka_plus=-1.0)


def test_stepper_input_validation():
    with pytest.raises(ValueError):
        rm.step_backward_euler(rm.FULLY_CLOSED_STATE, -0.1, 0.01)
    with pytest.raises(ValueError):
        rm.step_backward_euler(rm.FULLY_CLOSED_STATE, 0.05, 0.0)
    with pytest.raises(ValueError):
        rm.steady_state(-2.0)


RATES = st.builds(
    rm.MarkovRates,
    *(st.floats(0.0, 2000.0) for _ in range(6)),
)
# four nonnegative weights normalized onto the simplex; the fourth state is implied
SIMPLEX_STATES = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
    lambda w: sum(w) > 0.0
).map(lambda w: rm.MarkovState(*(v / sum(w) for v in w[:3])))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(
    rates=RATES,
    u=st.floats(0.0, 30.0),
    dt=st.floats(1e-6, 1.0),
    state=SIMPLEX_STATES,
)
def test_backward_euler_step_properties(rates, u, dt, state):
    new = rm.step_backward_euler(state, u, dt, rates)
    x = new.as_array()
    assert np.all(x >= -1e-12)
    assert 1.0 - x.sum() >= -1e-12  # the implied fourth state
    m, k = rm.system_matrix(u, rates)
    a = np.eye(3) - dt * m
    b = state.as_array() + dt * k
    # normwise relative residual: backward stable solves leave O(eps) here
    residual = np.max(np.abs(a @ x - b))
    scale = np.max(np.abs(a)) * np.max(np.abs(x)) + np.max(np.abs(b))
    assert residual <= 1e-12 * scale


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    rates=RATES,
    dt=st.floats(1e-6, 1.0),
    block=st.lists(st.tuples(st.floats(0.0, 30.0), SIMPLEX_STATES), min_size=1, max_size=8),
)
def test_kernel_on_a_block_equals_scalar_steps_bit_for_bit(rates, dt, block):
    u = np.array([v for v, _ in block])
    c1, o, c2 = (np.array([getattr(s, name) for _, s in block]) for name in ("c1", "o", "c2"))
    got = rm.backward_euler_update(c1, o, c2, u, dt, rates)
    for k, (u_k, state) in enumerate(block):
        want = rm.step_backward_euler(state, u_k, dt, rates)
        assert (got[0][k], got[1][k], got[2][k]) == (want.c1, want.o, want.c2)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(rates=RATES, u=st.floats(0.0, 30.0))
def test_steady_state_solves_the_dense_system(rates, u):
    m, k = rm.system_matrix(u, rates)
    try:
        state = rm.steady_state(u, rates)
    except SingularMatrixError:
        assert np.linalg.matrix_rank(m) < 3
        return
    x = np.array([state.c1, state.o, state.c2])
    residual = np.max(np.abs(m @ x + k))
    assert residual <= 1e-12 * (np.max(np.abs(m)) * np.max(np.abs(x)) + np.max(np.abs(k)))


def test_singular_steady_state_is_a_numeric_failure(tmp_path):
    # kb_minus = 0 at u = 0: nothing enters or leaves o, so M(0) has a zero row
    rates = rm.MarkovRates(kb_minus=0.0)
    with pytest.raises(SingularMatrixError):
        rm.steady_state(0.0, rates)
    assert rm.steady_state(1.0, rates) == rm.MarkovState(0.0, 1.0, 0.0)  # o absorbs
    ini = tmp_path / "run.ini"
    ini.write_text("[markov]\nkb_minus = 0\n")
    assert cli.main(["steady", "--config", str(ini), "--out", str(tmp_path)]) == 3
