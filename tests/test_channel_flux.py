"""Membrane flux laws: frozen reference values, equilibria, and guards.

The default parameter set is tuned so that the resting state (u = 0.05,
b = 37, u_e = 250) is a fixed point of every flux: the buffer reaction
cancels exactly and the outer and store membranes carry negligible net flux
once the gate sits at its resting open probability.  Each membrane law is
one unchecked function that the solver linearizes with: its flux must equal
the checked flux function's bit for bit, and each slope a central difference
of the flux.  The pump terms are read off the plasma law with the other
terms' coefficients zeroed.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cawave import channel_flux as cf
from cawave.ryr_markov import open_probability, steady_state

REST_U = 0.05
REST_B = 37.0
REST_UE = 250.0


def test_buffer_reaction_vanishes_at_rest():
    assert abs(cf.buffer_reaction(REST_U, REST_B)) <= 1e-12


def test_buffer_reaction_signs():
    # excess free buffer unbinds; excess calcium binds
    assert cf.buffer_reaction(REST_U, 39.0) < 0.0 < cf.buffer_reaction(REST_U, 10.0)
    assert cf.buffer_reaction(1.0, REST_B) < 0.0


def pmca(u):
    """The outward PMCA rate: the plasma law with NCX and the leak zeroed."""
    return -cf.plasma_exchange(u, cf.PlasmaParams(ncx_scale=0.0, leak=0.0))[0]


def ncx(u):
    """The outward NCX rate: the plasma law with PMCA and the leak zeroed."""
    return -cf.plasma_exchange(u, cf.PlasmaParams(pmca_scale=0.0, leak=0.0))[0]


def test_pump_reference_values():
    assert pmca(REST_U) == pytest.approx(3.48360655737705, abs=1e-12)
    assert ncx(REST_U) == pytest.approx(1.0162162162162163, abs=1e-12)
    assert pmca(0.0) == 0.0
    assert ncx(0.0) == 0.0


def test_pumps_saturate():
    p = cf.PlasmaParams()
    assert pmca(1e6) == pytest.approx(p.pmca_scale, rel=1e-9)
    assert ncx(1e9) == pytest.approx(p.ncx_scale, rel=1e-6)
    # monotone in u
    grid = [0.01, 0.05, 0.5, 2.0, 20.0]
    assert all(pmca(a) < pmca(b) for a, b in zip(grid, grid[1:]))
    assert all(ncx(a) < ncx(b) for a, b in zip(grid, grid[1:]))


def test_plasma_flux_rest_balance():
    # leak in balances the pumps to well under a thousandth at rest
    assert abs(cf.plasma_flux(REST_U)) <= 1e-3
    assert cf.plasma_flux(REST_U) == pytest.approx(-4.777359326668673e-05, abs=1e-15)
    # far from rest the leak dominates inward, the pumps outward
    assert cf.plasma_flux(0.0) > 0.0
    assert cf.plasma_flux(500.0) < 0.0


def test_er_flux_rest_balance():
    # with the gate at its resting fixed point the store is in equilibrium
    p_rest = open_probability(steady_state(REST_U))
    assert abs(cf.er_flux(REST_U, REST_UE, p_rest)) <= 1e-6


def test_er_flux_open_gate_drains_store():
    shut = cf.er_flux(REST_U, REST_UE, 0.0)
    open_ = cf.er_flux(REST_U, REST_UE, 1.0)
    # positive flux fills the store, so opening the gate must lower it
    assert open_ < shut
    assert open_ < 0.0  # full release overwhelms the pump


def test_er_flux_components():
    params = cf.ErParams()
    u, ue = 0.3, 200.0
    expected = (
        params.ryr_scale * 0.25 * (u - ue)
        + params.serca_scale * u / ((params.serca_k + u) * ue)
        - params.leak * (ue - u)
    )
    assert cf.er_flux(u, ue, 0.25) == pytest.approx(expected, rel=1e-14)


def test_flux_input_validation():
    with pytest.raises(ValueError):
        cf.plasma_flux(-0.1)
    with pytest.raises(ValueError):
        cf.plasma_flux(math.nan)
    with pytest.raises(ValueError):
        cf.plasma_flux(-1e-6)
    with pytest.raises(ValueError):
        cf.er_flux(REST_U, 0.0, 0.5)  # dead store
    with pytest.raises(ValueError):
        cf.er_flux(REST_U, REST_UE, 1.5)  # probability out of range
    with pytest.raises(ValueError):
        cf.er_flux(REST_U, REST_UE, -0.01)
    with pytest.raises(ValueError):
        cf.buffer_reaction(REST_U, 41.0)  # more free buffer than exists
    with pytest.raises(ValueError):
        cf.buffer_reaction(REST_U, -1.0)


def test_param_validation():
    with pytest.raises(ValueError):
        cf.PlasmaParams(pmca_k=0.0)
    with pytest.raises(ValueError):
        cf.PlasmaParams(leak=-1.0)
    with pytest.raises(ValueError):
        cf.ErParams(serca_k=-0.1)
    with pytest.raises(ValueError):
        cf.ErParams(ryr_scale=-0.5)
    with pytest.raises(ValueError):
        cf.BufferParams(total=-1.0)


PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=200)
CYTOSOLIC = st.floats(0.0, 50.0)
STORE = st.floats(1.0, 500.0)
PROBABILITY = st.floats(0.0, 1.0)


def central_difference(f, x):
    h = 1e-6 * max(1.0, abs(x))
    return (f(x + h) - f(x - h)) / (2.0 * h)


def assert_slope(slope, f, x):
    assert slope == pytest.approx(central_difference(f, x), rel=1e-6, abs=1e-6)


@PROPERTY_SETTINGS
@given(u=CYTOSOLIC)
def test_plasma_exchange_value_and_slope(u):
    flux, slope = cf.plasma_exchange(u)
    assert flux == cf.plasma_flux(u)
    assert_slope(slope, lambda v: cf.plasma_exchange(v)[0], u)


@PROPERTY_SETTINGS
@given(u=CYTOSOLIC, u_e=STORE, p=PROBABILITY)
def test_er_exchange_value_and_slopes(u, u_e, p):
    flux, slope_u, slope_ue = cf.er_exchange(u, u_e, p)
    assert flux == cf.er_flux(u, u_e, p)
    assert_slope(slope_u, lambda v: cf.er_exchange(v, u_e, p)[0], u)
    assert_slope(slope_ue, lambda v: cf.er_exchange(u, v, p)[0], u_e)


@PROPERTY_SETTINGS
@given(u=CYTOSOLIC, u_e=STORE)
def test_er_exchange_with_the_gate_shut_and_no_leak_is_serca(u, u_e):
    params = cf.ErParams(leak=0.0)
    serca = params.serca_scale * u / ((params.serca_k + u) * u_e)
    assert cf.er_exchange(u, u_e, 0.0, params)[0] == serca


def test_solver_laws_accept_tiny_negative_iterates():
    # the solver clamps only below -1e-8; the checked functions reject these
    pumps_only, serca_only = cf.PlasmaParams(leak=0.0), cf.ErParams(leak=0.0)
    for u in (-1e-8, -1e-12):
        outward, outward_slope = (-v for v in cf.plasma_exchange(u, pumps_only))
        assert outward < 0.0 < outward_slope
        assert cf.er_exchange(u, 250.0, 0.0, serca_only)[0] < 0.0
        with pytest.raises(ValueError):
            cf.plasma_flux(u)
