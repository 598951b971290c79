"""Manufactured-solution study: rates, monotonicity, the source term, the
powered transient propagator against one solve per step and against an
extended-precision stepped run, and its cost: one factored solve per mesh."""

import math

import numpy as np
import pytest

from cawave import convergence as cv
from cawave import fem_core


@pytest.fixture(scope="module")
def rows():
    return cv.run_convergence_study()


def test_row_structure(rows):
    assert len(rows) == 10
    cases = [r.case for r in rows]
    assert cases == ["steady"] * 5 + ["transient"] * 5
    for r in rows:
        assert r.h == pytest.approx(1.5 / r.num_elements, rel=1e-14)
    assert math.isnan(rows[0].order) and math.isnan(rows[5].order)


def test_second_order_convergence(rows):
    for r in rows:
        if not math.isnan(r.order):
            assert r.order >= 1.9, (r.case, r.num_elements, r.order)


def test_errors_decrease_monotonically(rows):
    for case in ("steady", "transient"):
        errs = [r.l2_error for r in rows if r.case == case]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[0] / errs[-1] >= 10.0  # four halvings of a 2nd-order method


def test_source_term_origin_limit():
    d = cv.DEFAULT_DIFFUSIVITY
    k = math.pi / cv.DOMAIN_LENGTH
    at_zero = cv.steady_source(np.array([0.0]))[0]
    assert at_zero == pytest.approx(2.0 * d * k * k, rel=1e-14)
    # continuous at the origin
    near = cv.steady_source(np.array([1e-7]))[0]
    assert near == pytest.approx(at_zero, rel=1e-6)


def test_exact_solution_has_natural_boundaries():
    r = np.array([0.0, cv.DOMAIN_LENGTH])
    v = cv.exact_steady(r)
    assert v[0] == 1.0 and v[-1] == -1.0
    eps = 1e-7
    slope_end = (cv.exact_steady(np.array([cv.DOMAIN_LENGTH])) -
                 cv.exact_steady(np.array([cv.DOMAIN_LENGTH - eps]))) / eps
    assert abs(slope_end[0]) <= 1e-5


def test_csv_output(tmp_path, rows):
    path = tmp_path / "c.csv"
    cv.write_convergence_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "case,num_elements,h,l2_error,order"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first[0] == "steady" and first[4] == ""  # no order on the coarsest
    assert float(lines[2].split(",")[4]) >= 1.9


def per_step_transient_error(num_elements):
    """The transient case as one gtsv solve per step, kept as the reference."""
    mesh = fem_core.build_mesh(0.0, cv.DOMAIN_LENGTH, num_elements)
    mass = fem_core.assemble_mass(mesh)
    diffusion = cv.DEFAULT_DIFFUSIVITY * (
        fem_core.assemble_stiffness(mesh).bands - fem_core.assemble_convection(mesh).bands
    )
    num_steps = num_elements * num_elements
    dt = cv.TRANSIENT_HORIZON / num_steps
    op = fem_core.BandedMatrix(mass.bands / dt + diffusion)
    profile = cv.exact_steady(mesh.nodes)
    mass_forcing = mass.matvec(cv.steady_source(mesh.nodes) - profile)
    w = profile.copy()
    for n in range(1, num_steps + 1):
        rhs = fem_core.banded_product(mass, w, 1.0 / dt, math.exp(-n * dt), mass_forcing)
        w = fem_core.solve_tridiagonal(op.lower, op.diag, op.upper, rhs)
    err = w - math.exp(-cv.TRANSIENT_HORIZON) * profile
    return float(math.sqrt(err @ mass.matvec(err)))


@pytest.mark.parametrize("num_elements", range(1, 13))
def test_factored_transient_equals_per_step_solves(num_elements):
    # powering reorders the arithmetic of the steps, so the two runs agree to
    # roundoff, not bit for bit; n = 1 element is a 2-node system, below the
    # size the gttrf wrapper takes
    assert cv.transient_case_error(num_elements) == pytest.approx(
        per_step_transient_error(num_elements), rel=1e-12, abs=0.0
    )


def longdouble_transient_error(num_elements):
    """The transient case stepped one backward-Euler step at a time in
    np.longdouble, with F's factors from a Python Thomas sweep.

    The float64 bands, profile and source define the discrete problem; every
    operation after them is extended precision.  Where np.longdouble is
    float64, this is only a float64 rerun of the stepped loop.
    """
    ld = np.longdouble
    mesh = fem_core.build_mesh(0.0, cv.DOMAIN_LENGTH, num_elements)
    mass = fem_core.assemble_mass(mesh).bands.astype(ld)
    diffusion = cv.DEFAULT_DIFFUSIVITY * (
        fem_core.assemble_stiffness(mesh).bands - fem_core.assemble_convection(mesh).bands
    )
    num_steps = num_elements * num_elements
    dt = ld(cv.TRANSIENT_HORIZON) / num_steps
    upper, diag, lower = (mass / dt + diffusion.astype(ld)).tolist()

    def mass_times(v):
        out = mass[1] * v
        out[:-1] += mass[0, 1:] * v[1:]
        out[1:] += mass[2, :-1] * v[:-1]
        return out

    n = mesh.num_nodes
    multipliers, pivots = [ld(0)] * n, [diag[0]] * n
    for i in range(1, n):
        multipliers[i] = lower[i - 1] / pivots[i - 1]
        pivots[i] = diag[i] - multipliers[i] * upper[i]
    profile = cv.exact_steady(mesh.nodes).astype(ld)
    mass_forcing = mass_times(cv.steady_source(mesh.nodes).astype(ld) - profile)
    w = profile.copy()
    for step in range(1, num_steps + 1):
        rhs = (mass_times(w) / dt + np.exp(-step * dt) * mass_forcing).tolist()
        for i in range(1, n):
            rhs[i] -= multipliers[i] * rhs[i - 1]
        rhs[-1] /= pivots[-1]
        for i in range(n - 2, -1, -1):
            rhs[i] = (rhs[i] - upper[i + 1] * rhs[i + 1]) / pivots[i]
        w = np.array(rhs, dtype=ld)
    err = w - np.exp(-ld(cv.TRANSIENT_HORIZON)) * profile
    return float(np.sqrt(err @ mass_times(err)))


def test_powered_transient_matches_an_extended_precision_stepped_run():
    assert cv.transient_case_error(40) == pytest.approx(
        longdouble_transient_error(40), rel=1e-10, abs=0.0
    )


@pytest.mark.parametrize("num_elements", [5, 12])  # 25 and 144 steps, the same cost
def test_transient_cost_is_one_factored_solve_per_mesh(num_elements, monkeypatch):
    calls = {"accumulating product": 0, "plain product": 0, "solve": 0}
    product, solve = fem_core.banded_product, fem_core.TridiagonalFactor.solve

    def counted_product(matrix, x, alpha=1.0, beta=0.0, y=None, overwrite_y=False):
        # a stepped run would add e^{-t} M f to each step's product
        calls["accumulating product" if beta else "plain product"] += 1
        return product(matrix, x, alpha, beta, y, overwrite_y)

    def counted_solve(self, rhs):
        calls["solve"] += 1
        return solve(self, rhs)

    monkeypatch.setattr(fem_core, "banded_product", counted_product)
    monkeypatch.setattr(fem_core.TridiagonalFactor, "solve", counted_solve)
    cv.transient_case_error(num_elements)
    # M f once per mesh, M e in the L2 norm, and the one solve that forms S
    assert calls == {"accumulating product": 0, "plain product": 2, "solve": 1}
