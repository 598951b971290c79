"""Manufactured-solution study: rates, monotonicity, the source term, the
factored transient loop against one solve per step, and the step's shape:
one banded product and one factored solve."""

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
    # n = 1 element is a 2-node system, below the size the gttrf wrapper takes
    assert cv.transient_case_error(num_elements) == per_step_transient_error(num_elements)


@pytest.mark.parametrize("num_elements", [1, 2, 5])
def test_transient_step_is_one_product_and_one_factored_solve(num_elements, monkeypatch):
    calls = {"step product": 0, "setup product": 0, "solve": 0}
    product, solve = fem_core.banded_product, fem_core.TridiagonalFactor.solve

    def counted_product(matrix, x, alpha=1.0, beta=0.0, y=None, overwrite_y=False):
        # a step adds e^{-t} M f; the setup products are plain ones
        calls["step product" if beta else "setup product"] += 1
        return product(matrix, x, alpha, beta, y, overwrite_y)

    def counted_solve(self, rhs):
        calls["solve"] += 1
        return solve(self, rhs)

    monkeypatch.setattr(fem_core, "banded_product", counted_product)
    monkeypatch.setattr(fem_core.TridiagonalFactor, "solve", counted_solve)
    cv.transient_case_error(num_elements)
    steps = num_elements * num_elements
    # beside the steps: M f once per mesh, and M e in the L2 norm
    assert calls == {"step product": steps, "setup product": 2, "solve": steps}
