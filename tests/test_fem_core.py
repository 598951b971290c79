"""Element-matrix oracles for the radial FEM assembly.

Mass and stiffness are checked against hand-computed element blocks, every
regular entry of the radial convection matrix against adaptive quadrature,
and the two finite-part entries of the origin row against both their closed
forms and a numerical epsilon-limit of the regularized integral.  Each
assembler must give, bit for bit and padding included, the bands that the
per-element loops below sum up.  The tridiagonal solver (LAPACK gtsv,
partial pivoting) is checked against dense LU on random systems with one or
several right-hand sides, including zero and tiny leading pivots, and must
reject exactly singular systems.  A
block-diagonal system with zero seam entries must solve bit for bit as its
blocks solved one by one.  The banded product A x (BandedMatrix.matvec, BLAS
dgbmv) must match the dense one to a few ulps of |A| |x|, and a
block-diagonal product with zero seams must give each block's standalone
bits.  The product takes n >= 3 and raises ValueError below that.
The finite-part entries give the ER operator K - A one negative mode,
pinned to the origin: its eigenvalue scales like 1/h^2 and its eigenvector
lives on the first three nodes.  The cytosolic operator has none.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.linalg import eig

from cawave import fem_core
from cawave.errors import SingularMatrixError


def hat_pair(mesh, i):
    """phi_i and phi_i' as callables (derivative taken inside open elements)."""
    nodes = mesh.nodes
    h = mesh.h

    def phi(r):
        return max(0.0, 1.0 - abs(r - nodes[i]) / h)

    def dphi(r):
        if nodes[i] - h < r < nodes[i]:
            return 1.0 / h
        if nodes[i] < r < nodes[i] + h:
            return -1.0 / h
        return 0.0

    return phi, dphi


def convection_entry_quad(mesh, i, j):
    """Adaptive-quadrature value of \\int (1/r) phi_j' phi_i dr."""
    phi_i, _ = hat_pair(mesh, i)
    _, dphi_j = hat_pair(mesh, j)
    total = 0.0
    e_lo = max(0, max(i, j) - 1)
    e_hi = min(min(i, j), mesh.num_elements - 1)
    for e in range(e_lo, e_hi + 1):
        a, b = mesh.nodes[e], mesh.nodes[e + 1]
        val, err = quad(
            lambda r: phi_i(r) * dphi_j(r) / r, a, b, epsabs=1e-13, epsrel=1e-13
        )
        total += val
    return total


def stack_bands(lower, diag, upper):
    """(3, n) band storage of the three diagonals, with zero padding."""
    return np.vstack((np.insert(upper, 0, 0.0), diag, np.append(lower, 0.0)))


# The per-element assembly loops, kept as the bit-level reference.


def zero_bands(mesh):
    return np.zeros(mesh.num_nodes - 1), np.zeros(mesh.num_nodes), np.zeros(mesh.num_nodes - 1)

def loop_mass(mesh):
    lower, diag, upper = zero_bands(mesh)
    h = mesh.h
    for e in range(mesh.num_elements):
        diag[e] += h / 3.0
        diag[e + 1] += h / 3.0
        upper[e] += h / 6.0
        lower[e] += h / 6.0
    return stack_bands(lower, diag, upper)


def loop_stiffness(mesh):
    lower, diag, upper = zero_bands(mesh)
    inv_h = 1.0 / mesh.h
    for e in range(mesh.num_elements):
        diag[e] += inv_h
        diag[e + 1] += inv_h
        upper[e] -= inv_h
        lower[e] -= inv_h
    return stack_bands(lower, diag, upper)


def loop_convection(mesh):
    lower, diag, upper = zero_bands(mesh)
    nodes = mesh.nodes
    for e in range(mesh.num_elements):
        a = float(nodes[e])
        b = float(nodes[e + 1])
        h = b - a
        if e == 0 and mesh.touches_origin:  # finite part of the left-hat integral
            j_left = math.log(h) - 1.0
            j_right = 1.0
        else:
            log_ba = math.log(b / a)
            j_left = (b * log_ba - h) / h
            j_right = (h - a * log_ba) / h
        inv_h = 1.0 / h
        diag[e] += -j_left * inv_h
        upper[e] += j_left * inv_h
        lower[e] += -j_right * inv_h
        diag[e + 1] += j_right * inv_h
    return stack_bands(lower, diag, upper)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    num_elements=st.integers(1, 200),
    r_start=st.just(0.0) | st.floats(1e-3, 10.0),
    length=st.floats(1e-2, 10.0),
)
def test_assemblers_match_per_element_loops(num_elements, r_start, length):
    mesh = fem_core.build_mesh(r_start, r_start + length, num_elements)
    for assemble, loop in (
        (fem_core.assemble_mass, loop_mass),
        (fem_core.assemble_stiffness, loop_stiffness),
        (fem_core.assemble_convection, loop_convection),
    ):
        assert assemble(mesh).bands.tobytes() == loop(mesh).tobytes(), assemble.__name__


def test_banded_matrix_views_and_layout():
    # LAPACK band storage: superdiagonal, diagonal, subdiagonal, column-major
    bands = np.asfortranarray([[0.0, 6.0, 7.0], [3.0, 4.0, 5.0], [1.0, 2.0, 0.0]])
    mat = fem_core.BandedMatrix(bands)
    assert mat.bands is bands
    for view in (mat.lower, mat.diag, mat.upper):
        assert np.shares_memory(view, bands)
    assert np.array_equal(mat.to_dense(), [[3.0, 6.0, 0.0], [1.0, 4.0, 7.0], [0.0, 2.0, 5.0]])
    row_major = fem_core.BandedMatrix(np.ascontiguousarray(bands))  # kept as a column-major copy
    assert row_major.bands.flags.f_contiguous and np.array_equal(row_major.bands, bands)
    for bad in ((0, 0), (2, 2)):  # a nonzero padding entry
        padded = bands.copy()
        padded[bad] = 1.0
        with pytest.raises(ValueError, match="padding"):
            fem_core.BandedMatrix(padded)
    with pytest.raises(ValueError):
        fem_core.BandedMatrix(np.zeros((2, 3)))


def test_mesh_properties():
    mesh = fem_core.build_mesh(0.0, 1.5, 40)
    assert mesh.num_nodes == 41
    assert mesh.touches_origin
    assert mesh.h == pytest.approx(0.0375, abs=0)
    assert_allclose(np.diff(mesh.nodes), mesh.h, rtol=1e-14)

    annulus = fem_core.build_mesh(1.5, math.pi, 40)
    assert not annulus.touches_origin
    assert annulus.nodes[0] == 1.5 and annulus.nodes[-1] == math.pi


def test_mesh_validation():
    with pytest.raises(ValueError):
        fem_core.build_mesh(-0.1, 1.0, 4)
    with pytest.raises(ValueError):
        fem_core.build_mesh(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        fem_core.build_mesh(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        fem_core.build_mesh(0.0, math.inf, 4)


def test_mass_matrix_blocks():
    mesh = fem_core.build_mesh(0.0, 3.0, 3)  # h = 1
    mass = fem_core.assemble_mass(mesh).to_dense()
    expected = np.array(
        [
            [1 / 3, 1 / 6, 0, 0],
            [1 / 6, 2 / 3, 1 / 6, 0],
            [0, 1 / 6, 2 / 3, 1 / 6],
            [0, 0, 1 / 6, 1 / 3],
        ]
    )
    assert_allclose(mass, expected, atol=1e-15)
    # partition of unity: row sums are the hat integrals h (h/2 at the ends)
    sums = fem_core.assemble_mass(fem_core.build_mesh(1.5, math.pi, 7)).matvec(np.ones(8))
    h = (math.pi - 1.5) / 7
    assert_allclose(sums[1:-1], h, rtol=1e-14)
    assert_allclose(sums[[0, -1]], h / 2, rtol=1e-14)


def test_stiffness_matrix_blocks():
    mesh = fem_core.build_mesh(0.0, 2.0, 4)  # h = 0.5
    stiff = fem_core.assemble_stiffness(mesh)
    dense = stiff.to_dense()
    assert_allclose(np.diag(dense), [2, 4, 4, 4, 2], atol=0)
    assert_allclose(np.diag(dense, 1), [-2, -2, -2, -2], atol=0)
    # constants are in the nullspace, so rows sum to zero exactly
    assert np.all(stiff.matvec(np.ones(5)) == 0.0)


def test_mass_integrates_linear_functions_exactly():
    # 1^T M u equals int u dr exactly for P1 functions
    mesh = fem_core.build_mesh(1.5, math.pi, 13)
    mass = fem_core.assemble_mass(mesh)
    u = 2.0 * mesh.nodes - 1.0
    exact = (math.pi - 1.5) * (math.pi + 1.5) - (math.pi - 1.5)  # int (2r - 1) dr
    assert np.ones(mesh.num_nodes) @ mass.matvec(u) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("h", [0.0375, 0.1, 0.01])
def test_singular_entries_closed_form(h):
    num = int(round(1.5 / h))
    mesh = fem_core.build_mesh(0.0, num * h, num)
    conv = fem_core.assemble_convection(mesh)
    a00, a01 = fem_core.singular_entry_values(h)
    assert abs(conv.diag[0] - (1.0 - math.log(h)) / h) <= 1e-12
    assert abs(conv.upper[0] - (math.log(h) - 1.0) / h) <= 1e-12
    assert conv.diag[0] == a00
    assert conv.upper[0] == a01


def test_singular_entry_epsilon_limit():
    # finite part = lim_{eps->0} [ int_eps^h g(r)/r dr + g(0) ln eps ],
    # g = phi_0' phi_0 on the first element; the remainder is O(eps)
    for h in (0.1, 0.0375):
        g = lambda r: (-1.0 / h) * (1.0 - r / h)
        eps = 1e-9
        val, _ = quad(lambda r: g(r) / r, eps, h, epsabs=1e-10, epsrel=1e-10, limit=200)
        limit_value = val + g(0.0) * math.log(eps)
        assert limit_value == pytest.approx((1.0 - math.log(h)) / h, abs=1e-6)


def test_singular_entry_values_rejects_bad_h():
    with pytest.raises(ValueError):
        fem_core.singular_entry_values(0.0)
    with pytest.raises(ValueError):
        fem_core.singular_entry_values(-0.5)


def test_convection_regular_entries_match_quadrature():
    # every entry away from the finite-part pair is an ordinary integral
    for mesh in (fem_core.build_mesh(0.0, 1.5, 15), fem_core.build_mesh(1.5, math.pi, 9)):
        conv = fem_core.assemble_convection(mesh)
        dense = conv.to_dense()
        skip = {(0, 0), (0, 1)} if mesh.touches_origin else set()
        for i in range(mesh.num_nodes):
            for j in (i - 1, i, i + 1):
                if j < 0 or j >= mesh.num_nodes or (i, j) in skip:
                    continue
                oracle = convection_entry_quad(mesh, i, j)
                assert abs(dense[i, j] - oracle) <= 1e-10, (i, j)


def test_convection_rows_sum_to_zero():
    # phi_j' of a partition of unity sums to zero pointwise, exactly in fp too
    for mesh in (fem_core.build_mesh(0.0, 1.5, 40), fem_core.build_mesh(1.5, math.pi, 40)):
        assert np.all(fem_core.assemble_convection(mesh).matvec(np.ones(41)) == 0.0)


def test_convection_scaling_law():
    # r -> c r maps entries to 1/c times the originals (regular rows)
    base = fem_core.assemble_convection(fem_core.build_mesh(1.0, 2.0, 8)).to_dense()
    scaled = fem_core.assemble_convection(fem_core.build_mesh(3.0, 6.0, 8)).to_dense()
    assert_allclose(scaled, base / 3.0, rtol=1e-13)


def er_operator_modes(mesh):
    """Eigenpairs of the pencil (K - A, M) that the ER block steps."""
    stiffness = fem_core.assemble_stiffness(mesh).to_dense()
    convection = fem_core.assemble_convection(mesh).to_dense()
    return eig(stiffness - convection, fem_core.assemble_mass(mesh).to_dense())


def negative_modes(lam):
    return np.flatnonzero(lam.real < -1e-9 * np.abs(lam).max())


@pytest.mark.parametrize(
    "num_elements, lam_h2",
    [(10, -7.54), (20, -10.50), (40, -13.49), (80, -16.49), (160, -19.50)],
)
def test_origin_mesh_has_one_negative_mode_at_the_origin(num_elements, lam_h2):
    # backward Euler amplifies this mode when dt < 2 / (D |lambda|)
    mesh = fem_core.build_mesh(0.0, 1.5, num_elements)
    lam, vectors = er_operator_modes(mesh)
    modes = negative_modes(lam)
    assert modes.size == 1, lam[modes]
    mode = modes[0]
    assert abs(lam[mode].real * mesh.h**2 - lam_h2) <= 0.05
    weight = np.abs(vectors[:, mode]) ** 2
    assert weight[:3].sum() >= 0.9999 * weight.sum()


@pytest.mark.parametrize("num_elements", [10, 20, 40, 80, 160])
def test_cytosol_mesh_has_no_negative_mode(num_elements):
    lam, _ = er_operator_modes(fem_core.build_mesh(1.5, math.pi, num_elements))
    assert negative_modes(lam).size == 0


def test_solve_banded_against_dense():
    rng = np.random.default_rng(7)
    for n in (2, 5, 40):
        lower = rng.uniform(-1, 1, n - 1)
        upper = rng.uniform(-1, 1, n - 1)
        diag = rng.uniform(4, 5, n)  # diagonally dominant
        mat = fem_core.BandedMatrix(stack_bands(lower, diag, upper))
        rhs = rng.uniform(-2, 2, n)
        x = fem_core.solve_tridiagonal(lower, diag, upper, rhs)
        assert_allclose(x, np.linalg.solve(mat.to_dense(), rhs), rtol=1e-12, atol=1e-14)
        if n >= 3:  # the product takes n >= 3
            assert_allclose(mat.matvec(x), rhs, rtol=1e-11, atol=1e-13)


def test_solver_pivot_fallback():
    # leading pivot is zero but the matrix is regular: partial pivoting swaps
    # the first two rows instead of dividing by zero
    mat = fem_core.BandedMatrix(np.array([[0.0, 1.0, 1.0], [0.0, 1.0, 2.0], [1.0, 1.0, 0.0]]))
    rhs = np.array([1.0, 2.0, 3.0])
    x = fem_core.solve_tridiagonal(mat.lower, mat.diag, mat.upper, rhs)
    assert_allclose(mat.to_dense() @ x, rhs, atol=1e-12)


def test_solver_rejects_singular():
    with pytest.raises(SingularMatrixError):
        fem_core.solve_tridiagonal(np.ones(1), np.ones(2), np.ones(1), np.array([1.0, 0.0]))
    with pytest.raises(SingularMatrixError):
        fem_core.solve_tridiagonal(np.zeros(1), np.zeros(2), np.zeros(1), np.zeros(2))



def test_matvec_matches_dense():
    rng = np.random.default_rng(3)
    mat = fem_core.BandedMatrix(stack_bands(rng.normal(size=5), rng.normal(size=6), rng.normal(size=5)))
    x = rng.normal(size=6)
    assert_allclose(mat.matvec(x), mat.to_dense() @ x, rtol=1e-14)
    for out in (np.full((6, 2), np.nan, order="F")[:, 0], np.full((6, 2), np.nan)[:, 0]):
        assert mat.matvec(x, out=out) is out  # a strided out is filled too
        assert out.tobytes() == mat.matvec(x).tobytes()


@pytest.mark.parametrize("n", [1, 2])
def test_product_rejects_fewer_than_three_rows(n):
    mat = fem_core.BandedMatrix(stack_bands(np.ones(n - 1), np.full(n, 4.0), np.ones(n - 1)))
    with pytest.raises(ValueError, match="n >= 3"):
        mat.matvec(np.ones(n))


# entries of either sign, bounded away from zero so that few draws are singular
ENTRIES = st.floats(-10.0, -0.01) | st.floats(0.01, 10.0)


def _bands(n):
    off = arrays(np.float64, n - 1, elements=ENTRIES, fill=st.nothing())
    full = arrays(np.float64, n, elements=ENTRIES, fill=st.nothing())
    return st.tuples(off, full, off, full)


TRIDIAGONAL_SYSTEMS = st.integers(2, 40).flatmap(_bands)  # gtsv takes n >= 2
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=200)


@PROPERTY_SETTINGS
@given(product=st.integers(3, 40).flatmap(_bands))
def test_banded_product_matches_dense(product):
    lower, diag, upper, x = product
    mat = fem_core.BandedMatrix(stack_bands(lower, diag, upper))
    dense = mat.to_dense()
    before = x.copy()
    result = mat.matvec(x)
    assert x.tobytes() == before.tobytes()
    # each side rounds a handful of times on terms bounded by this sum
    assert np.all(np.abs(result - dense @ x) <= 8 * np.finfo(float).eps * (np.abs(dense) @ np.abs(x)))
    out = np.full_like(x, np.nan)
    assert mat.matvec(x, out=out) is out
    assert out.tobytes() == result.tobytes()


def _product(mat, x):
    """mat @ x, with a matrix below 3 rows widened by decoupled unit rows
    whose entries of x are zero: the seam entries keep them apart, so they
    change no bit of the block's rows."""
    n = x.size
    if n >= 3:
        return mat.matvec(x)
    unit = np.zeros((3, 3 - n))
    unit[1] = 1.0
    padded = fem_core.BandedMatrix(np.hstack((mat.bands, unit)))
    return padded.matvec(np.concatenate((x, np.zeros(3 - n))))[:n]


@PROPERTY_SETTINGS
@given(blocks=st.lists(TRIDIAGONAL_SYSTEMS, min_size=1, max_size=3))
def test_block_diagonal_product_equals_separate_products(blocks):
    # 2-node blocks stay in the draw: a one-element run stacks three of them
    mats = [fem_core.BandedMatrix(stack_bands(*system[:3])) for system in blocks]
    xs = [system[3] for system in blocks]
    stacked = fem_core.BandedMatrix(np.hstack([mat.bands for mat in mats]))
    whole = _product(stacked, np.concatenate(xs))
    parts = [_product(mat, x) for mat, x in zip(mats, xs)]
    assert whole.tobytes() == np.concatenate(parts).tobytes()


def _with_columns(rhs, extra):
    """rhs as drawn (k = None) or as an (n, k) block with more columns."""
    return rhs if extra is None else np.column_stack([rhs] + [rhs * (j + 2.0) - j for j in range(extra)])


@PROPERTY_SETTINGS
@given(
    system=TRIDIAGONAL_SYSTEMS,
    lead=st.sampled_from([None, 0.0, 1e-300, -1e-17, 1e-12]),
    extra=st.sampled_from([None, 0, 1, 2]),  # 1-D, or k = 1..3 columns
)
def test_solve_tridiagonal_matches_dense_solve(system, lead, extra):
    lower, diag, upper, rhs = system
    if lead is not None:  # zero or tiny leading pivot
        diag = diag.copy()
        diag[0] = lead
    rhs = _with_columns(rhs, extra)
    dense = fem_core.BandedMatrix(stack_bands(lower, diag, upper)).to_dense()
    cond = np.linalg.cond(dense)
    assume(cond < 1e8)
    x = fem_core.solve_tridiagonal(lower, diag, upper, rhs)
    expected = np.linalg.solve(dense, rhs)
    assert x.shape == rhs.shape
    # both solves are backward stable: forward errors scale with cond * eps
    assert np.max(np.abs(x - expected)) <= 1e-12 * cond * np.max(np.abs(expected))


@PROPERTY_SETTINGS
@given(
    blocks=st.lists(TRIDIAGONAL_SYSTEMS, min_size=1, max_size=3),
    zero_lead=st.booleans(),
    extra=st.sampled_from([None, 0, 1, 2]),
)
def test_block_diagonal_solve_equals_separate_solves(blocks, zero_lead, extra):
    parts = [(lower, diag.copy(), upper, _with_columns(rhs, extra)) for lower, diag, upper, rhs in blocks]
    if zero_lead:  # a zero leading pivot forces a row swap inside the first block
        parts[0][1][0] = 0.0
    seam = np.zeros(1)
    lower = np.concatenate([np.concatenate((p[0], seam)) for p in parts])[:-1]
    upper = np.concatenate([np.concatenate((seam, p[2])) for p in parts])[1:]
    diag = np.concatenate([p[1] for p in parts])
    rhs = np.concatenate([p[3] for p in parts])
    try:
        separate = np.concatenate([fem_core.solve_tridiagonal(*p) for p in parts])
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            fem_core.solve_tridiagonal(lower, diag, upper, rhs)
        return
    stacked = fem_core.solve_tridiagonal(lower, diag, upper, rhs)
    assert stacked.tobytes() == separate.tobytes()


@PROPERTY_SETTINGS
@given(system=TRIDIAGONAL_SYSTEMS, k=st.integers(0, 39), zero=st.sampled_from(["row", "column"]))
def test_solve_tridiagonal_rejects_exactly_singular(system, k, zero):
    lower, diag, upper, rhs = (a.copy() for a in system)
    n = diag.size
    k %= n
    diag[k] = 0.0
    before, after = (lower, upper) if zero == "row" else (upper, lower)
    if k > 0:
        before[k - 1] = 0.0
    if k < n - 1:
        after[k] = 0.0
    with pytest.raises(SingularMatrixError):
        fem_core.solve_tridiagonal(lower, diag, upper, rhs)
