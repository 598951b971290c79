r"""Piecewise-linear finite elements on uniform 1D radial meshes.

Radially symmetric diffusion in polar coordinates contributes a convection-like
term (1/r) du/dr.  Testing it against the nodal hat functions gives the matrix

    A[i, j] = \int (1/r) phi_j'(r) phi_i(r) dr,

which is perfectly regular,

    \int_a^b (1/r) phi(r) dr  =  (1/h) * (b ln(b/a) - h)        (left hat)
                               =  (1/h) * (h - a ln(b/a))        (right hat)

for every element [a, b] with a > 0, but hypersingular on the element touching
r = 0.  There the two offending entries are assigned their Hadamard
finite-part values

    A[0, 0] = (1 - ln h) / h,        A[0, 1] = (ln h - 1) / h,

obtained from lim_{eps->0} [ \int_eps^h f(r)/r dr + f(0) ln(eps) ].  All other
entries of the first element are ordinary integrals because the right-hand hat
vanishes at the origin.

Mass and stiffness matrices are the familiar unweighted P1 element matrices;
no r-weight appears in any inner product.  All matrices are tridiagonal and
kept in LAPACK band storage (BandedMatrix).  A product alpha A x + beta y is
one BLAS dgbmv call on that storage, banded_product, which
BandedMatrix.matvec calls too.  Systems are solved by Gaussian elimination
with partial pivoting, in one of two ways.  An operator that changes from
call to call takes the one-shot solve, solve_tridiagonal (LAPACK gtsv).  A
constant operator is factored once, TridiagonalFactor (gttrf), and each
right-hand side then costs one gttrs call; both give the same bits.  The
scipy wrappers of dgbmv and gttrf reject n < 3; below that both calls see
the matrix widened by decoupled unit rows (_padded).  Functions return fresh
arrays and never mutate their inputs; the one exception is banded_product,
which writes into y when asked to, and through it BandedMatrix.matvec, which
writes into the caller's out array when given one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

from .errors import SingularMatrixError


@dataclass(frozen=True)
class Mesh1D:
    """Uniform mesh on [r_start, r_end] with num_elements linear elements."""

    r_start: float
    r_end: float
    num_elements: int
    h: float
    nodes: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.num_elements + 1

    @property
    def touches_origin(self) -> bool:
        return self.r_start == 0.0


def build_mesh(r_start: float, r_end: float, num_elements: int) -> Mesh1D:
    """Build a uniform mesh; r_start may be 0 (ER domain) or positive."""
    if not (math.isfinite(r_start) and math.isfinite(r_end)):
        raise ValueError("mesh endpoints must be finite")
    if r_start < 0.0:
        raise ValueError(f"r_start must be nonnegative, got {r_start}")
    if r_end <= r_start:
        raise ValueError(f"need r_end > r_start, got [{r_start}, {r_end}]")
    if num_elements < 1:
        raise ValueError(f"need at least one element, got {num_elements}")
    nodes = np.linspace(r_start, r_end, num_elements + 1)
    h = (r_end - r_start) / num_elements
    return Mesh1D(r_start, r_end, num_elements, h, nodes)


class BandedMatrix:
    """Tridiagonal matrix in LAPACK band storage: one column-major (3, n)
    array of bands indexed by matrix column.

    Row 0, column j holds entry (j-1, j), the superdiagonal; row 1 holds the
    diagonal; row 2, column j holds entry (j+1, j), the subdiagonal.  This is
    the layout dgbmv reads in place, so a product copies no band.  The two
    padding entries, bands[0, 0] and bands[2, -1], are zero, so a column
    scaling bands * s is the product A diag(s), and matrices laid side by
    side with np.hstack form a block-diagonal one.  bands is kept as given
    when it is column-major already, else as a column-major copy; lower, diag
    and upper are views into it, made once here, in the order
    solve_tridiagonal takes them.
    """

    def __init__(self, bands: np.ndarray):
        if bands.ndim != 2 or bands.shape[0] != 3 or bands.shape[1] < 1:
            raise ValueError(f"bands must be (3, n) with n >= 1, got {bands.shape}")
        if bands[0, 0] != 0.0 or bands[2, -1] != 0.0:
            raise ValueError("band padding entries must be zero")
        self.bands = bands = np.asfortranarray(bands)
        self.lower = bands[2, :-1]  # entry k sits at (k+1, k)
        self.diag = bands[1]
        self.upper = bands[0, 1:]  # entry k sits at (k, k+1)

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A @ x by banded_product, written into out when one is given (it
        must not overlap x)."""
        return banded_product(self, x, y=out, overwrite_y=out is not None)

    def to_dense(self) -> np.ndarray:
        n = self.bands.shape[1]
        dense = np.zeros((n, n))
        dense[np.arange(n), np.arange(n)] = self.diag
        dense[np.arange(n - 1), np.arange(1, n)] = self.upper
        dense[np.arange(1, n), np.arange(n - 1)] = self.lower
        return dense


MIN_WRAPPED_SIZE = 3  # the scipy dgbmv and gttrf wrappers reject smaller matrices


def _padded(bands: np.ndarray):
    """bands widened to MIN_WRAPPED_SIZE columns by decoupled unit rows, and
    the number of rows added (0 leaves bands as it is).

    The added rows meet the matrix only at its zero padding entries, so by
    the block-seam property they leave its products and solutions bit for
    bit alone; vectors that go with the matrix take zeros on those rows.
    """
    pad = MIN_WRAPPED_SIZE - bands.shape[1]
    if pad <= 0:
        return bands, 0
    unit = np.zeros((3, pad), order="F")
    unit[1] = 1.0
    return np.hstack((bands, unit)), pad


def _zero_rows(v, pad: int) -> np.ndarray:
    return np.concatenate((v, np.zeros((pad,) + np.shape(v)[1:])))


def banded_product(matrix: BandedMatrix, x, alpha=1.0, beta=0.0, y=None, overwrite_y=False):
    """alpha A x + beta y in one BLAS dgbmv call.

    y is read only when beta is nonzero (None stands for zeros).  With
    overwrite_y the result is written into y and y is returned; otherwise y
    is left untouched and the result is a fresh array.  A block-diagonal
    matrix with zero seams multiplies bit for bit as its blocks would one by
    one: the seam entries add exact zeros.
    """
    bands = matrix.bands
    n = bands.shape[1]
    if n >= MIN_WRAPPED_SIZE:
        result = dgbmv(n, n, 1, 1, alpha, bands, x, beta=beta, y=y, overwrite_y=overwrite_y)
    else:  # the rows _padded adds take zeros
        bands, pad = _padded(bands)
        x, acc = _zero_rows(x, pad), None if y is None else _zero_rows(y, pad)
        result = dgbmv(MIN_WRAPPED_SIZE, MIN_WRAPPED_SIZE, 1, 1, alpha, bands, x, beta=beta, y=acc)[:n]
    if overwrite_y and result is not y:  # padded, or y was not contiguous
        y[...] = result
        return y
    return result


def _scatter(mesh: Mesh1D, b00, b01, b10, b11) -> BandedMatrix:
    """Sum the element blocks [[b00, b01], [b10, b11]] of every element e,
    placed at rows and columns (e, e+1); each entry is a scalar or one value
    per element."""
    bands = np.zeros((3, mesh.num_nodes), order="F")
    bands[0, 1:] += b01
    bands[1, :-1] += b00
    bands[1, 1:] += b11
    bands[2, :-1] += b10
    return BandedMatrix(bands)


def assemble_mass(mesh: Mesh1D) -> BandedMatrix:
    """Mass matrix \\int phi_i phi_j dr (element blocks h/6 * [[2,1],[1,2]])."""
    h = mesh.h
    return _scatter(mesh, h / 3.0, h / 6.0, h / 6.0, h / 3.0)


def assemble_stiffness(mesh: Mesh1D) -> BandedMatrix:
    """Stiffness matrix \\int phi_i' phi_j' dr (element blocks 1/h * [[1,-1],[-1,1]])."""
    inv_h = 1.0 / mesh.h
    return _scatter(mesh, inv_h, -inv_h, -inv_h, inv_h)


def assemble_convection(mesh: Mesh1D) -> BandedMatrix:
    """Convection matrix A[i,j] = \\int (1/r) phi_j' phi_i dr.

    On element [a, b] the block is (1/h) [[-j_left, j_left], [-j_right,
    j_right]], with j_left and j_right the integrals of the left and right
    hats over r.  On a mesh touching the origin the first element's left-hat
    integral is hypersingular and takes its Hadamard finite-part value
    ln h - 1; the right hat vanishes at the origin, so its integral is an
    ordinary one, 1.  Every row sums to zero because the hat functions
    partition unity.
    """
    a, b = mesh.nodes[:-1], mesh.nodes[1:]
    h = b - a
    # math.log, not np.log: the two differ in the last bit on some elements
    log_ba = np.array([math.log(y / x) if x else math.nan for x, y in zip(a.tolist(), b.tolist())])
    j_left = (b * log_ba - h) / h
    j_right = (h - a * log_ba) / h
    if mesh.touches_origin:
        j_left[0], j_right[0] = math.log(h[0]) - 1.0, 1.0
    inv_h = 1.0 / h
    return _scatter(mesh, -j_left * inv_h, j_left * inv_h, -j_right * inv_h, j_right * inv_h)


def singular_entry_values(h: float):
    """The two finite-part entries of the first row on an origin mesh."""
    if h <= 0.0:
        raise ValueError("element size must be positive")
    return (1.0 - math.log(h)) / h, (math.log(h) - 1.0) / h


def solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Solve a tridiagonal system given raw bands (fast path for steppers).

    rhs may be (n,) or (n, k); k right-hand sides share one factorization.
    One LAPACK gtsv call; its partial pivoting copes with zero or tiny
    leading pivots, and an exactly zero pivot means the matrix is singular.
    A block-diagonal system with zero entries at the block seams solves
    bit for bit as the separate blocks would: a zero sub-diagonal entry
    never triggers a row swap and leaves nothing to eliminate.
    """
    if len(diag) == 1:  # the gtsv wrapper wants off-diagonal bands of length >= 1
        lower = upper = np.zeros(1)
    *_, x, info = dgtsv(lower, diag, upper, rhs)
    if info != 0:
        raise SingularMatrixError(f"tridiagonal solve failed: LAPACK gtsv info = {info}")
    return x


class TridiagonalFactor:
    """LU factors of a constant tridiagonal matrix, for many right-hand sides.

    One LAPACK gttrf call at construction, with the partial pivoting of
    solve_tridiagonal; solve then costs one gttrs call and returns the same
    bits as solve_tridiagonal would.  A matrix below the wrapper's n >= 3 is
    factored as _padded widens it, and its right-hand sides take zeros on the
    added rows.
    """

    def __init__(self, matrix: BandedMatrix):
        self._n = matrix.bands.shape[1]
        bands, self._pad = _padded(matrix.bands)
        *self._factors, info = dgttrf(bands[2, :-1], bands[1], bands[0, 1:])
        if info != 0:
            raise SingularMatrixError(f"tridiagonal factorization failed: LAPACK gttrf info = {info}")

    def solve(self, rhs) -> np.ndarray:
        """x with A x = rhs; rhs may be (n,) or (n, k) and is left untouched.

        gttrs reports only malformed arguments, which the wrapper rejects
        first, so its info is not read.
        """
        if not self._pad:
            return dgttrs(*self._factors, rhs)[0]
        return dgttrs(*self._factors, _zero_rows(rhs, self._pad))[0][: self._n]
