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
kept in LAPACK band storage (BandedMatrix).  The one product A x is
BandedMatrix.matvec, one BLAS dgbmv call on that storage.  The one solve is
solve_tridiagonal, one LAPACK gtsv call (Gaussian elimination with partial
pivoting) on the three bands, for one or several right-hand sides at once.
The scipy wrapper of dgbmv rejects n < 3, so matvec raises ValueError below
that; the smallest system a run builds has 6 rows.  Functions return fresh
arrays and never mutate their inputs; the one exception is
BandedMatrix.matvec, which writes into the caller's out array when given one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgtsv

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
        """A @ x in one BLAS dgbmv call, written into out when one is given
        (it must not overlap x).

        A block-diagonal matrix with zero seams multiplies bit for bit as its
        blocks would one by one: the seam entries add exact zeros.
        """
        n = self.bands.shape[1]
        if n < 3:
            raise ValueError(f"dgbmv needs n >= 3, got {n}")
        result = dgbmv(n, n, 1, 1, 1.0, self.bands, x, y=out, overwrite_y=out is not None)
        if out is not None and result is not out:  # out was not contiguous
            out[...] = result
            return out
        return result

    def to_dense(self) -> np.ndarray:
        n = self.bands.shape[1]
        dense = np.zeros((n, n))
        dense[np.arange(n), np.arange(n)] = self.diag
        dense[np.arange(n - 1), np.arange(1, n)] = self.upper
        dense[np.arange(1, n), np.arange(n - 1)] = self.lower
        return dense


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
    """Solve a tridiagonal system given its three bands.

    rhs may be (n,) or (n, k); k right-hand sides share one factorization.
    One LAPACK gtsv call; its partial pivoting copes with zero or tiny
    leading pivots, and an exactly zero pivot means the matrix is singular.
    A block-diagonal system with zero entries at the block seams solves
    bit for bit as the separate blocks would: a zero sub-diagonal entry
    never triggers a row swap and leaves nothing to eliminate.
    """
    *_, x, info = dgtsv(lower, diag, upper, rhs)
    if info != 0:
        raise SingularMatrixError(f"tridiagonal solve failed: LAPACK gtsv info = {info}")
    return x
