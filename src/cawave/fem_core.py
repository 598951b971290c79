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
are solved by LAPACK's gtsv, Gaussian elimination with partial pivoting.
Everything in this module is pure: functions return fresh arrays and never
mutate their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
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


@dataclass
class BandedMatrix:
    """Tridiagonal matrix stored as (sub, main, super) diagonal bands.

    Treated as immutable after construction; assembly routines always
    allocate fresh band arrays.
    """

    lower: np.ndarray  # length n-1, entry k sits at (k+1, k)
    diag: np.ndarray  # length n
    upper: np.ndarray  # length n-1, entry k sits at (k, k+1)

    def __post_init__(self):
        n = self.diag.shape[0]
        if self.lower.shape[0] != n - 1 or self.upper.shape[0] != n - 1:
            raise ValueError("band lengths inconsistent with matrix dimension")

    @property
    def dim(self) -> int:
        return self.diag.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[:-1] += self.upper * x[1:]
        y[1:] += self.lower * x[:-1]
        return y

    def to_dense(self) -> np.ndarray:
        n = self.dim
        dense = np.zeros((n, n))
        dense[np.arange(n), np.arange(n)] = self.diag
        dense[np.arange(n - 1), np.arange(1, n)] = self.upper
        dense[np.arange(1, n), np.arange(n - 1)] = self.lower
        return dense


def _empty_bands(n: int):
    return np.zeros(n - 1), np.zeros(n), np.zeros(n - 1)


def assemble_mass(mesh: Mesh1D) -> BandedMatrix:
    """Mass matrix \\int phi_i phi_j dr (element blocks h/6 * [[2,1],[1,2]])."""
    lower, diag, upper = _empty_bands(mesh.num_nodes)
    h = mesh.h
    for e in range(mesh.num_elements):
        diag[e] += h / 3.0
        diag[e + 1] += h / 3.0
        upper[e] += h / 6.0
        lower[e] += h / 6.0
    return BandedMatrix(lower, diag, upper)


def assemble_stiffness(mesh: Mesh1D) -> BandedMatrix:
    """Stiffness matrix \\int phi_i' phi_j' dr (element blocks 1/h * [[1,-1],[-1,1]])."""
    lower, diag, upper = _empty_bands(mesh.num_nodes)
    inv_h = 1.0 / mesh.h
    for e in range(mesh.num_elements):
        diag[e] += inv_h
        diag[e + 1] += inv_h
        upper[e] -= inv_h
        lower[e] -= inv_h
    return BandedMatrix(lower, diag, upper)


def _hat_over_r(a: float, b: float):
    """Exact integrals of (left hat)/r and (right hat)/r over [a, b], a > 0."""
    h = b - a
    log_ba = math.log(b / a)
    j_left = (b * log_ba - h) / h
    j_right = (h - a * log_ba) / h
    return j_left, j_right


def _convection_element(a: float, b: float, singular: bool):
    """2x2 element block of \\int (1/r) phi_m' phi_l dr on [a, b].

    With singular=True the element starts at a = 0 and the left-hat integral
    takes its Hadamard finite-part value (1/h)(h ln h - h); the right-hat
    integral is an ordinary one because that hat vanishes at the origin.
    """
    h = b - a
    if singular:
        j_left = math.log(h) - 1.0
        j_right = 1.0
    else:
        j_left, j_right = _hat_over_r(a, b)
    inv_h = 1.0 / h
    return np.array(
        [
            [-j_left * inv_h, j_left * inv_h],
            [-j_right * inv_h, j_right * inv_h],
        ]
    )


def assemble_convection(mesh: Mesh1D) -> BandedMatrix:
    """Convection matrix A[i,j] = \\int (1/r) phi_j' phi_i dr.

    On a mesh touching the origin the first element's left-hat row is
    hypersingular and carries Hadamard finite-part values; everywhere else the
    entries come from the closed-form logarithmic antiderivatives.  Every row
    sums to zero because the hat functions partition unity.
    """
    lower, diag, upper = _empty_bands(mesh.num_nodes)
    nodes = mesh.nodes
    for e in range(mesh.num_elements):
        a = float(nodes[e])
        b = float(nodes[e + 1])
        block = _convection_element(a, b, singular=(e == 0 and mesh.touches_origin))
        diag[e] += block[0, 0]
        upper[e] += block[0, 1]
        lower[e] += block[1, 0]
        diag[e + 1] += block[1, 1]
    return BandedMatrix(lower, diag, upper)


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
