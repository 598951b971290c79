r"""Convergence verification for the radial diffusion operator on [0, L].

Manufactured-solution studies for the operator -D (w'' + w'/r) discretized
with P1 elements and the finite-part treatment of the 1/r term at the origin.
Two cases:

  steady    -D (v'' + v'/r) = s           with v(r) = cos(pi r / L)
  transient w_t - D (w'' + w'/r) = s      with w(r, t) = e^{-t} cos(pi r / L)

Both choices have v'(0) = v'(L) = 0, so the natural boundary condition at the
origin is exact.  The steady problem with two Neumann ends carries a constant
nullspace; it is pinned by a Dirichlet row at r = L.  The transient case uses
backward Euler with dt proportional to h^2 so the observed rate isolates the
spatial order.  Its operator F = M/dt + D (K - A) is the same at every
step, and the source is e^{-t} times a fixed profile f, so every step is the
same linear map of [w; e^{-t}]:

    [w_n; s_n] = S [w_{n-1}; s_{n-1}],   S = [[F^{-1} M/dt, q F^{-1} M f], [0, q]]

with q = e^{-dt} and s_n = e^{-n dt}.  F is factored once per mesh and S is
formed by one factored solve on the n+1 columns [M/dt | q M f]; the N steps
are then S^N, evaluated by binary powering (Knuth, TAOCP vol. 2, 4.6.3) in
about log2 N dense squarings.  Powering reorders the steps' arithmetic, so it
agrees with stepping to roundoff, not bit for bit.  Errors are discrete L2 norms sqrt(e^T M e)
against the nodal interpolant; second order is expected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fem_core

DEFAULT_MESHES = (10, 20, 40, 80, 160)
DEFAULT_DIFFUSIVITY = 220.0
DOMAIN_LENGTH = 1.5
TRANSIENT_HORIZON = 0.2


def exact_steady(r: np.ndarray) -> np.ndarray:
    return np.cos(np.pi * r / DOMAIN_LENGTH)


def steady_source(r: np.ndarray) -> np.ndarray:
    """s = -D (v'' + v'/r) for v = cos(pi r / L), with the r=0 limit filled in."""
    k = np.pi / DOMAIN_LENGTH
    r = np.asarray(r, dtype=float)
    out = DEFAULT_DIFFUSIVITY * k * k * np.cos(k * r)
    with np.errstate(invalid="ignore", divide="ignore"):
        radial = DEFAULT_DIFFUSIVITY * k * np.sin(k * r) / r
    radial = np.where(r == 0.0, DEFAULT_DIFFUSIVITY * k * k, radial)
    return out + radial


def _discretize(num_elements: int):
    """The mesh on [0, L], its mass matrix and the bands of D (K - A)."""
    mesh = fem_core.build_mesh(0.0, DOMAIN_LENGTH, num_elements)
    mass = fem_core.assemble_mass(mesh)
    stiff = fem_core.assemble_stiffness(mesh)
    conv = fem_core.assemble_convection(mesh)
    return mesh, mass, DEFAULT_DIFFUSIVITY * (stiff.bands - conv.bands)


def _l2_error(mass: fem_core.BandedMatrix, err: np.ndarray) -> float:
    return float(math.sqrt(err @ mass.matvec(err)))


def steady_case_error(num_elements: int) -> float:
    """Solve the pinned steady problem on num_elements; return the L2 error."""
    mesh, mass, diffusion = _discretize(num_elements)
    op = fem_core.BandedMatrix(diffusion)
    rhs = mass.matvec(steady_source(mesh.nodes))
    # Dirichlet pin at r = L removes the Neumann nullspace
    op.diag[-1], op.lower[-1], rhs[-1] = 1.0, 0.0, exact_steady(mesh.nodes[-1:])[0]
    solution = fem_core.solve_tridiagonal(op.lower, op.diag, op.upper, rhs)
    return _l2_error(mass, solution - exact_steady(mesh.nodes))


def transient_case_error(num_elements: int) -> float:
    """Backward-Euler run with dt = horizon (h/L)^2; L2 error at the horizon.

    The N = num_elements^2 steps are applied as S^N [w_0; 1] (module
    docstring): each set bit of N multiplies the state by the current power
    of S, and each further bit squares it, so two dense (n+1)^2 matrices are
    held at once and the work grows with log2 N, not N.
    """
    mesh, mass, diffusion = _discretize(num_elements)
    num_steps = num_elements * num_elements  # horizon / (horizon (h/L)^2)
    dt = TRANSIENT_HORIZON / num_steps
    factor = fem_core.TridiagonalFactor(fem_core.BandedMatrix(mass.bands / dt + diffusion))

    profile = exact_steady(mesh.nodes)
    mass_forcing = mass.matvec(steady_source(mesh.nodes) - profile)  # s(r, t) = e^{-t} forcing(r)
    n, decay = profile.size, math.exp(-dt)
    power = np.zeros((n + 1, n + 1))  # S, formed in place
    power[:n, :n] = mass.to_dense()
    power[:n, :n] /= dt
    power[:n, n] = decay * mass_forcing
    power[:n] = factor.solve(power[:n])
    power[n, n] = decay
    spare = np.empty_like(power)
    state = np.append(profile, 1.0)  # exact at t = 0
    while True:
        if num_steps & 1:
            state = power @ state
        num_steps >>= 1
        if not num_steps:
            break
        np.matmul(power, power, out=spare)
        power, spare = spare, power
    return _l2_error(mass, state[:n] - math.exp(-TRANSIENT_HORIZON) * profile)


@dataclass(frozen=True)
class ConvergenceRow:
    case: str
    num_elements: int
    h: float
    l2_error: float
    order: float  # NaN on the coarsest mesh


def run_convergence_study(meshes: tuple = DEFAULT_MESHES) -> list:
    """Errors and observed orders for both cases over the mesh sequence."""
    rows = []
    for case, runner in (("steady", steady_case_error), ("transient", transient_case_error)):
        prev = None
        for num in meshes:
            err = runner(num)
            order = math.nan if prev is None else math.log2(prev / err)
            rows.append(ConvergenceRow(case, num, DOMAIN_LENGTH / num, err, order))
            prev = err
    return rows


def write_convergence_csv(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write("case,num_elements,h,l2_error,order\n")
        for row in rows:
            order = "" if math.isnan(row.order) else f"{row.order:.17g}"
            fh.write(
                f"{row.case},{row.num_elements},{row.h:.17g},{row.l2_error:.17g},{order}\n"
            )
