"""Four-state Keizer-type gating model for the ryanodine receptor.

Three state fractions (c1, o, c2) are tracked explicitly; the fourth follows
from conservation, and the open probability is P = 1 - c1 - c2 (both open
states of the chain contribute).  Eliminating the fourth state turns the
master equation into the affine linear system

    d/dt (c1, o, c2)^T = M(u) (c1, o, c2)^T + k(u),

with calcium-dependent activation rates u^4*ka_plus and u^3*kb_plus.  The
underlying four-state chain has a proper Markov generator, so backward Euler
preserves the probability simplex exactly (up to roundoff); violations beyond
1e-9 indicate a genuine bug and abort instead of being renormalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError, StateInvariantError

SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class MarkovRates:
    """Transition rate constants; defaults give the resting-cell fit."""

    ka_plus: float = 1500.0
    ka_minus: float = 28.8
    kb_plus: float = 1500.0
    kb_minus: float = 385.9
    kc_plus: float = 1.75
    kc_minus: float = 0.1

    def __post_init__(self):
        for name in ("ka_plus", "ka_minus", "kb_plus", "kb_minus", "kc_plus", "kc_minus"):
            if getattr(self, name) < 0:
                raise ValueError(f"rate {name} must be nonnegative")


@dataclass(frozen=True)
class MarkovState:
    """State fractions (c1, o, c2); the fourth state is 1 - c1 - o - c2."""

    c1: float
    o: float
    c2: float

    def __post_init__(self):
        for name in ("c1", "o", "c2"):
            v = getattr(self, name)
            if not -SIMPLEX_TOL <= v <= 1.0 + SIMPLEX_TOL:
                raise StateInvariantError(f"state fraction {name} = {v} outside [0, 1]")
        total = self.c1 + self.o + self.c2
        if total > 1.0 + SIMPLEX_TOL:
            raise StateInvariantError(f"state fractions sum to {total} > 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.c1, self.o, self.c2])


# All channels closed in the first state: the starting point for dataset runs.
FULLY_CLOSED_STATE = MarkovState(1.0, 0.0, 0.0)
# Near-equilibrium occupancies at resting calcium (0.05 uM).
RESTING_STATE = MarkovState(0.994, 1.5721e-7, 5.6625e-3)


def open_probability(state: MarkovState) -> float:
    """P = 1 - c1 - c2, clipped against roundoff at the simplex boundary."""
    p = 1.0 - state.c1 - state.c2
    if p < -SIMPLEX_TOL or p > 1.0 + SIMPLEX_TOL:
        raise StateInvariantError(f"open probability {p} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def _generator(u: float, rates: MarkovRates):
    """Rows of M(u) and the entries of k(u) as plain floats."""
    if u < 0:
        raise ValueError(f"negative calcium concentration: {u}")
    ra = u**4 * rates.ka_plus
    rb = u**3 * rates.kb_plus
    m = (
        (-ra - rates.ka_minus, -rates.ka_minus, -rates.ka_minus),
        (-rb, -rb - rates.kb_minus, -rb),
        (-rates.kc_plus, -rates.kc_plus, -rates.kc_plus - rates.kc_minus),
    )
    return m, (rates.ka_minus, rb, rates.kc_plus)


def system_matrix(u: float, rates: MarkovRates = MarkovRates()):
    """Matrix M(u) and constant vector k(u) of the reduced master equation."""
    m, k = _generator(u, rates)
    return np.array(m), np.array(k)


def _solve3(a, b):
    """Gaussian elimination with full pivoting on a 3x3 system (plain floats)."""
    a = [list(map(float, row)) for row in a]
    b = [float(v) for v in b]
    idx = [0, 1, 2]  # column permutation
    for step in range(3):
        piv_r, piv_c, piv_v = step, step, 0.0
        for r in range(step, 3):
            for c in range(step, 3):
                if abs(a[r][c]) > piv_v:
                    piv_r, piv_c, piv_v = r, c, abs(a[r][c])
        if piv_v == 0.0:
            raise SingularMatrixError("singular 3x3 gating system")
        if piv_r != step:
            a[step], a[piv_r] = a[piv_r], a[step]
            b[step], b[piv_r] = b[piv_r], b[step]
        if piv_c != step:
            for row in a:
                row[step], row[piv_c] = row[piv_c], row[step]
            idx[step], idx[piv_c] = idx[piv_c], idx[step]
        for r in range(step + 1, 3):
            f = a[r][step] / a[step][step]
            if f != 0.0:
                for c in range(step, 3):
                    a[r][c] -= f * a[step][c]
                b[r] -= f * b[step]
    y2 = b[2] / a[2][2]
    y1 = (b[1] - a[1][2] * y2) / a[1][1]
    y0 = (b[0] - a[0][1] * y1 - a[0][2] * y2) / a[0][0]
    x = [0.0, 0.0, 0.0]
    x[idx[0]], x[idx[1]], x[idx[2]] = y0, y1, y2
    return x


def step_backward_euler(
    state: MarkovState,
    u_next: float,
    dt: float,
    rates: MarkovRates = MarkovRates(),
) -> MarkovState:
    """One implicit Euler step: solve (I - dt M(u_next)) x = state + dt k(u_next)."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    # plain floats, same operations as np.eye(3) - dt * M and state + dt * k
    ((m00, m01, m02), (m10, m11, m12), (m20, m21, m22)), (k0, k1, k2) = _generator(u_next, rates)
    a = (
        (1.0 - dt * m00, -(dt * m01), -(dt * m02)),
        (-(dt * m10), 1.0 - dt * m11, -(dt * m12)),
        (-(dt * m20), -(dt * m21), 1.0 - dt * m22),
    )
    rhs = (state.c1 + dt * k0, state.o + dt * k1, state.c2 + dt * k2)
    x = _solve3(a, rhs)
    return MarkovState(x[0], x[1], x[2])


def steady_state(u: float, rates: MarkovRates = MarkovRates()) -> MarkovState:
    """Equilibrium occupancies at clamped calcium: solve M(u) x = -k(u)."""
    m, k = system_matrix(u, rates)
    x = _solve3(m, -k)
    return MarkovState(x[0], x[1], x[2])


def integrate_series(
    u_series: np.ndarray,
    dt: float,
    state: MarkovState = FULLY_CLOSED_STATE,
    rates: MarkovRates = MarkovRates(),
) -> np.ndarray:
    """Open probability along a sampled calcium signal (backward Euler).

    u_series[n] is the concentration at t_n = n*dt; the returned array has the
    same length, starting from the open probability of the initial state.
    """
    u_series = np.asarray(u_series, dtype=float)
    p = np.empty(u_series.shape[0])
    p[0] = open_probability(state)
    for n in range(1, u_series.shape[0]):
        state = step_backward_euler(state, float(u_series[n]), dt, rates)
        p[n] = open_probability(state)
    return p
