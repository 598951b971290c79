"""Four-state Keizer-type gating model for the ryanodine receptor.

Three state fractions (c1, o, c2) are tracked; the fourth, the second open
state o2 = 1 - c1 - o - c2, follows from conservation, and the open
probability is P = o + o2 = 1 - c1 - c2.  The chain is a star, each tracked
state exchanging only with o2:

    dx_i/dt = alpha_i o2 - eps_i x_i,
    alpha = (ka_minus, u^3 kb_plus, kc_plus),  eps = (u^4 ka_plus, kb_minus, kc_minus),

which is the affine system d/dt (c1, o, c2)^T = M(u) (c1, o, c2)^T + k(u).
A backward-Euler step is therefore a diagonal system plus a rank-one coupling
through o2.  backward_euler_update solves it in closed form (Sherman-Morrison)
with no pivoting and a denominator of at least 1, for the scalar stepper and
the batched corpus labeller (datasets.label_signals) alike.  Simplex
violations beyond 1e-9 indicate a genuine bug and abort instead of being
renormalized.
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


def _star_rates(u, rates: MarkovRates):
    """Rates alpha (o2 -> c1, o, c2) and eps (c1, o, c2 -> o2); u may be an array."""
    u3 = u * u * u
    alpha = (rates.ka_minus, u3 * rates.kb_plus, rates.kc_plus)
    eps = (u3 * u * rates.ka_plus, rates.kb_minus, rates.kc_minus)
    return alpha, eps


def system_matrix(u: float, rates: MarkovRates = MarkovRates()):
    """Dense M(u) = -alpha 1^T - diag(eps) and k(u) = alpha of the reduced master equation."""
    if u < 0:
        raise ValueError(f"negative calcium concentration: {u}")
    alpha, eps = (np.array(v) for v in _star_rates(u, rates))
    return -np.outer(alpha, np.ones(3)) - np.diag(eps), alpha


def backward_euler_update(c1, o, c2, u, dt, rates: MarkovRates):
    """(c1, o, c2) after one backward-Euler step at calcium u, in closed form.

    Row i of (I - dt M) x = x^n + dt k reads d_i x_i = x_i^n + a_i o2 with
    a = dt alpha and d = 1 + dt eps; dividing by d_i and summing gives o2.
    Only + - * / appear, so floats and (K,) arrays get the same bits.
    """
    (al0, al1, al2), (ep0, ep1, ep2) = _star_rates(u, rates)
    a0, a1, a2 = dt * al0, dt * al1, dt * al2
    e0, e1, e2 = dt * ep0, dt * ep1, dt * ep2
    d0, d1, d2 = 1.0 + e0, 1.0 + e1, 1.0 + e2
    o2 = ((1.0 - c1 - o - c2) + c1 * e0 / d0 + o * e1 / d1 + c2 * e2 / d2) / (
        1.0 + a0 / d0 + a1 / d1 + a2 / d2
    )
    return (c1 + a0 * o2) / d0, (o + a1 * o2) / d1, (c2 + a2 * o2) / d2


def step_backward_euler(
    state: MarkovState,
    u_next: float,
    dt: float,
    rates: MarkovRates = MarkovRates(),
) -> MarkovState:
    """One implicit Euler step: solve (I - dt M(u_next)) x = state + dt k(u_next)."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if u_next < 0:
        raise ValueError(f"negative calcium concentration: {u_next}")
    return MarkovState(*backward_euler_update(state.c1, state.o, state.c2, u_next, dt, rates))


def steady_state(u: float, rates: MarkovRates = MarkovRates()) -> MarkovState:
    """Equilibrium occupancies at clamped calcium, the solution of M(u) x = -k(u).

    eps_i x_i = alpha_i o2 for each tracked state (the matrix-tree weights);
    the weights sum to det(-M(u)), so a zero sum means M(u) is singular.
    """
    if u < 0:
        raise ValueError(f"negative calcium concentration: {u}")
    (al0, al1, al2), (ep0, ep1, ep2) = _star_rates(u, rates)
    w0, w1, w2 = al0 * ep1 * ep2, al1 * ep0 * ep2, al2 * ep0 * ep1
    total = w0 + w1 + w2 + ep0 * ep1 * ep2
    if total == 0.0:
        raise SingularMatrixError("singular 3x3 gating system")
    return MarkovState(w0 / total, w1 / total, w2 / total)


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
