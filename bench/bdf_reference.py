"""Independent reference for the wave-markov workload: a BDF method of lines.

The IMEX stepper advances the 80+80 semidiscrete system with lagged gating,
lagged coupling and a boundary fixed-point iteration.  This command integrates
the same semidiscrete system as one stiff ODE system with
scipy.integrate.solve_ivp(method="BDF") at tight tolerance.  It takes the P1
matrices from fem_core, the membrane flux laws from channel_flux and the
Markov generator from ryr_markov, and never calls the stepper, so its peak is
a reference the stepper's time discretization can be measured against.

    M u'  = -D_c (K - A) u + M (k_off (B - b) - k_on b u)
            - e_0 er_flux(u_0, ue_N, P) + e_N (plasma_flux(u_N) + s(t))
    M b'  = -D_b (K - A) b + M (k_off (B - b) - k_on b u)
    Me ue' = -D_c (Ke - Ae) ue + e_N er_flux(u_0, ue_N, P)
    x'    = M_markov(u_0) x + k(u_0),   P = 1 - x_c1 - x_c2

Run from the repository root:

    python3 bench/bdf_reference.py            # writes bench/wave_reference.json

It takes about a minute on one core.  The result file is committed; the wave
check reads it and never writes it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

# One BLAS thread: the 246x246 Newton solves gain nothing from a second one.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.integrate import solve_ivp  # noqa: E402
from scipy.optimize import minimize_scalar  # noqa: E402

from cawave import channel_flux, fem_core, ryr_markov  # noqa: E402
from cawave.config import load_config  # noqa: E402
from cawave.hybrid_solver import StimulusSpec  # noqa: E402

REFERENCE_PATH = os.path.join(HERE, "wave_reference.json")
ELEMENTS = 80
AMPLITUDE = 1200.0  # the example1 preset


def wave_config():
    """The parameters `simulate --preset example1 --elements 80` runs with."""
    return load_config(None).sim_config(
        channel="markov",
        stimulus=StimulusSpec(amplitude=AMPLITUDE),
        er_elements=ELEMENTS,
        cyto_elements=ELEMENTS,
    )


def semidiscrete_rhs(cfg):
    """Right-hand side f(t, y) of the method-of-lines system, y = (u, b, ue, x)."""
    cyto = fem_core.build_mesh(cfg.er_radius, cfg.cell_radius, cfg.cyto_elements)
    er = fem_core.build_mesh(0.0, cfg.er_radius, cfg.er_elements)

    def operator(mesh, diffusivity):
        stiff = fem_core.assemble_stiffness(mesh).to_dense()
        conv = fem_core.assemble_convection(mesh).to_dense()
        mass = fem_core.assemble_mass(mesh).to_dense()
        inv_mass = np.linalg.inv(mass)
        return inv_mass @ (-diffusivity * (stiff - conv)), inv_mass

    lu_op, inv_mc = operator(cyto, cfg.d_calcium)
    lb_op, _ = operator(cyto, cfg.d_buffer)
    le_op, inv_me = operator(er, cfg.d_calcium)
    nc, ne = cyto.num_nodes, er.num_nodes
    mc_col0, mc_coln = inv_mc[:, 0].copy(), inv_mc[:, -1].copy()
    me_coln = inv_me[:, -1].copy()
    bf, pl, er_p, rates = cfg.buffer, cfg.plasma, cfg.er, cfg.rates

    def rhs(t, y):
        u, b, ue, x = y[:nc], y[nc : 2 * nc], y[2 * nc : 2 * nc + ne], y[2 * nc + ne :]
        # Newton iterates may step a hair outside the admissible set; the flux
        # laws reject that, so they see the nearest admissible point.
        u_l, u_r = max(u[0], 0.0), max(u[-1], 0.0)
        p_open = min(max(1.0 - x[0] - x[2], 0.0), 1.0)
        j_er = channel_flux.er_flux(u_l, ue[-1], p_open, er_p)
        j_pl = channel_flux.plasma_flux(u_r, pl) + cfg.stimulus.value(t)
        react = bf.unbind_rate * (bf.total - b) - bf.bind_rate * b * u
        m_mat, k_vec = ryr_markov.system_matrix(u_l, rates)
        return np.concatenate(
            [
                lu_op @ u + react - j_er * mc_col0 + j_pl * mc_coln,
                lb_op @ b + react,
                le_op @ ue + j_er * me_coln,
                m_mat @ x + k_vec,
            ]
        )

    y0 = np.concatenate(
        [
            np.full(nc, cfg.u_init),
            np.full(nc, cfg.b_init),
            np.full(ne, cfg.ue_init),
            cfg.initial_markov_state.as_array(),
        ]
    )
    return rhs, y0


def integrate(rtol: float, atol: float):
    cfg = wave_config()
    rhs, y0 = semidiscrete_rhs(cfg)
    start = time.perf_counter()
    sol = solve_ivp(
        rhs, (0.0, cfg.t_end), y0, method="BDF", rtol=rtol, atol=atol,
        dense_output=True, max_step=0.01,
    )
    elapsed = time.perf_counter() - start
    if not sol.success:
        raise RuntimeError(f"BDF integration failed: {sol.message}")

    def u_l(t):
        return float(sol.sol(t)[0])

    grid = np.linspace(0.0, cfg.t_end, 40001)
    coarse = sol.sol(grid)[0]
    i = int(np.argmax(coarse))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    best = minimize_scalar(lambda t: -u_l(t), bounds=(lo, hi), method="bounded",
                           options={"xatol": 1e-9})
    return {
        "rtol": rtol,
        "atol": atol,
        "peak_u_l": -float(best.fun),
        "peak_time": float(best.x),
        "rhs_evaluations": int(sol.nfev),
        "jacobians": int(sol.njev),
        "steps": int(sol.t.size - 1),
        "seconds": round(elapsed, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=REFERENCE_PATH, help="reference JSON to write")
    args = parser.parse_args(argv)
    # The tighter run is the reference; the looser one shows the peak no
    # longer moves with the tolerance at the digits the check uses.
    loose = integrate(rtol=1e-6, atol=1e-8)
    tight = integrate(rtol=1e-7, atol=1e-9)
    record = {
        "scenario": "simulate --preset example1 --channel markov --elements 80 (t_end 4)",
        "method": "scipy.integrate.solve_ivp BDF on the 80+80 semidiscrete system",
        "peak_u_l": tight["peak_u_l"],
        "peak_time": tight["peak_time"],
        "tolerance_runs": [loose, tight],
        "tolerance_shift": abs(tight["peak_u_l"] - loose["peak_u_l"]) / tight["peak_u_l"],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if not (math.isfinite(record["peak_u_l"]) and record["tolerance_shift"] < 1e-4):
        print(f"reference not settled: {json.dumps(record)}", file=sys.stderr)
        return 1
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"peak u(L) = {record['peak_u_l']:.6f} at t = {record['peak_time']:.6f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
