"""What the benchmark in bench/ needs of the package still exists.

The benchmark drives the program from outside: bench/tracing.py wraps named
module functions, and bench/run.py runs each workload as cawave command
lines.  A change in src/ that renames a traced function or drops an option
the workloads pass would break the benchmark only when it runs; these checks
catch it in the test suite instead.  A traced run must also count each of
its steps, which it does only if the run calls the wrapped step, a traced
training run each batch's backward and Adam step and each epoch's validation
loss, and a traced convergence study each of its tridiagonal solves.  bench/bdf_reference.py integrates the semidiscrete system through the
checked flux laws; its right-hand side must still evaluate.
bench/run.py and bench/bdf_reference.py pin the BLAS thread variables when
they are imported; monkeypatch sets them first so that teardown restores them.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import cawave
import cawave.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import tracing

    yield run, tracing
    for name in ("run", "tracing", "checks", "bdf_reference"):
        sys.modules.pop(name, None)


def test_every_traced_function_exists(bench):
    _, tracing = bench
    solver = cawave.hybrid_solver
    original = solver.run_simulation
    tracer = tracing.Tracer()
    try:
        tracer.install(cawave)
        assert solver.run_simulation is not original
    finally:
        tracer.uninstall()
    assert solver.run_simulation is original


def test_trace_sees_every_step_of_a_run(bench):
    # run_simulation reaches step_imex through the module attribute, so the
    # traced wrapper counts every step and the solve nested in each
    _, tracing = bench
    solver = cawave.hybrid_solver
    cfg = solver.SimConfig(dt=0.01, t_end=0.05, cyto_elements=8, er_elements=8)
    tracer = tracing.Tracer()
    try:
        tracer.install(cawave)
        tracer.begin_round()
        tracer.active = True
        solver.run_simulation(cfg)
    finally:
        tracer.active = False
        tracer.uninstall()
    stats = tracer.layer_stats()
    assert stats.calls("hybrid_solver.step_imex") == 5
    assert stats.nested_calls("fem_core.solve_tridiagonal", "hybrid_solver.step_imex") == 5


def test_trace_sees_every_solve_of_a_convergence_study(bench):
    # both cases reach solve_tridiagonal through the fem_core attribute: one
    # solve per mesh, five meshes per case
    _, tracing = bench
    tracer = tracing.Tracer()
    try:
        tracer.install(cawave)
        tracer.begin_round()
        tracer.active = True
        cawave.convergence.run_convergence_study()
    finally:
        tracer.active = False
        tracer.uninstall()
    stats = tracer.layer_stats()
    assert stats.calls("fem_core.solve_tridiagonal") == 10
    for case in ("steady_case_error", "transient_case_error"):
        assert stats.nested_calls("fem_core.solve_tridiagonal", f"convergence.{case}") == 5, case


def test_trace_counts_each_batch_and_each_validation_pass(bench):
    # train reaches backward, adam_step and loss through the module
    # attributes: 900 training rows in batches of 64 are 15 batches, and the
    # 100 validation rows are one loss call however many blocks they span
    _, tracing = bench
    samples = np.random.default_rng(8).uniform(-1.0, 1.0, (1000, 4))
    tracer = tracing.Tracer()
    try:
        tracer.install(cawave)
        tracer.begin_round()
        tracer.active = True
        cawave.surrogate_net.train(samples, epochs=1, batch_size=64, seed=8)
    finally:
        tracer.active = False
        tracer.uninstall()
    stats = tracer.layer_stats()
    for name, calls in (("backward", 15), ("adam_step", 15), ("loss", 1)):
        assert stats.nested_calls(f"surrogate_net.{name}", "surrogate_net.train") == calls, name
        assert stats.calls(f"surrogate_net.{name}") == calls, name


def test_every_workload_command_parses(bench, tmp_path):
    run, _ = bench
    parser = cawave.cli.build_parser()
    for name, workload in run.WORKLOAD_TYPES.items():
        for stage, argv in workload(cawave, 1).ops(str(tmp_path)):
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{name} {stage}: cawave {' '.join(argv)} does not parse")


def test_bdf_reference_right_hand_side_evaluates(bench, monkeypatch):
    # the script prepends src/ to sys.path when it is imported
    monkeypatch.setattr(sys, "path", list(sys.path))
    import bdf_reference

    rhs, y0 = bdf_reference.semidiscrete_rhs(bdf_reference.wave_config())
    f = rhs(0.0, y0)
    assert f.shape == y0.shape
    assert np.all(np.isfinite(f))
