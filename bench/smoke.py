"""Smoke mode: each checker accepts a good output and rejects a wrong one.

Run with `python3 bench/run.py --smoke`; it takes a few seconds.  The wrong
outputs are the ones a broken program could plausibly write: a wave whose
peak moved, a corpus with one mislabelled signal, a convergence table of
order 1, a training run whose loss did not fall.  BENCHMARK.json must name
only metrics the runner produces, with the runner's units.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

import checks


class SmokeFailure(Exception):
    pass


def expect(accepts: bool, what: str, fn, *args) -> None:
    try:
        fn(*args)
    except checks.CheckFailure as exc:
        if accepts:
            raise SmokeFailure(f"{what}: rejected a good input: {exc}") from None
        print(f"ok   {what}: rejected ({exc})")
        return
    if not accepts:
        raise SmokeFailure(f"{what}: accepted a wrong input")
    print(f"ok   {what}: accepted")


def write_wave(path, t, u_l):
    with open(path, "w") as fh:
        fh.write("t,u_R,u_L,ue_L,P\n")
        for ti, ui in zip(t, u_l):
            fh.write(f"{ti:.17g},0.06,{ui:.17g},240,0.01\n")


def wave_cases(reference, tmp):
    t = np.linspace(0.0, 4.0, 10001)
    good_peak = reference["peak_u_l"] * (1.0 - 0.105)  # the first-order IMEX deficit

    def series(peak, when):
        path = os.path.join(tmp, "wave.csv")
        write_wave(path, t, 0.05 + (peak - 0.05) * np.exp(-(((t - when) / 0.3) ** 2)))
        return checks.read_columns(path)

    def full(s):
        checks.wave_invariants(s, None, 40.0)
        checks.wave_matches_reference(s, reference)

    expect(True, "wave at the reference peak", full, series(good_peak, reference["peak_time"]))
    expect(False, "wave with its peak shifted by 0.1 s", full,
           series(good_peak, reference["peak_time"] + 0.1))
    expect(False, "wave with its peak 30% low", full, series(0.7 * reference["peak_u_l"],
                                                             reference["peak_time"]))
    bad = series(good_peak, reference["peak_time"])
    bad["u_L"][100] = -1e-6
    expect(False, "wave with a negative u(L)", full, bad)


def corpus_cases(program):
    ds = program.datasets
    samples = ds.build_ode_dataset(num_signals=12, seed=11)
    steps = ds.signal_times().size - 1
    picks = np.arange(12)
    integrate = program.ryr_markov.integrate_series

    def check(s):
        checks.corpus_labels(s, steps, ds.SIGNAL_DT, picks, integrate)

    expect(True, "Markov-labelled corpus", check, samples)
    wrong = samples.copy()
    rows = wrong.reshape(12, steps, 4)
    rows[7, :, 0] *= 1.02  # one signal's labels and slopes, consistently scaled
    rows[7, :, 3] *= 1.02
    expect(False, "corpus with one mislabelled signal", check, wrong)
    wrong = samples.copy()
    wrong[5 * steps + 40, 0] = 1.5
    expect(False, "corpus with a label above 1", check, wrong)


def convergence_cases(program, tmp):
    conv = program.convergence
    meshes = (10, 20, 40)
    rows = conv.run_convergence_study(meshes)
    path = os.path.join(tmp, "convergence.csv")
    conv.write_convergence_csv(path, rows)
    table = checks.read_convergence_csv(path)
    recomputed = {}
    for n in meshes:
        s, tr = checks.recompute_errors(program.fem_core, n, conv.DEFAULT_DIFFUSIVITY,
                                        conv.DOMAIN_LENGTH, conv.TRANSIENT_HORIZON)
        recomputed[("steady", n)], recomputed[("transient", n)] = s, tr
    expect(True, "convergence table", checks.convergence_table, table, meshes, recomputed)

    first_order = {}
    for case in ("steady", "transient"):
        e0 = table[(case, meshes[0])][0]
        for k, n in enumerate(meshes):
            first_order[(case, n)] = (e0 / 2**k, math.nan if k == 0 else 1.0)
    expect(False, "convergence table of order 1", checks.convergence_table,
           first_order, meshes, None)
    shifted = dict(table)
    err, order = shifted[("transient", 20)]
    shifted[("transient", 20)] = (err * 1.001, order)
    expect(False, "convergence error that disagrees with the recomputation",
           checks.convergence_table, shifted, meshes, recomputed)


def training_cases(tmp):
    path = os.path.join(tmp, "loss_history.csv")

    def history(train):
        with open(path, "w") as fh:
            fh.write("epoch,train_loss,val_loss\n")
            for i, v in enumerate(train, start=1):
                fh.write(f"{i},{v},{v}\n")
        return path

    expect(True, "falling training loss", checks.training_history, history([1.26, 0.1, 0.0035]))
    expect(False, "training loss that barely falls", checks.training_history,
           history([1.26, 1.0, 0.9]))


def manifest_cases(runner, program):
    """Every metric BENCHMARK.json names is one the runner produces, in its unit."""
    import tracing

    with open(runner.MANIFEST) as fh:
        manifest = json.load(fh)
    one_round = [{"wall": 1.0, "stages": {}, "failed": 0}]
    try:
        runner.select(runner.end_to_end_metrics(one_round, [0.5]), manifest["end_to_end"])
        no_spans = tracing.Tracer()
        no_spans.begin_round()
        runner.select(runner.layer_metrics(no_spans.layer_stats(), one_round), manifest["per_layer"])
    except (KeyError, RuntimeError) as exc:
        raise SmokeFailure(f"BENCHMARK.json names a metric the runner does not produce: {exc}")
    print(f"ok   BENCHMARK.json names {len(manifest['end_to_end'])} end-to-end and "
          f"{len(manifest['per_layer'])} per-layer metrics the runner produces")


def main(runner, program) -> int:
    reference = checks.load_reference(runner.REFERENCE)
    try:
        with tempfile.TemporaryDirectory(dir=runner.OUT) as tmp:
            wave_cases(reference, tmp)
            corpus_cases(program)
            convergence_cases(program, tmp)
            training_cases(tmp)
            manifest_cases(runner, program)
    except SmokeFailure as exc:
        print(f"FAIL {exc}")
        return 1
    print("smoke: every checker accepts good output and rejects wrong output")
    return 0
