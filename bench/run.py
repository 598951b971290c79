"""cawave benchmark: three user paths through the CLI, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload wave-markov --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload surrogate-pipeline --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --smoke        # the checkers must reject wrong outputs

Each workload is a closed loop in this one process: `cawave.cli.main` runs the
workload's commands in order, and the next command starts when the previous
one returns.  A round is one pass through the commands.  Rounds repeat until
the next one would end after --seconds, with at least two, so that every
repeat's data files can be compared byte for byte with the first.  The first
round's outputs are checked against references made apart from the stepper
(see checks.py); later rounds must reproduce them exactly.

--trace 0 reports the end-to-end metrics; --trace 1 wraps the program's
public functions (tracing.py) and reports the per-layer metrics.  The last
line of standard output is one JSON object with correct, attempted, failed
and metrics.  Metric names and units are read from BENCHMARK.json.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy loads.  One thread: on a 2-vCPU host
# a second BLAS thread made 20-epoch training no faster and its repeat-to-
# repeat spread several times wider.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
REFERENCE = os.path.join(HERE, "wave_reference.json")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

GEN_DATA_THREADS = 1  # `gen-data --threads`; at most nproc
MIN_ROUNDS = 2
SETUP_PROBES = 5
CORPUS_SEED = 11  # corpus and training seed of the c08 set-up
CORPUS_SIGNALS = 2600
TRAIN_EPOCHS = 20
LABEL_PICKS = 32  # corpus signals cross-checked against the scalar integrator


def load_program():
    """Import cawave from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cawave", "__init__.py")):
        sys.exit(f"bench: no cawave sources under {src}")
    sys.path.insert(0, src)
    import cawave
    import cawave.cli

    if not os.path.abspath(cawave.__file__).startswith(src + os.sep):
        sys.exit(f"bench: imported cawave from {cawave.__file__}, not {src}")
    return cawave


# --- workloads ---------------------------------------------------------------


class Workload:
    """Commands of one round, the work each does, and the checks on its output."""

    name = ""
    data_files = ()  # outputs that must repeat byte for byte

    def __init__(self, program, seed):
        self.program = program
        self.seed = seed

    def ops(self, out_dir):
        """[(stage, argv)] for one round."""
        raise NotImplementedError

    def check(self, out_dir, final_state):
        """Raise checks.CheckFailure unless the round's outputs are right."""
        raise NotImplementedError

    def stage_rates(self, stage_times):
        """Stage throughputs printed next to the metrics, {name: (value, unit)}."""
        raise NotImplementedError


class WaveMarkov(Workload):
    name = "wave-markov"
    data_files = ("simulation.csv",)
    DT = 0.0004
    STEPS = 10000  # t_end 4 / dt

    def __init__(self, program, seed):
        super().__init__(program, seed)
        from checks import load_reference

        self.reference = load_reference(REFERENCE)

    def ops(self, d):
        argv = ["simulate", "--preset", "example1", "--channel", "markov",
                "--dt", str(self.DT), "--elements", "80", "--out", d]
        return [("simulate", argv)]

    def check(self, d, final_state):
        import checks

        series = checks.read_columns(os.path.join(d, "simulation.csv"))
        checks.require(series["t"].size == self.STEPS + 1, f"{series['t'].size} rows in simulation.csv")
        total = self.program.channel_flux.BufferParams().total
        checks.wave_invariants(series, final_state, total)
        checks.wave_matches_reference(series, self.reference)

    def stage_rates(self, t):
        return {"imex_steps_per_s": (self.STEPS / t["simulate"], "steps/s")}


class SurrogatePipeline(Workload):
    name = "surrogate-pipeline"
    data_files = ("ode_dataset.cwds", "weights.cwnn", "loss_history.csv", "simulation.csv")
    DT = 0.00625
    STEPS = 640  # t_end 4 / dt

    def __init__(self, program, seed):
        super().__init__(program, seed)
        samples = CORPUS_SIGNALS * (program.datasets.signal_times().size - 1)
        validation = round(0.10 * samples)  # the CLI's default validation fraction
        self.train_samples = (samples - validation) * TRAIN_EPOCHS

    def ops(self, d):
        data = os.path.join(d, "ode_dataset.cwds")
        weights = os.path.join(d, "weights.cwnn")
        return [
            ("gen-data", ["gen-data", "--set", "ode", "--signals", str(CORPUS_SIGNALS),
                          "--seed", str(CORPUS_SEED), "--threads", str(GEN_DATA_THREADS),
                          "--out", d]),
            ("train", ["train", "--data", data, "--epochs", str(TRAIN_EPOCHS),
                       "--seed", str(CORPUS_SEED), "--out", d]),
            ("simulate", ["simulate", "--preset", "example1-reduced", "--channel", "surrogate",
                          "--weights", weights, "--dt", str(self.DT), "--out", d]),
        ]

    def check(self, d, final_state):
        import numpy as np

        import checks

        ds, sn = self.program.datasets, self.program.surrogate_net
        samples = ds.load_samples(os.path.join(d, "ode_dataset.cwds"))
        steps = ds.signal_times().size - 1
        checks.require(samples.shape[0] == CORPUS_SIGNALS * steps, f"{samples.shape[0]} corpus rows")
        picks = np.random.default_rng(self.seed).choice(CORPUS_SIGNALS, LABEL_PICKS, replace=False)
        checks.corpus_labels(samples, steps, ds.SIGNAL_DT, picks,
                             self.program.ryr_markov.integrate_series)
        checks.training_history(os.path.join(d, "loss_history.csv"))
        params = sn.load_weights(os.path.join(d, "weights.cwnn"))
        checks.surrogate_properties(params, ds.gen_eval_signals(), sn.rollout_probability,
                                    ds.SIGNAL_DT, ds.BASELINE)
        series = checks.read_columns(os.path.join(d, "simulation.csv"))
        checks.require(series["t"].size == self.STEPS + 1, f"{series['t'].size} rows in simulation.csv")
        cfg = self.program.config.load_config(None).sim_config()
        checks.surrogate_wave(series, final_state, cfg.u_init, cfg.buffer.total)

    def stage_rates(self, t):
        return {
            "label_signals_per_s": (CORPUS_SIGNALS / t["gen-data"], "signals/s"),
            "train_samples_per_s": (self.train_samples / t["train"], "samples/s"),
            "imex_steps_per_s": (self.STEPS / t["simulate"], "steps/s"),
        }


class Convergence(Workload):
    name = "convergence"
    data_files = ("convergence.csv",)

    def __init__(self, program, seed):
        super().__init__(program, seed)
        self.meshes = tuple(program.convergence.DEFAULT_MESHES)
        # backward-Euler steps of the transient case; the steady case adds
        # one solve per mesh
        self.steps = sum(n * n for n in self.meshes)

    def ops(self, d):
        return [("convergence", ["convergence", "--out", d])]

    def check(self, d, final_state):
        import checks

        conv = self.program.convergence
        table = checks.read_convergence_csv(os.path.join(d, "convergence.csv"))
        recomputed = {}
        for n in self.meshes:
            steady, transient = checks.recompute_errors(
                self.program.fem_core, n, conv.DEFAULT_DIFFUSIVITY, conv.DOMAIN_LENGTH,
                conv.TRANSIENT_HORIZON)
            recomputed[("steady", n)] = steady
            recomputed[("transient", n)] = transient
        checks.convergence_table(table, self.meshes, recomputed)

    def stage_rates(self, t):
        return {"be_steps_per_s": (self.steps / t["convergence"], "steps/s")}


WORKLOAD_TYPES = {w.name: w for w in (WaveMarkov, SurrogatePipeline, Convergence)}


# --- running -----------------------------------------------------------------


def invoke(cli, argv) -> bool:
    """One command through cawave.cli.main; True when it exits 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv) == 0
        except SystemExit as exc:  # argparse rejects the command line
            print(f"bench: {argv[0]} exited {exc.code}", file=sys.stderr)
        except Exception:  # any crash of the program counts as a failed operation
            traceback.print_exc()
    return False


class Capture:
    """Keeps the SimOutput of the last run_simulation, for the field checks."""

    def __init__(self, hybrid_solver):
        self.module = hybrid_solver
        self.original = hybrid_solver.run_simulation
        self.last = None

        def capturing(*args, **kwargs):
            self.last = self.original(*args, **kwargs)
            return self.last

        hybrid_solver.run_simulation = capturing

    def restore(self):
        self.module.run_simulation = self.original


def run_rounds(workload, seconds, work_dir, cli, capture, tracer=None):
    """Closed-loop rounds; returns (rounds, attempted, failed, check error)."""
    import checks

    rounds, attempted, failed, error = [], 0, 0, None
    first_dir = None
    start = time.perf_counter()
    while True:
        if len(rounds) >= MIN_ROUNDS:
            typical = statistics.median(r["wall"] for r in rounds)
            if time.perf_counter() - start + typical > seconds:
                break
        d = os.path.join(work_dir, f"round{len(rounds)}")
        os.makedirs(d)
        ops = workload.ops(d)
        times, round_failed = {}, 0
        if tracer is not None:
            tracer.begin_round()
            tracer.active = True
        t0 = time.perf_counter()
        for stage, argv in ops:
            if round_failed:  # later commands need this one's output
                round_failed += 1
                continue
            ts = time.perf_counter()
            ok = invoke(cli, argv)
            times[stage] = time.perf_counter() - ts
            round_failed += 0 if ok else 1
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        attempted += len(ops)
        failed += round_failed
        rounds.append({"wall": wall, "stages": times, "failed": round_failed})
        if round_failed:
            continue
        try:
            if first_dir is None:
                workload.check(d, capture.last.final_state if capture.last else None)
                first_dir = d
            else:
                checks.same_files(first_dir, d, workload.data_files)
                shutil.rmtree(d)
        except (checks.CheckFailure, OSError, ValueError) as exc:
            error = f"round {len(rounds)}: {exc}"
            break
    return rounds, attempted, failed, error


def setup_probe_seconds(workload, seed) -> list:
    """Wall time of fresh processes that do this run's set-up and exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: with one, wait() polls in steps of up to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def setup(workload_name, seed, tag):
    """Everything before the first timed command: imports, inputs, work dir."""
    program = load_program()
    import checks  # noqa: F401
    import tracing  # noqa: F401

    workload = WORKLOAD_TYPES[workload_name](program, seed)
    work_dir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(work_dir)
    return program, workload, work_dir


def environment(program) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "gen_data_threads": GEN_DATA_THREADS,
        "cawave": program.__version__,
    }


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# --- metrics -----------------------------------------------------------------


def end_to_end_metrics(rounds, setup_times) -> dict:
    good = [r for r in rounds if not r["failed"]]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(r["wall"] for r in good), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def layer_metrics(stats, rounds) -> dict:
    """Every per-layer figure of the traced run, {name: (value, unit)}.

    Layers a workload never calls read 0.  Only counts and the layers every
    workload calls go into the result line (BENCHMARK.json); the rest are
    printed beside it.
    """
    us, ms = 1e6, 1e3
    solve, step = "fem_core.solve_tridiagonal", "hybrid_solver.step_imex"
    steps = stats.calls(step)
    step_solves = stats.nested_calls(solve, step)
    out = {
        f"{solve}.calls": (stats.calls(solve), "count"),
        f"{solve}.us": (stats.median(solve) * us, "us"),
        f"{solve}.total_s": (stats.round_total(solve), "s"),
        "fem_core.assemble.calls": (stats.calls("fem_core.assemble"), "count"),
        "fem_core.assemble.ms": (stats.round_total("fem_core.assemble") * ms, "ms"),
        f"{step}.calls": (steps, "count"),
        f"{step}.us": (stats.median(step) * us, "us"),
        f"{step}.p99_us": (stats.percentile(step, 99) * us, "us"),
        f"{step}.self_us": (stats.median(step, self_time=True) * us, "us"),
        f"{step}.solves": (step_solves, "count"),
        "hybrid_solver.solves_per_step": (step_solves / steps if steps else 0.0, "solves/step"),
        "hybrid_solver.build_system.ms": (stats.median("hybrid_solver.build_system") * ms, "ms"),
        "hybrid_solver.write_simulation_csv.ms": (
            stats.median("hybrid_solver.write_simulation_csv") * ms, "ms"),
        "ryr_markov.step_backward_euler.calls": (stats.calls("ryr_markov.step_backward_euler"), "count"),
        "ryr_markov.step_backward_euler.us": (stats.median("ryr_markov.step_backward_euler") * us, "us"),
        "datasets.label_signals.calls": (stats.calls("datasets.label_signals"), "count"),
        "datasets.label_signals.ms": (stats.median("datasets.label_signals") * ms, "ms"),
        "datasets.build_ode_dataset.ms": (stats.median("datasets.build_ode_dataset") * ms, "ms"),
        "datasets.save_samples.ms": (stats.median("datasets.save_samples") * ms, "ms"),
    }
    for fn in ("loss", "backward", "adam_step"):
        name = f"surrogate_net.{fn}"
        tag = None if fn == "adam_step" else 640  # per 640-sample batch
        out[f"{name}.calls"] = (stats.calls(name), "count")
        out[f"{name}.ms"] = (stats.median(name, tag=tag) * ms, "ms")
    name = "surrogate_net.predict_next_probability"
    out[f"{name}.calls"] = (stats.calls(name), "count")
    out[f"{name}.us"] = (stats.median(name) * us, "us")
    for case in ("steady", "transient"):
        name = f"convergence.{case}_case_error"
        out[f"{name}.calls"] = (stats.calls(name), "count")
        out[f"{name}.ms"] = (stats.median(name, tag=160) * ms, "ms")  # the finest mesh
    out["trace.wall_s"] = (statistics.median(r["wall"] for r in rounds), "s")
    return out


def select(metrics: dict, entries) -> dict:
    """The manifest's metrics, in its order, as {name: {value, unit}}."""
    chosen = {}
    for entry in entries:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {unit}, BENCHMARK.json says {entry['unit']}")
        chosen[entry["name"]] = {"value": value, "unit": unit}
    return chosen


# --- entry points ------------------------------------------------------------


def run(args) -> int:
    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    program, workload, work_dir = setup(args.workload, args.seed, args.workload)
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    capture = None
    try:
        setup_times = [] if args.trace else setup_probe_seconds(args.workload, args.seed)
        if tracer is not None:
            tracer.install(program)
        capture = Capture(program.hybrid_solver)
        rounds, attempted, failed, error = run_rounds(
            workload, args.seconds, work_dir, program.cli, capture, tracer)
    finally:
        if capture is not None:
            capture.restore()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    env = environment(program)
    good = [r for r in rounds if not r["failed"]]
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "rounds": rounds,
              "attempted": attempted, "failed": failed, "check_error": error}
    print(f"environment {json.dumps(env, sort_keys=True)}")
    for i, r in enumerate(rounds):
        stages = " ".join(f"{k}={v:.4f}s" for k, v in r["stages"].items())
        print(f"round {i}: wall {r['wall']:.4f} s  {stages}" + ("  FAILED" if r["failed"] else ""))
    if error:
        print(f"check failed: {error}")
    if not good:
        print("bench: no round completed, so there is nothing to report", file=sys.stderr)
        return 1

    if args.trace:
        stats = tracer.layer_stats()
        everything = layer_metrics(stats, good)
        tracer.save(os.path.join(OUT, f"{workload.name}-spans.npz"))
        entries = manifest["per_layer"]
    else:
        everything = end_to_end_metrics(rounds, setup_times)
        record["setup_probes_s"] = setup_times
        per_round = [workload.stage_rates(r["stages"]) for r in good]
        for name, (_value, unit) in per_round[0].items():
            everything[f"stage.{name}"] = (statistics.median(p[name][0] for p in per_round), unit)
        entries = manifest["end_to_end"]
    for name, (value, unit) in everything.items():
        print(f"metric {name} = {value:.6g} {unit}")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in everything.items()}
    with open(os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    correct = error is None
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": select(everything, entries)}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cawave benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOAD_TYPES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true",
                        help="check that every checker rejects a deliberately wrong output")
    args = parser.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    if args.smoke:
        import smoke

        return smoke.main(sys.modules[__name__], load_program())
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if args.setup_probe:
        _program, _workload, work_dir = setup(args.workload, args.seed, "probe")
        shutil.rmtree(work_dir)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
