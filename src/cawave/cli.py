"""Command-line entry point for datasets, training, simulation, and studies.

Subcommands:

  gen-data     write a gating dataset (CWDS) from the ODE pulse grid or one
               of the two synthetic series collections
  train        fit the gating surrogate on a CWDS file; writes CWNN weights
               and a per-epoch loss CSV
  simulate     run a coupled-cell scenario; writes the observer series CSV
  convergence  manufactured-solution error table for the store operator
  steady       tabulate gating fixed points over a calcium grid

Every subcommand accepts --config/--seed/--out; gen-data labels in one thread
and accepts --threads only as 1, which the benchmark passes.  A flag for a
run setting sets the INI keys FLAG_KEYS names, and each command reads its
settings from the config alone.  Exit codes: 0 on success, 2 for config
errors (argparse failures and seeds outside [0, 2**64 - 1] included), 3 for
numeric failures, 4 for I/O errors.  Each output file gets a sidecar
<file>.meta.json recording the effective config (seeds included), its
digest and library versions; train's also record the subset, the input
dataset's name and CRC32 and the last and lowest validation loss, simulate's
the channel, the weight file's CRC32 and the run's boundary-pass counts:
steps, total passes and the most passes in one step, three ints.  The data
files carry no timestamps, so fixed seeds reproduce them bit for bit.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

import numpy as np

from . import __version__, container, convergence, datasets, hybrid_solver, ryr_markov
from . import surrogate_net
from .config import RunConfig, load_config
from .errors import ConfigError, NumericError

MAX_SEED = 2**64 - 1
# flag -> the config keys its value sets; --preset's value is the amplitude
# PRESET_AMPLITUDES gives its name
FLAG_KEYS = {
    "seed": (("network", "seed"), ("dataset", "seed")),
    "signals": (("dataset", "signals"),),
    "epochs": (("network", "epochs"),),
    "dt": (("time", "dt"),),
    "t_end": (("time", "t_end"),),
    "elements": (("geometry", "er_elements"), ("geometry", "cyto_elements")),
    "preset": (("stimulus", "amplitude"),),
}


def _write_sidecar(path, command: str, cfg: RunConfig, extra=None) -> None:
    meta = {
        "file": os.path.basename(path),
        "command": command,
        "config": cfg.values,
        "config_sha256": cfg.digest(),
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **(extra or {}),
    }
    with open(f"{path}.meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _input_file(path) -> dict:
    """Name and stored CRC32 of an input file, for the sidecars."""
    return {"file": os.path.basename(path), "crc32": f"{container.stored_crc(path):08x}"}


def _prepare(args):
    """Shared option handling: config load, flags, seed range, output directory."""
    cfg = load_config(args.config)
    flags = vars(args)
    for flag, keys in FLAG_KEYS.items():
        if (value := flags.get(flag)) is not None:
            value = hybrid_solver.PRESET_AMPLITUDES[value] if flag == "preset" else value
            for section, key in keys:
                cfg.set(section, key, value)
    for section, key in FLAG_KEYS["seed"]:
        if not 0 <= (seed := cfg.get(section, key)) <= MAX_SEED:
            raise ConfigError(f"[{section}] {key} must lie in [0, {MAX_SEED}], got {seed}")
    os.makedirs(args.out, exist_ok=True)
    return cfg


def cmd_gen_data(args) -> int:
    if args.set != "ode" and args.signals is not None:
        raise ConfigError("--signals only applies to --set ode")
    cfg = _prepare(args)
    if args.set == "ode":
        samples = datasets.build_ode_dataset(**cfg.arguments("dataset"), rates=cfg.markov_rates())
        path = os.path.join(args.out, "ode_dataset.cwds")
        print(f"ode grid: {cfg.get('dataset', 'signals')} signals, {samples.shape[0]} samples")
    else:
        corpus = (
            datasets.gen_training_set_I()
            if args.set == "artificial-1"
            else datasets.gen_training_set_II()
        )
        samples = datasets.difference_samples(*corpus)
        stem = "training_set_I" if args.set == "artificial-1" else "training_set_II"
        path = os.path.join(args.out, f"{stem}.cwds")
        print(f"{args.set}: {len(corpus[0])} series, {samples.shape[0]} samples")
    datasets.save_samples(path, samples)
    _write_sidecar(path, "gen-data", cfg)
    print(f"wrote {path}")
    if args.csv:
        csv_path = os.path.splitext(path)[0] + ".csv"
        datasets.write_samples_csv(csv_path, samples)
        _write_sidecar(csv_path, "gen-data", cfg)
        print(f"wrote {csv_path}")
    return 0


def cmd_train(args) -> int:
    cfg = _prepare(args)
    samples = datasets.load_samples(args.data)
    provenance = {"subset": args.subset, "data": _input_file(args.data)}
    if args.subset is not None:
        if not 1 <= args.subset <= samples.shape[0]:
            raise ConfigError(
                f"--subset must lie in [1, {samples.shape[0]}], got {args.subset}"
            )
        rng = np.random.default_rng(cfg.get("network", "seed"))
        idx = np.sort(rng.choice(samples.shape[0], size=args.subset, replace=False))
        samples = samples[idx]

    params, history = surrogate_net.train(samples, **cfg.arguments("network"))
    val = history.validation  # information only: the saved weights are the last epoch's
    best = None if np.isnan(val).all() else int(np.nanargmin(val))
    provenance["validation_loss"] = None if best is None else {
        "last": float(val[-1]), "lowest": float(val[best]), "lowest_epoch": best + 1
    }

    weights_path = os.path.join(args.out, "weights.cwnn")
    surrogate_net.save_weights(weights_path, params)
    _write_sidecar(weights_path, "train", cfg, provenance)

    loss_path = os.path.join(args.out, "loss_history.csv")
    with open(loss_path, "w") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for epoch, (tr, va) in enumerate(zip(history.train, history.validation), start=1):
            fh.write(f"{epoch},{tr:.17g},{va:.17g}\n")
    _write_sidecar(loss_path, "train", cfg, provenance)

    print(f"trained on {samples.shape[0]} samples for {cfg.get('network', 'epochs')} epochs")
    print(f"final train loss {history.train[-1]:.6e}, val loss {history.validation[-1]:.6e}")
    print(f"wrote {weights_path}")
    print(f"wrote {loss_path}")
    return 0


def cmd_simulate(args) -> int:
    if (args.channel == "surrogate") != (args.weights is not None):
        raise ConfigError("--weights is required with --channel surrogate and allowed only there")
    cfg = _prepare(args)
    sim_cfg = cfg.sim_config(channel=args.channel, weights_path=args.weights)
    output = hybrid_solver.run_simulation(sim_cfg)

    path = os.path.join(args.out, "simulation.csv")
    hybrid_solver.write_simulation_csv(path, output)
    run = {
        "channel": args.channel,
        "boundary_passes": {
            "steps": output.times.size - 1,
            "total": output.passes,
            "max_per_step": output.max_passes,
        },
    }
    if args.weights is not None:
        run["weights"] = _input_file(args.weights)
    _write_sidecar(path, "simulate", cfg, run)

    print(f"peak u(L) = {output.peak_u_l:.6f} at t = {output.peak_time:.6f}")
    print(f"peak u anywhere = {output.peak_u_anywhere:.6f}")
    print(f"wave duration = {output.wave_duration:.6f}")
    print(f"wrote {path}")
    return 0


def cmd_convergence(args) -> int:
    cfg = _prepare(args)
    rows = convergence.run_convergence_study()
    path = os.path.join(args.out, "convergence.csv")
    convergence.write_convergence_csv(path, rows)
    _write_sidecar(path, "convergence", cfg)
    for row in rows:
        order = "     -" if np.isnan(row.order) else f"{row.order:6.3f}"
        print(
            f"{row.case:10s} n={row.num_elements:4d} h={row.h:.6f} "
            f"L2={row.l2_error:.6e} order={order}"
        )
    print(f"wrote {path}")
    return 0


def cmd_steady(args) -> int:
    cfg = _prepare(args)
    rates = cfg.markov_rates()
    grid = np.unique(np.concatenate([[0.05], np.logspace(-2.0, 2.0, 41)]))
    print(f"{'u':>12s} {'c1':>12s} {'o':>12s} {'c2':>12s} {'P':>12s}")
    for u in np.concatenate([[0.0], grid]):
        state = ryr_markov.steady_state(float(u), rates)
        p = ryr_markov.open_probability(state)
        print(f"{u:12.6g} {state.c1:12.6g} {state.o:12.6g} {state.c2:12.6g} {p:12.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI run configuration")
    common.add_argument("--seed", type=int, help="sets [network] and [dataset] seed")
    common.add_argument("--out", metavar="DIR", default=".", help="output directory")

    parser = argparse.ArgumentParser(
        prog="cawave", description="calcium wave simulation and gating surrogate toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", parents=[common], help="write a gating dataset")
    p.add_argument("--set", required=True, choices=["ode", "artificial-1", "artificial-2"])
    p.add_argument("--signals", type=int, help="sets [dataset] signals (ode set only)")
    p.add_argument("--csv", action="store_true", help="also write a CSV copy")
    p.add_argument(
        "--threads", type=int, choices=[1], default=1, help="only 1; the benchmark passes it"
    )
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", parents=[common], help="train the gating surrogate")
    p.add_argument("--data", required=True, metavar="PATH", help="CWDS sample file")
    p.add_argument("--epochs", type=int, help="sets [network] epochs")
    p.add_argument("--subset", type=int, help="train on a seeded random sample subset")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", parents=[common], help="run a coupled-cell scenario")
    presets = list(hybrid_solver.PRESET_AMPLITUDES)
    p.add_argument("--preset", choices=presets, help="sets [stimulus] amplitude")
    p.add_argument("--channel", default="markov", choices=["markov", "surrogate", "zero"])
    p.add_argument("--weights", metavar="PATH", help="CWNN file for the surrogate channel")
    p.add_argument("--dt", type=float, help="sets [time] dt")
    p.add_argument("--t-end", type=float, help="sets [time] t_end")
    p.add_argument("--elements", type=int, help="sets [geometry] er_elements and cyto_elements")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("convergence", parents=[common], help="manufactured-solution study")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("steady", parents=[common], help="tabulate gating fixed points")
    p.set_defaults(func=cmd_steady)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
