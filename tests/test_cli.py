"""End-to-end command-line checks: exit codes, files, sidecars, determinism.

Subcommands run in fresh subprocesses so the argparse layer, the exit-code
mapping, and the on-disk artifacts are all exercised exactly as a user would
hit them.  The checks that every run-setting flag sets its config keys, and
gives the run and the sidecar its INI keys give, call cli.main in-process on
tiny inputs.
"""

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cawave import cli
from cawave.config import RunConfig

BASE = [sys.executable, "-m", "cawave"]


def run_cli(*args, cwd):
    return subprocess.run(
        BASE + list(args), cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared scratch area with a small dataset and weight file."""
    root = tmp_path_factory.mktemp("cli")
    r = run_cli("gen-data", "--set", "artificial-1", "--out", str(root), cwd=root)
    assert r.returncode == 0, r.stderr
    r = run_cli(
        "train", "--data", str(root / "training_set_I.cwds"),
        "--epochs", "1", "--subset", "2000", "--seed", "4", "--out", str(root),
        cwd=root,
    )
    assert r.returncode == 0, r.stderr
    return root


def test_gen_data_artificial_counts(workdir, tmp_path):
    r = run_cli("gen-data", "--set", "artificial-1", "--out", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert "121 series" in r.stdout and "24200 samples" in r.stdout
    assert (tmp_path / "training_set_I.cwds").exists()
    r = run_cli("gen-data", "--set", "artificial-2", "--out", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert "200 series" in r.stdout


def test_gen_data_is_deterministic(tmp_path):
    for sub in ("a", "b"):
        r = run_cli(
            "gen-data", "--set", "ode", "--signals", "30", "--seed", "12",
            "--out", str(tmp_path / sub), cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
    blob_a = (tmp_path / "a" / "ode_dataset.cwds").read_bytes()
    blob_b = (tmp_path / "b" / "ode_dataset.cwds").read_bytes()
    assert blob_a == blob_b


def test_gen_data_csv_flag(tmp_path):
    r = run_cli(
        "gen-data", "--set", "ode", "--signals", "5", "--csv", "--out", str(tmp_path),
        cwd=tmp_path,
    )
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "ode_dataset.csv").read_text().splitlines()
    assert lines[0] == "p_prev,u_prev,dudt,dpdt"
    assert len(lines) == 5 * 80 + 1


def test_gen_data_signals_flag_misuse(tmp_path):
    r = run_cli(
        "gen-data", "--set", "artificial-1", "--signals", "9", "--out", str(tmp_path),
        cwd=tmp_path,
    )
    assert r.returncode == 2, r.stderr
    assert "--signals" in r.stderr


def readme_commands():
    """Arguments of every `cawave ...` line in the README's code blocks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in readme.split("```")[1::2]:
        for line in block.replace("\\\n", " ").splitlines():
            if line.split()[:1] == ["cawave"]:
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"gen-data", "train", "simulate", "convergence", "steady"}
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: cawave {shlex.join(argv)}")


def test_sidecar_contents(workdir):
    meta = json.loads((workdir / "weights.cwnn.meta.json").read_text())
    assert meta["file"] == "weights.cwnn"
    assert meta["command"] == "train"
    assert meta["seed"] == 4
    assert len(meta["config_sha256"]) == 64
    assert set(meta["versions"]) == {"package", "numpy", "python"}
    assert "created" in meta


def test_train_sidecars_record_the_effective_training_run(workdir, tmp_path):
    records = []
    for epochs in ("1", "2"):
        out = tmp_path / epochs
        r = run_cli(
            "train", "--data", str(workdir / "training_set_I.cwds"),
            "--epochs", epochs, "--subset", "500", "--seed", "4", "--out", str(out),
            cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        weights_meta = json.loads((out / "weights.cwnn.meta.json").read_text())
        loss_meta = json.loads((out / "loss_history.csv.meta.json").read_text())
        for meta in (weights_meta, loss_meta):
            del meta["created"], meta["file"]
        assert weights_meta == loss_meta
        records.append(weights_meta)
    first, second = records
    assert first["config_sha256"] != second["config_sha256"]  # the effective config
    networks = [meta["config"]["network"] for meta in records]
    assert [network["epochs"] for network in networks] == [1, 2]
    assert networks[0]["batch_size"] == 640 and networks[0]["seed"] == 4
    assert first["subset"] == 500 and "training" not in first
    data = (workdir / "training_set_I.cwds").read_bytes()
    assert first["data"] == {
        "file": "training_set_I.cwds",
        "crc32": data[-4:][::-1].hex(),  # the little-endian trailer
    }


def test_train_outputs(workdir):
    lines = (workdir / "loss_history.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert len(lines) == 2  # one epoch
    epoch, tr, va = lines[1].split(",")
    assert epoch == "1" and np.isfinite(float(tr)) and np.isfinite(float(va))


def test_train_determinism(workdir, tmp_path):
    for sub in ("a", "b"):
        r = run_cli(
            "train", "--data", str(workdir / "training_set_I.cwds"),
            "--epochs", "1", "--subset", "1500", "--seed", "3",
            "--out", str(tmp_path / sub), cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
    assert (tmp_path / "a" / "weights.cwnn").read_bytes() == (
        tmp_path / "b" / "weights.cwnn"
    ).read_bytes()
    assert (tmp_path / "a" / "loss_history.csv").read_bytes() == (
        tmp_path / "b" / "loss_history.csv"
    ).read_bytes()


@pytest.mark.parametrize("rate", ["0", "-1e-3"])
def test_non_positive_learning_rate_is_a_config_error(workdir, tmp_path, rate):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[network]\nlearning_rate = {rate}\n")
    r = run_cli(
        "train", "--data", str(workdir / "training_set_I.cwds"), "--epochs", "1",
        "--config", str(ini), "--out", str(tmp_path), cwd=tmp_path,
    )
    assert r.returncode == 2, r.stderr
    assert "learning rate must be positive" in r.stderr
    assert not (tmp_path / "weights.cwnn").exists()


def test_train_missing_data_argument(tmp_path):
    r = run_cli("train", "--epochs", "1", cwd=tmp_path)
    assert r.returncode == 2, r.stderr


def test_train_missing_data_file(tmp_path):
    r = run_cli("train", "--data", "no_such_file.cwds", cwd=tmp_path)
    assert r.returncode == 4, r.stderr


def test_simulate_zero_channel(tmp_path):
    r = run_cli(
        "simulate", "--preset", "example1", "--channel", "zero",
        "--dt", "0.01", "--t-end", "0.5", "--out", str(tmp_path), cwd=tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert "peak u(L)" in r.stdout and "wave duration" in r.stdout
    lines = (tmp_path / "simulation.csv").read_text().splitlines()
    assert lines[0] == "t,u_R,u_L,ue_L,P"
    assert len(lines) == 52  # 50 steps + initial row + header


def test_simulate_sidecar_identifies_the_effective_run(tmp_path):
    records = {}
    for sub, dt in (("a", "0.01"), ("b", "0.01"), ("c", "0.02")):
        r = run_cli(
            "simulate", "--channel", "zero", "--dt", dt, "--t-end", "0.04",
            "--out", str(tmp_path / sub), cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        records[sub] = json.loads((tmp_path / sub / "simulation.csv.meta.json").read_text())
    digests = {sub: meta["config_sha256"] for sub, meta in records.items()}
    assert digests["a"] == digests["b"] != digests["c"]  # the effective config
    assert [records[sub]["config"]["time"]["dt"] for sub in "abc"] == [0.01, 0.01, 0.02]
    assert records["a"]["channel"] == "zero" and "sim_config_sha256" not in records["a"]
    assert "weights" not in records["a"]


def test_er_block_breakdown_at_small_dt_exits_3(tmp_path):
    # the coarse ER mesh has one growing backward-Euler mode below
    # dt = 2 / (D |lambda|); see "Known limitations" in the README
    r = run_cli(
        "simulate", "--channel", "zero", "--elements", "10", "--dt", "0.00001",
        "--t-end", "0.001", "--out", str(tmp_path), cwd=tmp_path,
    )
    assert r.returncode == 3, r.stderr
    assert "ER calcium left" in r.stderr
    assert "range [-500.47708261493153, 396.83273006795696]" in r.stderr
    assert not (tmp_path / "simulation.csv").exists()


def test_simulate_determinism(tmp_path):
    for sub in ("a", "b"):
        r = run_cli(
            "simulate", "--preset", "example1", "--channel", "markov",
            "--dt", "0.01", "--t-end", "0.2", "--out", str(tmp_path / sub), cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
    assert (tmp_path / "a" / "simulation.csv").read_bytes() == (
        tmp_path / "b" / "simulation.csv"
    ).read_bytes()


def test_simulate_surrogate_requires_weights(tmp_path):
    r = run_cli("simulate", "--channel", "surrogate", "--t-end", "0.1", cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert "--weights" in r.stderr


def test_simulate_weights_need_the_surrogate_channel(tmp_path):
    r = run_cli(
        "simulate", "--channel", "markov", "--weights", str(tmp_path / "missing.cwnn"),
        "--t-end", "0.1", "--out", str(tmp_path), cwd=tmp_path,
    )
    assert r.returncode == 2, r.stderr
    assert "--weights" in r.stderr
    assert not (tmp_path / "simulation.csv").exists()


def test_simulate_corrupt_weights(tmp_path):
    bad = tmp_path / "w.cwnn"
    bad.write_bytes(b"garbage")
    r = run_cli(
        "simulate", "--channel", "surrogate", "--weights", str(bad),
        "--dt", "0.01", "--t-end", "0.1", cwd=tmp_path,
    )
    assert r.returncode == 4, r.stderr


def test_simulate_with_trained_surrogate(workdir, tmp_path):
    r = run_cli(
        "simulate", "--preset", "example1-reduced", "--channel", "surrogate",
        "--weights", str(workdir / "weights.cwnn"), "--dt", "0.0125", "--t-end", "0.5",
        "--out", str(tmp_path), cwd=tmp_path,
    )
    assert r.returncode == 0, r.stderr
    meta = json.loads((tmp_path / "simulation.csv.meta.json").read_text())
    data = (workdir / "weights.cwnn").read_bytes()
    assert meta["weights"] == {"file": "weights.cwnn", "crc32": data[-4:][::-1].hex()}


def test_simulate_rejects_mismatched_grid(tmp_path):
    r = run_cli("simulate", "--dt", "0.036", "--t-end", "4.0", cwd=tmp_path)
    assert r.returncode == 2, r.stderr


def test_unknown_config_key_is_named(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[channels]\nsera_k = 0.2\n")
    r = run_cli("steady", "--config", str(cfg), cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert "sera_k" in r.stderr


def test_snapshot_stride_is_no_longer_a_key(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[output]\nsnapshot_stride = 5\n")
    r = run_cli("steady", "--config", str(cfg), cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert "snapshot_stride" in r.stderr


def test_unknown_config_section(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[channles]\nryr_scale = 0.8\n")
    r = run_cli("steady", "--config", str(cfg), cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert "channles" in r.stderr


@pytest.mark.parametrize(
    "text, named",
    [
        ("[DEFAULT]\ndt = 0.5\n", "DEFAULT"),  # not configparser's defaults section here
        ("[channles]\n", "channles"),  # empty, but still unknown
        ("[output]\nobserver_stride = 10\n", "observer_stride"),
    ],
)
def test_every_unknown_section_is_rejected(tmp_path, text, named):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    r = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert named in r.stderr
    assert not (tmp_path / "simulation.csv").exists()


def test_off_simplex_markov_occupancy_is_a_config_error(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[markov]\nc1 = 2\n")
    out = tmp_path / "out"
    r = run_cli("simulate", "--config", str(cfg), "--out", str(out), cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert "config error" in r.stderr and "c1" in r.stderr
    assert list(out.iterdir()) == []


def test_malformed_config(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("ryr_scale = 0.8\n")  # key before any section header
    r = run_cli("steady", "--config", str(cfg), cwd=tmp_path)
    assert r.returncode == 2, r.stderr


def test_config_overrides_apply(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[stimulus]\namplitude = 0\n[time]\ndt = 0.01\nt_end = 0.2\n")
    r = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    # without stimulation the system stays at rest
    last = (tmp_path / "simulation.csv").read_text().splitlines()[-1].split(",")
    assert float(last[2]) == pytest.approx(0.05, abs=1e-4)


def test_steady_table(tmp_path):
    r = run_cli("steady", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0].split() == ["u", "c1", "o", "c2", "P"]
    rows = [ln.split() for ln in lines[1:]]
    us = [float(row[0]) for row in rows]
    assert us[0] == 0.0 and all(a < b for a, b in zip(us, us[1:]))
    assert float(rows[0][4]) == 0.0
    by_u = {row[0]: row for row in rows}
    assert "0.05" in by_u
    assert 3.0e-4 <= float(by_u["0.05"][4]) <= 3.5e-4


def test_convergence_csv(tmp_path):
    r = run_cli("convergence", "--out", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0] == "case,num_elements,h,l2_error,order"
    assert len(lines) == 11
    assert (tmp_path / "convergence.csv.meta.json").exists()


def test_bad_choice_and_threads(tmp_path):
    r = run_cli("gen-data", "--set", "nonsense", cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    for threads in (0, 2, (os.cpu_count() or 1) + 1):  # rejected before anything is written
        r = run_cli("gen-data", "--set", "ode", "--threads", str(threads), "--out", "out",
                    cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "--threads" in r.stderr
        assert not (tmp_path / "out").exists()
    r = run_cli("gen-data", "--set", "ode", "--signals", "3", "--threads", "1", "--out", "out",
                cwd=tmp_path)  # the benchmark's command line passes --threads 1
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "out" / "ode_dataset.cwds").exists()
    for argv in (["train", "--data", "x.cwds"], ["simulate"], ["convergence"], ["steady"]):
        r = run_cli(*argv, "--threads", "1", cwd=tmp_path)  # a gen-data flag only
        assert r.returncode == 2 and "unrecognized arguments" in r.stderr, argv
    r = run_cli("no-such-command", cwd=tmp_path)
    assert r.returncode == 2, r.stderr


# flag -> (the rest of the command line, the flag's value, another value, the
# value its config keys take); the other value must change config_sha256, so
# gen-data --signals 3 and --signals 5 must write different digests
FLAG_CASES = {
    "seed": (["gen-data", "--set", "ode", "--signals", "3"], "7", "8", 7),
    "signals": (["gen-data", "--set", "ode"], "3", "5", 3),
    "epochs": (["train", "--subset", "300"], "1", "2", 1),
    "dt": (["simulate", "--channel", "zero", "--elements", "4", "--t-end", "0.04"],
           "0.02", "0.01", 0.02),
    "t_end": (["simulate", "--channel", "zero", "--elements", "4", "--dt", "0.02"],
              "0.04", "0.06", 0.04),
    "elements": (["simulate", "--channel", "zero", "--dt", "0.02", "--t-end", "0.04"],
                 "4", "5", 4),
    "preset": (["simulate", "--channel", "zero", "--elements", "4", "--dt", "0.02",
                "--t-end", "0.04"], "example1-reduced", "example1", 600.0),
}


def _run_in_process(argv, out):
    """Exit code, data files and sidecars (less `created`) of one cli.main call."""
    code = cli.main(argv + ["--out", str(out)])
    data, sidecars = {}, {}
    for path in sorted(out.iterdir()):
        if path.name.endswith(".meta.json"):
            meta = json.loads(path.read_text())
            del meta["created"]
            sidecars[path.name] = meta
        else:
            data[path.name] = path.read_bytes()
    return code, data, sidecars


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert cli.main(["gen-data", "--set", "ode", "--signals", "4", "--out", str(out)]) == 0
    return out / "ode_dataset.cwds"


@pytest.mark.parametrize("flag", cli.FLAG_KEYS)  # a flag with no case fails here
def test_a_flag_and_its_config_keys_give_the_same_run(flag, tiny_corpus, tmp_path):
    base, value, other, key_value = FLAG_CASES[flag]
    if base[0] == "train":
        base = base + ["--data", str(tiny_corpus)]
    option = "--" + flag.replace("_", "-")
    sections = {}
    for section, key in cli.FLAG_KEYS[flag]:
        sections.setdefault(section, []).append(f"{key} = {key_value!r}")
    ini = tmp_path / "run.ini"
    ini.write_text("".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items()))

    by_flag = _run_in_process(base + [option, value], tmp_path / "flag")
    by_config = _run_in_process(base + ["--config", str(ini)], tmp_path / "config")
    changed = _run_in_process(base + [option, other], tmp_path / "other")
    assert by_flag[0] == by_config[0] == changed[0] == 0
    assert by_flag[1] and by_flag[1] == by_config[1]
    assert by_flag[2] == by_config[2]
    for meta in by_flag[2].values():
        for section, key in cli.FLAG_KEYS[flag]:
            assert meta["config"][section][key] == key_value
        assert meta["config_sha256"] == RunConfig(values=meta["config"]).digest()
    digests = {meta["config_sha256"] for run in (by_flag, changed) for meta in run[2].values()}
    assert len(digests) == 2


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("section", ["dataset", "network"])
def test_an_out_of_range_seed_is_a_config_error(section, seed, tmp_path, capsys):
    # checked once, after the flags and before the output directory is made,
    # for every command, whether or not it draws from that seed
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{section}]\nseed = {seed}\n")
    out = tmp_path / "out"
    commands = (["gen-data", "--set", "artificial-1"], ["gen-data", "--set", "ode"], ["steady"])
    for command in commands:
        assert cli.main(command + ["--config", str(ini), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"[{section}] seed must lie in [0, {2**64 - 1}], got {seed}" in err
        assert not out.exists()
    assert cli.main(["steady", "--seed", str(seed), "--out", str(out)]) == 2
    assert "[network] seed must lie" in capsys.readouterr().err  # --seed sets both keys
    assert not out.exists()


# value-taking options that set no config key, each with its reason
NOT_CONFIG = {
    "--config": "names the INI file that the keys come from",
    "--out": "where the outputs go, not how they are made",
    "--set": "which corpus gen-data writes; its file name says so",
    "--data": "the input corpus; the train sidecar records its name and CRC32",
    "--subset": "a row selection of the input corpus; the train sidecar records it",
    "--channel": "the gating model; the simulate sidecar records it",
    "--weights": "the input weight file; the simulate sidecar records its name and CRC32",
    "--threads": "accepts only 1, which the benchmark's gen-data command line passes",
}


def test_every_value_option_sets_config_keys_or_is_named():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    seen = set()
    for name, sub in commands.choices.items():
        for action in sub._actions:
            if action.nargs == 0 or not action.option_strings:
                continue  # switches (--help, --csv) take no value
            option = action.option_strings[0]
            seen.add(option)
            assert action.dest in cli.FLAG_KEYS or option in NOT_CONFIG, f"{name} {option}"
    assert set(NOT_CONFIG) <= seen
