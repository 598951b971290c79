"""INI run configuration: round trips, rejections and fuzzing.

A configuration written out in canonical form must load back to the same
digest; any file, however malformed, must either load or raise ConfigError,
which the CLI maps to exit code 2.  Every key must reach the program: a key
outside [network] and [dataset] changes the solver record when perturbed, and
the CLI passes each key of those two sections to its command function, by
parameter name, through RunConfig.arguments.  The defaults live
in the library's records and function signatures, and SCHEMA is built from
them: the default canonical text is pinned by its digest, every field of the
solver's parameter records must be set by exactly one key, and the defaults
must equal those of SimConfig, train and build_ode_dataset, which the CLI
bypasses and the tests rely on.
"""

import hashlib
import inspect
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cawave import cli, datasets, surrogate_net
from cawave.channel_flux import BufferParams, ErParams, PlasmaParams
from cawave.config import COMMANDS, SCHEMA, TARGETS, RunConfig, load_config
from cawave.errors import ConfigError
from cawave.hybrid_solver import SimConfig, StimulusSpec
from cawave.ryr_markov import MarkovRates, MarkovState

KEYS = [(section, key) for section, keys in SCHEMA.items() for key in keys]


def _load(directory, text):
    path = directory / "run.ini"
    path.write_text(text)
    return load_config(path)


@pytest.fixture(scope="module")
def ini_dir(tmp_path_factory):
    """One directory for the property tests, whose examples overwrite one file."""
    return tmp_path_factory.mktemp("ini")


def _value(kind):
    if kind is int:
        return st.integers(-(2**70), 2**70)
    return st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _run_configs(draw):
    cfg = RunConfig()
    for section, key in KEYS:
        cfg.values[section][key] = draw(_value(SCHEMA[section][key][0]))
    return cfg


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(cfg=_run_configs())
def test_canonical_text_round_trips(ini_dir, cfg):
    loaded = _load(ini_dir, cfg.canonical_text())
    assert loaded.values == cfg.values
    assert loaded.digest() == cfg.digest()


_NAME = st.text(
    st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters="[]="), min_size=1
)
_RAW = st.one_of(
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12),
    st.sampled_from(["inf", "-inf", "nan", "40.5", "1e400", "4e3", ""]),
    st.floats().map(repr),
    st.integers().map(str),
)
_SECTION = st.one_of(st.sampled_from(list(SCHEMA)), st.sampled_from(["DEFAULT", "output"]), _NAME)
_ANY_KEY = st.one_of(st.sampled_from(sorted({key for _, key in KEYS})), _NAME)


@st.composite
def _sections(draw):
    """A section header and the lines under it; a known section mostly gets its own keys."""
    section = draw(_SECTION)
    key = st.sampled_from(list(SCHEMA[section])) if section in SCHEMA else _ANY_KEY
    return section, draw(st.lists(st.tuples(st.one_of(key, _ANY_KEY), _RAW), max_size=4))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(body=st.lists(_sections(), max_size=4))
def test_any_file_loads_or_raises_config_error(ini_dir, body):
    text = "".join(
        f"[{section}]\n" + "".join(f"{key} = {raw}\n" for key, raw in pairs)
        for section, pairs in body
    )
    try:
        _load(ini_dir, text)
    except ConfigError:
        pass


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(entry=st.sampled_from(KEYS), raw=_RAW)
def test_any_value_sets_or_raises_config_error(entry, raw):
    cfg = RunConfig()
    try:
        cfg.set(*entry, raw)
    except ConfigError:
        return
    assert type(cfg.get(*entry)) is SCHEMA[entry[0]][entry[1]][0]


@pytest.mark.parametrize(
    "text",
    [
        "[geometry]\ner_elements = 40.5\n",  # no silent truncation
        "[geometry]\ner_elements = forty\n",
        "[time]\ndt = nan\n",
        "[time]\ndt = inf\n",
        "[time]\nt_end = 1e400\n",  # overflows to inf
        "[network]\nepochs = inf\n",
        "[network]\nepochs = -inf\n",
        "[network]\nseed = nan\n",
        "[time]\ndt = 0.1\ndt = 0.2\n",  # duplicate key
        "[time]\ndt = 0.1\n[time]\nt_end = 2\n",  # duplicate section
    ],
)
def test_rejections(tmp_path, text):
    with pytest.raises(ConfigError):
        _load(tmp_path, text)


def test_integer_keys_are_exact(tmp_path):
    cfg = _load(tmp_path, f"[dataset]\nseed = {2**64 - 1}\nsignals = 4e3\n")
    assert cfg.get("dataset", "seed") == 2**64 - 1
    assert cfg.get("dataset", "signals") == 4000


def _perturbed(section, key):
    cfg = RunConfig()
    kind, default = SCHEMA[section][key]
    cfg.set(section, key, repr(default + 1 if kind is int else default * 0.99))
    return cfg


@pytest.mark.parametrize("section, key", [k for k in KEYS if k[0] not in ("network", "dataset")])
def test_every_solver_key_reaches_sim_config(section, key):
    assert _perturbed(section, key).sim_config() != RunConfig().sim_config()


class _Called(Exception):
    """Stops a command at the call under test."""


def _command_line(section, directory):
    """A command line that reaches the command function of section."""
    if section == "dataset":
        return ["gen-data", "--set", "ode"]
    data = directory / "tiny.cwds"
    datasets.save_samples(data, datasets.build_ode_dataset(num_signals=1))
    return ["train", "--data", str(data)]


@pytest.mark.parametrize("section, key", [k for k in KEYS if k[0] in COMMANDS])
def test_every_command_key_is_read_by_the_cli(section, key, tmp_path, monkeypatch):
    cfg = _perturbed(section, key)
    assert cfg.sim_config() == RunConfig().sim_config()
    arguments = cfg.arguments(section)
    assert arguments[TARGETS[section][key]] == cfg.get(section, key)
    assert arguments != RunConfig().arguments(section)

    # the CLI calls the section's command with arguments(section) of its config
    argv = _command_line(section, tmp_path)
    calls = []

    def record(*args, **kwargs):
        calls.append(kwargs)
        raise _Called

    command = COMMANDS[section]
    monkeypatch.setattr(inspect.getmodule(command), command.__name__, record)
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{section}]\n{key} = {cfg.get(section, key)!r}\n")
    with pytest.raises(_Called):
        cli.main(argv + ["--config", str(ini), "--out", str(tmp_path / "out")])
    (kwargs,) = calls
    assert {name: kwargs[name] for name in arguments} == arguments


def _defaults(fn, *names):
    params = inspect.signature(fn).parameters
    return {name: params[name].default for name in names}


def test_schema_defaults_equal_the_library_defaults():
    defaults = load_config(None)
    assert SimConfig() == defaults.sim_config()
    network, dataset = defaults.values["network"], defaults.values["dataset"]
    assert _defaults(surrogate_net.train, *network) == network
    assert _defaults(datasets.build_ode_dataset, "num_signals", "seed") == {
        "num_signals": dataset["signals"], "seed": dataset["seed"]
    }


def test_default_canonical_text_is_pinned():
    # key order, types and value reprs, all read off the library's defaults
    text = RunConfig().canonical_text()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "bdd846a092624dfd9880c53709f961bb0c1ea97b9c5b54f9e530f40f448a5ff7"
    )


RECORDS = {
    "plasma": PlasmaParams,
    "er": ErParams,
    "buffer": BufferParams,
    "rates": MarkovRates,
    "initial_markov_state": MarkovState,
    "stimulus": StimulusSpec,
}


@pytest.mark.parametrize("attr", RECORDS)
def test_every_record_field_is_set_by_one_key(attr):
    cls = RECORDS[attr]
    assert type(getattr(SimConfig(), attr)) is cls
    targets = [
        path
        for section, keys in TARGETS.items()
        if section not in COMMANDS
        for path in keys.values()
    ]
    for f in fields(cls):
        assert targets.count(f"{attr}.{f.name}") == 1, f.name
