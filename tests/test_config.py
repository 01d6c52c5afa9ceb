import hashlib
import json
import math
import os
import re
from dataclasses import fields
from pathlib import Path

import pytest

from watune.config import (
    ExperimentConfig,
    atomic_write_text,
    from_dict,
    load_config,
    save_config,
)
from watune.datagen import DatasetConfig, file_hash
from watune.domain import BatteryClass
from watune.measurement import LinkModelConfig
from watune.reward import RewardConfig
from watune.train import TrainConfig

from conftest import FUZZ_VALUES

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
# The reward weight each single-objective config sets to 0.0.
ZEROED = {"latency_only.json": "w_p", "energy_only.json": "w_l"}


def test_defaults_round_trip(tmp_path):
    cfg = ExperimentConfig()
    p = tmp_path / "config.json"
    save_config(p, cfg)
    back = load_config(str(p))
    assert back.to_dict() == cfg.to_dict()
    assert back.config_hash() == cfg.config_hash()


def test_committed_configs():
    """Each file under configs/ is a `save_config` file of the built-in
    config with other reward settings and an out_dir of its own, so its
    runs never meet another config's artifacts."""
    assert set(ZEROED) <= {path.name for path in CONFIGS}
    base = ExperimentConfig().to_dict()
    out_dirs = {base["out_dir"]}
    for path in CONFIGS:
        d = load_config(str(path)).to_dict()
        assert path.read_text() == json.dumps(d, indent=2, sort_keys=True) + "\n", path.name
        assert [k for k in base if d[k] != base[k] and k not in ("reward", "out_dir")] == [], path.name
        assert d["out_dir"] not in out_dirs, path.name
        out_dirs.add(d["out_dir"])
        if path.name in ZEROED:
            assert d["reward"][ZEROED[path.name]] == 0.0


def test_hash_changes_with_content():
    a = ExperimentConfig()
    b = ExperimentConfig(seed=99)
    assert a.config_hash() != b.config_hash()
    assert len(a.config_hash()) == 16


def test_hash_independent_of_key_order():
    cfg = ExperimentConfig()
    d = cfg.to_dict()
    reordered = json.loads(json.dumps(d, sort_keys=True))
    assert from_dict(reordered).config_hash() == cfg.config_hash()


def test_config_hashes_are_pinned():
    """The built-in config and each committed config keep their hash, which
    stamps every artifact made under them."""
    assert ExperimentConfig().config_hash() == "11b575110b04f29f"
    assert {path.name: load_config(str(path)).config_hash() for path in CONFIGS} == {
        "energy_only.json": "a7f123d0218c6921", "latency_only.json": "1102d8d75eb51c87"}


@pytest.mark.parametrize("key, value", [
    ("dataset.sample_interval_s", "5"),
    ("dataset.window", 2.5),
    ("dataset.window", True),
    ("dataset.logs_per_session", None),
    ("link.latency_noise_sigma", [0.6]),
    ("reward.w_l", False),
    ("train.epochs", "5"),
    ("train.loss", 1),
    ("seed", "1"),
    ("link.base_latency_ms", "abcdefgh"),
    ("link.base_latency_ms", [3.5, 5.5, 3.0, 2.5, 7.0, 11.0, 6.0]),
    ("link.base_energy_pct_h", [3.8, 3.1, 4.1, 4.3, 2.6, 1.8, 2.9, "3.1"]),
    ("link.time_latency_multiplier", [1.0, 1.3, 1.9, 3.1]),
    ("link.time_latency_multiplier.night", "3.1"),
    ("link.time_latency_multiplier.morning", True),
    ("dataset.battery_class_ranges", None),
    ("dataset.battery_class_ranges.low", ["5", 30]),
    ("dataset.battery_class_ranges.medium", [30.0, False]),
    ("dataset.battery_class_ranges.high", [70.0, 90.0, 100.0]),
    ("link.time_latency_multiplier.noon", 1.0),
    ("dataset.battery_class_ranges.tiny", [1, 2]),
    ("out_dir", 5),
    ("reward.reward_mode", "fancy"),
    ("link.latency_noise_sigma", -1.0),
    ("link.base_latency_ms", [7.0, 11.0, 6.0, 5.0, 3.5, 5.5, 3.0, 2.5]),
    pytest.param("dataset.sample_interval_s", 10 ** 400,  # an int too large for a float
                 id="dataset.sample_interval_s-10**400"),
    ("foo", 1),
    ("dataset.foo", 1.0),
    ("link.foo", "x"),
    ("reward.mode", "naive"),  # a key is its field's whole name: reward.reward_mode
    ("train.seed", 1),  # the seed is set once, at the top
    ("dataset.battery_class_ranges.foo", [5.0, 30.0]),
    ("link.time_latency_multiplier.foo", 1.0),
    ("dataset.seed", 1),
    ("train.soft_temp", 0.25),  # set once, in reward
])
def test_from_dict_rejects_mistyped_scalars(key, value):
    d = ExperimentConfig().to_dict()
    *parents, leaf = key.split(".")
    node = d
    for name in parents:
        node = node[name]
    # A key the object does not have is named with the object it is in. A
    # value of the right type out of its range is named by its section.
    message = rf"^(config )?{key} must be" if leaf in node else (
        rf"^config {'.'.join(parents) or 'file'} has no key '{leaf}'$")
    node[leaf] = value
    with pytest.raises(ValueError, match=message):
        from_dict(d)


def test_from_dict_takes_ints_for_floats():
    d = ExperimentConfig().to_dict()
    d["dataset"]["sample_interval_s"] = 5
    assert from_dict(d).dataset.sample_interval_s == 5
    # Table and list entries too; each is stored as a float, so the hash
    # does not depend on how the file spells it.
    default_hash = from_dict(d).config_hash()
    d["link"]["time_latency_multiplier"]["morning"] = 1
    assert from_dict(d).config_hash() == default_hash
    d["link"]["base_latency_ms"][0] = 4
    d["dataset"]["battery_class_ranges"]["low"] = [5, 30]
    cfg = from_dict(d)
    assert cfg.link.base_latency_ms[0] == 4
    assert cfg.dataset.battery_class_ranges[BatteryClass.low] == (5, 30)


def _keys(node, path=()):
    """The path of every key in a nested dict, each parent before its keys."""
    for key, value in node.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _keys(value, path + (key,))


def test_missing_key_named():
    """Each key deleted in turn is a `ValueError` naming its dotted field,
    except `out_dir`, which falls back to its default."""
    for path in _keys(ExperimentConfig().to_dict()):
        d = ExperimentConfig().to_dict()
        del _at(d, path[:-1])[path[-1]]
        if path == ("out_dir",):
            assert from_dict(d).config_hash() == ExperimentConfig().config_hash()
            continue
        with pytest.raises(ValueError, match=rf"^config missing key {re.escape('.'.join(path))}$"):
            from_dict(d)


@pytest.mark.parametrize("key, value", [
    ("sample_interval_s", -5000.0),
    ("sample_interval_s", 0.0),
    ("sample_interval_s", math.nan),
    ("sample_interval_s", math.inf),
    ("battery_class_ranges.low", [0.0, 0.0]),
    ("battery_class_ranges.low", [30.0, 5.0]),
    ("battery_class_ranges.medium", [math.nan, 70.0]),
    ("battery_class_ranges.medium", [70.0, 30.0]),
    ("battery_class_ranges.high", [70.0, math.inf]),
    ("battery_class_ranges.high", [70.0, 101.0]),
])
def test_dataset_config_rejects_bad_values(key, value):
    d = ExperimentConfig().to_dict()
    *parents, leaf = ["dataset", *key.split(".")]
    node = d
    for name in parents:
        node = node[name]
    node[leaf] = value
    with pytest.raises(ValueError, match=rf"^dataset\.{re.escape(key)} must be"):
        from_dict(d)


@pytest.mark.parametrize("key, value", [
    ("train.hidden", 0),
    ("train.weight_decay", -5.0),
    ("train.weight_decay", math.nan),
    ("train.weight_decay", math.inf),
    ("train.learning_rate", math.nan),
    ("train.learning_rate", math.inf),
    ("train.learning_rate", 0.0),
    ("train.dpo_beta", math.nan),
    ("train.dpo_beta", -0.1),
    ("train.epochs", -1),
    ("train.effective_batch", 0),
    ("reward.soft_temp", math.nan),
    ("reward.soft_temp", math.inf),
])
def test_train_settings_rejected_by_name(key, value):
    d = ExperimentConfig().to_dict()
    section, leaf = key.split(".")
    d[section][leaf] = value
    with pytest.raises(ValueError, match=rf"^{re.escape(key)} must be"):
        from_dict(d)


@pytest.mark.parametrize("key, value", [
    ("reward.w_p", math.nan),
    ("reward.w_l", 1e400),  # what `json` reads for the literal 1e400
    ("reward.w_l", -1.0),
    ("reward.w_p", -math.inf),
    ("dataset.window", 0),
    ("dataset.split_fraction", 1.5),
    ("dataset.split_fraction", 0.0),
    ("dataset.split_fraction", math.nan),
    ("dataset.logs_per_session", 5),
    ("seed", -1),
    ("train.loss", "x"),
])
def test_range_errors_begin_with_their_field(key, value):
    d = ExperimentConfig().to_dict()
    *parents, leaf = key.split(".")
    node = d
    for name in parents:
        node = node[name]
    node[leaf] = value
    with pytest.raises(ValueError, match=rf"^{re.escape(key)} must be .+, not {re.escape(repr(value))}$"):
        from_dict(d)


def _leaves(node, path=()):
    """The path of every scalar in a nested dict/list, list indices included."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


def _numbers(node):
    if isinstance(node, (dict, list)):
        for value in (node.values() if isinstance(node, dict) else node):
            yield from _numbers(value)
    elif type(node) in (int, float):
        yield node


@pytest.mark.parametrize("path", list(_leaves(ExperimentConfig().to_dict())),
                         ids=lambda path: ".".join(map(str, path)))
def test_config_fuzz_every_leaf(path):
    """Each leaf set to each odd value either loads to a config whose numbers
    are all finite or is rejected by a message naming its dotted field (a
    list entry is named by its list)."""
    field = ".".join(k for k in path if isinstance(k, str))
    for value in FUZZ_VALUES:
        d = ExperimentConfig().to_dict()
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        try:
            cfg = from_dict(d)
        except ValueError as exc:
            assert field in str(exc), (value, str(exc))
        else:
            assert all(map(math.isfinite, _numbers(cfg.to_dict()))), value


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@pytest.mark.parametrize("path", [p for p in _leaves(ExperimentConfig().to_dict())
                                  if type(_at(ExperimentConfig().to_dict(), p)) is float],
                         ids=lambda path: ".".join(map(str, path)))
def test_int_spelled_float_hashes_as_its_float(path):
    """Each float leaf spelled as an int (the nearest positive one) loads to
    the hash of its float spelling, or is refused with the same message."""
    n = max(1, round(_at(ExperimentConfig().to_dict(), path)))
    outcomes = []
    for value in (n, float(n)):
        d = ExperimentConfig().to_dict()
        _at(d, path[:-1])[path[-1]] = value
        try:
            outcomes.append(from_dict(d).config_hash())
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    # no integer lies in (0, 1)
    assert len(outcomes[0]) == 16 or path == ("dataset", "split_fraction"), outcomes[0]


SECTIONS = {"dataset": DatasetConfig, "link": LinkModelConfig,
            "reward": RewardConfig, "train": TrainConfig}


def test_to_dict_leaves_have_their_declared_kinds():
    """The built-in config is the schema every file is checked against, so
    each of its leaves has the JSON kind its field declares: a float field
    whose default were an int would refuse every fraction. Table and list
    entries are floats."""
    d = ExperimentConfig().to_dict()
    classes = {(): ExperimentConfig, **{(s,): cls for s, cls in SECTIONS.items()}}
    kinds = {"int": int, "float": float, "str": str, "RewardMode": str}  # an enum by its value
    for path in _leaves(d):
        if path[:-1] in classes:
            declared = {f.name: f.type for f in fields(classes[path[:-1]])}
            kind = kinds[declared[path[-1]]]
        else:
            kind = float
        assert type(_at(d, path)) is kind, path


def test_non_default_config_round_trips(tmp_path):
    """A config with every leaf off its default is saved and loaded back to
    the same dict and hash."""
    d = ExperimentConfig().to_dict()
    d.update(seed=7, out_dir="elsewhere")
    d["dataset"].update(logs_per_session=50, sample_interval_s=2.5, window=4, split_fraction=0.7,
                        battery_class_ranges={"high": [60.0, 99.0], "medium": [20.0, 60.0],
                                              "low": [1.0, 20.0]})
    link = d["link"]
    link.update(latency_noise_sigma=0.3, energy_noise_sigma=0.0,
                base_latency_ms=[2 * v for v in link["base_latency_ms"]],
                base_energy_pct_h=[v / 2 for v in link["base_energy_pct_h"]],
                time_latency_multiplier={"morning": 1.1, "afternoon": 1.2, "evening": 2.0,
                                         "night": 4.0})
    d["reward"].update(w_l=0.5, w_p=0.25, soft_temp=0.5, reward_mode="naive")
    d["train"].update(loss="ce", epochs=2, effective_batch=32, learning_rate=0.01,
                      weight_decay=0.0, dpo_beta=0.2, layers=2, hidden=16)
    default = ExperimentConfig().to_dict()
    assert all(_at(d, p) != _at(default, p) for p in _leaves(default))
    save_config(tmp_path / "config.json", from_dict(d))
    back = load_config(str(tmp_path / "config.json"))
    assert back.to_dict() == d
    assert back.config_hash() == from_dict(d).config_hash() != ExperimentConfig().config_hash()


def test_env_var_lookup(tmp_path, monkeypatch):
    """Only `--config` names a config file: the environment is not read."""
    p = tmp_path / "cfg.json"
    save_config(p, ExperimentConfig(seed=5))
    monkeypatch.setenv("WATUNE_CONFIG", str(p))
    assert load_config(None).config_hash() == ExperimentConfig().config_hash()
    assert load_config(str(p)).seed == 5


def test_atomic_write_replaces(tmp_path):
    p = tmp_path / "out.txt"
    atomic_write_text(p, "one\n")
    digest = atomic_write_text(p, iter(["tw", "o\n"]))
    assert p.read_text() == "two\n"
    assert digest == hashlib.sha256(b"two\n").hexdigest() == file_hash(p)

    def failing():
        yield "three\n"
        raise RuntimeError("no more blocks")

    with pytest.raises(RuntimeError):
        atomic_write_text(p, failing())
    assert p.read_text() == "two\n"
    # no temp files left behind
    assert [f.name for f in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_atomic_write_follows_the_umask(tmp_path, umask, mode):
    """A written file gets the mode a file `open()` creates would get, both
    when it is new and when it replaces one of another mode."""
    p = tmp_path / "out.txt"
    p.write_text("old\n")
    p.chmod(0o640)
    old = os.umask(umask)
    try:
        atomic_write_text(p, "one\n")
        atomic_write_text(tmp_path / "new.txt", "new\n")
    finally:
        os.umask(old)
    assert [oct(f.stat().st_mode & 0o777) for f in (p, tmp_path / "new.txt")] == [oct(mode)] * 2
