"""Experiment configuration: one self-describing file whose hash stamps
every artifact it produces."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field, fields, replace

from .datagen import DatasetConfig
from .domain import NUM_ACTIONS, BatteryClass, TimeOfDay
from .measurement import LinkModelConfig
from .reward import RewardConfig, RewardMode
from .train import TrainConfig

REQUIRED_KEYS = ("seed", "dataset", "link", "reward", "train")


# The scalar fields of each config section, stored under their own names.
# The remaining keys (tables, enums) are mapped by hand below.
SECTION_FIELDS = {
    "dataset": ("logs_per_session", "sample_interval_s", "window", "split_fraction"),
    "link": ("latency_noise_sigma", "energy_noise_sigma"),
    "reward": ("w_l", "w_p", "soft_temp"),
    "train": ("loss", "epochs", "effective_batch", "learning_rate", "weight_decay",
              "dpo_beta", "layers", "hidden"),
}
# The class of each section; its field annotations give each scalar's type.
SECTION_TYPES = {"dataset": DatasetConfig, "link": LinkModelConfig,
                 "reward": RewardConfig, "train": TrainConfig}


@dataclass
class ExperimentConfig:
    seed: int = 1
    out_dir: str = "artifacts"
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    link: LinkModelConfig = field(default_factory=LinkModelConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.seed < 0:  # numpy's seed sequences take no negative entropy
            raise ValueError(f"seed must be >= 0, not {self.seed!r}")
        # New section objects: `dataclasses.replace` passes in the sections
        # of the config it copies, which must keep their own values.
        self.dataset = replace(self.dataset, seed=self.seed)
        self.train = replace(self.train, seed=self.seed, soft_temp=self.reward.soft_temp)

    def to_dict(self) -> dict:
        out = {"seed": self.seed, "out_dir": self.out_dir}
        for section, keys in SECTION_FIELDS.items():
            out[section] = {k: getattr(getattr(self, section), k) for k in keys}
        out["dataset"]["battery_class_ranges"] = {
            c.name: list(self.dataset.battery_class_ranges[c]) for c in BatteryClass
        }
        out["link"].update(
            base_latency_ms=list(self.link.base_latency_ms),
            base_energy_pct_h=list(self.link.base_energy_pct_h),
            time_latency_multiplier={
                t.name: self.link.time_latency_multiplier[t] for t in TimeOfDay
            },
        )
        out["reward"]["reward_mode"] = self.reward.mode.value
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise KeyError(f"config missing key {where}{key!r}")
    return obj[key]


# JSON value types a scalar field accepts, and how to name them, by the
# field's declared type; a bool is not an int here.
SCALAR_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
                "str": ((str,), "a string")}


def _scalar(value, kind: str, where: str):
    types, what = SCALAR_TYPES[kind]
    if type(value) not in types:
        raise ValueError(f"config {where} must be {what}, not {value!r}")
    return value


def _numbers(value, n: int, where: str) -> tuple:
    """A list of `n` values that `_scalar` takes as numbers, as a tuple."""
    numbers = SCALAR_TYPES["float"][0]
    if type(value) is not list or len(value) != n or any(type(v) not in numbers for v in value):
        raise ValueError(f"config {where} must be a list of {n} numbers, not {value!r}")
    return tuple(value)


def _table(obj: dict, key: str, section: str, enum, what: str) -> dict:
    """The object at `section.key`, its keys turned into `enum` members."""
    value = _require(obj, key, f"{section}.")
    if type(value) is not dict:
        raise ValueError(f"config {section}.{key} must be an object, not {value!r}")
    for name in value:
        if name not in enum.__members__:
            raise ValueError(f"config {section}.{key} has no {what} {name!r}")
    return {enum[name]: v for name, v in value.items()}


def from_dict(obj: dict) -> ExperimentConfig:
    for key in REQUIRED_KEYS:
        _require(obj, key, "")
    plain = {}
    for section, keys in SECTION_FIELDS.items():
        kinds = {f.name: f.type for f in fields(SECTION_TYPES[section])}
        plain[section] = {k: _scalar(_require(obj[section], k, f"{section}."), kinds[k], f"{section}.{k}")
                          for k in keys}
    ds, lk, rw = obj["dataset"], obj["link"], obj["reward"]
    ranges = {
        c: _numbers(lo_hi, 2, f"dataset.battery_class_ranges.{c.name}")
        for c, lo_hi in _table(ds, "battery_class_ranges", "dataset", BatteryClass, "battery class").items()
    }
    link = LinkModelConfig(
        **plain["link"],
        **{key: _numbers(_require(lk, key, "link."), NUM_ACTIONS, f"link.{key}")
           for key in ("base_latency_ms", "base_energy_pct_h")},
        time_latency_multiplier={
            t: float(_scalar(v, "float", f"link.time_latency_multiplier.{t.name}"))
            for t, v in _table(lk, "time_latency_multiplier", "link", TimeOfDay, "time").items()
        },
    )
    mode, modes = _require(rw, "reward_mode", "reward."), [m.value for m in RewardMode]
    if mode not in modes:
        raise ValueError(f"config reward.reward_mode must be one of "
                         f"{', '.join(map(repr, modes))}, not {mode!r}")
    return ExperimentConfig(
        seed=_scalar(obj["seed"], "int", "seed"),
        out_dir=_scalar(obj.get("out_dir", "artifacts"), "str", "out_dir"),
        dataset=DatasetConfig(**plain["dataset"], battery_class_ranges=ranges),
        link=link,
        reward=RewardConfig(**plain["reward"], mode=RewardMode(mode)),
        train=TrainConfig(**plain["train"]),
    )


def load_config(path: str | None) -> ExperimentConfig:
    """Load from path, or the built-in defaults without one."""
    if path is None:
        return ExperimentConfig()
    with open(path) as fh:
        return from_dict(json.load(fh))


def save_config(path, cfg: ExperimentConfig) -> None:
    atomic_write_text(path, json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")


def atomic_write_text(path, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".watune-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
