"""Experiment configuration: one self-describing file whose hash stamps
every artifact it produces."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field, replace

from .datagen import DatasetConfig
from .domain import BatteryClass, TimeOfDay
from .measurement import LinkModelConfig
from .reward import RewardConfig, RewardMode
from .train import TrainConfig

# The scalar fields of each config section, stored under their own names.
# The remaining keys (tables, enums) are mapped by hand below.
SECTION_FIELDS = {
    "dataset": ("logs_per_session", "sample_interval_s", "window", "split_fraction"),
    "link": ("latency_noise_sigma", "energy_noise_sigma"),
    "reward": ("w_l", "w_p", "soft_temp"),
    "train": ("loss", "epochs", "effective_batch", "learning_rate", "weight_decay",
              "dpo_beta", "layers", "hidden"),
}


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


# How messages name each JSON kind a config leaf may have; a bool is none.
KINDS = {int: "an integer", float: "a number", str: "a string"}


def _checked(value, default, where: str):
    """`value` checked against `default`, its place in the built-in config's
    `to_dict()`: an object with exactly its keys, a list of as many numbers
    (kept as a tuple), or a leaf of its kind, where an int is taken (and
    kept as a float) for a float."""
    if type(default) is dict:
        if type(value) is not dict:
            raise ValueError(f"config {where or 'file'} must be an object, not {value!r}")
        for key in [k for k in value if k not in default]:
            raise ValueError(f"config {where or 'file'} has no key {key!r}")
        dotted = {key: f"{where}.{key}" if where else key for key in default}
        for key in [k for k in default if k not in value]:
            raise ValueError(f"config missing key {dotted[key]}")
        return {key: _checked(value[key], d, dotted[key]) for key, d in default.items()}
    if type(default) is list:
        if type(value) is not list or len(value) != len(default):
            raise ValueError(f"config {where} must be a list of {len(default)} numbers, not {value!r}")
        return tuple(_checked(v, d, where) for v, d in zip(value, default))
    kind = type(default)
    try:
        if type(value) in ((int, float) if kind is float else (kind,)):
            return kind(value)
    except OverflowError:  # an int too large for a float
        pass
    raise ValueError(f"config {where} must be {KINDS[kind]}, not {value!r}")


def from_dict(obj) -> ExperimentConfig:
    """The config a parsed JSON file describes, checked against the built-in one."""
    schema = ExperimentConfig().to_dict()
    if type(obj) is dict:  # out_dir is the one optional key
        obj = {"out_dir": schema["out_dir"], **obj}
    d = _checked(obj, schema, "")
    mode, modes = d["reward"].pop("reward_mode"), [m.value for m in RewardMode]
    if mode not in modes:
        raise ValueError(f"config reward.reward_mode must be one of "
                         f"{', '.join(map(repr, modes))}, not {mode!r}")
    ds, lk = d["dataset"], d["link"]
    ds["battery_class_ranges"] = {BatteryClass[c]: v for c, v in ds["battery_class_ranges"].items()}
    lk["time_latency_multiplier"] = {TimeOfDay[t]: v for t, v in lk["time_latency_multiplier"].items()}
    return ExperimentConfig(seed=d["seed"], out_dir=d["out_dir"],
                            dataset=DatasetConfig(**ds), link=LinkModelConfig(**lk),
                            reward=RewardConfig(**d["reward"], mode=RewardMode(mode)),
                            train=TrainConfig(**d["train"]))


def load_config(path: str | None) -> ExperimentConfig:
    """Load from path, or the built-in defaults without one."""
    if path is None:
        return ExperimentConfig()
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # not JSON, not UTF-8, or an over-long number
            raise ValueError(f"{path}: not a JSON config: {exc}") from None
    try:
        return from_dict(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_config(path, cfg: ExperimentConfig) -> None:
    atomic_write_text(path, json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")


def atomic_write_text(path, text) -> str:
    """Write `text`, a string or an iterable of string blocks, to `path` as
    UTF-8 through a temporary file beside it, so that `path` holds either its
    old content or all of the new, with the mode `open()` gives a new file;
    returns the sha256 of the bytes written."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".watune-tmp-")
    digest = hashlib.sha256()
    try:
        with os.fdopen(fd, "wb") as fh:
            umask = os.umask(0o077)  # read by setting it; mkstemp made the file 0600
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            for block in (text,) if isinstance(text, str) else text:
                data = block.encode()
                digest.update(data)
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return digest.hexdigest()
