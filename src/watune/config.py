"""Experiment configuration: one self-describing file whose hash stamps
every artifact it produces. The file's keys are the fields of
`ExperimentConfig` and of its section dataclasses, and nothing else."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum

from .datagen import DatasetConfig
from .measurement import LinkModelConfig
from .reward import RewardConfig
from .train import TrainConfig


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

    def to_dict(self) -> dict:
        return _plain(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _plain(value):
    """`value` as JSON data: a dataclass as an object of its fields, a table
    as an object keyed by enum name, a tuple as a list, an enum as its value."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {key.name: _plain(v) for key, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value.value if isinstance(value, Enum) else value


def _built(value, like, where: str):
    """`value`, parsed JSON, built in the form of `like`, its place in the
    built-in config, by inverting `_plain`. A dataclass or table takes an
    object of exactly its keys, a tuple a list of as many numbers, an enum one
    of its values, and a leaf its kind, where an int is kept as a float for one."""
    if is_dataclass(like) or isinstance(like, dict):
        # Each key's name in the file, its key in `like`, and its value there.
        if is_dataclass(like):
            parts = {f.name: (f.name, getattr(like, f.name)) for f in fields(like)}
        else:  # a table keyed by enum
            parts = {key.name: (key, v) for key, v in like.items()}
        if type(value) is not dict:
            raise ValueError(f"config {where or 'file'} must be an object, not {value!r}")
        for name in [k for k in value if k not in parts]:
            raise ValueError(f"config {where or 'file'} has no key {name!r}")
        dotted = {name: f"{where}.{name}" if where else name for name in parts}
        for name in [k for k in parts if k not in value]:
            raise ValueError(f"config missing key {dotted[name]}")
        built = {key: _built(value[name], v, dotted[name]) for name, (key, v) in parts.items()}
        return type(like)(**built) if is_dataclass(like) else built
    if isinstance(like, tuple):
        if type(value) is not list or len(value) != len(like):
            raise ValueError(f"config {where} must be a list of {len(like)} numbers, not {value!r}")
        return tuple(_built(v, d, where) for v, d in zip(value, like))
    if isinstance(like, Enum):
        values = [m.value for m in type(like)]
        if value not in values:
            raise ValueError(f"config {where} must be one of {', '.join(map(repr, values))}, "
                             f"not {value!r}")
        return type(like)(value)
    kind = type(like)
    try:
        if type(value) in ((int, float) if kind is float else (kind,)):
            return kind(value)
    except OverflowError:  # an int too large for a float
        pass
    kinds = {int: "an integer", float: "a number", str: "a string"}  # a bool is none of them
    raise ValueError(f"config {where} must be {kinds[kind]}, not {value!r}")


def from_dict(obj) -> ExperimentConfig:
    """The config a parsed JSON file describes, checked against the built-in one."""
    like = ExperimentConfig()
    if type(obj) is dict:  # out_dir is the one optional key
        obj = {"out_dir": like.out_dir, **obj}
    return _built(obj, like, "")


def load_config(path: str | None) -> ExperimentConfig:
    """Load from path, or the built-in defaults without one."""
    if path is None:
        return ExperimentConfig()
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON or UTF-8, an over-long number, too deep
            raise ValueError(f"{path}: not a JSON config: {exc}") from None
    try:
        return from_dict(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_config(path, cfg: ExperimentConfig) -> None:
    atomic_write_text(path, json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")


def atomic_write_text(path, text) -> None:
    """Write `text`, a string, bytes or an iterable of blocks, each a string
    or any bytes-like object, to `path` (strings as UTF-8, the rest as they
    are) through a temporary file beside it, so that `path` holds either its
    old content or all of the new, with the mode `open()` gives a new file."""
    d, tmp = os.path.dirname(os.path.abspath(path)), None
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".watune-tmp-")
        with os.fdopen(fd, "wb") as fh:
            umask = os.umask(0o077)  # read by setting it; mkstemp made the file 0600
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            for block in (text,) if isinstance(text, (str, bytes)) else text:
                fh.write(block.encode() if isinstance(block, str) else block)
        os.replace(tmp, path)
    except OSError as exc:  # named as `path`, not as the temporary file
        raise (OSError(exc.errno, exc.strerror, str(path)) if exc.errno else exc) from None
    finally:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)
