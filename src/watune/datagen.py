"""Synthetic dataset pipeline: scenario grid, app-usage sampling, session
simulation sweeping all 8 actions per step, reward annotation, stratified
split, peer masking, the OOD variant, and the column-wise `Dataset` they
all produce and consume."""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .domain import (
    ALL_SCENARIOS,
    AppType,
    BatteryClass,
    BatteryConfig,
    NUM_ACTIONS,
    Scenario,
    TimeOfDay,
)
from .measurement import LinkModelConfig, measure
from .reward import RewardConfig, objective

AppUsageProfile = dict  # TimeOfDay -> {AppType: probability}

IN_DISTRIBUTION_PROFILE: AppUsageProfile = {
    TimeOfDay.morning: {
        AppType.textMessage: 0.25,
        AppType.voiceChat: 0.20,
        AppType.videoCall: 0.25,
        AppType.mapSync: 0.20,
        AppType.photoTransfer: 0.10,
    },
    TimeOfDay.afternoon: {
        AppType.textMessage: 0.20,
        AppType.voiceChat: 0.20,
        AppType.videoCall: 0.25,
        AppType.sensorSync: 0.20,
        AppType.photoTransfer: 0.15,
    },
    TimeOfDay.evening: {
        AppType.textMessage: 0.10,
        AppType.voiceChat: 0.20,
        AppType.videoUpload: 0.30,
        AppType.photoTransfer: 0.20,
        AppType.videoCall: 0.20,
    },
    TimeOfDay.night: {
        AppType.firmwareUpdate: 0.40,
        AppType.sensorSync: 0.30,
        AppType.textMessage: 0.10,
        AppType.photoTransfer: 0.10,
        AppType.mapSync: 0.10,
    },
}

OOD_PROFILE: AppUsageProfile = {
    TimeOfDay.morning: {
        AppType.videoCall: 0.30,
        AppType.textMessage: 0.25,
        AppType.voiceChat: 0.20,
        AppType.photoTransfer: 0.15,
        AppType.videoUpload: 0.10,
    },
    TimeOfDay.afternoon: {
        AppType.videoCall: 0.25,
        AppType.textMessage: 0.25,
        AppType.voiceChat: 0.20,
        AppType.photoTransfer: 0.20,
        AppType.videoUpload: 0.10,
    },
    TimeOfDay.evening: {
        AppType.videoUpload: 0.35,
        AppType.videoCall: 0.25,
        AppType.photoTransfer: 0.20,
        AppType.voiceChat: 0.15,
        AppType.textMessage: 0.05,
    },
    TimeOfDay.night: {
        AppType.videoUpload: 0.30,
        AppType.videoCall: 0.25,
        AppType.textMessage: 0.20,
        AppType.voiceChat: 0.15,
        AppType.photoTransfer: 0.10,
    },
}

DEFAULT_BATTERY_RANGES: dict[BatteryClass, tuple[float, float]] = {
    BatteryClass.high: (70.0, 100.0),
    BatteryClass.medium: (30.0, 70.0),
    BatteryClass.low: (5.0, 30.0),
}

BATTERY_FLOOR = 5.0

_CONFIG_CLASSES = {
    BatteryConfig.bothHigh: (BatteryClass.high, BatteryClass.high),
    BatteryConfig.bothMedium: (BatteryClass.medium, BatteryClass.medium),
    BatteryConfig.bothLow: (BatteryClass.low, BatteryClass.low),
    BatteryConfig.pubHighSubLow: (BatteryClass.high, BatteryClass.low),
}


@dataclass
class DatasetConfig:
    logs_per_session: int = 2000
    sample_interval_s: float = 5.0
    window: int = 10
    split_fraction: float = 0.8
    battery_class_ranges: dict = field(default_factory=lambda: dict(DEFAULT_BATTERY_RANGES))

    def __post_init__(self):
        for name, ok, rule in (
            ("split_fraction", 0 < self.split_fraction < 1, "in (0, 1)"),
            ("window", self.window >= 1, ">= 1"),
            ("logs_per_session", self.logs_per_session >= self.window, ">= dataset.window"),
            ("split_fraction", self.logs_per_session * self.split_fraction >= 1,
             ">= 1 / dataset.logs_per_session, so that each scenario keeps a training row"),
            ("sample_interval_s", 0 < self.sample_interval_s < math.inf, "finite and > 0"),
        ):
            if not ok:  # NaN fails every comparison
                raise ValueError(f"dataset.{name} must be {rule}, not {getattr(self, name)!r}")
        for c in BatteryClass:
            try:
                lo, hi = map(float, self.battery_class_ranges[c])
            except (KeyError, TypeError, ValueError):
                lo = hi = math.nan
            if not BATTERY_FLOOR <= lo <= hi <= 100:  # no session starts below where its drain stops
                raise ValueError(f"dataset.battery_class_ranges.{c.name} must be a (lo, hi) pair "
                                 f"with {BATTERY_FLOOR:g} <= lo <= hi <= 100")


# Per-action measurement columns and their JSONL keys, in record order.
_VECTORS = {"lat": "latency_ms", "eng": "energy_pct_h"}
# Columns read as JSON numbers: their JSONL keys, the types allowed (a bool
# is not a number here; a null sub_battery was read as 0.0) and the rule.
_NUMBERS = {
    "step": ("step", {int}, "be an integer"),
    "pub": ("pub_battery", {int, float}, "be a number"),
    "sub": ("sub_battery", {int, float}, "be a number or null"),
    **{k: (key, {int, float}, "hold numbers") for k, key in _VECTORS.items()},
}
# Columns, the condition every (finite) entry must meet, and the message:
# every value rule of a `Dataset`. A subscriber battery of 0 is hidden, so
# the reward divides energy only by positive batteries (`_parsed` refuses a
# record's literal 0). The scores need no check: `objective`
# keeps the latency scores in [0, 100] and, as an energy from `ENERGY_FLOOR`
# (%/h) up keeps each battery / energy term within half the largest float,
# the energy scores finite.
ENERGY_FLOOR = 2 * 100.0 / float(np.finfo(float).max)
_CHECKS = (
    ("step", lambda v: v >= 0, "step must be non-negative"),
    ("pub", lambda v: (v > 0) & (v <= 100), "publisher battery must be in (0,100]"),
    ("sub", lambda v: (v >= 0) & (v <= 100), "subscriber battery must be in (0,100]"),
    ("lat", lambda v: v >= 0, "latency must be finite and non-negative"),
    ("eng", lambda v: v > 0, "energy must be finite and strictly positive"),
    ("eng", lambda v: v >= ENERGY_FLOOR, f"energy must be at least {ENERGY_FLOOR!r} %/h"),
    ("rewards", lambda v: True, "rewards must be finite"),
)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Struct-of-arrays dataset, one row per decision step.

    The context columns are pub[N] and sub[N] batteries (sub is 0 where the
    peer hides it) and hist[N, W] app codes, oldest first; scenario holds
    indices into ALL_SCENARIOS, and `time` is read from it.
    step is the session step; lat/eng are the (N, 8) per-action latency and
    energy measurements and rewards the (N, 8) per-action objective values
    `objective` derives from them. The latency and energy scores are not
    kept: `evaluate` derives those of the chosen actions. A slice, mask or index array
    yields a Dataset of those rows; there is no one-row form. A plain column
    container: the columns are checked where they enter, by
    `generate_dataset` and `load_dataset`, and building one checks nothing.
    """

    pub: np.ndarray
    sub: np.ndarray
    hist: np.ndarray
    step: np.ndarray
    lat: np.ndarray
    eng: np.ndarray
    rewards: np.ndarray
    scenario: np.ndarray

    def __len__(self) -> int:
        return len(self.pub)

    @property
    def time(self) -> np.ndarray:
        """Each row's time-of-day code, that of its scenario."""
        return _SCENARIO_TIME[self.scenario]

    @property
    def peer(self) -> np.ndarray:
        """Whether each row shows the subscriber's battery: hidden is 0."""
        return self.sub > 0

    def __getitem__(self, key):
        return Dataset(**{f.name: getattr(self, f.name)[key] for f in fields(self)})

    @staticmethod
    def concat(parts, n: int) -> "Dataset":
        """The rows of `parts`, datasets of `n` rows in all, copied in as each
        arrives, so a generator of parts keeps only one alive."""
        cols, at = None, 0
        for part in parts:
            if cols is None:  # the first part sets each column's dtype and row shape
                cols = {f.name: np.empty((n, *getattr(part, f.name).shape[1:]),
                                         getattr(part, f.name).dtype) for f in fields(Dataset)}
            for name, col in cols.items():
                col[at:at + len(part)] = getattr(part, name)
            at += len(part)
            del part  # not alive while the next part is made
        return Dataset(**cols)


_SCENARIO_TIME = np.array([int(s.time) for s in ALL_SCENARIOS])
# Each observed column's dtype, as parsed and as cached, in `Dataset` field order.
_DTYPES = {k: np.dtype(t) for k, t in (
    ("pub", float), ("sub", float), ("hist", int),
    ("step", int), ("lat", float), ("eng", float), ("scenario", int))}


class DatasetError(ValueError):
    """A column of a dataset failed `_checked`; `row` is the first
    offending row, and `column` the column's name."""

    def __init__(self, row: int, message: str, column: str):
        super().__init__(f"row {row}: {message}")
        self.row, self.message, self.column = row, message, column


def _checked(data: Dataset) -> Dataset:
    """`data`, once its app histories are non-empty and its columns pass
    `_CHECKS`. A `DatasetError` names the first offending row."""
    if len(data) and data.hist.shape[1] < 1:
        raise ValueError("app histories must be non-empty")
    for name, cond, message in _CHECKS:
        col = getattr(data, name)
        ok = np.isfinite(col)
        ok &= cond(col)
        bad = ~(ok.all(axis=1) if ok.ndim == 2 else ok)
        if bad.any():
            raise DatasetError(int(np.argmax(bad)), message, name)
    return data


def sample_app(profile: AppUsageProfile, time: TimeOfDay, rng: np.random.Generator,
               size: int) -> np.ndarray:
    """An array of `size` app codes drawn from the profile at `time`."""
    dist = profile[time]
    apps = list(dist.keys())
    probs = np.array([dist[a] for a in apps])
    return np.array(apps)[rng.choice(len(apps), size=size, p=probs / probs.sum())]


def _battery_levels(start: float, drain: np.ndarray) -> np.ndarray:
    """Battery at each step: `start`, then each step's drain taken off in
    turn, floored at 5% (the same float operations as a per-step loop)."""
    levels = np.subtract.accumulate(np.concatenate(([start], drain[:-1])))
    levels[1:] = np.maximum(BATTERY_FLOOR, levels[1:])
    return levels


def generate_session(
    scenario: Scenario,
    profile: AppUsageProfile,
    link: LinkModelConfig,
    cfg: DatasetConfig,
    reward_cfg: RewardConfig,
    rng: np.random.Generator,
) -> Dataset:
    """Simulate one 5 s-interval session, sweeping all 8 actions per step.

    Both devices pay the oracle-best action's energy for one sampling
    interval per step, so each step's battery depends on the rewards of the
    steps before it. The batteries are solved as a fixed point of
    "rewards under these batteries pick these actions": each pass computes
    the rewards on whole columns, and a pass that reproduces its input
    actions has reproduced the step-by-step simulation, so it is exact.
    """
    pub_batt, sub_batt = (rng.uniform(*cfg.battery_class_ranges[c])
                          for c in _CONFIG_CLASSES[scenario.battery_config])

    n = cfg.logs_per_session
    app_stream = sample_app(profile, scenario.time, rng, size=n)
    # Rolling window, oldest first; early steps repeat the first app.
    steps = np.arange(n)
    hist = app_stream[np.maximum(0, steps[:, None] - (cfg.window - 1) + np.arange(cfg.window))]

    lat, eng = map(np.array, zip(*[measure(link, scenario, rng) for _ in steps]))

    data = Dataset(pub=None, sub=None, hist=hist, step=steps, lat=lat, eng=eng,
                   rewards=None, scenario=np.full(n, scenario.code))
    drain = np.zeros(n)
    best = None
    while True:
        data = replace(data, pub=_battery_levels(pub_batt, drain),
                       sub=_battery_levels(sub_batt, drain))
        rewards = objective(data, reward_cfg)[0]
        chosen = np.argmax(rewards, axis=1)
        if best is not None and np.array_equal(chosen, best):
            break
        best = chosen
        drain = eng[steps, best] * (cfg.sample_interval_s / 3600.0)
    return replace(data, rewards=rewards)


def generate_dataset(
    profile: AppUsageProfile,
    link: LinkModelConfig,
    cfg: DatasetConfig,
    reward_cfg: RewardConfig,
    seed: int,
    stream: int = 0,
) -> Dataset:
    """Full 16-scenario grid in canonical order (scenario-major, step-minor).

    `stream` separates independent datasets under the same seed (e.g. the
    OOD evaluation set).
    """
    link = replace(link)  # checked, and `measure`'s tables built, from its fields as they are now
    sessions = (generate_session(scenario, profile, link, cfg, reward_cfg,
                                 np.random.default_rng([seed, stream, idx]))
                for idx, scenario in enumerate(ALL_SCENARIOS))
    with np.errstate(over="ignore", invalid="ignore"):  # `_checked` names the column at fault
        return _checked(Dataset.concat(sessions, len(ALL_SCENARIOS) * cfg.logs_per_session))


def split(dataset: Dataset, fraction: float, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Stratified-by-scenario split; train and test are disjoint, union is the input."""
    train_idx, test_idx = [], []
    for code in np.flatnonzero(np.bincount(dataset.scenario)):  # (time, battery config) order
        idxs = np.flatnonzero(dataset.scenario == code)
        perm = rng.permutation(len(idxs))
        n_train = int(len(idxs) * fraction)
        train_idx.append(idxs[perm[:n_train]])
        test_idx.append(idxs[perm[n_train:]])
    return dataset[np.sort(np.concatenate(train_idx))], dataset[np.sort(np.concatenate(test_idx))]


def mask_peer(dataset: Dataset) -> Dataset:
    """Hide subscriber battery from every context; rewards stay untouched."""
    return replace(dataset, sub=np.zeros_like(dataset.sub))


# Wire names by code, and codes by wire name; a scenario is named by its
# record's time and battery config.
_APP_NAMES = tuple(a.name for a in AppType)
_APP_CODE = {name: code for code, name in enumerate(_APP_NAMES)}
_SCENARIO_CODE = {(s.time.name, s.battery_config.name): code for code, s in enumerate(ALL_SCENARIOS)}
# The JSON text of each app name by code, and of each scenario's time and battery config.
_TIME_JSON, _APP_JSON, _CONFIG_JSON = (
    np.array([json.dumps(name) for name in names], dtype=object)
    for names in ([s.time.name for s in ALL_SCENARIOS], _APP_NAMES,
                  [s.battery_config.name for s in ALL_SCENARIOS]))
# Records per block, both in the text `dataset_blocks` yields and in the
# records `load_dataset` parses before it turns them into arrays: a block's
# values are Python objects, and larger blocks raise peak memory without
# writing or reading faster.
_BLOCK_ROWS = 256


def dataset_blocks(dataset: Dataset):
    """The JSONL form of a dataset, as blocks of whole lines: one compact
    record per row, holding what was observed (context and measurements) and
    no rewards. A record is the text `json.dumps(record, separators=(",", ":"))`
    writes for it: names are filled in as JSON text, numbers
    with `%s`, which for an int or a finite float is the same repr `json` uses."""
    fmt = lambda n: ",".join(["%s"] * n)
    template = (f'{{"step":%s,"time":%s,"app_history":[{fmt(dataset.hist.shape[1])}],'
                f'"pub_battery":%s,"sub_battery":%s,"latency_ms":[{fmt(NUM_ACTIONS)}],'
                f'"energy_pct_h":[{fmt(NUM_ACTIONS)}],"battery_config":%s}}\n')
    for start in range(0, len(dataset), _BLOCK_ROWS):
        d = dataset[start:start + _BLOCK_ROWS]
        cells = np.column_stack([  # object columns: numbers become Python ints and floats
            d.step, _TIME_JSON[d.scenario], _APP_JSON[d.hist], d.pub,
            np.where(d.peer, d.sub.astype(object), "null"), d.lat, d.eng, _CONFIG_JSON[d.scenario]])
        yield template * len(d) % tuple(cells.ravel().tolist())


_name_in = lambda names: lambda v: type(v) is str and v in names
_VECTOR_KIND = (f"be a list of {NUM_ACTIONS} numbers", lambda v: type(v) is list and len(v) == NUM_ACTIONS)
# The keys a record must hold, in record order (`app_history[]` each entry
# of `app_history`), with the rule for the kind of value each needs and a
# test of it; `_NUMBERS` holds the numbers' own.
_RECORD_KEYS = {
    "step": (None, None), "time": ("be a time-of-day name", _name_in(TimeOfDay.__members__)),
    "app_history": ("be a list of app names", lambda v: type(v) is list),
    "app_history[]": ("hold app names", _name_in(_APP_CODE)), "pub_battery": (None, None),
    "sub_battery": (None, None), "latency_ms": _VECTOR_KIND, "energy_pct_h": _VECTOR_KIND,
    "battery_config": ("be a battery-config name", _name_in(BatteryConfig.__members__))}


def _record_error(rec) -> str:
    """Why reading the record `rec` raised a KeyError or TypeError: it is not
    an object, or its first key in `_RECORD_KEYS` is missing or not of its kind."""
    if type(rec) is not dict:
        return f"a record must be an object, not {rec!r}"
    for key, (rule, ok) in _RECORD_KEYS.items():
        name = key.removesuffix("[]")
        if name not in rec:
            return f"missing key {key}"
        for value in (rec[name] if key != name else [rec[name]]) if ok else ():
            if not ok(value):
                return f"{name} must {rule}, not {value!r}"


def load_dataset(path, reward_cfg: RewardConfig, sha256: str | None = None) -> Dataset:
    """Read a JSONL dataset into columns and derive its rewards under
    `reward_cfg`. Errors name the file and the line of the offending record;
    keys other than the observed ones are ignored.

    With `sha256`, the caller-checked digest of `path`, the observed columns
    come from the column cache beside it (`test.columns` for
    `test.jsonl`) if `_cached` takes it; otherwise the file is parsed and
    the cache written. Both paths end in `_derived`, so give the same bits."""
    cache = os.path.splitext(path)[0] + ".columns" if sha256 else None
    data = _cached(cache, sha256, reward_cfg) if cache else None
    if data is not None:
        return data
    cols, line_of = _parsed(path)
    try:
        data = _derived(cols, reward_cfg)
    except DatasetError as exc:
        raise ValueError(f"{path}: line {line_of[exc.row]}: {exc.message}") from None
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: malformed dataset: {exc}") from None
    if cache:
        from .config import atomic_write_text  # here, as `config` imports this module
        atomic_write_text(cache, _cache_bytes(cols, sha256))
    return data


def _derived(cols: dict, reward_cfg: RewardConfig) -> Dataset:
    """The checked dataset of the observed columns `cols` and their rewards."""
    data = Dataset(**cols, rewards=None)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # `_checked` names it
        rewards = objective(data, reward_cfg)[0]
    return _checked(replace(data, rewards=rewards))


def _parsed(path) -> tuple[dict, np.ndarray]:
    """The observed columns of the JSONL file `path`, and each row's line.
    Every `_BLOCK_ROWS` records become arrays, so at most one block of
    values is held as Python objects."""
    cols = {k: [] for k in _DTYPES} | {"lineno": []}
    linenos = cols["lineno"]
    blocks = {k: [] for k in cols}  # each column's arrays, block by block
    width = None  # app-history length of the file's first record
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line.decode())  # not `json.loads(line)`: that takes a BOM
                sub, hist = rec["sub_battery"], rec["app_history"]
                vectors = {k: rec[key] for k, key in _VECTORS.items()}
                if type(hist) is not list or not all(map(_VECTOR_KIND[1], vectors.values())):
                    raise TypeError  # a str or dict would iterate: `_record_error` names it
                row = {
                    "pub": rec["pub_battery"],
                    "sub": 0.0 if sub is None else sub,
                    "hist": [_APP_CODE[a] for a in hist],
                    "step": rec["step"],
                    "scenario": _SCENARIO_CODE[rec["time"], rec["battery_config"]],
                }
                if width is not None and len(row["hist"]) != width:
                    raise ValueError("app_history length differs from the first record")
            except (KeyError, TypeError):
                raise ValueError(f"{path}: line {lineno}: malformed dataset record: "
                                 f"{_record_error(rec)}") from None
            except (ValueError, RecursionError) as exc:  # not JSON, or nested too deeply
                raise ValueError(f"{path}: line {lineno}: malformed dataset record: {exc}") from None
            if type(sub) in (int, float) and sub == 0:  # 0 means hidden; a bool is no number
                raise ValueError(f"{path}: line {lineno}: subscriber battery must be in (0,100]")
            width = len(row["hist"])
            for k, v in row.items():
                cols[k].append(v)
            for k, v in vectors.items():
                cols[k].extend(v)
            linenos.append(lineno)
            if len(linenos) == _BLOCK_ROWS:
                _add_block(path, cols, blocks)
    if linenos or not blocks["lineno"]:  # an empty file still gets its (empty) columns
        _add_block(path, cols, blocks)
    arrays = {k: np.concatenate(blocks.pop(k)) for k in list(blocks)}
    return arrays, arrays.pop("lineno")


def _add_block(path, cols: dict, blocks: dict) -> None:
    """Type-check the records parsed into `cols`, append them to `blocks` as
    arrays, and empty `cols`. Each check is one pass over a column; the
    offending value's line is only looked for on failure."""
    linenos = cols["lineno"]
    n = len(linenos)

    def refuse(k: str, ok, rule: str) -> ValueError:
        bad = next(i for i, v in enumerate(cols[k]) if not ok(v))
        row = bad // NUM_ACTIONS if k in _VECTORS else bad
        return ValueError(f"{path}: line {linenos[row]}: malformed dataset "
                          f"record: {_NUMBERS[k][0]} must {rule}, not {cols[k][bad]!r}")

    for k, (_, types, rule) in _NUMBERS.items():
        if not set(map(type, cols[k])) <= types:
            raise refuse(k, lambda v: type(v) in types, rule)
    try:
        arrays = {k: np.array(v, dtype=_DTYPES.get(k, int)) for k, v in cols.items()}
    except OverflowError:  # a JSON integer too large for its column, which holds numbers
        k = next(k for k in _NUMBERS if not _fits(cols[k], _DTYPES[k]))
        raise refuse(k, lambda v: _fits(v, _DTYPES[k]), f"fit in {_DTYPES[k]}") from None
    for k in _VECTORS:
        arrays[k] = arrays[k].reshape(n, NUM_ACTIONS)
    arrays["hist"] = arrays["hist"].reshape(n, -1 if n else 0)
    for k, a in arrays.items():
        blocks[k].append(a)
        cols[k].clear()


def _fits(value, dtype: np.dtype) -> bool:
    try:
        np.array(value, dtype=dtype)
    except OverflowError:
        return False
    return True


def file_hash(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# The column cache's head: its tag, the parsed file's sha256, and the row
# count and app-history width. Each column's bytes follow, in `_DTYPES`
# order, then the CRC-32 of those bytes. A new layout or record format takes
# a new tag, so no cache stands in for a file the reader would refuse.
_CACHE_TAG = b"watune-columns-3"
_CACHE_HEAD = struct.Struct("<16s32sqq")


def _cached(path, sha256: str, reward_cfg: RewardConfig) -> Dataset | None:
    """The dataset `_derived` makes of the columns in the column cache
    `path`, if its head bears `_CACHE_TAG`, `sha256` and a row count and
    width that size the file to the byte, its CRC holds and its app and
    scenario codes are in range. Anything else, an unreadable file or a
    failed `_checked` included, is a miss: None. The size is
    checked before a column is read, so no head makes it allocate more
    than the file holds."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(_CACHE_HEAD.size)
            if len(head) != _CACHE_HEAD.size:
                return None
            tag, digest, rows, width = _CACHE_HEAD.unpack(head)
            shapes = {k: (rows, NUM_ACTIONS) if k in _VECTORS else (rows, width) if k == "hist"
                      else (rows,) for k in _DTYPES}
            size = sum(math.prod(s) * _DTYPES[k].itemsize for k, s in shapes.items())
            if ((tag, digest) != (_CACHE_TAG, bytes.fromhex(sha256)) or min(rows, width) < 0
                    or _CACHE_HEAD.size + size + 4 != os.fstat(fh.fileno()).st_size):
                return None
            cols, crc = {}, 0
            for k, shape in shapes.items():
                cols[k] = np.fromfile(fh, _DTYPES[k], math.prod(shape)).reshape(shape)
                crc = zlib.crc32(cols[k], crc)
            if fh.read(4) != crc.to_bytes(4, "little"):
                return None
        in_range = lambda a, n: bool(((a >= 0) & (a < n)).all())
        ok = in_range(cols["hist"], len(AppType)) and in_range(cols["scenario"], len(ALL_SCENARIOS))
        return _derived(cols, reward_cfg) if ok else None
    except (OSError, ValueError):
        return None


def _cache_bytes(cols: dict, sha256: str):
    """The column cache of `cols`, parsed from a file whose digest is
    `sha256`, as blocks of bytes: the head, each column's own buffer, which
    is not copied, and the CRC-32."""
    yield _CACHE_HEAD.pack(_CACHE_TAG, bytes.fromhex(sha256), len(cols["step"]), cols["hist"].shape[1])
    crc = 0
    for k in _DTYPES:
        crc = zlib.crc32(cols[k], crc)
        yield cols[k].data
    yield crc.to_bytes(4, "little")
