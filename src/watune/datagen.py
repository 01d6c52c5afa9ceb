"""Synthetic dataset pipeline: scenario grid, app-usage sampling, session
simulation sweeping all 8 actions per step, reward annotation, stratified
split, peer masking, the OOD variant, and the column-wise `Dataset` they
all produce and consume."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .domain import (
    ALL_SCENARIOS,
    AppType,
    BatteryClass,
    BatteryConfig,
    Contexts,
    DatasetError,
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
            if not 0 < lo <= hi <= 100:
                raise ValueError(f"dataset.battery_class_ranges.{c.name} must be a (lo, hi) pair "
                                 "with 0 < lo <= hi <= 100")


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
# Columns derived from the observed ones by `objective`; files do not hold them.
_REWARDS = ("rewards", "lat_scores", "eng_scores")
# Columns, the condition every (finite) entry must meet, and the message.
# The latency scores need none: `objective` keeps them in [0, 100] for any
# latency that passed its own check.
_CHECKS = (
    ("step", lambda v: v >= 0, "step must be non-negative"),
    ("pub", lambda v: (v >= 0) & (v <= 100), "publisher battery must be in [0,100]"),
    ("sub", lambda v: (v >= 0) & (v <= 100), "subscriber battery must be in [0,100]"),
    ("lat", lambda v: v >= 0, "latency must be finite and non-negative"),
    ("eng", lambda v: v > 0, "energy must be finite and strictly positive"),
    ("rewards", lambda v: True, "rewards must be finite"),
    ("eng_scores", lambda v: v > 0, "energy scores must be finite and positive"),
)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Struct-of-arrays dataset, one row per decision step.

    The context columns are those of `Contexts` (time, pub, sub, peer, hist);
    lat/eng and rewards/lat_scores/eng_scores are (N, 8) per-action arrays;
    scenario holds indices into ALL_SCENARIOS. A slice, mask or index array
    yields a Dataset of those rows; there is no one-row form. A plain column
    container: the columns are checked where they enter, by
    `generate_dataset` and `load_dataset`, and building one checks nothing.
    """

    time: np.ndarray
    pub: np.ndarray
    sub: np.ndarray
    peer: np.ndarray
    hist: np.ndarray
    step: np.ndarray
    lat: np.ndarray
    eng: np.ndarray
    rewards: np.ndarray
    lat_scores: np.ndarray
    eng_scores: np.ndarray
    scenario: np.ndarray

    def __len__(self) -> int:
        return len(self.pub)

    def __getitem__(self, key):
        return Dataset(**{f.name: getattr(self, f.name)[key] for f in fields(self)})

    @property
    def contexts(self) -> Contexts:
        return Contexts(self.time, self.pub, self.sub, self.peer, self.hist)

    @staticmethod
    def concat(parts) -> "Dataset":
        return Dataset(**{f.name: np.concatenate([getattr(p, f.name) for p in parts])
                          for f in fields(Dataset)})


def _checked(data: Dataset) -> Dataset:
    """`data`, once its app histories are non-empty and its columns pass
    `_CHECKS`; a `DatasetError` names the first offending row."""
    if len(data) and data.hist.shape[1] < 1:
        raise ValueError("app histories must be non-empty")
    for name, cond, message in _CHECKS:
        col = getattr(data, name)
        bad = ~(np.isfinite(col) & cond(col))
        if bad.ndim == 2:
            bad = bad.any(axis=1)
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


def battery_classes(bc: BatteryConfig) -> tuple[BatteryClass, BatteryClass]:
    return _CONFIG_CLASSES[bc]


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
                          for c in battery_classes(scenario.battery_config))

    n = cfg.logs_per_session
    app_stream = sample_app(profile, scenario.time, rng, size=n)
    # Rolling window, oldest first; early steps repeat the first app.
    steps = np.arange(n)
    hist = app_stream[np.maximum(0, steps[:, None] - (cfg.window - 1) + np.arange(cfg.window))]

    lat, eng = map(np.array, zip(*[measure(link, scenario, rng) for _ in steps]))

    contexts = Contexts(time=np.full(n, int(scenario.time)), pub=None, sub=None,
                        peer=np.ones(n, dtype=bool), hist=hist)
    drain = np.zeros(n)
    best = None
    while True:
        contexts = contexts._replace(pub=_battery_levels(pub_batt, drain),
                                     sub=_battery_levels(sub_batt, drain))
        rewards, lat_scores, eng_scores = objective(contexts, (lat, eng), reward_cfg)
        chosen = np.argmax(rewards, axis=1)
        if best is not None and np.array_equal(chosen, best):
            break
        best = chosen
        drain = eng[steps, best] * (cfg.sample_interval_s / 3600.0)

    return Dataset(
        **contexts._asdict(), step=steps, lat=lat, eng=eng,
        rewards=rewards, lat_scores=lat_scores, eng_scores=eng_scores,
        scenario=np.full(n, scenario.code),
    )


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
    with np.errstate(over="ignore", invalid="ignore"):  # `_checked` names an overflowed column
        return _checked(Dataset.concat([
            generate_session(scenario, profile, link, cfg, reward_cfg,
                             np.random.default_rng([seed, stream, idx]))
            for idx, scenario in enumerate(ALL_SCENARIOS)
        ]))


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
    return replace(dataset, sub=np.zeros_like(dataset.sub), peer=np.zeros_like(dataset.peer))


# Wire names by code, and codes by wire name.
_TIME_NAMES = tuple(t.name for t in TimeOfDay)
_APP_NAMES = tuple(a.name for a in AppType)
_SCENARIO_NAMES = tuple({"time": s.time.name, "battery_config": s.battery_config.name}
                        for s in ALL_SCENARIOS)
_TIME_CODE = {name: code for code, name in enumerate(_TIME_NAMES)}
_APP_CODE = {name: code for code, name in enumerate(_APP_NAMES)}
_SCENARIO_CODE = {(s["time"], s["battery_config"]): code for code, s in enumerate(_SCENARIO_NAMES)}
# The JSON text of each name and scenario object, by code.
_TIME_JSON, _APP_JSON, _SCENARIO_JSON = (
    np.array([json.dumps(v, separators=(",", ":")) for v in names], dtype=object)
    for names in (_TIME_NAMES, _APP_NAMES, _SCENARIO_NAMES))
# Records per block, both in the text `dataset_blocks` yields and in the
# records `load_dataset` parses before it turns them into arrays: a block's
# values are Python objects, and larger blocks raise peak memory without
# writing or reading faster.
_BLOCK_ROWS = 256


def dataset_blocks(dataset: Dataset):
    """The JSONL form of a dataset, as blocks of whole lines: one compact
    record per row, holding what was observed (context and measurements) and
    no rewards. A record is the text `json.dumps(record, separators=(",", ":"))`
    writes for it: names and scenarios are filled in as JSON text, numbers
    with `%s`, which for an int or a finite float is the same repr `json` uses."""
    fmt = lambda n: ",".join(["%s"] * n)
    template = (f'{{"step":%s,"time":%s,"app_history":[{fmt(dataset.hist.shape[1])}],'
                f'"pub_battery":%s,"sub_battery":%s,"latency_ms":[{fmt(NUM_ACTIONS)}],'
                f'"energy_pct_h":[{fmt(NUM_ACTIONS)}],"scenario":%s}}\n')
    for start in range(0, len(dataset), _BLOCK_ROWS):
        d = dataset[start:start + _BLOCK_ROWS]
        cells = np.column_stack([  # object columns: numbers become Python ints and floats
            d.step, _TIME_JSON[d.time], _APP_JSON[d.hist], d.pub,
            np.where(d.peer, d.sub.astype(object), "null"), d.lat, d.eng, _SCENARIO_JSON[d.scenario]])
        yield template * len(d) % tuple(cells.ravel().tolist())


# The keys a record must hold, in record order; those of `scenario` dotted.
_RECORD_KEYS = ("step", "time", "app_history", "pub_battery", "sub_battery", "latency_ms",
                "energy_pct_h", "scenario", "scenario.time", "scenario.battery_config")


def _key_error(rec: dict, exc: KeyError) -> str:
    """What a KeyError raised reading `rec` means: the first key it lacks,
    else a value that is not a known name."""
    for key in _RECORD_KEYS:
        owner, _, leaf = key.rpartition(".")
        node = rec.get(owner) if owner else rec
        if isinstance(node, dict) and leaf not in node:
            return f"missing key {key}"
    return f"unknown name {exc.args[0]!r}"


def load_dataset(path, reward_cfg: RewardConfig) -> Dataset:
    """Parse a JSONL dataset straight into columns and derive its reward
    columns under `reward_cfg`. Errors name the file and the line of the
    offending record; keys other than the observed ones are ignored. Every
    `_BLOCK_ROWS` records become arrays, so at most one block of values is
    held as Python objects."""
    # The observed columns, and each record's line in the file.
    cols = {f.name: [] for f in fields(Dataset) if f.name not in _REWARDS} | {"lineno": []}
    linenos = cols["lineno"]
    blocks = {k: [] for k in cols}  # each column's arrays, block by block
    width = None  # app-history length of the file's first record
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                sub, scenario = rec["sub_battery"], rec["scenario"]
                row = {
                    "time": _TIME_CODE[rec["time"]],
                    "pub": rec["pub_battery"],
                    "sub": 0.0 if sub is None else sub,
                    "peer": sub is not None,
                    "hist": [_APP_CODE[a] for a in rec["app_history"]],
                    "step": rec["step"],
                    "scenario": _SCENARIO_CODE[scenario["time"], scenario["battery_config"]],
                }
                if scenario["time"] != rec["time"]:
                    raise ValueError(f"time {rec['time']!r} differs from scenario.time "
                                     f"{scenario['time']!r}")
                if width is not None and len(row["hist"]) != width:
                    raise ValueError("app_history length differs from the first record")
                vectors = {k: rec[key] for k, key in _VECTORS.items()}
                if any(len(v) != NUM_ACTIONS for v in vectors.values()):
                    raise ValueError(f"per-action arrays must have {NUM_ACTIONS} entries")
            except KeyError as exc:
                raise ValueError(f"{path}: line {lineno}: malformed dataset record: "
                                 f"{_key_error(rec, exc)}") from None
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}: line {lineno}: malformed dataset record: {exc}") from None
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
    line_of = arrays.pop("lineno")
    try:
        contexts = Contexts(*(arrays[k] for k in Contexts._fields))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # `_checked` names it
            derived = objective(contexts, (arrays["lat"], arrays["eng"]), reward_cfg)
        return _checked(Dataset(**arrays, **dict(zip(_REWARDS, derived))))
    except DatasetError as exc:
        raise ValueError(f"{path}: line {line_of[exc.row]}: {exc.message}") from None
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: malformed dataset: {exc}") from None


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
    dtypes = dict.fromkeys(["pub", "sub", *_VECTORS], float) | {"step": int, "peer": bool}
    try:
        arrays = {k: np.array(v, dtype=dtypes.get(k, int)) for k, v in cols.items()}
    except OverflowError:  # a JSON integer too large for its column, which holds numbers
        k = next(k for k in _NUMBERS if not _fits(cols[k], dtypes[k]))
        raise refuse(k, lambda v: _fits(v, dtypes[k]), f"fit in {np.dtype(dtypes[k])}") from None
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
