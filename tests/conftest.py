import json
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from watune.datagen import (
    IN_DISTRIBUTION_PROFILE,
    Dataset,
    DatasetConfig,
    dataset_blocks,
    generate_dataset,
    load_dataset,
    split,
)
from watune.domain import NUM_ACTIONS, AppType, BatteryConfig, TimeOfDay
from watune.measurement import LinkModelConfig
from watune.reward import RewardConfig, objective


# The odd values each boundary fuzz sets a field to in turn; 1e400 is what
# `json` reads for that literal (infinity).
FUZZ_VALUES = (-1, 0, 1e400, float("nan"), "x", True, None, [], {})


class Context(NamedTuple):
    """One hand-written decision context; subscriber_battery is None when
    the peer is masked. Tests stack rows into a batch with `dataset_of`."""

    time: TimeOfDay
    publisher_battery: float
    subscriber_battery: float | None
    app_history: tuple[AppType, ...]


def dataset_of(*rows: Context, rewards=None) -> Dataset:
    """The `Dataset` of `rows`, whose app histories share one length: their
    contexts, unit measurements, scenario (time, bothHigh), and `rewards`
    (zeros by default) as each row's per-action objective values."""
    subs = [c.subscriber_battery for c in rows]
    time = np.array([int(c.time) for c in rows])
    ones = np.ones((len(rows), NUM_ACTIONS))
    return Dataset(pub=np.array([c.publisher_battery for c in rows], dtype=float),
                   sub=np.array([s or 0.0 for s in subs], dtype=float),
                   peer=np.array([s is not None for s in subs]),
                   hist=np.array([[int(a) for a in c.app_history] for c in rows]),
                   step=np.arange(len(rows)), lat=ones, eng=ones,
                   rewards=ones * 0.0 if rewards is None else np.array(rewards, dtype=float),
                   scenario=time * len(BatteryConfig) + int(BatteryConfig.bothHigh))


def relabel(dataset: Dataset, reward_cfg: RewardConfig) -> Dataset:
    """`dataset` with its rewards recomputed from its measurements under
    `reward_cfg`. Rewards see the stored context, so `dataset` must not be
    peer-masked."""
    rewards, _, _ = objective(dataset, (dataset.lat, dataset.eng), reward_cfg)
    return replace(dataset, rewards=rewards)


def jsonl(dataset: Dataset) -> str:
    """The whole JSONL text `dataset_blocks` writes for `dataset`."""
    return "".join(dataset_blocks(dataset))


def load_record(tmp_path, dataset: Dataset, **edit) -> Dataset:
    """Load a file of one record: that of the first row of `dataset`, with
    the keys in `edit` set to their values."""
    path = tmp_path / "record.jsonl"
    path.write_text(json.dumps(json.loads(jsonl(dataset[:1])) | edit) + "\n")
    return load_dataset(path, RewardConfig())


@pytest.fixture(scope="session")
def small_dataset():
    """16 scenarios x 100 steps: big enough for training smoke tests."""
    cfg = DatasetConfig(logs_per_session=100)
    return generate_dataset(IN_DISTRIBUTION_PROFILE, LinkModelConfig(), cfg, RewardConfig(), 1)


@pytest.fixture(scope="session")
def small_split(small_dataset):
    rng = np.random.default_rng([1, 9973])
    return split(small_dataset, 0.8, rng)
