"""Property tests: the column-wise reward, features and baseline decisions
equal independent straight-loop references written per context, and a
dataset survives a save/load round trip."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from watune.config import atomic_write_text
from watune.datagen import (
    IN_DISTRIBUTION_PROFILE,
    DatasetConfig,
    dataset_blocks,
    generate_dataset,
    load_dataset,
    mask_peer,
)
from watune.domain import AppType, TimeOfDay
from watune.measurement import LinkModelConfig
from watune.policy import BASELINE_NAMES, PREFERRED_TUPLE, make_baseline
from watune.reward import RewardConfig, RewardMode, objective
from watune.train import FEATURE_DIM, encode_batch

from conftest import Context, dataset_of, relabel
from test_reward import brute_objective

battery = st.floats(min_value=0.5, max_value=100.0)


@st.composite
def context_batches(draw):
    """1-12 contexts sharing one window length, some with a masked peer."""
    window = draw(st.integers(min_value=1, max_value=10))
    n = draw(st.integers(min_value=1, max_value=12))
    contexts = [
        Context(
            time=draw(st.sampled_from(list(TimeOfDay))),
            publisher_battery=draw(battery),
            subscriber_battery=draw(st.none() | battery),
            app_history=tuple(draw(st.lists(st.sampled_from(list(AppType)),
                                            min_size=window, max_size=window))),
        )
        for _ in range(n)
    ]
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return contexts, (rng.uniform(0.0, 12_000.0, (n, 8)), rng.uniform(0.1, 8.0, (n, 8)))


def row_features(ctx):
    """Straight-loop reference for one context's 15 features."""
    x = np.zeros(FEATURE_DIM)
    x[int(ctx.time)] = 1.0
    x[4] = ctx.publisher_battery / 100.0
    if ctx.subscriber_battery is not None:
        x[5] = ctx.subscriber_battery / 100.0
        x[6] = 1.0
    for app in ctx.app_history:
        x[7 + int(app)] += 1.0
    x[7:] /= len(ctx.app_history)
    return x


def first_max(values):
    """Index of the largest value, the lowest index among ties."""
    return max(range(len(values)), key=lambda a: (values[a], -a))


def row_choice(name, ctx, rewards):
    """Straight-loop reference for one baseline's action on one context."""
    if name == "oracle":
        return first_max(rewards)
    if name == "rule":
        counts = Counter(PREFERRED_TUPLE[app].index for app in ctx.app_history)
        return first_max([counts[a] for a in range(8)])
    return {"fix-rt-iv": 3, "fix-bulk-bg": 5}[name]  # (realtime, interactiveVoice), (bulk, background)


@given(context_batches(), st.sampled_from(list(RewardMode)))
@settings(max_examples=150, deadline=None)
def test_columnar_reward_equals_row_objective(batch, mode):
    contexts, (lat, eng) = batch
    cfg = RewardConfig(reward_mode=mode)
    columns = objective(dataset_of(*contexts, measured=(lat, eng)), cfg)
    for i, ctx in enumerate(contexts):
        # The reference sums in another order: equal to within float64 rounding.
        for got, want in zip(columns, brute_objective(ctx, (lat[i], eng[i]), cfg)):
            np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-12)


@given(context_batches())
@settings(max_examples=150, deadline=None)
def test_batched_encode_equals_row_encode(batch):
    contexts, _ = batch
    np.testing.assert_array_equal(encode_batch(dataset_of(*contexts)),
                                  np.stack([row_features(c) for c in contexts]))


@given(context_batches(), st.sampled_from(BASELINE_NAMES))
@settings(max_examples=150, deadline=None)
def test_baseline_batch_decision_equals_row_decide(batch, name):
    contexts, (lat, eng) = batch
    rewards, _, _ = objective(dataset_of(*contexts, measured=(lat, eng)), RewardConfig())
    chosen = make_baseline(name).decide(dataset_of(*contexts, rewards=rewards))
    assert chosen.tolist() == [row_choice(name, ctx, rewards[i]) for i, ctx in enumerate(contexts)]


@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=10, max_value=14),
       st.booleans())
@settings(max_examples=8, deadline=None)
def test_dataset_round_trip_is_exact(tmp_path_factory, seed, steps, masked):
    cfg = DatasetConfig(logs_per_session=steps)
    data = generate_dataset(IN_DISTRIBUTION_PROFILE, LinkModelConfig(), cfg, RewardConfig(), seed)
    if masked:
        data = mask_peer(data)
    path = tmp_path_factory.mktemp("round_trip") / "data.jsonl"
    atomic_write_text(path, dataset_blocks(data))
    back = load_dataset(path, RewardConfig())
    # A file holds no hidden peer battery: a masked file's rewards are those
    # of the masked contexts.
    expected = relabel(data, RewardConfig()) if masked else data
    for name in data.__dataclass_fields__:
        original, loaded = getattr(expected, name), getattr(back, name)
        assert original.shape == loaded.shape, name
        assert np.array_equal(original, loaded), name
