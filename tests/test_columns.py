"""Property tests: every column-wise path equals its one-row counterpart."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from watune.datagen import (
    IN_DISTRIBUTION_PROFILE,
    DatasetConfig,
    dataset_text,
    generate_dataset,
    load_dataset,
    mask_peer,
    relabel,
)
from watune.domain import AppType, Context, Contexts, TimeOfDay
from watune.measurement import LinkModelConfig, MeasurementVector
from watune.policy import BASELINE_NAMES, make_baseline
from watune.reward import RewardConfig, RewardMode, objective
from watune.train import encode, encode_batch

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


@given(context_batches(), st.sampled_from(list(RewardMode)))
@settings(max_examples=150, deadline=None)
def test_columnar_reward_equals_row_objective(batch, mode):
    contexts, (lat, eng) = batch
    cfg = RewardConfig(mode=mode)
    rewards, lat_scores, eng_scores = objective(Contexts.of(*contexts), (lat, eng), cfg)
    for i, ctx in enumerate(contexts):
        row = objective(ctx, MeasurementVector(lat[i], eng[i]), cfg)
        np.testing.assert_array_equal(rewards[i], row.objective)
        np.testing.assert_array_equal(lat_scores[i], row.latency_score)
        np.testing.assert_array_equal(eng_scores[i], row.energy_score)


@given(context_batches())
@settings(max_examples=150, deadline=None)
def test_batched_encode_equals_row_encode(batch):
    contexts, _ = batch
    np.testing.assert_array_equal(encode_batch(Contexts.of(*contexts)),
                                  np.stack([encode(c) for c in contexts]))


@given(context_batches(), st.sampled_from(BASELINE_NAMES))
@settings(max_examples=150, deadline=None)
def test_baseline_batch_decision_equals_row_decide(batch, name):
    contexts, (lat, eng) = batch
    policy = make_baseline(name)
    rewards, _, _ = objective(Contexts.of(*contexts), (lat, eng), RewardConfig())
    chosen = policy.choose(Contexts.of(*contexts), rewards)
    for i, ctx in enumerate(contexts):
        row = objective(ctx, MeasurementVector(lat[i], eng[i]), RewardConfig())
        assert chosen[i] == policy.decide(ctx, row).index


@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=10, max_value=14),
       st.booleans())
@settings(max_examples=8, deadline=None)
def test_dataset_round_trip_is_exact(tmp_path_factory, seed, steps, masked):
    cfg = DatasetConfig(logs_per_session=steps, seed=seed)
    data = generate_dataset(IN_DISTRIBUTION_PROFILE, LinkModelConfig(), cfg, RewardConfig())
    if masked:
        data = mask_peer(data)
    path = tmp_path_factory.mktemp("round_trip") / "data.jsonl"
    path.write_text(dataset_text(data))
    back = load_dataset(path, RewardConfig())
    # A file holds no hidden peer battery: a masked file's rewards are those
    # of the masked contexts.
    expected = relabel(data, RewardConfig()) if masked else data
    for name in data.__dataclass_fields__:
        original, loaded = getattr(expected, name), getattr(back, name)
        assert original.shape == loaded.shape, name
        assert np.array_equal(original, loaded), name
