import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from watune import reward
from watune.datagen import (
    ENERGY_FLOOR,
    IN_DISTRIBUTION_PROFILE,
    Dataset,
    DatasetConfig,
    generate_dataset,
)
from watune.domain import AppType, BatteryConfig, TimeOfDay
from watune.measurement import LinkModelConfig
from watune.reward import (
    DEFAULT_TOLERANCE_MS,
    NAIVE_BATTERY,
    NAIVE_TOLERANCE_MS,
    RewardConfig,
    RewardMode,
    objective,
    soft_labels,
)

from conftest import Context, dataset_of, load_record


def brute_objective(context, measured, cfg):
    """Independent straight-loop reference for the per-action objective,
    latency score and energy score of one context."""
    lat, eng = measured
    if cfg.reward_mode is RewardMode.naive:
        tols, batts = [NAIVE_TOLERANCE_MS], [NAIVE_BATTERY]
    else:
        tols = [DEFAULT_TOLERANCE_MS[app] for app in context.app_history]
        batts = [context.publisher_battery]
        if context.subscriber_battery is not None:
            batts.append(context.subscriber_battery)
    out, lat_scores, eng_scores = [], [], []
    for a in range(8):
        lat_total = 0.0
        for tol in tols:
            lat_total += max(100.0 - 100.0 * lat[a] / tol, 0.0)
        pen_total = score_total = 0.0
        for b in batts:
            pen_total += eng[a] / b
            score_total += b / eng[a]
        out.append(cfg.w_l * lat_total / len(tols) - cfg.w_p * pen_total / len(batts))
        lat_scores.append(lat_total / len(tols))
        eng_scores.append(score_total / len(batts))
    return np.array(out), np.array(lat_scores), np.array(eng_scores)


def random_context_and_measured(rng):
    apps = tuple(AppType(i) for i in rng.integers(0, 8, size=int(rng.integers(1, 11))))
    sub = None if rng.random() < 0.2 else float(rng.uniform(5, 100))
    ctx = Context(TimeOfDay(int(rng.integers(0, 4))), float(rng.uniform(5, 100)), sub, apps)
    return ctx, (rng.uniform(0.0, 400.0, 8), rng.uniform(0.2, 8.0, 8))


def row_objective(ctx, measured, cfg):
    """`objective` on the one-row batch of `ctx`: its three (8,) rows."""
    lat, eng = measured
    return [col[0] for col in objective(dataset_of(ctx), (lat[None], eng[None]), cfg)]


def scores(app, latency_ms=1.0, battery=50.0, energy=1.0):
    """Latency and energy score of the first action for one app and one
    visible battery, every action measuring the same."""
    ctx = Context(TimeOfDay.morning, battery, None, (app,))
    _, lat_scores, eng_scores = row_objective(ctx, (np.full(8, latency_ms), np.full(8, energy)),
                                              RewardConfig())
    return lat_scores[0], eng_scores[0]


def test_latency_score_golden():
    assert scores(AppType.voiceChat, 5.0)[0] == 90.0
    assert scores(AppType.textMessage, 200.0)[0] == 0.0
    assert scores(AppType.firmwareUpdate, 0.0)[0] == 100.0


def test_latency_score_clamps_and_errors(tmp_path, small_dataset):
    assert scores(AppType.voiceChat, 1e6)[0] == 0.0
    # Every latency that passes its own check scores in [0, 100], so the
    # scores need no check; a negative latency never reaches the reward.
    with np.errstate(over="ignore"):  # 100 x the largest float
        for latency_ms in (0.0, 5e-324, 1.7976931348623157e308):
            assert 0.0 <= scores(AppType.voiceChat, latency_ms)[0] <= 100.0
    with pytest.raises(ValueError, match="line 1: latency must be finite and non-negative"):
        load_record(tmp_path, small_dataset, latency_ms=[-1.0] * 8)


def test_latency_score_non_increasing():
    xs = np.linspace(0, 600, 50)
    data = dataset_of(*[Context(TimeOfDay.morning, 50.0, None, (AppType.mapSync,))] * len(xs))
    _, lat_scores, _ = objective(data, (np.repeat(xs[:, None], 8, axis=1), np.ones((50, 8))),
                                 RewardConfig())
    ys = lat_scores[:, 0]
    assert all(a >= b for a, b in zip(ys, ys[1:]))


def test_energy_score_golden():
    assert abs(scores(AppType.voiceChat, battery=50.0, energy=3.24)[1] - 15.4321) < 1e-4


def test_energy_score_errors(tmp_path, small_dataset):
    # Zero energy never reaches the reward, nor one below the floor (whose
    # score could overflow) a dataset: `load_dataset` refuses both.
    with pytest.raises(ValueError, match="line 1: energy must be finite and strictly positive$"):
        load_record(tmp_path, small_dataset, energy_pct_h=[0.0] * 8)
    with pytest.raises(ValueError, match=rf"line 1: energy must be at least {ENERGY_FLOOR!r} %/h$"):
        load_record(tmp_path, small_dataset, energy_pct_h=[5e-324] * 8)


def test_energy_floor_keeps_energy_scores_finite(tmp_path, small_dataset):
    """At the floor, with both batteries full, the energy scores do not
    overflow under either reward mode, and `load_dataset` takes the record;
    the next float down is refused."""
    ctx = Context(TimeOfDay.morning, 100.0, 100.0, (AppType.voiceChat,))
    full = dict(pub_battery=100.0, sub_battery=100.0)
    with np.errstate(over="raise", invalid="raise"):
        for mode in RewardMode:
            eng_scores = row_objective(ctx, (np.ones(8), np.full(8, ENERGY_FLOOR)),
                                       RewardConfig(reward_mode=mode))[2]
            assert np.isfinite(eng_scores).all(), mode
        assert len(load_record(tmp_path, small_dataset, energy_pct_h=[ENERGY_FLOOR] * 8, **full)) == 1
    below = [float(np.nextafter(ENERGY_FLOOR, 0))] * 8
    with pytest.raises(ValueError, match="line 1: energy must be at least"):
        load_record(tmp_path, small_dataset, energy_pct_h=below, **full)


def test_objective_matches_brute_force():
    cfg = RewardConfig()
    rng = np.random.default_rng(11)
    for _ in range(500):
        ctx, measured = random_context_and_measured(rng)
        got = row_objective(ctx, measured, cfg)[0]
        np.testing.assert_allclose(got, brute_objective(ctx, measured, cfg)[0], rtol=0, atol=1e-12)


def whole_column_objective(data, measured, cfg):
    """The objective as whole-column expressions, each step its own array:
    the reference `objective`'s in-place form must match bit for bit."""
    lat, eng = measured
    if cfg.reward_mode is RewardMode.naive:
        lat_scores = np.maximum(100.0 - 100.0 * lat / NAIVE_TOLERANCE_MS, 0.0)
        energy_penalty = eng / NAIVE_BATTERY
        eng_scores = NAIVE_BATTERY / eng
    else:
        tol_ms = np.array([DEFAULT_TOLERANCE_MS[app] for app in AppType])[data.hist]
        window = data.hist.shape[1]
        lat_scores = np.zeros_like(lat)
        for w in range(window):
            lat_scores += np.maximum(100.0 - 100.0 * lat / tol_ms[:, w, None], 0.0)
        lat_scores /= window
        peer = data.peer[:, None]
        pub = data.pub[:, None]
        sub = np.where(peer, data.sub[:, None], 1.0)
        devices = 1 + peer
        energy_penalty = (eng / pub + np.where(peer, eng / sub, 0.0)) / devices
        eng_scores = (pub / eng + np.where(peer, sub / eng, 0.0)) / devices
    return cfg.w_l * lat_scores - cfg.w_p * energy_penalty, lat_scores, eng_scores


@st.composite
def batches(draw):
    """A dataset, some rows peer-masked (sub 0), and its (N, 8) measurements."""
    n = draw(st.integers(0, 12))
    window = draw(st.integers(1, 10))
    battery = st.floats(1e-3, 100.0)
    peer = draw(hnp.arrays(bool, n))
    time = draw(hnp.arrays(int, n, elements=st.integers(0, 3)))
    pub = draw(hnp.arrays(float, n, elements=battery))
    sub = np.where(peer, draw(hnp.arrays(float, n, elements=battery)), 0.0)
    hist = draw(hnp.arrays(int, (n, window), elements=st.integers(0, 7)))
    lat = draw(hnp.arrays(float, (n, 8), elements=st.floats(0.0, 1e6)))
    eng = draw(hnp.arrays(float, (n, 8), elements=st.floats(1e-6, 1e3)))
    return Dataset(pub=pub, sub=sub, peer=peer, hist=hist, step=np.arange(n), lat=lat, eng=eng,
                   rewards=None, scenario=time * len(BatteryConfig)), (lat, eng)


@given(batches(), st.sampled_from(RewardMode), st.floats(0.0, 10.0), st.floats(0.01, 10.0))
@settings(max_examples=200, deadline=None)
def test_objective_equals_the_whole_column_formula_in_bits(batch, mode, w_l, w_p):
    data, measured = batch
    cfg = RewardConfig(w_l=w_l, w_p=w_p, reward_mode=mode)
    got, want = objective(data, measured, cfg), whole_column_objective(data, measured, cfg)
    for a, b in zip(got, want):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@given(batches(), st.sampled_from(RewardMode), st.integers(1, 100))
@settings(max_examples=100, deadline=None)
def test_objective_bits_do_not_depend_on_the_block(batch, mode, entries):
    """`objective` works through its rows a block of `_WORK_ENTRIES`
    entries at a time; blocks of a row or a few give the whole-column bits."""
    data, measured = batch
    cfg = RewardConfig(reward_mode=mode)
    want = whole_column_objective(data, measured, cfg)
    with mock.patch.object(reward, "_WORK_ENTRIES", entries):
        got = objective(data, measured, cfg)
    for a, b in zip(got, want):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("mode", RewardMode)
def test_objective_holds_no_whole_split_temporary(mode):
    """One call on a bench-size grid (3,200 rows) peaks at no more than
    1.25x its three outputs: the terms are built in the outputs and a work
    array of one block of rows. The whole-column formula peaks at about
    2.5x, and one work array of all the rows at about 1.55x."""
    data = generate_dataset(IN_DISTRIBUTION_PROFILE, LinkModelConfig(),
                            DatasetConfig(logs_per_session=200), RewardConfig(), 1)
    assert len(data) == 3200
    data = replace(data, peer=np.arange(len(data)) % 3 > 0)  # a third masked
    data = replace(data, sub=np.where(data.peer, data.sub, 0.0))
    tracemalloc.start()
    try:
        out = objective(data, (data.lat, data.eng), RewardConfig(reward_mode=mode))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * sum(a.nbytes for a in out), peak / sum(a.nbytes for a in out)


def test_objective_weight_reductions():
    rng = np.random.default_rng(3)
    ctx, measured = random_context_and_measured(rng)
    lat_only, lat_scores, _ = row_objective(ctx, measured, RewardConfig(w_l=1.0, w_p=0.0))
    np.testing.assert_allclose(lat_only, lat_scores, atol=1e-12)
    eng_only = row_objective(ctx, measured, RewardConfig(w_l=0.0, w_p=1.0))[0]
    assert np.all(eng_only <= 0)
    assert int(np.argmax(eng_only)) == int(np.argmin(measured[1]))


def test_objective_argmax_scale_invariant():
    rng = np.random.default_rng(4)
    for _ in range(50):
        ctx, measured = random_context_and_measured(rng)
        a = row_objective(ctx, measured, RewardConfig(w_l=0.1, w_p=1.0))[0]
        b = row_objective(ctx, measured, RewardConfig(w_l=0.7, w_p=7.0))[0]
        assert int(np.argmax(a)) == int(np.argmax(b))


def test_objective_monotone_in_battery():
    rng = np.random.default_rng(5)
    _, measured = random_context_and_measured(rng)
    apps = (AppType.videoCall,) * 10
    lo = row_objective(Context(TimeOfDay.morning, 20.0, 20.0, apps), measured, RewardConfig())[0]
    hi = row_objective(Context(TimeOfDay.morning, 90.0, 90.0, apps), measured, RewardConfig())[0]
    assert np.all(hi >= lo)


def test_naive_mode_ignores_context():
    cfg = RewardConfig(reward_mode=RewardMode.naive)
    rng = np.random.default_rng(6)
    _, (lat, eng) = random_context_and_measured(rng)
    a = row_objective(Context(TimeOfDay.morning, 90.0, 90.0, (AppType.voiceChat,)), (lat, eng), cfg)[0]
    b = row_objective(Context(TimeOfDay.night, 10.0, None, (AppType.firmwareUpdate,) * 10),
                      (lat, eng), cfg)[0]
    np.testing.assert_array_equal(a, b)
    expected = cfg.w_l * np.maximum(100 - 100 * lat / NAIVE_TOLERANCE_MS, 0.0) - cfg.w_p * eng / NAIVE_BATTERY
    np.testing.assert_allclose(a, expected, atol=1e-12)


def test_reward_config_validation():
    with pytest.raises(ValueError, match=r"^reward\.w_l must be finite and >= 0, not -0\.1$"):
        RewardConfig(w_l=-0.1)
    with pytest.raises(ValueError, match=r"^reward\.w_l \+ reward\.w_p must be > 0, not 0\.0$"):
        RewardConfig(w_l=0.0, w_p=0.0)
    with pytest.raises(ValueError, match=r"^reward\.soft_temp must be"):
        RewardConfig(soft_temp=0.0)


def test_soft_labels_examples():
    np.testing.assert_allclose(soft_labels(np.zeros(8), 1.0), np.full(8, 0.125), atol=1e-12)
    spiked = soft_labels(np.array([10.0, 0, 0, 0, 0, 0, 0, 0]), 0.01)
    assert spiked[0] > 0.999


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=8, max_size=8),
       st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=200, deadline=None)
def test_soft_labels_properties(values, temp):
    v = np.array(values)
    p = soft_labels(v, temp)
    assert p.shape == (8,)
    assert np.all(p >= 0)  # can underflow to exactly 0 at tiny temperature
    assert abs(p.sum() - 1.0) < 1e-9
    # shift invariance and argmax preservation
    np.testing.assert_allclose(p, soft_labels(v + 17.3, temp), atol=1e-9)
    assert p[int(np.argmax(v))] == p.max()


