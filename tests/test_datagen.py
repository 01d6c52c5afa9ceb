import json
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from watune.datagen import (
    BATTERY_FLOOR,
    DEFAULT_BATTERY_RANGES,
    IN_DISTRIBUTION_PROFILE,
    OOD_PROFILE,
    Dataset,
    DatasetConfig,
    battery_classes,
    dataset_text,
    file_hash,
    generate_dataset,
    generate_session,
    load_dataset,
    mask_peer,
    sample_app,
    split,
    validate_profile,
)
from watune.domain import (
    ALL_SCENARIOS,
    AppType,
    BatteryClass,
    BatteryConfig,
    Scenario,
    TimeOfDay,
)
from watune.measurement import LinkModelConfig
from watune.reward import RewardConfig, RewardMode, objective

from conftest import FUZZ_VALUES, relabel


def test_builtin_profiles_valid():
    validate_profile(IN_DISTRIBUTION_PROFILE)
    validate_profile(OOD_PROFILE)


def test_validate_profile_rejections():
    bad = {t: dict(IN_DISTRIBUTION_PROFILE[t]) for t in TimeOfDay}
    bad[TimeOfDay.morning][AppType.textMessage] += 0.05
    with pytest.raises(ValueError):
        validate_profile(bad)
    with pytest.raises(ValueError):
        validate_profile({t: IN_DISTRIBUTION_PROFILE[t] for t in TimeOfDay if t != TimeOfDay.night})


def test_dataset_config_validation():
    with pytest.raises(ValueError, match=r"^dataset\.split_fraction must be in \(0, 1\), not 1\.0$"):
        DatasetConfig(split_fraction=1.0)
    with pytest.raises(ValueError, match=r"^dataset\.window must be >= 1, not 0$"):
        DatasetConfig(window=0)
    with pytest.raises(ValueError, match=r"^dataset\.logs_per_session must be >= dataset\.window, not 5$"):
        DatasetConfig(logs_per_session=5, window=10)


def test_battery_classes_map():
    assert battery_classes(BatteryConfig.bothHigh) == (BatteryClass.high, BatteryClass.high)
    assert battery_classes(BatteryConfig.pubHighSubLow) == (BatteryClass.high, BatteryClass.low)


def test_sample_app_chi_square():
    """Sampled apps match the profile distribution (chi-square, alpha=0.001)."""
    stats = pytest.importorskip("scipy.stats")

    rng = np.random.default_rng(2)
    for time in TimeOfDay:
        dist = IN_DISTRIBUTION_PROFILE[time]
        n = 10_000
        counts = Counter(sample_app(IN_DISTRIBUTION_PROFILE, time, rng, size=n).tolist())
        observed = [counts.get(a, 0) for a in dist]
        expected = [p * n for p in dist.values()]
        _, pvalue = stats.chisquare(observed, expected)
        assert pvalue > 0.001


def test_session_shape_and_window(small_dataset):
    cfg = DatasetConfig(logs_per_session=50, seed=3)
    rng = np.random.default_rng(0)
    scen = Scenario(TimeOfDay.night, BatteryConfig.bothLow)
    samples = generate_session(scen, IN_DISTRIBUTION_PROFILE, LinkModelConfig(), cfg, RewardConfig(), rng)
    assert len(samples) == 50
    np.testing.assert_array_equal(samples.step, np.arange(50))
    assert samples.hist.shape == (50, cfg.window)
    assert np.all(samples.scenario == scen.code)
    # early steps pad by repeating the earliest app
    assert len(set(samples.hist[0].tolist())) == 1


def test_battery_ranges_respected():
    cfg = DatasetConfig(logs_per_session=200, seed=5)
    rng = np.random.default_rng(9)
    scen = Scenario(TimeOfDay.morning, BatteryConfig.pubHighSubLow)
    samples = generate_session(scen, IN_DISTRIBUTION_PROFILE, LinkModelConfig(), cfg, RewardConfig(), rng)
    hi_lo, hi_hi = DEFAULT_BATTERY_RANGES[BatteryClass.high]
    lo_lo, lo_hi = DEFAULT_BATTERY_RANGES[BatteryClass.low]
    assert hi_lo <= samples.pub[0] <= hi_hi
    assert samples.peer[0] and lo_lo <= samples.sub[0] <= lo_hi
    pubs = samples.pub.tolist()
    assert all(a >= b for a, b in zip(pubs, pubs[1:]))  # monotone drain
    assert all(p >= BATTERY_FLOOR for p in pubs)


def scenario_counts(data):
    """Rows per scenario of the grid, keyed by Scenario."""
    return Counter(ALL_SCENARIOS[code] for code in data.scenario.tolist())


def assert_same_rows(a, b, names=None):
    """Every column (or those named) of two datasets is equal."""
    for name in names or [f.name for f in fields(Dataset)]:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


# The columns a context and its measurement are made of.
OBSERVED = ("time", "pub", "sub", "peer", "hist", "step", "scenario", "lat", "eng")


def test_grid_coverage_and_determinism(small_dataset):
    counts = scenario_counts(small_dataset)
    assert set(counts) == set(ALL_SCENARIOS)
    assert set(counts.values()) == {100}
    again = generate_dataset(
        IN_DISTRIBUTION_PROFILE, LinkModelConfig(),
        DatasetConfig(logs_per_session=100, seed=1), RewardConfig(),
    )
    assert_same_rows(small_dataset, again, OBSERVED)


def test_stream_changes_draws(small_dataset):
    other = generate_dataset(
        IN_DISTRIBUTION_PROFILE, LinkModelConfig(),
        DatasetConfig(logs_per_session=100, seed=1), RewardConfig(), stream=1,
    )
    assert other.lat.shape == small_dataset.lat.shape
    assert np.any(other.lat != small_dataset.lat)


def test_reward_annotation_consistency(small_dataset):
    rows = small_dataset[::37]
    rewards, _, _ = objective(rows.contexts, (rows.lat, rows.eng), RewardConfig())
    np.testing.assert_allclose(rows.rewards, rewards, atol=1e-12)


def test_split_stratified(small_dataset, small_split):
    train, test = small_split
    assert len(train) + len(test) == len(small_dataset)
    assert len(train) == 1280 and len(test) == 320
    for part, expected in ((train, 80), (test, 20)):
        counts = scenario_counts(part)
        assert set(counts.values()) == {expected}
    # disjoint: (scenario, step) identifies a row of the grid
    train_keys = set(zip(train.scenario.tolist(), train.step.tolist()))
    assert not any(key in train_keys for key in zip(test.scenario.tolist(), test.step.tolist()))


def test_split_bad_fraction(small_dataset):
    with pytest.raises(ValueError):
        split(small_dataset, 0.0, np.random.default_rng(0))


def test_mask_peer(small_dataset):
    masked = mask_peer(small_dataset[:64])
    assert not masked.peer.any() and not masked.sub.any()
    np.testing.assert_array_equal(small_dataset[:64].hist, masked.hist)
    np.testing.assert_array_equal(small_dataset[:64].rewards, masked.rewards)
    assert_same_rows(masked, mask_peer(masked))


def test_relabel_naive(small_dataset):
    naive = relabel(small_dataset[:64], RewardConfig(mode=RewardMode.naive))
    changed = sum(not np.allclose(a, b) for a, b in zip(small_dataset[:64].rewards, naive.rewards))
    assert changed > 0
    np.testing.assert_array_equal(small_dataset[:64].lat, naive.lat)


def test_save_load_round_trip(tmp_path, small_dataset):
    p = tmp_path / "data.jsonl"
    text = dataset_text(small_dataset[:200])
    # Keys the loader does not know (from another logger) are ignored.
    extra = "".join(json.dumps(dict(json.loads(line), charging=True, signal_strength=-40)) + "\n"
                    for line in text.splitlines())
    # The earlier record format: spaced separators and both device labels.
    spaced = []
    for line in text.splitlines():
        rec = json.loads(line)
        head = {k: rec.pop(k) for k in ("step", "time", "app_history", "pub_battery", "sub_battery")}
        spaced.append(json.dumps({**head, "pub_device": "iPadPro-pub", "sub_device": "iPadPro-sub",
                                  **rec}) + "\n")
    spaced = "".join(spaced)
    for body, n in ((text, 200), (extra, 200), (spaced, 200), ("", 0)):
        p.write_text(body)
        back = load_dataset(p, RewardConfig())
        assert len(back) == n
        if n:
            assert_same_rows(small_dataset[:n], back)
    # identical content => identical hash
    p.write_text(text)
    p2 = tmp_path / "data2.jsonl"
    p2.write_text(dataset_text(small_dataset[:200]))
    assert file_hash(p) == file_hash(p2)


def test_dataset_record_holds_observed_fields_only(small_dataset):
    rec = json.loads(dataset_text(small_dataset[:1]))
    assert set(rec) == {"step", "time", "app_history", "pub_battery", "sub_battery",
                        "latency_ms", "energy_pct_h", "scenario"}


def test_load_dataset_names_bad_line(tmp_path, small_dataset):
    p = tmp_path / "bad.jsonl"
    good = dataset_text(small_dataset[:1])
    rec = json.loads(good)
    nested = json.dumps(dict(rec, latency_ms=[rec["latency_ms"]])) + "\n"
    three = dataset_text(small_dataset[:2])
    bad_third = [three + json.dumps(dict(rec, **edit)) + "\n" for edit in (
        {"latency_ms": [[v] for v in rec["latency_ms"]]}, {"latency_ms": ["1"] * 8},
        {"latency_ms": [True] + rec["latency_ms"][1:]},
        {"pub_battery": "50"}, {"pub_battery": True}, {"sub_battery": "12"},
        {"sub_battery": False}, {"step": 2.7}, {"step": 2.0}, {"step": True},
        # another time of day than the record's scenario
        {"time": next(t.name for t in TimeOfDay if t.name != rec["time"])})]
    for text, line in (('{"step": 0}\n', 1), (good + "{not json\n", 2), (good + nested, 2),
                       *((text, 3) for text in bad_third)):
        p.write_text(text)
        with pytest.raises(ValueError, match=rf"bad\.jsonl: line {line}"):
            load_dataset(p, RewardConfig())


# Each key of a record: its top-level keys, the head of each list, and the
# keys of `scenario`.
RECORD_KEYS = ("step", "time", "app_history", "pub_battery", "sub_battery", "latency_ms",
               "energy_pct_h", "scenario", "app_history[0]", "latency_ms[0]",
               "energy_pct_h[0]", "scenario.time", "scenario.battery_config")
MISSING = object()


def test_record_fuzz_every_key(tmp_path, small_dataset):
    """Each record key set on line 2 of 3 to each odd value, or (a list head
    excepted) removed, is refused naming the file and line 2, except three
    values a record may hold: step 0, sub_battery null and latency 0."""
    p = tmp_path / "fuzz.jsonl"
    first, second, third = dataset_text(small_dataset[:3]).splitlines(keepends=True)
    refused, loaded = 0, []
    for key in RECORD_KEYS:
        name, index = key.removesuffix("[0]"), key.endswith("[0]")
        for value in FUZZ_VALUES + (() if index else (MISSING,)):
            rec = json.loads(second)
            owner, _, leaf = name.rpartition(".")
            node = rec[owner] if owner else rec
            if index:
                node, leaf = node[leaf], 0
            if value is MISSING:
                del node[leaf]
            else:
                node[leaf] = value
            p.write_text(first + json.dumps(rec) + "\n" + third)
            try:
                load_dataset(p, RewardConfig())
            except ValueError as exc:
                assert str(exc).startswith(f"{p}: line 2: "), (key, value, str(exc))
                refused += 1
            else:
                loaded.append((key, value))
    assert loaded == [("step", 0), ("sub_battery", None), ("latency_ms[0]", 0)]
    assert refused == 124


def test_load_dataset_rejects_nan_latency(tmp_path, small_dataset):
    p = tmp_path / "test.jsonl"
    lines = dataset_text(small_dataset[:3]).splitlines()
    rec = json.loads(lines[1])
    for edit, message in (
        ({"latency_ms": [float("nan")] + rec["latency_ms"][1:]}, "latency"),
        ({"energy_pct_h": [0.0] * 8}, "energy"),
        ({"pub_battery": 0}, "battery must be strictly positive"),
        ({"sub_battery": 0}, "battery must be strictly positive"),
    ):
        lines[1] = json.dumps(dict(rec, **edit))
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"test\.jsonl: line 2: {message}"):
            load_dataset(p, RewardConfig())
