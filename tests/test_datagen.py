import json
import tracemalloc
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from watune import datagen
from watune.datagen import (
    BATTERY_FLOOR,
    DEFAULT_BATTERY_RANGES,
    IN_DISTRIBUTION_PROFILE,
    OOD_PROFILE,
    Dataset,
    DatasetConfig,
    battery_classes,
    dataset_blocks,
    file_hash,
    generate_dataset,
    generate_session,
    load_dataset,
    mask_peer,
    sample_app,
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

from conftest import FUZZ_VALUES, jsonl, relabel


def test_builtin_profiles_valid():
    """Each built-in profile gives every time of day a distribution: no
    negative entry, summing to 1 within 1e-9."""
    for profile in (IN_DISTRIBUTION_PROFILE, OOD_PROFILE):
        assert set(profile) == set(TimeOfDay)
        for t, dist in profile.items():
            assert dist and min(dist.values()) >= 0, t
            assert abs(sum(dist.values()) - 1.0) <= 1e-9, t


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
    cfg = DatasetConfig(logs_per_session=50)
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
    cfg = DatasetConfig(logs_per_session=200)
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
        DatasetConfig(logs_per_session=100), RewardConfig(), 1,
    )
    assert_same_rows(small_dataset, again, OBSERVED)


def test_stream_changes_draws(small_dataset):
    other = generate_dataset(
        IN_DISTRIBUTION_PROFILE, LinkModelConfig(),
        DatasetConfig(logs_per_session=100), RewardConfig(), 1, stream=1,
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


def test_mask_peer(small_dataset):
    masked = mask_peer(small_dataset[:64])
    assert not masked.peer.any() and not masked.sub.any()
    np.testing.assert_array_equal(small_dataset[:64].hist, masked.hist)
    np.testing.assert_array_equal(small_dataset[:64].rewards, masked.rewards)
    assert_same_rows(masked, mask_peer(masked))


def test_relabel_naive(small_dataset):
    naive = relabel(small_dataset[:64], RewardConfig(reward_mode=RewardMode.naive))
    changed = sum(not np.allclose(a, b) for a, b in zip(small_dataset[:64].rewards, naive.rewards))
    assert changed > 0
    np.testing.assert_array_equal(small_dataset[:64].lat, naive.lat)


def test_save_load_round_trip(tmp_path, small_dataset):
    p = tmp_path / "data.jsonl"
    text = jsonl(small_dataset[:200])
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
    p2.write_text(jsonl(small_dataset[:200]))
    assert file_hash(p) == file_hash(p2)


def test_dataset_record_holds_observed_fields_only(small_dataset):
    rec = json.loads(jsonl(small_dataset[:1]))
    assert set(rec) == {"step", "time", "app_history", "pub_battery", "sub_battery",
                        "latency_ms", "energy_pct_h", "scenario"}


def test_load_dataset_names_bad_line(tmp_path, small_dataset):
    p = tmp_path / "bad.jsonl"
    good = jsonl(small_dataset[:1])
    rec = json.loads(good)
    nested = json.dumps(dict(rec, latency_ms=[rec["latency_ms"]])) + "\n"
    three = jsonl(small_dataset[:2])
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
    """Each record key set on line 2 of 3 to each odd value or to an integer
    too large for int64 (10**30) or float64 (10**400), or (a list head
    excepted) removed, is refused naming the file and line 2, except five
    values a record may hold: step 0, sub_battery null, latency 0, and a
    latency or energy of 10**30."""
    p = tmp_path / "fuzz.jsonl"
    first, second, third = jsonl(small_dataset[:3]).splitlines(keepends=True)
    refused, loaded = 0, []
    for key in RECORD_KEYS:
        name, index = key.removesuffix("[0]"), key.endswith("[0]")
        for value in FUZZ_VALUES + (10**30, 10**400) + (() if index else (MISSING,)):
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
                if value is MISSING:
                    assert str(exc).endswith(f"malformed dataset record: missing key {key}"), str(exc)
                if (key, value) in (("step", 10**30), ("pub_battery", 10**400)):
                    assert f"malformed dataset record: {key} must fit in " in str(exc), str(exc)
                refused += 1
            else:
                loaded.append((key, value))
    assert loaded == [("step", 0), ("sub_battery", None), ("latency_ms[0]", 0),
                      ("latency_ms[0]", 10**30), ("energy_pct_h[0]", 10**30)]
    assert refused == 148


def test_unknown_name_is_named(tmp_path, small_dataset):
    p = tmp_path / "names.jsonl"
    rec = json.loads(jsonl(small_dataset[:1]))
    p.write_text(json.dumps(dict(rec, app_history=["tv"] * len(rec["app_history"]))) + "\n")
    with pytest.raises(ValueError, match=r"names\.jsonl: line 1: malformed dataset record: "
                                         r"unknown name 'tv'$"):
        load_dataset(p, RewardConfig())


def json_record(dataset: Dataset, row: int) -> str:
    """Row `row` of `dataset` as `json.dumps` writes its record: the
    reference the row template must equal."""
    return json.dumps({
        "step": int(dataset.step[row]), "time": TimeOfDay(dataset.time[row]).name,
        "app_history": [AppType(a).name for a in dataset.hist[row]],
        "pub_battery": float(dataset.pub[row]),
        "sub_battery": float(dataset.sub[row]) if dataset.peer[row] else None,
        "latency_ms": dataset.lat[row].tolist(), "energy_pct_h": dataset.eng[row].tolist(),
        "scenario": {"time": ALL_SCENARIOS[dataset.scenario[row]].time.name,
                     "battery_config": ALL_SCENARIOS[dataset.scenario[row]].battery_config.name},
    }, separators=(",", ":"))


def test_template_rows_equal_json_dumps(monkeypatch, small_dataset):
    """Each line `dataset_blocks` writes is the record's `json.dumps` text,
    on edge rows too: a masked peer (null), integral floats, exponent forms
    and the largest and smallest floats a Dataset can hold; blocks hold
    whole lines, however the rows fall into blocks."""
    edge = np.array([70.0, 1e-05, 1e+16, 0.1, 5e-324, 1.7976931348623157e308, 123456.789, 1.0])
    data = Dataset.concat([small_dataset[:40], replace(
        small_dataset[40:43], step=np.array([0, 10**6, 7]), pub=np.array([70.0, 100.0, 1e-05]),
        sub=np.array([0.0, 0.0, 5.5]), peer=np.array([False, False, True]),
        lat=np.array([edge, edge[::-1], np.zeros(8)]), eng=np.array([edge, edge[::-1], edge]),
        scenario=np.full(3, 15), time=np.full(3, int(TimeOfDay.night)))])
    text = jsonl(data)
    assert text.splitlines() == [json_record(data, i) for i in range(len(data))]
    assert '"sub_battery":null' in text and '"pub_battery":70.0' in text
    assert "1e-05" in text and "1e+16" in text
    monkeypatch.setattr(datagen, "_BLOCK_ROWS", 7)
    blocks = list(dataset_blocks(data))
    assert len(blocks) == 7 and all(b.endswith("\n") for b in blocks) and "".join(blocks) == text
    assert list(dataset_blocks(data[:0])) == []


def test_load_dataset_rejects_nan_latency(tmp_path, small_dataset):
    p = tmp_path / "test.jsonl"
    lines = jsonl(small_dataset[:3]).splitlines()
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


def test_load_dataset_blocks_name_their_own_line(monkeypatch, tmp_path, small_dataset):
    """With 2-record blocks, a bad record in a later block is refused naming
    its own line, whether a line check, a block's type check, the Dataset
    checks or the objective finds it; an app history is held to the length
    of the file's first record, in an earlier block."""
    monkeypatch.setattr(datagen, "_BLOCK_ROWS", 2)
    p = tmp_path / "blocks.jsonl"
    lines = jsonl(small_dataset[:5]).splitlines()
    for line in (4, 5):  # the second record of block 2; alone in block 3
        rec = json.loads(lines[line - 1])
        for edit, message in (
            ({"pub_battery": "50"}, "malformed dataset record: pub_battery must be a number, not '50'"),
            ({"app_history": ["tv"] * len(rec["app_history"])},
             "malformed dataset record: unknown name 'tv'"),
            ({"latency_ms": [float("nan")] + rec["latency_ms"][1:]},
             "latency must be finite and non-negative"),
            ({"pub_battery": 0}, "battery must be strictly positive for reward computation"),
            ({"app_history": rec["app_history"][1:]},
             "malformed dataset record: app_history length differs from the first record"),
        ):
            edited = list(lines)
            edited[line - 1] = json.dumps(dict(rec, **edit))
            p.write_text("\n".join(edited) + "\n")
            with pytest.raises(ValueError) as err:
                load_dataset(p, RewardConfig())
            assert str(err.value) == f"{p}: line {line}: {message}", (line, edit)


@pytest.mark.parametrize("n", [4, 5, 0])  # whole blocks, a part block, no record
def test_load_dataset_blocks_round_trip(monkeypatch, tmp_path, small_dataset, n):
    monkeypatch.setattr(datagen, "_BLOCK_ROWS", 2)
    p = tmp_path / "data.jsonl"
    p.write_text(jsonl(small_dataset[:n]))
    back = load_dataset(p, RewardConfig())
    assert len(back) == n and back.lat.shape == (n, 8)
    if n:
        assert_same_rows(small_dataset[:n], back)
    else:
        assert back.hist.shape == (0, 0)


def test_load_dataset_holds_one_block_of_objects(tmp_path, small_dataset):
    """Loading converts each block of records to arrays as it goes, so the
    traced peak stays within 3x the loaded columns. Holding every value of a
    file as a Python object until the end peaks at about 3.6x."""
    p = tmp_path / "data.jsonl"
    p.write_text(jsonl(small_dataset))
    assert len(small_dataset) >= 4 * datagen._BLOCK_ROWS
    tracemalloc.start()
    try:
        back = load_dataset(p, RewardConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(getattr(back, f.name).nbytes for f in fields(Dataset))
    assert peak <= 3 * columns, peak / columns
