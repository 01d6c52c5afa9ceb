import json
import time
import tracemalloc
import zlib
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

from conftest import FUZZ_VALUES, jsonl, load_record, relabel


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


def test_battery_classes_map(small_dataset):
    """Each session starts its publisher's and its subscriber's battery in
    the classes its battery config names."""
    high, medium, low = BatteryClass.high, BatteryClass.medium, BatteryClass.low
    classes = {BatteryConfig.bothHigh: (high, high), BatteryConfig.bothMedium: (medium, medium),
               BatteryConfig.bothLow: (low, low), BatteryConfig.pubHighSubLow: (high, low)}
    first = small_dataset[small_dataset.step == 0]
    seen = set()
    for code, levels in zip(first.scenario, zip(first.pub, first.sub)):
        config = ALL_SCENARIOS[code].battery_config
        seen.add(config)
        for level, c in zip(levels, classes[config]):
            lo, hi = DEFAULT_BATTERY_RANGES[c]
            assert lo <= level <= hi, (config, c, level)
    assert seen == set(BatteryConfig)


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
    rewards, _, _ = objective(rows, RewardConfig())
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
    """A record states each observed fact once, and the reader requires
    exactly the keys the writer writes, in the same order."""
    rec = json.loads(jsonl(small_dataset[:1]))
    assert list(rec) == ["step", "time", "app_history", "pub_battery", "sub_battery",
                         "latency_ms", "energy_pct_h", "battery_config"]
    assert [k for k in datagen._RECORD_KEYS if not k.endswith("[]")] == list(rec)


def test_every_scenario_is_read_back_from_its_records(tmp_path, small_dataset):
    """A record names its scenario by its `time` and `battery_config`: the
    first row of each of the 16 scenarios is written and read back to its
    time and scenario codes."""
    first = small_dataset[small_dataset.step == 0]
    assert sorted(first.scenario.tolist()) == list(range(len(ALL_SCENARIOS)))
    p = tmp_path / "scenarios.jsonl"
    p.write_text(jsonl(first))
    assert_same_rows(first, load_dataset(p, RewardConfig()), ["time", "scenario"])


def test_a_leftover_scenario_object_is_ignored(tmp_path, small_dataset):
    """A record that keeps the earlier format's `scenario` object beside its
    `battery_config` loads to the same row: like any key the reader does not
    know, `scenario` is ignored."""
    row = small_dataset[small_dataset.scenario == ALL_SCENARIOS[-1].code][:1]
    rec = json.loads(jsonl(row))
    leftover = {"time": rec["time"], "battery_config": rec["battery_config"]}
    assert_same_rows(row, load_record(tmp_path, row, scenario=leftover))


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
        {"sub_battery": False}, {"step": 2.7}, {"step": 2.0}, {"step": True})]
    for text, line in (('{"step": 0}\n', 1), (good + "{not json\n", 2), (good + nested, 2),
                       *((text, 3) for text in bad_third),
                       # not UTF-8, and UTF-8 behind a byte-order mark
                       (three.encode() + b"\xff" + good.encode(), 3),
                       (b"\xef\xbb\xbf" + good.encode(), 1)):
        p.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(ValueError, match=rf"bad\.jsonl: line {line}"):
            load_dataset(p, RewardConfig())


# Each key of a record: its keys and the head of each list.
RECORD_KEYS = ("step", "time", "app_history", "pub_battery", "sub_battery", "latency_ms",
               "energy_pct_h", "battery_config", "app_history[0]", "latency_ms[0]",
               "energy_pct_h[0]")
MISSING = object()
# How a refusal names a key whose value is of the right kind but out of
# range: by the quantity its column check names (the checks are shared with
# generation, which has no JSON keys), else by the key itself.
QUANTITY = {"pub_battery": "publisher battery", "sub_battery": "subscriber battery",
            "latency_ms": "latency", "energy_pct_h": "energy"}


def test_record_fuzz_every_key(tmp_path, small_dataset):
    """Each record key set on line 2 of 3 to each odd value or to an integer
    too large for int64 (10**30) or float64 (10**400), or (a list head
    excepted) removed, is refused naming the file, line 2 and the key,
    except five values a record may hold: step 0, sub_battery null,
    latency 0, and a latency or energy of 10**30."""
    p = tmp_path / "fuzz.jsonl"
    first, second, third = jsonl(small_dataset[:3]).splitlines(keepends=True)
    refused, loaded = 0, []
    for key in RECORD_KEYS:
        name, index = key.removesuffix("[0]"), key.endswith("[0]")
        for value in FUZZ_VALUES + (10**30, 10**400) + (() if index else (MISSING,)):
            rec = json.loads(second)
            node, leaf = (rec[name], 0) if index else (rec, name)
            if value is MISSING:
                del node[leaf]
            else:
                node[leaf] = value
            p.write_text(first + json.dumps(rec) + "\n" + third)
            try:
                load_dataset(p, RewardConfig())
            except ValueError as exc:
                assert str(exc).startswith(f"{p}: line 2: "), (key, value, str(exc))
                reason = str(exc).removeprefix(f"{p}: line 2: ").removeprefix("malformed dataset record: ")
                assert reason.startswith((f"{name} ", f"{QUANTITY.get(name, name)} ",
                                          f"missing key {name}")), (key, value, reason)
                if value is MISSING:
                    assert str(exc).endswith(f"malformed dataset record: missing key {key}"), str(exc)
                if (key, value) in (("step", 10**30), ("pub_battery", 10**400)):
                    assert f"malformed dataset record: {key} must fit in " in str(exc), str(exc)
                refused += 1
            else:
                loaded.append((key, value))
    assert loaded == [("step", 0), ("sub_battery", None), ("latency_ms[0]", 0),
                      ("latency_ms[0]", 10**30), ("energy_pct_h[0]", 10**30)]
    assert refused == 8 * 12 + 3 * 11 - len(loaded) == 124


def test_unknown_name_is_named(tmp_path, small_dataset):
    p = tmp_path / "names.jsonl"
    rec = json.loads(jsonl(small_dataset[:1]))
    p.write_text(json.dumps(dict(rec, app_history=["tv"] * len(rec["app_history"]))) + "\n")
    with pytest.raises(ValueError, match=r"names\.jsonl: line 1: malformed dataset record: "
                                         r"app_history must hold app names, not 'tv'$"):
        load_dataset(p, RewardConfig())


def test_a_value_of_the_wrong_kind_names_its_key(tmp_path, small_dataset):
    """A record, or a key of one, holding another JSON kind than it needs is
    refused with a message that names the key and the kind: a string or an
    object where a list is needed is not read entry by entry."""
    rec = json.loads(jsonl(small_dataset[:1]))
    for text, message in (
        ("[1, 2]", "a record must be an object, not [1, 2]"),
        (json.dumps(dict(rec, time=0)), "time must be a time-of-day name, not 0"),
        (json.dumps(dict(rec, app_history="textMessage")),
         "app_history must be a list of app names, not 'textMessage'"),
        (json.dumps(dict(rec, app_history={"textMessage": 1})),
         "app_history must be a list of app names, not {'textMessage': 1}"),
        (json.dumps(dict(rec, latency_ms=3)), "latency_ms must be a list of 8 numbers, not 3"),
        (json.dumps(dict(rec, energy_pct_h=rec["energy_pct_h"][1:])),
         f"energy_pct_h must be a list of 8 numbers, not {rec['energy_pct_h'][1:]!r}"),
        (json.dumps(dict(rec, battery_config="full")),
         "battery_config must be a battery-config name, not 'full'"),
        (json.dumps(dict(rec, battery_config=None)),
         "battery_config must be a battery-config name, not None"),
    ):
        p = tmp_path / "kinds.jsonl"
        p.write_text(text + "\n")
        with pytest.raises(ValueError) as err:
            load_dataset(p, RewardConfig())
        assert str(err.value) == f"{p}: line 1: malformed dataset record: {message}"


def test_blank_lines_are_skipped_and_counted(tmp_path, small_dataset):
    """Blank lines hold no record, but a refusal still names the line of
    the file the bad record is on."""
    p = tmp_path / "blank.jsonl"
    first, second = jsonl(small_dataset[:2]).splitlines(keepends=True)
    p.write_text("\n" + first + "  \n\n" + second)
    assert_same_rows(small_dataset[:2], load_dataset(p, RewardConfig()))
    p.write_text("\n" + first + "  \n\n" + json.dumps(dict(json.loads(second), step=-1)) + "\n")
    with pytest.raises(ValueError, match=r"blank\.jsonl: line 5: step must be non-negative$"):
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
        "battery_config": ALL_SCENARIOS[dataset.scenario[row]].battery_config.name,
    }, separators=(",", ":"))


def test_template_rows_equal_json_dumps(monkeypatch, small_dataset):
    """Each line `dataset_blocks` writes is the record's `json.dumps` text,
    on edge rows too: a masked peer (null), integral floats, exponent forms
    and the largest and smallest floats a Dataset can hold; blocks hold
    whole lines, however the rows fall into blocks."""
    edge = np.array([70.0, 1e-05, 1e+16, 0.1, 5e-324, 1.7976931348623157e308, 123456.789, 1.0])
    data = Dataset.concat([small_dataset[:40], replace(
        small_dataset[40:43], step=np.array([0, 10**6, 7]), pub=np.array([70.0, 100.0, 1e-05]),
        sub=np.array([0.0, 0.0, 5.5]),
        lat=np.array([edge, edge[::-1], np.zeros(8)]), eng=np.array([edge, edge[::-1], edge]),
        scenario=np.full(3, 15))], 43)
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
        ({"pub_battery": 0}, r"publisher battery must be in \(0,100\]$"),
        ({"pub_battery": -1}, r"publisher battery must be in \(0,100\]$"),
        ({"pub_battery": 150}, r"publisher battery must be in \(0,100\]$"),
        ({"sub_battery": 0}, r"subscriber battery must be in \(0,100\]$"),
        ({"sub_battery": 0.0}, r"subscriber battery must be in \(0,100\]$"),
        ({"sub_battery": -0.0}, r"subscriber battery must be in \(0,100\]$"),
        ({"sub_battery": -1}, r"subscriber battery must be in \(0,100\]$"),
        ({"sub_battery": 150}, r"subscriber battery must be in \(0,100\]$"),
        ({"sub_battery": False}, r"malformed dataset record: sub_battery must be a number or null, not False$"),
    ):
        lines[1] = json.dumps(dict(rec, **edit))
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"test\.jsonl: line 2: {message}"):
            load_dataset(p, RewardConfig())


def test_load_dataset_blocks_name_their_own_line(monkeypatch, tmp_path, small_dataset):
    """With 2-record blocks, a bad record in a later block is refused naming
    its own line, whether a line check, a block's type check or the Dataset
    checks find it; an app history is held to the length
    of the file's first record, in an earlier block."""
    monkeypatch.setattr(datagen, "_BLOCK_ROWS", 2)
    p = tmp_path / "blocks.jsonl"
    lines = jsonl(small_dataset[:5]).splitlines()
    for line in (4, 5):  # the second record of block 2; alone in block 3
        rec = json.loads(lines[line - 1])
        for edit, message in (
            ({"pub_battery": "50"}, "malformed dataset record: pub_battery must be a number, not '50'"),
            ({"app_history": ["tv"] * len(rec["app_history"])},
             "malformed dataset record: app_history must hold app names, not 'tv'"),
            ({"latency_ms": [float("nan")] + rec["latency_ms"][1:]},
             "latency must be finite and non-negative"),
            ({"pub_battery": 0}, "publisher battery must be in (0,100]"),
            ({"pub_battery": -1}, "publisher battery must be in (0,100]"),
            ({"pub_battery": 150}, "publisher battery must be in (0,100]"),
            ({"sub_battery": 150}, "subscriber battery must be in (0,100]"),
            ({"sub_battery": -0.0}, "subscriber battery must be in (0,100]"),
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


def test_generate_dataset_fills_the_grid_in_place():
    """The grid's columns are filled session by session as each is made, so
    the traced peak of a bench-size grid (200 logs a session) stays below 2x
    the columns it returns. Keeping all 16 sessions to concatenate at the
    end peaks at about 2.5x."""
    cfg = DatasetConfig(logs_per_session=200)
    tracemalloc.start()
    try:
        data = generate_dataset(IN_DISTRIBUTION_PROFILE, LinkModelConfig(), cfg, RewardConfig(), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(getattr(data, f.name).nbytes for f in fields(Dataset))
    assert len(data) == 16 * 200 and peak < 2 * columns, peak / columns


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


def assert_same_bits(a: Dataset, b: Dataset) -> None:
    """Every column of two datasets has the same dtype, shape and bytes."""
    for f in fields(Dataset):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name


@pytest.fixture
def cached_file(tmp_path, small_dataset, monkeypatch):
    """A JSONL file of 300 rows, a third of them peer-masked, with its
    sha256, the dataset a plain parse gives, and the list of files
    `load_dataset` parses."""
    path = tmp_path / "test.jsonl"
    path.write_text(jsonl(Dataset.concat([small_dataset[:200], mask_peer(small_dataset[200:300])], 300)))
    parses, parse = [], datagen._parsed
    monkeypatch.setattr(datagen, "_parsed", lambda p: parses.append(p) or parse(p))
    parsed = load_dataset(path, RewardConfig())
    parses.clear()
    return path, file_hash(path), parsed, parses


def test_cached_columns_equal_the_parsed_ones_in_bits(cached_file):
    """With its digest, a file is parsed once and its cache written beside
    it; a later load reads the cache and gives the parse's columns, dtypes
    and bits, under any reward config, as the rewards are derived on load."""
    path, digest, parsed, parses = cached_file
    cache = path.with_name("test.columns")
    assert_same_bits(load_dataset(path, RewardConfig(), sha256=digest), parsed)
    assert parses == [path] and cache.exists()
    written = cache.read_bytes()
    assert_same_bits(load_dataset(path, RewardConfig(), sha256=digest), parsed)
    naive = RewardConfig(reward_mode=RewardMode.naive)
    assert_same_bits(load_dataset(path, naive, sha256=digest), load_dataset(path, naive))
    assert parses == [path, path]  # the last load had no digest
    assert cache.read_bytes() == written
    # the tag, the digest, the row count and history width, the columns in
    # `_DTYPES` order and their CRC-32
    body = b"".join(getattr(parsed, k).tobytes() for k in datagen._DTYPES)
    assert list(datagen._DTYPES) == ["pub", "sub", "hist", "step", "lat", "eng", "scenario"]
    assert written == (b"watune-columns-3" + bytes.fromhex(digest)
                       + np.array([len(parsed), parsed.hist.shape[1]], "<i8").tobytes()
                       + body + zlib.crc32(body).to_bytes(4, "little"))


def edited_cache(digest: str, parsed: Dataset, **cols) -> bytes:
    """The cache of `parsed` with the columns in `cols` replaced."""
    observed = {k: getattr(parsed, k) for k in datagen._DTYPES}
    return b"".join(datagen._cache_bytes(observed | cols, digest))


def with_crc_error(digest: str, parsed: Dataset) -> bytes:
    good = edited_cache(digest, parsed)
    at = good.index(parsed.lat.tobytes()) + 100
    return good[:at] + bytes([good[at] ^ 1]) + good[at + 1:]


def with_head(digest: str, parsed: Dataset, tag: bytes = b"watune-columns-3",
              rows: int | None = None, width: int | None = None) -> bytes:
    """The cache of `parsed` with its head's tag or numbers replaced."""
    rows = len(parsed) if rows is None else rows
    width = parsed.hist.shape[1] if width is None else width
    head = tag + bytes.fromhex(digest) + np.array([rows, width], "<i8").tobytes()
    return head + edited_cache(digest, parsed)[len(head):]


def shifted(a: np.ndarray, by: int) -> np.ndarray:
    a = a.copy()
    a.flat[0] += by
    return a


# Each cache a load must treat as a miss, made from the file's digest and
# its parsed dataset.
MISSES = {
    "stale digest": lambda d, p: edited_cache("0" * 64, p),
    "truncated": lambda d, p: edited_cache(d, p)[:5000],
    "garbage": lambda d, p: b"\x00garbage" * 100,
    "empty": lambda d, p: b"",
    "crc error": with_crc_error,
    "another tag": lambda d, p: with_head(d, p, tag=b"watune-columns-2"),
    # reading as the head claims would allocate 2,265 TiB
    "10**13 rows": lambda d, p: with_head(d, p, rows=10**13),
    "negative rows": lambda d, p: with_head(d, p, rows=-1),
    "negative width": lambda d, p: with_head(d, p, width=-1),
    "zero width with rows": lambda d, p: edited_cache(d, p, hist=p.hist[:, :0].copy()),
    "one trailing byte": lambda d, p: edited_cache(d, p) + b"\x00",
    "truncated in a column": lambda d, p: edited_cache(d, p)[:-(4 + p.scenario.nbytes // 2)],
    "wrong dtype": lambda d, p: edited_cache(d, p, step=p.step.astype(np.int32)),
    "wrong shape": lambda d, p: edited_cache(d, p, lat=p.lat[:, :7].copy()),
    "short column": lambda d, p: edited_cache(d, p, step=p.step[:-1]),
    "app code": lambda d, p: edited_cache(d, p, hist=shifted(p.hist, len(AppType))),
    "scenario code": lambda d, p: edited_cache(d, p, scenario=shifted(p.scenario, 99)),
    "failed check": lambda d, p: edited_cache(d, p, lat=shifted(p.lat, np.nan)),
}


@pytest.mark.parametrize("kind", MISSES)
def test_a_bad_cache_is_a_miss(cached_file, kind):
    """A cache that names another digest or tag, cannot be read, or holds
    columns no parse gives is not refused: the file is parsed, giving the
    same dataset, and a good cache written over the bad one. Whatever the
    bad cache claims, the load traces under 4 MB; parsing this 300-row file
    traces about 0.3 MB."""
    path, digest, parsed, parses = cached_file
    cache = path.with_name("test.columns")
    load_dataset(path, RewardConfig(), sha256=digest)
    good = cache.read_bytes()
    assert good == edited_cache(digest, parsed)
    bad = MISSES[kind](digest, parsed)
    assert bad != good
    cache.write_bytes(bad)
    parses.clear()
    tracemalloc.start()
    try:
        loaded = load_dataset(path, RewardConfig(), sha256=digest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_bits(loaded, parsed)
    assert parses == [path] and cache.read_bytes() == good
    assert peak < 4 << 20, peak


def test_equal_inputs_give_byte_equal_caches(tmp_path, cached_file, monkeypatch):
    """A cache's bytes depend on its file alone, not on when or where it was
    written."""
    path, digest, _, _ = cached_file
    other = tmp_path / "other" / "test.jsonl"
    other.parent.mkdir()
    other.write_bytes(path.read_bytes())
    load_dataset(path, RewardConfig(), sha256=digest)
    clock = time.time
    monkeypatch.setattr(time, "time", lambda: clock() + 10 * 86400)
    load_dataset(other, RewardConfig(), sha256=digest)
    assert (other.with_name("test.columns").read_bytes()
            == path.with_name("test.columns").read_bytes())


def test_cache_is_written_one_column_at_a_time(tmp_path):
    """Parsing a bench-size OOD file (3,200 rows) and writing its column
    cache peaks at no more than 1.5x the loaded columns traced: the cache
    is streamed to its file column by column, and the rewards are derived
    without whole-split temporaries. Building the whole cache in memory
    first peaked at about 1.7x."""
    ood = generate_dataset(OOD_PROFILE, LinkModelConfig(), DatasetConfig(logs_per_session=200),
                           RewardConfig(), 1, stream=1)
    path = tmp_path / "ood.jsonl"
    path.write_text(jsonl(ood))
    del ood
    digest = file_hash(path)
    tracemalloc.start()
    try:
        back = load_dataset(path, RewardConfig(), sha256=digest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(getattr(back, f.name).nbytes for f in fields(Dataset))
    assert len(back) == 3200 and path.with_name("ood.columns").exists()
    assert peak <= 1.5 * columns, peak / columns


def test_a_cache_hit_peaks_at_the_rewards_derivation(tmp_path):
    """A hit on a bench-size OOD cache (3,200 rows) peaks at no more than
    1.5x its observed columns and rewards traced, when `objective` holds
    its three outputs and one block of scratch. With per-action score
    columns in the dataset and a work array of all the rows, a hit peaked
    at 1.8x."""
    ood = generate_dataset(OOD_PROFILE, LinkModelConfig(), DatasetConfig(logs_per_session=200),
                           RewardConfig(), 1, stream=1)
    path = tmp_path / "ood.jsonl"
    path.write_text(jsonl(ood))
    del ood
    digest = file_hash(path)
    load_dataset(path, RewardConfig(), sha256=digest)  # writes the cache
    tracemalloc.start()
    try:
        back = load_dataset(path, RewardConfig(), sha256=digest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(getattr(back, k).nbytes for k in (*datagen._DTYPES, "rewards"))
    assert len(back) == 3200 and peak <= 1.5 * columns, peak / columns


def test_a_cache_hit_holds_no_column_twice(tmp_path, small_dataset, monkeypatch):
    """Reading a full-size cache (32,000 rows) peaks at no more than 1.12x
    its columns traced: each column is read from the file straight into its
    array. Reading each column's bytes whole first peaked at about 1.16x."""
    reps = 32000 // len(small_dataset)
    cols = {k: np.concatenate([getattr(small_dataset, k)] * reps) for k in datagen._DTYPES}
    path = tmp_path / "test.jsonl"
    path.write_text("")
    path.with_name("test.columns").write_bytes(b"".join(datagen._cache_bytes(cols, "0" * 64)))
    monkeypatch.setattr(datagen, "_derived", lambda cols, reward_cfg: cols)
    tracemalloc.start()
    try:
        read = load_dataset(path, RewardConfig(), sha256="0" * 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read.keys() == cols.keys() and all(np.array_equal(read[k], cols[k]) for k in cols)
    size = sum(a.nbytes for a in cols.values())
    assert peak <= 1.12 * size, peak / size
