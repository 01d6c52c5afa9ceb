import json
from dataclasses import fields, replace

import numpy as np
import pytest

from watune.datagen import IN_DISTRIBUTION_PROFILE, DatasetConfig, generate_dataset, load_dataset
from watune.domain import AppType, Contexts, TimeOfDay
from watune.measurement import LinkModelConfig, measure
from watune.reward import RewardConfig, objective

from conftest import Context, contexts_of


def ctx(time=TimeOfDay.morning, pub=80.0, sub=60.0):
    return Context(time, pub, sub, (AppType.voiceChat,) * 10)


def noiseless():
    return LinkModelConfig(latency_noise_sigma=0.0, energy_noise_sigma=0.0)


def test_default_config_valid():
    LinkModelConfig()  # every LinkModelConfig is checked when it is built


def test_noiseless_measure_exact():
    cfg = noiseless()
    rng = np.random.default_rng(0)
    for time in TimeOfDay:
        lat, eng = measure(cfg, ctx(time=time), rng)
        expected = np.asarray(cfg.base_latency_ms) * cfg.time_latency_multiplier[time]
        np.testing.assert_array_equal(lat, expected)
        np.testing.assert_array_equal(eng, np.asarray(cfg.base_energy_pct_h))


def test_generated_columns_follow_the_config_and_its_replace_copy():
    """`measure` scales by tables built with its config: a noiseless config
    with its own time multipliers, a `dataclasses.replace` copy with others,
    and the first again after a multiplier is set in place, each give
    latency = base x multiplier(time) and energy = base."""
    cfg = LinkModelConfig(time_latency_multiplier={TimeOfDay.morning: 2.0, TimeOfDay.afternoon: 0.5,
                                                   TimeOfDay.evening: 1.25, TimeOfDay.night: 7.0},
                          latency_noise_sigma=0.0, energy_noise_sigma=0.0)
    copy = replace(cfg, base_latency_ms=(3.0, 5.0, 2.5, 2.0, 6.5, 10.0, 5.5, 4.5),
                   time_latency_multiplier={t: 1.0 + t for t in TimeOfDay})

    def check(link):
        data = generate_dataset(IN_DISTRIBUTION_PROFILE, link, DatasetConfig(logs_per_session=10),
                                RewardConfig(), 1)
        mult = np.array([link.time_latency_multiplier[TimeOfDay(t)] for t in data.time])
        np.testing.assert_array_equal(data.lat, np.asarray(link.base_latency_ms) * mult[:, None])
        np.testing.assert_array_equal(data.eng, np.broadcast_to(link.base_energy_pct_h, data.eng.shape))

    for link in (cfg, copy, cfg):
        check(link)
    cfg.time_latency_multiplier[TimeOfDay.night] = 9.0
    check(cfg)


def test_measure_deterministic_given_seed():
    cfg = LinkModelConfig()
    a = measure(cfg, ctx(), np.random.default_rng(42))
    b = measure(cfg, ctx(), np.random.default_rng(42))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_measure_outputs_always_valid():
    cfg = LinkModelConfig(latency_noise_sigma=1.5, energy_noise_sigma=0.8)
    rng = np.random.default_rng(7)
    for _ in range(200):
        lat, eng = measure(cfg, ctx(), rng)
        assert lat.shape == eng.shape == (8,)
        assert np.all(lat >= 0)
        assert np.all(eng > 0)


def test_noiseless_argmin_actions():
    lat, eng = measure(noiseless(), ctx(), np.random.default_rng(0))
    assert int(np.argmin(lat)) == 3   # (realtime, interactiveVoice)
    assert int(np.argmin(eng)) == 5  # (bulk, background)


def test_night_latency_exceeds_morning_on_average():
    cfg = LinkModelConfig()
    rng = np.random.default_rng(3)
    means = {}
    for time in (TimeOfDay.morning, TimeOfDay.night):
        total = sum(measure(cfg, ctx(time=time), rng)[0].mean() for _ in range(10_000))
        means[time] = total / 10_000
    assert means[TimeOfDay.night] > means[TimeOfDay.morning]


def test_ordering_invariants_rejected():
    bad_lat = list(LinkModelConfig().base_latency_ms)
    bad_lat[0], bad_lat[4] = bad_lat[4], bad_lat[0]  # bulk faster than realtime
    with pytest.raises(ValueError, match="link.base_latency_ms"):
        LinkModelConfig(base_latency_ms=tuple(bad_lat))
    bad_eng = list(LinkModelConfig().base_energy_pct_h)
    bad_eng[5] = 10.0  # (bulk, background) no longer minimal
    with pytest.raises(ValueError, match="link.base_energy_pct_h"):
        LinkModelConfig(base_energy_pct_h=tuple(bad_eng))


def log_line(step, c, measured, **extra):
    """One measurement-log record, in the dataset format `load_dataset` reads."""
    lat, eng = measured
    rec = {"step": step, "time": c.time.name,
           "app_history": [a.name for a in c.app_history],
           "pub_battery": c.publisher_battery, "sub_battery": c.subscriber_battery,
           "pub_device": "iPadPro-pub", "sub_device": "iPadPro-sub",
           "latency_ms": lat.tolist(), "energy_pct_h": eng.tolist(),
           "scenario": {"time": c.time.name, "battery_config": "bothHigh"}}
    return json.dumps(rec | extra) + "\n"


def assert_contexts_equal(a: Contexts, b: Contexts):
    for name, x, y in zip(Contexts._fields, a, b):
        np.testing.assert_array_equal(x, y, err_msg=name)


def one_line(**extra):
    return log_line(0, ctx(), measure(LinkModelConfig(), ctx(), np.random.default_rng(1)), **extra)


def test_ingest_empty_file(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("")
    assert len(load_dataset(p, RewardConfig())) == 0


def test_log_round_trip(tmp_path):
    cfg = LinkModelConfig()
    rng = np.random.default_rng(5)
    lines = []
    contexts = []
    sweeps = []
    history = []
    for step in range(25):
        history.append(AppType(step % 8))
        if len(history) > 10:
            history.pop(0)
        padded = tuple([history[0]] * (10 - len(history)) + history)
        c = Context(TimeOfDay.evening, 70.0, 20.0, padded)
        measured = measure(cfg, c, rng)
        contexts.append(c)
        sweeps.append(measured)
        lines.append(log_line(step, c, measured))
    p = tmp_path / "log.jsonl"
    p.write_text("".join(lines))
    parsed = load_dataset(p, RewardConfig())
    assert len(parsed) == 25
    assert_contexts_equal(contexts_of(*contexts), parsed.contexts)
    np.testing.assert_array_equal(parsed.step, np.arange(25))
    # The log's device labels are ignored: without them it loads to the same columns.
    bare = tmp_path / "bare.jsonl"
    bare.write_text("".join(json.dumps({k: v for k, v in json.loads(line).items()
                                        if k not in ("pub_device", "sub_device")}) + "\n"
                            for line in lines))
    again = load_dataset(bare, RewardConfig())
    for name in (f.name for f in fields(parsed)):
        np.testing.assert_array_equal(getattr(parsed, name), getattr(again, name), err_msg=name)
    lat, eng = map(np.array, zip(*sweeps))
    np.testing.assert_array_equal(lat, parsed.lat)
    np.testing.assert_array_equal(eng, parsed.eng)
    np.testing.assert_array_equal(objective(contexts_of(*contexts), (lat, eng), RewardConfig())[0],
                                  parsed.rewards)


def test_ingest_extra_fields_dropped(tmp_path):
    p = tmp_path / "log.jsonl"
    p.write_text(one_line(charging=True, signal_strength=-40))
    data = load_dataset(p, RewardConfig())
    assert len(data) == 1
    assert not hasattr(data, "charging")
    assert_contexts_equal(data.contexts, contexts_of(ctx()))


def test_ingest_errors_name_line(tmp_path):
    good = one_line()
    p = tmp_path / "bad.jsonl"
    p.write_text(good + "{not json\n")
    with pytest.raises(ValueError, match="line 2"):
        load_dataset(p, RewardConfig())

    p.write_text(one_line(energy_pct_h=[0.0] * 8))
    with pytest.raises(ValueError, match="line 1"):
        load_dataset(p, RewardConfig())


def test_ingest_rejects_nested_measurement_arrays(tmp_path):
    rec = json.loads(one_line())
    p = tmp_path / "nested.jsonl"
    p.write_text(one_line() + one_line(latency_ms=[rec["latency_ms"]]))
    with pytest.raises(ValueError, match=r"nested\.jsonl: line 2"):
        load_dataset(p, RewardConfig())
