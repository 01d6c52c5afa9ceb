import json

import numpy as np
import pytest

from watune.datagen import load_dataset
from watune.domain import AppType, Context, TimeOfDay
from watune.measurement import LinkModelConfig, MeasurementVector, measure
from watune.reward import RewardConfig, objective


def ctx(time=TimeOfDay.morning, pub=80.0, sub=60.0):
    return Context(time, pub, sub, (AppType.voiceChat,) * 10)


def noiseless():
    return LinkModelConfig(latency_noise_sigma=0.0, energy_noise_sigma=0.0)


def test_default_config_valid():
    LinkModelConfig().validate()


def test_noiseless_measure_exact():
    cfg = noiseless()
    rng = np.random.default_rng(0)
    for time in TimeOfDay:
        mv = measure(cfg, ctx(time=time), rng)
        expected = np.asarray(cfg.base_latency_ms) * cfg.time_latency_multiplier[time]
        np.testing.assert_array_equal(mv.latency_ms, expected)
        np.testing.assert_array_equal(mv.energy_pct_h, np.asarray(cfg.base_energy_pct_h))


def test_measure_deterministic_given_seed():
    cfg = LinkModelConfig()
    a = measure(cfg, ctx(), np.random.default_rng(42))
    b = measure(cfg, ctx(), np.random.default_rng(42))
    np.testing.assert_array_equal(a.latency_ms, b.latency_ms)
    np.testing.assert_array_equal(a.energy_pct_h, b.energy_pct_h)


def test_measure_outputs_always_valid():
    cfg = LinkModelConfig(latency_noise_sigma=1.5, energy_noise_sigma=0.8)
    rng = np.random.default_rng(7)
    for _ in range(200):
        mv = measure(cfg, ctx(), rng)  # constructor enforces invariants
        assert np.all(mv.latency_ms >= 0)
        assert np.all(mv.energy_pct_h > 0)


def test_noiseless_argmin_actions():
    mv = measure(noiseless(), ctx(), np.random.default_rng(0))
    assert int(np.argmin(mv.latency_ms)) == 3   # (realtime, interactiveVoice)
    assert int(np.argmin(mv.energy_pct_h)) == 5  # (bulk, background)


def test_night_latency_exceeds_morning_on_average():
    cfg = LinkModelConfig()
    rng = np.random.default_rng(3)
    means = {}
    for time in (TimeOfDay.morning, TimeOfDay.night):
        total = sum(measure(cfg, ctx(time=time), rng).latency_ms.mean() for _ in range(10_000))
        means[time] = total / 10_000
    assert means[TimeOfDay.night] > means[TimeOfDay.morning]


def test_ordering_invariants_rejected():
    bad_lat = list(LinkModelConfig().base_latency_ms)
    bad_lat[0], bad_lat[4] = bad_lat[4], bad_lat[0]  # bulk faster than realtime
    with pytest.raises(ValueError):
        LinkModelConfig(base_latency_ms=tuple(bad_lat)).validate()
    bad_eng = list(LinkModelConfig().base_energy_pct_h)
    bad_eng[5] = 10.0  # (bulk, background) no longer minimal
    with pytest.raises(ValueError):
        LinkModelConfig(base_energy_pct_h=tuple(bad_eng)).validate()


def test_measurement_vector_validation():
    with pytest.raises(ValueError):
        MeasurementVector(latency_ms=np.ones(8) * -1, energy_pct_h=np.ones(8))
    with pytest.raises(ValueError):
        MeasurementVector(latency_ms=np.ones(8), energy_pct_h=np.zeros(8))
    with pytest.raises(ValueError):
        MeasurementVector(latency_ms=np.ones(4), energy_pct_h=np.ones(8))



def log_line(step, c, mv, **extra):
    """One measurement-log record, in the dataset format `load_dataset` reads."""
    rec = {"step": step, "time": c.time.name,
           "app_history": [a.name for a in c.app_history],
           "pub_battery": c.publisher_battery, "sub_battery": c.subscriber_battery,
           "pub_device": c.pub_device, "sub_device": c.sub_device,
           "latency_ms": mv.latency_ms.tolist(), "energy_pct_h": mv.energy_pct_h.tolist(),
           "scenario": {"time": c.time.name, "battery_config": "bothHigh"}}
    return json.dumps(rec | extra) + "\n"


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
    history = []
    for step in range(25):
        history.append(AppType(step % 8))
        if len(history) > 10:
            history.pop(0)
        padded = tuple([history[0]] * (10 - len(history)) + history)
        c = Context(TimeOfDay.evening, 70.0, 20.0, padded, step_index=step,
                    pub_device="iPadPro-pub", sub_device="iPadPro-sub")
        mv = measure(cfg, c, rng)
        contexts.append((c, mv))
        lines.append(log_line(step, c, mv))
    p = tmp_path / "log.jsonl"
    p.write_text("".join(lines))
    parsed = load_dataset(p, RewardConfig())
    assert len(parsed) == 25
    for (c0, m0), row in zip(contexts, parsed):
        assert c0 == row.context
        np.testing.assert_array_equal(m0.latency_ms, row.measurements.latency_ms)
        np.testing.assert_array_equal(m0.energy_pct_h, row.measurements.energy_pct_h)
        np.testing.assert_array_equal(objective(c0, m0, RewardConfig()).objective,
                                      row.rewards.objective)


def test_ingest_extra_fields_dropped(tmp_path):
    p = tmp_path / "log.jsonl"
    p.write_text(one_line(charging=True, signal_strength=-40))
    [row] = load_dataset(p, RewardConfig())
    assert not hasattr(row.context, "charging")
    assert row.context == ctx()


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
