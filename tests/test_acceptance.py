"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Each test prints "ACCEPT <n> <name>: PASS" on success; a failure raises
before the line is printed, so the pytest -v output doubles as the
acceptance report. Criteria with runtime budgets assert wall time too.
"""

import json
import os
import time

import numpy as np
import pytest

from watune.config import ExperimentConfig, atomic_write_text, save_config
from watune.datagen import (
    DatasetConfig,
    IN_DISTRIBUTION_PROFILE,
    OOD_PROFILE,
    dataset_blocks,
    file_hash,
    generate_dataset,
    split,
)
from watune.domain import (
    ALL_SCENARIOS,
    AccessCategory,
    Action,
    AppType,
    PerformanceMode,
    TimeOfDay,
)
from watune.evaluate import (
    cooperative_slice,
    evaluate,
    train_head,
)
from watune.measurement import LinkModelConfig, measure
from watune.policy import OraclePolicy, RulePolicy, FixedPolicy, make_baseline, rule_choices
from watune.reward import RewardConfig, RewardMode, objective, soft_labels
from watune.train import (
    HeadModel,
    TrainConfig,
    _forward_cached,
    backward,
    dpo_target,
    forward,
    init_head,
    kl_target,
    loss_and_grad,
)

from conftest import Context, dataset_of, relabel

pytestmark = pytest.mark.acceptance


def _ok(n, name):
    print(f"\nACCEPT {n} {name}: PASS")


# --- shared full-scale dataset (criteria 2 and 6) -------------------------

@pytest.fixture(scope="module")
def full_dataset():
    return generate_dataset(IN_DISTRIBUTION_PROFILE, LinkModelConfig(),
                            DatasetConfig(), RewardConfig(), 1)


# --- 1. reward golden values + brute-force equivalence ---------------------

def _scores(app, latency_ms, battery, energy):
    """(latency score, energy score) of one app, one visible battery and one
    measurement shared by every action."""
    data = dataset_of(Context(TimeOfDay.morning, battery, None, (app,)),
                      measured=(np.full((1, 8), latency_ms), np.full((1, 8), energy)))
    _, lat, eng = objective(data, RewardConfig())
    return lat[0, 0], eng[0, 0]


def test_accept_1_reward_golden_values():
    t0 = time.monotonic()
    assert _scores(AppType.voiceChat, 5.0, 50.0, 1.0)[0] == 90.0
    assert _scores(AppType.textMessage, 200.0, 50.0, 1.0)[0] == 0.0
    assert abs(_scores(AppType.voiceChat, 1.0, 50.0, 3.24)[1] - 15.4321) < 1e-4

    from watune.reward import DEFAULT_TOLERANCE_MS

    rng = np.random.default_rng(101)
    cfg = RewardConfig()
    for _ in range(10_000):
        apps = tuple(AppType(i) for i in rng.integers(0, 8, size=int(rng.integers(1, 11))))
        sub = None if rng.random() < 0.25 else float(rng.uniform(5, 100))
        ctx = Context(TimeOfDay(int(rng.integers(0, 4))), float(rng.uniform(5, 100)), sub, apps)
        lat_ms, eng_pct_h = rng.uniform(0, 500, 8), rng.uniform(0.2, 8.0, 8)
        got = objective(dataset_of(ctx, measured=(lat_ms[None], eng_pct_h[None])), cfg)[0][0]
        batts = [ctx.publisher_battery] + ([] if sub is None else [sub])
        ref = np.empty(8)
        for a in range(8):
            lat = 0.0
            for app in apps:
                lat += max(100.0 - 100.0 * lat_ms[a] / DEFAULT_TOLERANCE_MS[app], 0.0)
            pen = 0.0
            for b in batts:
                pen += eng_pct_h[a] / b
            ref[a] = cfg.w_l * lat / len(apps) - cfg.w_p * pen / len(batts)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
    assert time.monotonic() - t0 < 5.0
    _ok(1, "reward golden values + 1e4-sample brute-force equivalence")


# --- 2. oracle dominance ----------------------------------------------------

def test_accept_2_oracle_dominance(full_dataset):
    t0 = time.monotonic()
    assert len(full_dataset) == 32_000
    rows = np.arange(len(full_dataset))
    rewards = full_dataset.rewards
    best = rewards[rows, OraclePolicy().decide(full_dataset)]
    assert np.array_equal(best, rewards.max(axis=1))
    for p in (RulePolicy(), FixedPolicy("fix-rt-iv"), FixedPolicy("fix-bulk-bg")):
        assert np.all(best >= rewards[rows, p.decide(full_dataset)])
    assert time.monotonic() - t0 < 30.0
    _ok(2, "oracle dominance on every sample of a full 32k dataset")


# --- 3. rule baseline determinism -------------------------------------------

def _rule(history):
    """The rule baseline's action index for one app history."""
    return int(rule_choices(np.array([[int(a) for a in history]]))[0])


def test_accept_3_rule_determinism():
    h1 = [AppType.voiceChat] * 6 + [AppType.textMessage] * 4
    assert _rule(h1) == Action(PerformanceMode.realtime, AccessCategory.interactiveVoice).index
    assert _rule([AppType.firmwareUpdate] * 10) == Action(
        PerformanceMode.bulk, AccessCategory.background).index
    tie = [AppType.videoCall] * 5 + [AppType.sensorSync] * 5
    assert _rule(tie) == 2

    rng = np.random.default_rng(33)
    for _ in range(1000):
        hist = [AppType(i) for i in rng.integers(0, 8, size=int(rng.integers(1, 11)))]
        base = _rule(hist)
        shuffled = list(hist)
        rng.shuffle(shuffled)
        assert _rule(shuffled) == base
    _ok(3, "rule baseline examples (incl. tie) + 1e3 permutation fuzz")


# --- 4. gradient checks -------------------------------------------------------


def _check_loss_grads(loss_name, layers, rng, n_coords=110, eps=1e-4, rtol=1e-4):
    """Analytic parameter gradient vs central differences at random coords.

    Coordinates where the finite-difference step crosses a rectifier kink
    (pre-activation within 1e-3 of zero) are redrawn: the loss is not
    differentiable there and both estimates are meaningless.
    """
    model = init_head(layers, hidden=8, seed=int(rng.integers(1 << 30)))
    for w in model.weights:
        w += rng.normal(0, 0.05, w.shape)
    x = rng.normal(0, 1, (1, model.weights[0].shape[1]))
    y = int(rng.integers(8))
    soft = soft_labels(rng.normal(size=8), 1.0)
    y_l = (y + 1 + int(rng.integers(7))) % 8
    ref = init_head(layers, hidden=8, seed=int(rng.integers(1 << 30)))
    # One row, as in training; a DPO pair scores both actions on it.
    target = {"ce": ([y],), "kl": kl_target(soft[None]),
              "dpo": (*dpo_target(forward(ref, x), [y], [y_l]), 0.1)}[loss_name]

    def loss_of(m):
        logits, _ = _forward_cached(m, x)
        return loss_and_grad(loss_name, logits, target)[0]

    # analytic full gradient via backprop
    logits, acts = _forward_cached(model, x)
    grads = model.views(np.empty_like(model.flat()))  # written with the gradient
    backward(model, acts, loss_and_grad(loss_name, logits, target)[1], grads)
    grad = grads.flat()

    theta = model.flat()
    checked = 0
    attempts = 0
    while checked < n_coords:
        attempts += 1
        assert attempts < 50 * n_coords, "could not find enough smooth coordinates"
        i = int(rng.integers(theta.size))
        tp, tm = theta.copy(), theta.copy()
        tp[i] += eps
        tm[i] -= eps
        mp, mm = model.views(tp), model.views(tm)
        # rectifier-kink guard: skip if any hidden pre-activation is near zero
        near_kink = False
        for m in (model, mp, mm):
            pres = (forward(HeadModel(m.weights[:k], m.biases[:k]), x) for k in range(1, layers))
            if any(np.any(np.abs(z) < 1e-3) for z in pres):
                near_kink = True
                break
        if near_kink:
            continue
        fd = (loss_of(mp) - loss_of(mm)) / (2 * eps)
        scale = max(abs(grad[i]), abs(fd), 1e-6)
        assert abs(grad[i] - fd) / scale < rtol, (
            f"{loss_name} {layers}-layer grad mismatch at coord {i}: {grad[i]} vs {fd}")
        checked += 1


def test_accept_4_gradient_checks():
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    for loss_name in ("ce", "kl", "dpo"):
        for layers in (1, 2, 3):
            _check_loss_grads(loss_name, layers, rng)
    assert time.monotonic() - t0 < 60.0
    _ok(4, "CE/KL/DPO analytic vs finite-difference gradients, 1/2/3 layers")


# --- 5. loss identities --------------------------------------------------------

def test_accept_5_loss_identities():
    rng = np.random.default_rng(55)
    logits = rng.normal(size=8)[None]

    def loss(kind, target, z=logits):
        return loss_and_grad(kind, z, target)[0]

    assert abs(loss("kl", kl_target(soft_labels(logits, 1.0)))) < 1e-9
    for y in range(8):
        onehot = np.zeros((1, 8))
        onehot[0, y] = 1.0
        assert loss("ce", ([y],)) == loss("kl", kl_target(onehot))
    assert abs(loss("ce", ([5],), np.zeros((1, 8))) - np.log(8)) < 1e-9
    assert abs(loss("dpo", (*dpo_target(logits, [1], [4]), 0.1)) - np.log(2)) < 1e-9
    _ok(5, "loss identities (KL=0 at match, CE==KL(onehot), ln8, ln2)")


# --- 6. dataset statistics -------------------------------------------------------

def test_accept_6_dataset_statistics(full_dataset, tmp_path):
    assert len(full_dataset) == 32_000

    scen_counts = np.bincount(full_dataset.scenario, minlength=len(ALL_SCENARIOS))
    assert len(scen_counts) == len(ALL_SCENARIOS)
    assert set(scen_counts.tolist()) == {2000}

    rng = np.random.default_rng([1, 9973])
    train_set, test_set = split(full_dataset, 0.8, rng)
    assert abs(len(train_set) - 25_600) <= 16
    assert abs(len(test_set) - 6_400) <= 16
    for part, frac in ((train_set, 0.8), (test_set, 0.2)):
        per = np.bincount(part.scenario, minlength=len(ALL_SCENARIOS))
        for scen in ALL_SCENARIOS:
            assert abs(per[scen.code] - 2000 * frac) <= 1

    # per-time-of-day app frequencies within +/-0.01 of the generating profile
    by_time = np.zeros((len(TimeOfDay), len(AppType)), dtype=int)
    np.add.at(by_time, (full_dataset.time, full_dataset.hist[:, -1]), 1)
    for t in TimeOfDay:
        total = by_time[t].sum()
        profile = IN_DISTRIBUTION_PROFILE[t]
        for app in AppType:
            expected = profile.get(app, 0.0)
            got = by_time[t, app] / total
            assert abs(got - expected) <= 0.01, (t.name, app.name, got, expected)

    # identical seed => identical file hash
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    atomic_write_text(p1, dataset_blocks(full_dataset[:2000]))
    again = generate_dataset(IN_DISTRIBUTION_PROFILE, LinkModelConfig(),
                             DatasetConfig(), RewardConfig(), 1)
    atomic_write_text(p2, dataset_blocks(again[:2000]))
    assert file_hash(p1) == file_hash(p2)
    _ok(6, "32k samples, 16 equal blocks, stratified 80/20, profile freqs, hash")


# --- 7. directional findings, 5 seeds, majority ----------------------------------

def test_accept_7_directional_findings():
    t0 = time.monotonic()
    seeds = (1, 2, 3, 4, 5)
    wins = {"kl_ge_ce": 0, "kl_ge_rule_agg": 0, "kl_ge_rule_ood": 0,
            "coop_energy_lower_with_peer": 0, "ctx_ge_naive": 0}
    reward_cfg = RewardConfig()
    soft_temp = reward_cfg.soft_temp
    for seed in seeds:
        dcfg = DatasetConfig()
        data = generate_dataset(IN_DISTRIBUTION_PROFILE, LinkModelConfig(), dcfg, reward_cfg, seed)
        rng = np.random.default_rng([seed, 9973])
        train_set, test_set = split(data, dcfg.split_fraction, rng)
        ood = generate_dataset(OOD_PROFILE, LinkModelConfig(), dcfg, reward_cfg, seed, stream=1)

        base = dict(epochs=5, layers=3)
        kl_cfg = TrainConfig(loss="kl", **base)
        kl_policy, _ = train_head(train_set, kl_cfg, seed, soft_temp)
        ce_policy, _ = train_head(train_set, TrainConfig(loss="ce", **base), seed, soft_temp)

        kl_agg = evaluate(kl_policy, test_set, reward_cfg).objective_score
        if kl_agg >= evaluate(ce_policy, test_set, reward_cfg).objective_score:
            wins["kl_ge_ce"] += 1

        rule = RulePolicy()
        if kl_agg >= evaluate(rule, test_set, reward_cfg).objective_score:
            wins["kl_ge_rule_agg"] += 1
        if (evaluate(kl_policy, ood, reward_cfg).objective_score
                >= evaluate(rule, ood, reward_cfg).objective_score):
            wins["kl_ge_rule_ood"] += 1

        # Both ablations compare the KL head above with one other head of
        # the same seed and config: one blind to the subscriber battery, and
        # one trained on naive-reward labels, scored on context-aware ones.
        coop = cooperative_slice(test_set)
        masked_policy, _ = train_head(train_set, kl_cfg, seed, soft_temp, masked=True)
        if (evaluate(kl_policy, coop, reward_cfg).raw_energy_pct_h
                < evaluate(masked_policy, coop, reward_cfg).raw_energy_pct_h):
            wins["coop_energy_lower_with_peer"] += 1

        naive = relabel(train_set, RewardConfig(reward_mode=RewardMode.naive))
        naive_policy, _ = train_head(naive, kl_cfg, seed, soft_temp)
        if kl_agg >= evaluate(naive_policy, test_set, reward_cfg).objective_score:
            wins["ctx_ge_naive"] += 1

    for key, count in wins.items():
        assert count >= 3, f"directional finding {key}: only {count}/5 seeds"
    assert time.monotonic() - t0 < 600.0
    _ok(7, f"directional findings over 5 seeds (majority): {wins}")


# --- 8. single-objective sanity -----------------------------------------------------

def test_accept_8_single_objective_sanity():
    # latency-only (w_P = 0): oracle == latency-argmax on every sample
    dcfg = DatasetConfig(logs_per_session=250)
    lat_cfg = RewardConfig(w_l=0.1, w_p=0.0)
    data = generate_dataset(IN_DISTRIBUTION_PROFILE, LinkModelConfig(), dcfg, lat_cfg, 1)
    assert np.array_equal(OraclePolicy().decide(data), np.argmin(data.lat, axis=1))

    # energy-only (w_L = 0), noiseless: oracle == (bulk, background) everywhere
    quiet = LinkModelConfig(latency_noise_sigma=0.0, energy_noise_sigma=0.0)
    eng_cfg = RewardConfig(w_l=0.0, w_p=1.0)
    data = generate_dataset(IN_DISTRIBUTION_PROFILE, quiet, dcfg, eng_cfg, 1)
    assert np.all(OraclePolicy().decide(data) == 5)

    # fix-rt-iv within 1% of the oracle under the noiseless latency-only model
    data = generate_dataset(IN_DISTRIBUTION_PROFILE, quiet, dcfg, lat_cfg, 1)
    oracle_rep = evaluate(OraclePolicy(), data, lat_cfg)
    fixed_rep = evaluate(FixedPolicy("fix-rt-iv"), data, lat_cfg)
    assert fixed_rep.latency_score >= 0.99 * oracle_rep.latency_score
    _ok(8, "single-objective reductions (latency argmax, bulk/bg, fix-rt-iv)")


# --- 9. end-to-end determinism --------------------------------------------------------

def test_accept_9_compare_determinism(tmp_path):
    from watune.cli import main

    cfg = ExperimentConfig(seed=1)
    cfg.dataset.logs_per_session = 80
    cfg.train.epochs = 1
    cfg.train.layers = 1
    cfg_path = tmp_path / "config.json"
    save_config(cfg_path, cfg)

    hashes = []
    for run in ("one", "two"):
        out = tmp_path / run
        assert main(["--config", str(cfg_path), "compare", "--out", str(out)]) == 0
        hashes.append({f: file_hash(out / f) for f in sorted(os.listdir(out))})
    assert hashes[0] == hashes[1]
    _ok(9, "compare twice with same seed: byte-identical tables + checkpoints")
