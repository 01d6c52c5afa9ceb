from dataclasses import replace

import numpy as np
import pytest

from watune.domain import ALL_SCENARIOS, BatteryConfig, Scenario, TimeOfDay, action_from_index
from watune.evaluate import (
    cooperative_slice,
    evaluate,
    flat_table,
    replay_snapshot,
    train_head,
)
from watune.policy import FixedPolicy, OraclePolicy, RulePolicy, make_baseline
from watune.reward import RewardConfig
from watune.train import TrainConfig

SOFT_TEMP = RewardConfig().soft_temp


def test_evaluate_oracle_dominates(small_split):
    _, test = small_split
    oracle = evaluate(OraclePolicy(), test)
    for name in ("rule", "fix-rt-iv", "fix-bulk-bg"):
        rep = evaluate(make_baseline(name), test)
        assert oracle.objective_score >= rep.objective_score
    assert oracle.n_samples == len(test)


def test_evaluate_matches_independent_pass(small_split):
    _, test = small_split
    policy = RulePolicy()
    rep = evaluate(policy, test)
    chosen = policy.decide(test)
    manual = np.mean([test.rewards[i, a] for i, a in enumerate(chosen)])
    assert rep.objective_score == pytest.approx(manual, abs=1e-9)
    manual_raw = np.mean([test.eng[i, a] for i, a in enumerate(chosen)])
    assert rep.raw_energy_pct_h == pytest.approx(manual_raw, abs=1e-9)


def test_evaluate_per_scenario_breakdown(small_split):
    _, test = small_split
    rep = evaluate(FixedPolicy("rt_iv"), test)
    assert len(rep.per_scenario) == 16
    assert sum(v["n"] for v in rep.per_scenario.values()) == len(test)
    assert rep.scenario_mean_objective == pytest.approx(
        np.mean([v["objective"] for v in rep.per_scenario.values()]))


def test_cooperative_slice(small_split):
    _, test = small_split
    coop = cooperative_slice(test)
    assert coop
    assert all(ALL_SCENARIOS[code].battery_config is BatteryConfig.pubHighSubLow
               for code in coop.scenario)
    assert len(coop) == len(test) // 4


def test_train_head_naming_and_masking(small_split):
    train_set, _ = small_split
    cfg = TrainConfig(loss="kl", epochs=1, layers=1)
    policy, report = train_head(train_set, cfg, 2, SOFT_TEMP)
    assert policy.name == "head-kl" and not policy.mask_peer
    assert report["samples"] == len(train_set)
    masked_policy, _ = train_head(train_set, cfg, 2, SOFT_TEMP, masked=True)
    assert masked_policy.name == "head-kl-no-peer"
    assert masked_policy.mask_peer


def test_train_head_dpo_builds_reference(small_split):
    train_set, _ = small_split
    cfg = TrainConfig(loss="dpo", epochs=1, layers=1)
    policy, report = train_head(train_set[:400], cfg, 2, SOFT_TEMP)
    assert policy.name == "head-dpo"
    assert report["loss"] == "dpo"
    # The reference it builds is the KL head of the same config and data.
    kl, _ = train_head(train_set[:400], replace(cfg, loss="kl"), 2, SOFT_TEMP)
    given, _ = train_head(train_set[:400], cfg, 2, SOFT_TEMP, ref_model=kl.model)
    assert given.model.flat().tobytes() == policy.model.flat().tobytes()


def test_replay_snapshot(small_split):
    _, test = small_split
    policies = [OraclePolicy(), RulePolicy(), FixedPolicy("rt_iv")]
    scen = Scenario(TimeOfDay.night, BatteryConfig.pubHighSubLow)
    text = replay_snapshot(test, policies, scenario=scen, max_steps=5)
    assert text.count("step ") == 5
    for p in policies:
        assert text.count(p.name) == 5
    assert "night" in text
    # decisions in the transcript match evaluate's decisions
    rows = test[test.scenario == scen.code][:5]
    for a, line_block in zip(OraclePolicy().decide(rows), text.split("step ")[1:]):
        assert str(action_from_index(a)) in line_block


def test_flat_table_shape(small_split):
    _, test = small_split
    reports = {
        "oracle": {"aggregate": evaluate(OraclePolicy(), test)},
        "rule": {"aggregate": evaluate(RulePolicy(), test)},
    }
    table = flat_table(reports)
    lines = table.strip().split("\n")
    assert lines[0].startswith("policy\tslice\tmetric")
    assert len(lines) == 1 + 2 * 3
    # deterministic serialization
    assert table == flat_table(reports)
