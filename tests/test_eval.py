from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from watune import reward
from watune.domain import ALL_SCENARIOS, BatteryConfig, Scenario, TimeOfDay, action_from_index
from watune.evaluate import (
    cooperative_slice,
    evaluate,
    flat_table,
    replay_snapshot,
    train_head,
)
from watune.policy import (
    BASELINE_NAMES,
    FixedPolicy,
    HeadPolicy,
    OraclePolicy,
    RulePolicy,
    make_baseline,
)
from watune.reward import RewardConfig, RewardMode
from watune.train import TrainConfig, init_head, train

from conftest import dataset_of
from test_columns import context_batches
from test_reward import whole_column_objective

SOFT_TEMP = RewardConfig().soft_temp


def every_policy():
    """The baselines and a head, plain and peer-masked."""
    model = init_head(2, 16, seed=3)
    return [make_baseline(name) for name in BASELINE_NAMES] + [
        HeadPolicy(model), HeadPolicy(model, mask_peer=True)]


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def assert_scores_are_gathered(dataset, cfg: RewardConfig) -> None:
    """Every policy's latency and energy scores, overall and per scenario,
    have the bits of the means of a gather from the whole-column objective
    outputs, the reference `evaluate` must match; its objective scores have
    the bits of the means of a gather from the dataset's stored rewards."""
    _, lat_scores, eng_scores = whole_column_objective(dataset, cfg)
    rows = np.arange(len(dataset))
    for policy in every_policy():
        chosen = policy.decide(dataset)
        obj = dataset.rewards[rows, chosen]
        lat, eng = lat_scores[rows, chosen], eng_scores[rows, chosen]
        rep = evaluate(policy, dataset, cfg)
        assert (bits(rep.latency_score), bits(rep.energy_score)) == (
            bits(lat.mean()), bits(eng.mean())), policy.name
        assert bits(rep.objective_score) == bits(obj.mean()), policy.name
        for code in np.flatnonzero(np.bincount(dataset.scenario)):
            idx = dataset.scenario == code
            got = rep.per_scenario[ALL_SCENARIOS[code].key()]
            assert (bits(got["latency"]), bits(got["energy"])) == (
                bits(lat[idx].mean()), bits(eng[idx].mean())), (policy.name, code)
            assert bits(got["objective"]) == bits(obj[idx].mean()), (policy.name, code)


@given(context_batches(), st.sampled_from(RewardMode))
@settings(max_examples=100, deadline=None)
def test_evaluate_scores_equal_a_gather_of_the_whole_columns_in_bits(batch, mode):
    """`evaluate` scores only the chosen actions; rows with and without the
    peer's battery, in both reward modes, keep the whole-column bits."""
    rows, (lat, eng) = batch
    cfg = RewardConfig(reward_mode=mode)
    dataset = dataset_of(*rows, measured=(lat, eng))
    dataset = replace(dataset, rewards=whole_column_objective(dataset, cfg)[0])
    assert_scores_are_gathered(dataset, cfg)


@pytest.mark.parametrize("mode", RewardMode)
def test_evaluate_scores_keep_their_bits_across_blocks(small_split, mode):
    """A test split of 320 rows, scored 100 chosen actions to a block."""
    _, test = small_split
    cfg = RewardConfig(reward_mode=mode)
    test = replace(test, rewards=whole_column_objective(test, cfg)[0])
    with mock.patch.object(reward, "_WORK_ENTRIES", 100):
        assert_scores_are_gathered(test, cfg)


def test_evaluate_oracle_dominates(small_split):
    _, test = small_split
    oracle = evaluate(OraclePolicy(), test, RewardConfig())
    for name in ("rule", "fix-rt-iv", "fix-bulk-bg"):
        rep = evaluate(make_baseline(name), test, RewardConfig())
        assert oracle.objective_score >= rep.objective_score
    assert oracle.n_samples == len(test)


def test_evaluate_matches_independent_pass(small_split):
    _, test = small_split
    policy = RulePolicy()
    rep = evaluate(policy, test, RewardConfig())
    chosen = policy.decide(test)
    manual = np.mean([test.rewards[i, a] for i, a in enumerate(chosen)])
    assert rep.objective_score == pytest.approx(manual, abs=1e-9)
    manual_raw = np.mean([test.eng[i, a] for i, a in enumerate(chosen)])
    assert rep.raw_energy_pct_h == pytest.approx(manual_raw, abs=1e-9)


def test_evaluate_per_scenario_breakdown(small_split):
    _, test = small_split
    rep = evaluate(FixedPolicy("fix-rt-iv"), test, RewardConfig())
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
    """The caller names each head; a masked one hides the subscriber battery."""
    train_set, _ = small_split
    cfg = TrainConfig(loss="kl", epochs=1, layers=1)
    policy, report = train_head(train_set, cfg, 2, SOFT_TEMP)
    assert policy.name == "head" and not policy.mask_peer
    assert report["samples"] == len(train_set)
    masked_policy, _ = train_head(train_set, cfg, 2, SOFT_TEMP, masked=True, name="head-kl-no-peer")
    assert masked_policy.name == "head-kl-no-peer"
    assert masked_policy.mask_peer


def test_train_head_dpo_starts_from_its_reference(small_split):
    """A DPO head is the `train` run that starts from, and is anchored to,
    the reference its caller gives; without one it is refused, not given a
    reference trained on the side."""
    train_set, _ = small_split
    cfg = TrainConfig(loss="dpo", epochs=1, layers=1)
    kl, _ = train_head(train_set[:400], replace(cfg, loss="kl"), 2, SOFT_TEMP)
    policy, report = train_head(train_set[:400], cfg, 2, SOFT_TEMP, ref_model=kl.model,
                                name="head-kl+dpo")
    assert (policy.name, report["loss"]) == ("head-kl+dpo", "dpo")
    model, _ = train(train_set[:400], kl.model, cfg, 2, SOFT_TEMP, ref_model=kl.model)
    assert policy.model.flat().tobytes() == model.flat().tobytes()
    with pytest.raises(ValueError, match="a DPO head needs a reference head"):
        train_head(train_set[:400], cfg, 2, SOFT_TEMP)


def test_replay_snapshot(small_split):
    _, test = small_split
    policies = [OraclePolicy(), RulePolicy(), FixedPolicy("fix-rt-iv")]
    scen = Scenario(TimeOfDay.night, BatteryConfig.pubHighSubLow)
    text = replay_snapshot(test, policies, scen, 5)
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
        "oracle": {"aggregate": evaluate(OraclePolicy(), test, RewardConfig())},
        "rule": {"aggregate": evaluate(RulePolicy(), test, RewardConfig())},
    }
    table = flat_table(reports)
    lines = table.strip().split("\n")
    assert lines[0].startswith("policy\tslice\tmetric")
    assert len(lines) == 1 + 2 * 3
    # deterministic serialization
    assert table == flat_table(reports)
