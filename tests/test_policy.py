import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from watune import policy
from watune.domain import (
    AccessCategory,
    Action,
    AppType,
    PerformanceMode,
    TimeOfDay,
)
from watune.policy import (
    BASELINE_NAMES,
    FixedPolicy,
    OraclePolicy,
    PREFERRED_TUPLE,
    RulePolicy,
    make_baseline,
    rule_choices,
)

from conftest import Context, dataset_of, load_record


def ctx(apps):
    return Context(TimeOfDay.morning, 80.0, 60.0, tuple(apps))


def oracle(*rows):
    """The oracle's action for each row of per-action objectives."""
    return OraclePolicy().decide(dataset_of(*[ctx([AppType.textMessage])] * len(rows),
                                            rewards=rows)).tolist()


def rule(history):
    return int(RulePolicy().decide(dataset_of(ctx(history)))[0])


def test_oracle_unique_max():
    assert oracle([0, 0, 0, 9, 0, 0, 0, 0]) == [3]


def test_oracle_tie_lowest_index():
    assert oracle([1.0] * 8, [0, 5, 5, 0, 0, 0, 0, 0]) == [0, 1]


def test_oracle_matches_linear_scan():
    rng = np.random.default_rng(13)
    rows = rng.normal(size=(300, 8))
    expected = []
    for vals in rows:
        best, best_i = -np.inf, 0
        for i, v in enumerate(vals):
            if v > best:
                best, best_i = v, i
        expected.append(best_i)
    assert oracle(*rows) == expected


def test_preferred_tuple_table_complete():
    assert set(PREFERRED_TUPLE) == set(AppType)
    assert PREFERRED_TUPLE[AppType.firmwareUpdate] == Action(PerformanceMode.bulk, AccessCategory.background)
    assert PREFERRED_TUPLE[AppType.voiceChat] == Action(PerformanceMode.realtime, AccessCategory.interactiveVoice)


def test_rule_examples():
    h = [AppType.voiceChat] * 6 + [AppType.textMessage] * 4
    assert rule(h) == Action(PerformanceMode.realtime, AccessCategory.interactiveVoice).index
    assert rule([AppType.firmwareUpdate] * 10) == Action(PerformanceMode.bulk, AccessCategory.background).index
    # tie: videoCall -> index 2, sensorSync -> index 5; lowest index wins
    tie = [AppType.videoCall] * 5 + [AppType.sensorSync] * 5
    assert rule(tie) == 2


def test_rule_empty_history(tmp_path, small_dataset):
    # A dataset record cannot carry an empty history.
    with pytest.raises(ValueError, match="app histories must be non-empty"):
        load_record(tmp_path, small_dataset, app_history=[])


@given(st.lists(st.sampled_from(list(AppType)), min_size=1, max_size=10), st.randoms())
@settings(max_examples=200, deadline=None)
def test_rule_permutation_invariant(history, rnd):
    shuffled = list(history)
    rnd.shuffle(shuffled)
    assert rule(history) == rule(shuffled)


def test_fixed_decide():
    assert FixedPolicy("fix-rt-iv").action == Action(PerformanceMode.realtime, AccessCategory.interactiveVoice)
    assert FixedPolicy("fix-bulk-bg").action == Action(PerformanceMode.bulk, AccessCategory.background)


def test_policy_wrappers(small_dataset):
    r = [[0, 0, 7, 0, 0, 0, 0, 0]]
    assert OraclePolicy().decide(dataset_of(ctx([AppType.voiceChat]), rewards=r)).tolist() == [2]
    # rule/fixed ignore the reward vector entirely
    data = dataset_of(ctx([AppType.videoCall] * 10), rewards=r)
    assert RulePolicy().decide(data).tolist() == [2]
    assert FixedPolicy("fix-bulk-bg").decide(data).tolist() == [5]
    # on generated data the oracle reads the stored rewards
    data = small_dataset[:64]
    np.testing.assert_array_equal(OraclePolicy().decide(data), np.argmax(data.rewards, axis=1))
    np.testing.assert_array_equal(FixedPolicy("fix-rt-iv").decide(data), np.full(64, 3))


def test_make_baseline():
    for name in BASELINE_NAMES:
        assert make_baseline(name).name == name
    with pytest.raises(ValueError):
        make_baseline("bogus")


def test_fixed_constant_across_contexts():
    p = FixedPolicy("fix-rt-iv")
    for apps in ([AppType.firmwareUpdate] * 3, [AppType.voiceChat]):
        assert p.decide(dataset_of(ctx(apps))).tolist() == [3]


def test_rule_choices_do_not_depend_on_the_block(monkeypatch):
    """`rule_choices` decides 1,024 rows at a time: 2,100 rows, two whole
    blocks and a part, get the choices of one pass over them all."""
    hist = np.random.default_rng(4).integers(0, len(AppType), (2100, 10))
    chunked = rule_choices(hist)
    monkeypatch.setattr(policy, "_RULE_ROWS", len(hist))
    whole = rule_choices(hist)
    assert chunked.dtype == whole.dtype and chunked.tolist() == whole.tolist()
