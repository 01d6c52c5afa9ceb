import pytest

from watune.domain import (
    AccessCategory,
    Action,
    AppType,
    BatteryClass,
    BatteryConfig,
    PerformanceMode,
    Scenario,
    TimeOfDay,
    ALL_SCENARIOS,
    action_from_index,
)

from conftest import load_record


ACTIONS = tuple(action_from_index(i) for i in range(8))


def test_enum_codes_stable():
    assert [m.value for m in PerformanceMode] == [0, 1]
    assert [m.value for m in AccessCategory] == [0, 1, 2, 3]
    assert [m.value for m in AppType] == list(range(8))
    assert [m.value for m in TimeOfDay] == [0, 1, 2, 3]
    assert len(BatteryClass) == 3
    assert len(BatteryConfig) == 4


def test_enum_wire_names_round_trip():
    for enum_cls in (PerformanceMode, AccessCategory, AppType, TimeOfDay, BatteryConfig):
        for member in enum_cls:
            assert enum_cls[member.name] is member
    assert AccessCategory.interactiveVoice.name == "interactiveVoice"
    assert AppType.photoTransfer.name == "photoTransfer"


def test_action_from_index_examples():
    assert action_from_index(0) == Action(PerformanceMode.realtime, AccessCategory.bestEffort)
    assert action_from_index(7) == Action(PerformanceMode.bulk, AccessCategory.interactiveVoice)
    assert action_from_index(5) == Action(PerformanceMode.bulk, AccessCategory.background)


def test_action_index_round_trip():
    for i in range(8):
        assert action_from_index(i).index == i
    for a in ACTIONS:
        assert action_from_index(a.index) == a


@pytest.mark.parametrize("bad", [-1, 8, 100])
def test_action_from_index_range_error(bad):
    with pytest.raises(ValueError):
        action_from_index(bad)


def test_all_actions_contract():
    actions = ACTIONS
    assert len(actions) == 8
    assert len(set(actions)) == 8
    assert [a.index for a in actions] == list(range(8))
    assert actions[0] == Action(PerformanceMode.realtime, AccessCategory.bestEffort)


def test_scenario_grid():
    assert len(ALL_SCENARIOS) == 16
    assert len(set(ALL_SCENARIOS)) == 16
    assert ALL_SCENARIOS[0] == Scenario(TimeOfDay.morning, BatteryConfig.bothHigh)


def test_scenario_code_indexes_grid():
    assert [s.code for s in ALL_SCENARIOS] == list(range(16))
    assert ALL_SCENARIOS[Scenario(TimeOfDay.night, BatteryConfig.bothLow).code].key() == "night/bothLow"


def test_context_validation(tmp_path, small_dataset):
    """`load_dataset` checks the context columns of every record."""
    ok = load_record(tmp_path, small_dataset, pub_battery=50.0, sub_battery=80.0)
    assert ok.sub.tolist() == [80.0]
    for edit, message in (({"pub_battery": 120.0}, "line 1: publisher battery must be in"),
                          ({"sub_battery": 101.0}, "line 1: subscriber battery must be in"),
                          ({"app_history": []}, "app histories must be non-empty"),
                          ({"step": -1}, "line 1: step must be non-negative")):
        with pytest.raises(ValueError, match=message):
            load_record(tmp_path, small_dataset, **edit)
