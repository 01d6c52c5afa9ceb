"""Canonical types shared by the whole pipeline.

Enum member names double as the wire format: they serialize as their
lower-camel names ("interactiveVoice", "photoTransfer") in every file.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum


class PerformanceMode(IntEnum):
    realtime = 0
    bulk = 1


class AccessCategory(IntEnum):
    bestEffort = 0
    background = 1
    interactiveVideo = 2
    interactiveVoice = 3


class AppType(IntEnum):
    textMessage = 0
    voiceChat = 1
    videoCall = 2
    sensorSync = 3
    photoTransfer = 4
    videoUpload = 5
    firmwareUpdate = 6
    mapSync = 7


class TimeOfDay(IntEnum):
    morning = 0
    afternoon = 1
    evening = 2
    night = 3


class BatteryClass(IntEnum):
    high = 0
    medium = 1
    low = 2


class BatteryConfig(IntEnum):
    bothHigh = 0
    bothMedium = 1
    bothLow = 2
    pubHighSubLow = 3


NUM_ACTIONS = 8


@dataclass(frozen=True)
class Action:
    mode: PerformanceMode
    category: AccessCategory

    @property
    def index(self) -> int:
        # mode-major, category-minor canonical ordering
        return int(self.mode) * 4 + int(self.category)

    def __str__(self) -> str:
        return f"({self.mode.name}, {self.category.name})"


def action_from_index(index: int) -> Action:
    return Action(PerformanceMode(index // 4), AccessCategory(index % 4))


@dataclass(frozen=True)
class Scenario:
    time: TimeOfDay
    battery_config: BatteryConfig

    def key(self) -> str:
        return f"{self.time.name}/{self.battery_config.name}"

    @property
    def code(self) -> int:
        """Index in ALL_SCENARIOS; codes sort time-major, battery-config-minor."""
        return int(self.time) * len(BatteryConfig) + int(self.battery_config)


ALL_SCENARIOS: tuple[Scenario, ...] = tuple(
    Scenario(t, b) for t in TimeOfDay for b in BatteryConfig
)
