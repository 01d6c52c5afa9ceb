"""Decision policies: oracle, rule-based heuristic, fixed tuples, and the
trained-head wrapper. Each is a `name` and a `decide(dataset)` that returns
every row's action index. The oracle reads the rewards, the others contexts only."""

from __future__ import annotations

from functools import partial

import numpy as np

from .datagen import Dataset, mask_peer
from .domain import NUM_ACTIONS, AccessCategory, Action, AppType, PerformanceMode
from .train import head_choices

# Heuristic app -> preferred WA parameter tuple.
PREFERRED_TUPLE: dict[AppType, Action] = {
    AppType.textMessage: Action(PerformanceMode.realtime, AccessCategory.bestEffort),
    AppType.voiceChat: Action(PerformanceMode.realtime, AccessCategory.interactiveVoice),
    AppType.videoCall: Action(PerformanceMode.realtime, AccessCategory.interactiveVideo),
    AppType.sensorSync: Action(PerformanceMode.bulk, AccessCategory.background),
    AppType.photoTransfer: Action(PerformanceMode.bulk, AccessCategory.bestEffort),
    AppType.videoUpload: Action(PerformanceMode.bulk, AccessCategory.bestEffort),
    AppType.firmwareUpdate: Action(PerformanceMode.bulk, AccessCategory.background),
    AppType.mapSync: Action(PerformanceMode.realtime, AccessCategory.bestEffort),
}

# The fixed-tuple baselines by policy name.
FIXED_ACTIONS: dict[str, Action] = {
    "fix-rt-iv": Action(PerformanceMode.realtime, AccessCategory.interactiveVoice),
    "fix-bulk-bg": Action(PerformanceMode.bulk, AccessCategory.background),
}


# Each app's preferred tuple, by app code.
_PREFERRED_INDEX = np.array([PREFERRED_TUPLE[app].index for app in AppType])
# Rows `rule_choices` decides at a time, so its temporaries hold one block.
_RULE_ROWS = 1024


def rule_choices(hist: np.ndarray) -> np.ndarray:
    """Modal preferred tuple over each (N, W) app-history row; lowest index wins ties."""
    choices = np.empty(len(hist), dtype=np.intp)
    for i in range(0, len(hist), _RULE_ROWS):
        preferred = _PREFERRED_INDEX[hist[i:i + _RULE_ROWS]]
        rows = np.arange(len(preferred))
        counts = np.zeros((len(preferred), NUM_ACTIONS), dtype=int)
        for w in range(hist.shape[1]):
            counts[rows, preferred[:, w]] += 1
        choices[i:i + _RULE_ROWS] = np.argmax(counts, axis=1)
    return choices


class OraclePolicy:
    name = "oracle"

    def decide(self, dataset: Dataset) -> np.ndarray:
        return np.argmax(dataset.rewards, axis=1)  # ties break to the lowest index


class RulePolicy:
    name = "rule"

    def decide(self, dataset: Dataset) -> np.ndarray:
        return rule_choices(dataset.hist)


class FixedPolicy:
    def __init__(self, name: str):
        self.name, self.action = name, FIXED_ACTIONS[name]

    def decide(self, dataset: Dataset) -> np.ndarray:
        return np.full(len(dataset), self.action.index)


class HeadPolicy:
    """Trained classification head; argmax of its logits per row, computed
    in 64-row slices (`train.head_choices`)."""

    def __init__(self, model, name: str = "head", mask_peer: bool = False):
        self.model, self.name, self.mask_peer = model, name, mask_peer

    def decide(self, dataset: Dataset) -> np.ndarray:
        return head_choices(self.model, mask_peer(dataset) if self.mask_peer else dataset)


BASELINES = {"oracle": OraclePolicy, "rule": RulePolicy,
             **{name: partial(FixedPolicy, name) for name in FIXED_ACTIONS}}
BASELINE_NAMES = tuple(BASELINES)


def make_baseline(name: str):
    if name not in BASELINES:
        raise ValueError(f"unknown policy {name!r}; valid: {', '.join(BASELINE_NAMES + ('head',))}")
    return BASELINES[name]()
