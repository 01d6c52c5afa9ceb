"""Decision policies: oracle, rule-based heuristic, fixed tuples, and the
trained-head wrapper."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .domain import (
    NUM_ACTIONS,
    AccessCategory,
    Action,
    AppType,
    Contexts,
    PerformanceMode,
)
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

# The fixed-tuple baselines by variant.
FIXED_ACTIONS: dict[str, Action] = {
    "rt_iv": Action(PerformanceMode.realtime, AccessCategory.interactiveVoice),
    "bulk_bg": Action(PerformanceMode.bulk, AccessCategory.background),
}


def rule_choices(hist: np.ndarray) -> np.ndarray:
    """Modal preferred tuple over each (N, W) app-history row; lowest index wins ties."""
    preferred = np.array([PREFERRED_TUPLE[app].index for app in AppType])[hist]
    rows = np.arange(len(hist))
    counts = np.zeros((len(hist), NUM_ACTIONS), dtype=int)
    for w in range(hist.shape[1]):
        counts[rows, preferred[:, w]] += 1
    return np.argmax(counts, axis=1)


class Policy:
    """Base interface: choose(contexts, rewards) -> one action index per row.

    The oracle additionally receives the ground-truth (N, 8) objective
    values; every other policy must ignore them.
    """

    name = "base"

    def choose(self, contexts: Contexts, rewards: Optional[np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def decide(self, dataset) -> np.ndarray:
        """The action index of every row of a Dataset."""
        return self.choose(dataset.contexts, dataset.rewards)


class OraclePolicy(Policy):
    name = "oracle"

    def choose(self, contexts: Contexts, rewards: Optional[np.ndarray]) -> np.ndarray:
        if rewards is None:
            raise ValueError("oracle requires the sample's reward vector")
        return np.argmax(rewards, axis=1)  # ties break to the lowest index


class RulePolicy(Policy):
    name = "rule"

    def choose(self, contexts: Contexts, rewards: Optional[np.ndarray]) -> np.ndarray:
        return rule_choices(contexts.hist)


class FixedPolicy(Policy):
    def __init__(self, variant: str):
        if variant not in FIXED_ACTIONS:
            raise ValueError(f"unknown fixed variant: {variant}")
        self.action = FIXED_ACTIONS[variant]
        self.name = "fix-rt-iv" if variant == "rt_iv" else "fix-bulk-bg"

    def choose(self, contexts: Contexts, rewards: Optional[np.ndarray]) -> np.ndarray:
        return np.full(len(contexts.pub), self.action.index)


class HeadPolicy(Policy):
    """Trained classification head; argmax over one forward pass of the batch."""

    def __init__(self, model, name: str = "head", mask_peer: bool = False):
        self.model = model
        self.name = name
        self.mask_peer = mask_peer

    def choose(self, contexts: Contexts, rewards: Optional[np.ndarray]) -> np.ndarray:
        return head_choices(self.model, contexts.without_peer() if self.mask_peer else contexts)


BASELINES = {"oracle": OraclePolicy, "rule": RulePolicy,
             "fix-rt-iv": lambda: FixedPolicy("rt_iv"), "fix-bulk-bg": lambda: FixedPolicy("bulk_bg")}
BASELINE_NAMES = tuple(BASELINES)


def make_baseline(name: str) -> Policy:
    if name not in BASELINES:
        raise ValueError(f"unknown policy {name!r}; valid: {', '.join(BASELINE_NAMES + ('head',))}")
    return BASELINES[name]()
