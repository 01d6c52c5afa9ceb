"""Decision policies: oracle, rule-based heuristic, fixed tuples, and the
trained-head wrapper."""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from .domain import (
    NUM_ACTIONS,
    AccessCategory,
    Action,
    AppType,
    Context,
    Contexts,
    PerformanceMode,
    action_from_index,
)
from .reward import RewardVector
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


def oracle_decide(rewards: RewardVector) -> Action:
    """Reward-maximizing action; ties break to the lowest index."""
    return action_from_index(int(OraclePolicy().choose(None, rewards.objective[None])[0]))


def rule_choices(hist: np.ndarray, table: Mapping[AppType, Action] | None = None) -> np.ndarray:
    """Modal preferred tuple over each (N, W) app-history row; lowest index wins ties."""
    table = PREFERRED_TUPLE if table is None else table
    preferred = np.array([table[app].index for app in AppType])[hist]
    rows = np.arange(len(hist))
    counts = np.zeros((len(hist), NUM_ACTIONS), dtype=int)
    for w in range(hist.shape[1]):
        counts[rows, preferred[:, w]] += 1
    return np.argmax(counts, axis=1)


def rule_decide(history: Sequence[AppType], table: Mapping[AppType, Action] | None = None) -> Action:
    """Modal preferred tuple over the app-history window; lowest index wins ties."""
    if len(history) == 0:
        raise ValueError("history must be non-empty")
    return action_from_index(int(rule_choices(np.array([[int(a) for a in history]]), table)[0]))


def fixed_decide(variant: str) -> Action:
    if variant == "rt_iv":
        return Action(PerformanceMode.realtime, AccessCategory.interactiveVoice)
    if variant == "bulk_bg":
        return Action(PerformanceMode.bulk, AccessCategory.background)
    raise ValueError(f"unknown fixed variant: {variant}")


class Policy:
    """Base interface: choose(contexts, rewards) -> one action index per row.

    The oracle additionally receives the ground-truth (N, 8) objective
    values; every other policy must ignore them.
    """

    name = "base"

    def choose(self, contexts: Contexts, rewards: Optional[np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def decide(self, context, rewards=None):
        """The Action for one Context (given its RewardVector), or the action
        index of every row of a Dataset."""
        if isinstance(context, Context):
            objective = None if rewards is None else np.atleast_2d(rewards.objective)
            return action_from_index(int(self.choose(Contexts.of(context), objective)[0]))
        return self.choose(context.contexts, context.rewards)


class OraclePolicy(Policy):
    name = "oracle"

    def choose(self, contexts: Contexts, rewards: Optional[np.ndarray]) -> np.ndarray:
        if rewards is None:
            raise ValueError("oracle requires the sample's reward vector")
        return np.argmax(rewards, axis=1)  # ties break to the lowest index


class RulePolicy(Policy):
    name = "rule"

    def __init__(self, table: Mapping[AppType, Action] | None = None):
        self.table = PREFERRED_TUPLE if table is None else table

    def choose(self, contexts: Contexts, rewards: Optional[np.ndarray]) -> np.ndarray:
        return rule_choices(contexts.hist, self.table)


class FixedPolicy(Policy):
    def __init__(self, variant: str):
        self.variant = variant
        self.action = fixed_decide(variant)
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
