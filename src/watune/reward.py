"""Context-aware reward: tolerance-normalized latency, battery-scaled energy,
the naive ablation variant, and soft-label construction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .domain import AppType, Contexts, DatasetError

# Per-application latency tolerance L_a in ms.
DEFAULT_TOLERANCE_MS: dict[AppType, float] = {
    AppType.textMessage: 200.0,
    AppType.voiceChat: 50.0,
    AppType.videoCall: 100.0,
    AppType.sensorSync: 1000.0,
    AppType.photoTransfer: 2000.0,
    AppType.videoUpload: 5000.0,
    AppType.firmwareUpdate: 10000.0,
    AppType.mapSync: 500.0,
}

# Context-independent normalizers for the naive-reward ablation.
NAIVE_TOLERANCE_MS = 1000.0
NAIVE_BATTERY = 100.0


class RewardMode(str, Enum):
    contextAware = "contextAware"
    naive = "naive"


@dataclass
class RewardConfig:
    w_l: float = 0.1
    w_p: float = 1.0
    reward_mode: RewardMode = RewardMode.contextAware
    soft_temp: float = 0.25

    def __post_init__(self):
        for name in ("w_l", "w_p"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails every comparison
                raise ValueError(f"reward.{name} must be finite and >= 0, not {getattr(self, name)!r}")
        if self.w_l + self.w_p <= 0:
            raise ValueError(f"reward.w_l + reward.w_p must be > 0, not {self.w_l + self.w_p!r}")
        if not 0 < self.soft_temp < np.inf:
            raise ValueError(f"reward.soft_temp must be finite and positive, not {self.soft_temp!r}")


def objective(contexts: Contexts, measured, cfg: RewardConfig):
    """Per-action reward R(p) = w_L * mean_A R_lat - w_P * mean_D E/b.

    `measured` is the (latency, energy) pair of (N, 8) arrays. The result is
    the (objective, latency score, energy score) triple of (N, 8) arrays:
    the latency score lies in [0, 100] (how well the latency fits each
    active app's tolerance L_a, averaged over the app history), the energy
    score is the mean over visible devices of battery headroom per unit
    drain, b_d / E(p).
    """
    lat, eng = measured
    flat = (contexts.pub <= 0) | (contexts.peer & (contexts.sub <= 0))
    if flat.any():
        raise DatasetError(int(np.argmax(flat)),
                           "battery must be strictly positive for reward computation")

    if cfg.reward_mode is RewardMode.naive:
        lat_scores = np.maximum(100.0 - 100.0 * lat / NAIVE_TOLERANCE_MS, 0.0)
        energy_penalty = eng / NAIVE_BATTERY
        eng_scores = NAIVE_BATTERY / eng
    else:
        # Mean over the app-history multiset A; repeats weight the mean.
        tol_ms = np.array([DEFAULT_TOLERANCE_MS[app] for app in AppType])[contexts.hist]
        window = contexts.hist.shape[1]
        lat_scores = np.zeros_like(lat)
        for w in range(window):
            lat_scores += np.maximum(100.0 - 100.0 * lat / tol_ms[:, w, None], 0.0)
        lat_scores /= window
        # Mean over the devices whose battery is visible: the publisher, and
        # the subscriber unless masked.
        peer = contexts.peer[:, None]
        pub = contexts.pub[:, None]
        sub = np.where(peer, contexts.sub[:, None], 1.0)
        devices = 1 + peer
        energy_penalty = (eng / pub + np.where(peer, eng / sub, 0.0)) / devices
        eng_scores = (pub / eng + np.where(peer, sub / eng, 0.0)) / devices

    return cfg.w_l * lat_scores - cfg.w_p * energy_penalty, lat_scores, eng_scores


def soft_labels(objective_values: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature softmax over per-action objectives (max-subtracted), along
    the last axis of (8,) or (N, 8) values."""
    r = np.asarray(objective_values, dtype=float)
    z = (r - r.max(axis=-1, keepdims=True)) / temperature
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)
