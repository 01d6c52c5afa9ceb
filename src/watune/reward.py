"""Context-aware reward: tolerance-normalized latency, battery-scaled energy,
the naive ablation variant, and soft-label construction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .domain import AppType

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

# L_a by app code.
_TOLERANCE_MS = np.array([DEFAULT_TOLERANCE_MS[app] for app in AppType])

# Entries of `objective`'s work array, whatever the number of rows: 8 KiB.
# Each ufunc that broadcasts a (rows, 1) column also allocates a buffer of
# about the block's size, so larger blocks raise the peak of a load.
_WORK_ENTRIES = 1024


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


def objective(data, measured, cfg: RewardConfig):
    """Per-action reward R(p) = w_L * mean_A R_lat - w_P * mean_D E/b.

    `data` is a `datagen.Dataset`, of which only the context columns `pub`,
    `sub`, `peer` and `hist` are read. `measured` is the (latency, energy)
    pair of (N, 8) arrays, or of (N, 1) arrays for one action a row, as
    `evaluate` scores them. The result is the (objective, latency score,
    energy score) triple of arrays that shape: the latency score lies in
    [0, 100] (how well the latency fits each active app's tolerance L_a,
    averaged over the app history), the energy score is the mean over
    visible devices of battery headroom per unit drain, b_d / E(p). It only
    computes: `datagen._checked` refuses a zero visible battery's infinities.
    """
    lat, eng = measured
    # Each term is built in an output or in `work`, by the operations and in
    # the order of the whole-column formula, so the bits are its bits; the
    # rows are taken a block at a time, so `work` holds one block.
    out = tuple(np.empty(lat.shape) for _ in range(3))
    block = max(1, _WORK_ENTRIES // math.prod(lat.shape[1:]))
    work = np.empty((min(len(lat), block), *lat.shape[1:]))
    for start in range(0, len(lat), block):
        rows = slice(start, start + block)
        _terms(data.hist[rows], data.pub[rows, None], data.sub[rows, None],
               data.peer[rows, None], lat[rows], eng[rows], cfg,
               work[:len(lat) - start], *(a[rows] for a in out))
    return out


def _terms(hist, pub, sub, peer, lat, eng, cfg: RewardConfig, work,
           rewards, lat_scores, eng_scores) -> None:
    """Write one block's objective, latency and energy scores into
    `rewards`, `lat_scores` and `eng_scores`; `work` is scratch of their
    shape, and `pub`, `sub` and `peer` are (rows, 1) columns. The energy
    penalty is built in `rewards`, and the last step makes it the objective."""
    if cfg.reward_mode is RewardMode.naive:
        np.multiply(lat, 100.0, out=lat_scores)
        lat_scores /= NAIVE_TOLERANCE_MS
        np.maximum(np.subtract(100.0, lat_scores, out=lat_scores), 0.0, out=lat_scores)
        energy_penalty = np.divide(eng, NAIVE_BATTERY, out=rewards)
        np.divide(NAIVE_BATTERY, eng, out=eng_scores)
    else:
        # Mean over the app-history multiset A; repeats weight the mean.
        window = hist.shape[1]
        lat_scores.fill(0.0)
        for w in range(window):
            tol_ms = _TOLERANCE_MS[hist[:, w]][:, None]
            np.divide(np.multiply(lat, 100.0, out=work), tol_ms, out=work)
            lat_scores += np.maximum(np.subtract(100.0, work, out=work), 0.0, out=work)
        lat_scores /= window
        # Mean over the devices whose battery is visible: the publisher, and
        # the subscriber unless masked. `work` is zero in masked rows, as
        # the `where=` divisions leave them, which is `np.where(peer, ., 0.0)`.
        devices = 1 + peer
        work.fill(0.0)
        energy_penalty = np.divide(eng, pub, out=rewards)
        energy_penalty += np.divide(eng, sub, out=work, where=peer)
        energy_penalty /= devices
        np.divide(pub, eng, out=eng_scores)
        eng_scores += np.divide(sub, eng, out=work, where=peer)
        eng_scores /= devices

    np.multiply(cfg.w_l, lat_scores, out=work)
    np.multiply(cfg.w_p, energy_penalty, out=energy_penalty)
    np.subtract(work, energy_penalty, out=energy_penalty)


def soft_labels(objective_values: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature softmax over (N, 8) per-action objectives (max-subtracted),
    along the last axis."""
    z = (objective_values - objective_values.max(axis=-1, keepdims=True)) / temperature
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)
