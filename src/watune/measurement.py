"""Ground-truth D2D link model: per-action latency and energy.

The calibration table is a config default, not measured truth; every
downstream check that depends on it is directional, never exact-value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import (
    NUM_ACTIONS,
    AccessCategory,
    Action,
    PerformanceMode,
    TimeOfDay,
)

ENERGY_NOISE_FLOOR = 0.1

# Action index order: (realtime|bulk) x (bestEffort, background, interactiveVideo, interactiveVoice)
DEFAULT_BASE_LATENCY_MS = (3.5, 5.5, 3.0, 2.5, 7.0, 11.0, 6.0, 5.0)
DEFAULT_BASE_ENERGY_PCT_H = (3.8, 3.1, 4.1, 4.3, 2.6, 1.8, 2.9, 3.1)
DEFAULT_TIME_MULTIPLIER = {
    TimeOfDay.morning: 1.0,
    TimeOfDay.afternoon: 1.3,
    TimeOfDay.evening: 1.9,
    TimeOfDay.night: 3.1,
}


@dataclass
class LinkModelConfig:
    base_latency_ms: tuple[float, ...] = DEFAULT_BASE_LATENCY_MS
    base_energy_pct_h: tuple[float, ...] = DEFAULT_BASE_ENERGY_PCT_H
    time_latency_multiplier: dict = field(default_factory=lambda: dict(DEFAULT_TIME_MULTIPLIER))
    latency_noise_sigma: float = 0.6
    energy_noise_sigma: float = 0.15

    def validate(self) -> None:
        lat = np.asarray(self.base_latency_ms, dtype=float)
        eng = np.asarray(self.base_energy_pct_h, dtype=float)
        if lat.shape != (NUM_ACTIONS,) or eng.shape != (NUM_ACTIONS,):
            raise ValueError("base tables must have 8 entries")
        if np.any(lat <= 0) or np.any(eng <= 0):
            raise ValueError("base latencies and energies must be positive")
        if self.latency_noise_sigma < 0 or self.energy_noise_sigma < 0:
            raise ValueError("noise sigmas must be non-negative")
        for t in TimeOfDay:
            if self.time_latency_multiplier.get(t, 0) <= 0:
                raise ValueError(f"missing/invalid time multiplier for {t.name}")
        # Rows: performance mode; columns: access category (index order).
        lat_mc, eng_mc = lat.reshape(2, 4), eng.reshape(2, 4)
        for c in AccessCategory:
            if not lat_mc[PerformanceMode.realtime, c] < lat_mc[PerformanceMode.bulk, c]:
                raise ValueError(f"latency ordering violated for category {c.name}")
            if not eng_mc[PerformanceMode.bulk, c] <= eng_mc[PerformanceMode.realtime, c]:
                raise ValueError(f"energy ordering violated for category {c.name}")
        for m in PerformanceMode:
            if not np.all(eng_mc[m, AccessCategory.background] <= eng_mc[m]):
                raise ValueError(f"energy ordering violated within mode {m.name}")
        bulk_bg = Action(PerformanceMode.bulk, AccessCategory.background).index
        rt_iv = Action(PerformanceMode.realtime, AccessCategory.interactiveVoice).index
        if np.sum(eng <= eng[bulk_bg]) != 1:
            raise ValueError("(bulk, background) must have the strictly minimal base energy")
        if np.sum(lat <= lat[rt_iv]) != 1:
            raise ValueError("(realtime, interactiveVoice) must have the strictly minimal base latency")


def measure(config: LinkModelConfig, context, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw one 8-action measurement sweep at the time of day of `context`
    (anything with a `.time`, such as the Scenario of a session): the
    (latency_ms, energy_pct_h) pair of (8,) arrays that `objective` takes.
    The values are positive for a validated config, and the Dataset
    constructor checks them again."""
    base_lat = np.asarray(config.base_latency_ms, dtype=float)
    base_eng = np.asarray(config.base_energy_pct_h, dtype=float)
    mult = config.time_latency_multiplier[context.time]
    if config.latency_noise_sigma > 0:
        lat_noise = np.exp(rng.normal(0.0, config.latency_noise_sigma, NUM_ACTIONS))
    else:
        lat_noise = np.ones(NUM_ACTIONS)
    if config.energy_noise_sigma > 0:
        eng_noise = np.maximum(ENERGY_NOISE_FLOOR, 1.0 + rng.normal(0.0, config.energy_noise_sigma, NUM_ACTIONS))
    else:
        eng_noise = np.ones(NUM_ACTIONS)
    return base_lat * mult * lat_noise, base_eng * eng_noise

