"""Ground-truth D2D link model: per-action latency and energy.

The calibration table is a config default, not measured truth; every
downstream check that depends on it is directional, never exact-value.
"""

from __future__ import annotations

import math
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

    def __post_init__(self):
        lat = np.asarray(self.base_latency_ms, dtype=float)
        eng = np.asarray(self.base_energy_pct_h, dtype=float)
        for name, table in (("base_latency_ms", lat), ("base_energy_pct_h", eng)):
            if table.shape != (NUM_ACTIONS,) or not np.all((table > 0) & np.isfinite(table)):
                raise ValueError(f"link.{name} must be {NUM_ACTIONS} finite positive numbers, "
                                 f"not {getattr(self, name)!r}")
        for name in ("latency_noise_sigma", "energy_noise_sigma"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails every comparison
                raise ValueError(f"link.{name} must be finite and >= 0, not {getattr(self, name)!r}")
        for t in TimeOfDay:
            mult = self.time_latency_multiplier.get(t)
            if mult is None or not 0 < mult < math.inf:
                raise ValueError(f"link.time_latency_multiplier.{t.name} must be finite and > 0, "
                                 f"not {mult!r}")
        # Rows: performance mode; columns: access category (index order).
        rt, bulk, bg = PerformanceMode.realtime, PerformanceMode.bulk, AccessCategory.background
        lat_mc, eng_mc = lat.reshape(2, 4), eng.reshape(2, 4)
        rt_iv, bulk_bg = Action(rt, AccessCategory.interactiveVoice).index, Action(bulk, bg).index
        for name, ok, rule in (
            ("base_latency_ms", lat_mc[rt] < lat_mc[bulk], "lower for realtime than bulk per category"),
            ("base_energy_pct_h", eng_mc[bulk] <= eng_mc[rt], "no higher for bulk than realtime per category"),
            ("base_energy_pct_h", eng_mc[:, [bg]] <= eng_mc, "lowest for background per mode"),
            ("base_energy_pct_h", np.sum(eng <= eng[bulk_bg]) == 1, "strictly lowest for bulk background"),
            ("base_latency_ms", np.sum(lat <= lat[rt_iv]) == 1, "strictly lowest for realtime interactiveVoice"),
        ):
            if not np.all(ok):
                raise ValueError(f"link.{name} must be {rule}, not {getattr(self, name)!r}")
        # What `measure` scales by its noise: built with the config, so that
        # `dataclasses.replace`, which builds a new one, never keeps a stale table.
        self._base_energy = eng
        self._latency_by_time = {t: lat * self.time_latency_multiplier[t] for t in TimeOfDay}


def measure(config: LinkModelConfig, context, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw one 8-action measurement sweep at the time of day of `context`
    (anything with a `.time`, such as the Scenario of a session): the
    (latency_ms, energy_pct_h) pair of (8,) arrays that `objective` takes.
    The values are positive for a valid config; `generate_dataset` checks
    them, as a large noise sigma can overflow them."""
    lat_noise = eng_noise = 1.0
    if config.latency_noise_sigma > 0:
        lat_noise = np.exp(rng.normal(0.0, config.latency_noise_sigma, NUM_ACTIONS))
    if config.energy_noise_sigma > 0:
        eng_noise = np.maximum(ENERGY_NOISE_FLOOR, 1.0 + rng.normal(0.0, config.energy_noise_sigma, NUM_ACTIONS))
    return config._latency_by_time[context.time] * lat_noise, config._base_energy * eng_noise
