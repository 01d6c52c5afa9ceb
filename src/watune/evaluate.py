"""Head training (`train_head`, the one path every head takes) and policy
evaluation: the three metrics, scenario breakdowns, the cooperative slice,
and qualitative replay transcripts."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .datagen import Dataset, mask_peer
from .domain import ALL_SCENARIOS, AppType, BatteryConfig, Scenario, TimeOfDay, action_from_index
from .policy import HeadPolicy, Policy
from .reward import RewardConfig, objective
from .train import HeadModel, TrainConfig, init_head, train


@dataclass
class EvalReport:
    policy: str
    n_samples: int
    objective_score: float          # per-sample mean of R at the chosen action
    latency_score: float            # per-sample mean of the latency score
    energy_score: float             # per-sample mean of the energy score
    raw_energy_pct_h: float         # per-sample mean energy drain of chosen actions
    scenario_mean_objective: float  # per-scenario means, then averaged
    scenario_mean_latency: float
    scenario_mean_energy: float
    per_scenario: dict = field(default_factory=dict)


def evaluate(policy: Policy, dataset: Dataset, reward_cfg: RewardConfig) -> EvalReport:
    """Score one policy on the actions it chooses: the objective from the
    dataset's stored rewards, and the latency and energy scores `objective`
    gives those actions alone under `reward_cfg`, the config the rewards
    were derived under. Both see the dataset's contexts (both devices),
    regardless of what the policy was allowed to see."""
    chosen = policy.decide(dataset)
    rows = np.arange(len(dataset))
    obj, raw = dataset.rewards[rows, chosen], dataset.eng[rows, chosen]
    picked = replace(dataset, lat=dataset.lat[rows, chosen, None], eng=raw[:, None])
    _, lat, eng = objective(picked, reward_cfg)
    lat, eng = lat.ravel(), eng.ravel()

    per_scenario: dict[str, dict] = {}
    for code in np.flatnonzero(np.bincount(dataset.scenario)):  # (time, battery config) order
        idx = dataset.scenario == code
        per_scenario[ALL_SCENARIOS[code].key()] = {
            "n": int(idx.sum()),
            "objective": float(obj[idx].mean()),
            "latency": float(lat[idx].mean()),
            "energy": float(eng[idx].mean()),
            "raw_energy_pct_h": float(raw[idx].mean()),
        }
    return EvalReport(
        policy=policy.name,
        n_samples=len(dataset),
        objective_score=float(obj.mean()),
        latency_score=float(lat.mean()),
        energy_score=float(eng.mean()),
        raw_energy_pct_h=float(raw.mean()),
        scenario_mean_objective=float(np.mean([v["objective"] for v in per_scenario.values()])),
        scenario_mean_latency=float(np.mean([v["latency"] for v in per_scenario.values()])),
        scenario_mean_energy=float(np.mean([v["energy"] for v in per_scenario.values()])),
        per_scenario=per_scenario,
    )


def cooperative_slice(dataset: Dataset) -> Dataset:
    """Publisher-high / subscriber-low scenarios only."""
    return dataset[np.isin(dataset.scenario, [s.code for s in ALL_SCENARIOS
                                              if s.battery_config is BatteryConfig.pubHighSubLow])]


def train_head(train_set: Dataset, cfg: TrainConfig, seed: int, soft_temp: float,
               masked: bool = False, ref_model: HeadModel | None = None, name: str = "head"):
    """Train a head per config; with masked=True the policy input hides the
    subscriber battery (labels still come from both devices). A DPO head
    starts from and is anchored to `ref_model`, which it needs. Returns the
    policy, named `name`, and the training report."""
    if cfg.loss == "dpo" and ref_model is None:
        raise ValueError("a DPO head needs a reference head")
    data = mask_peer(train_set) if masked else train_set
    start = ref_model if cfg.loss == "dpo" else init_head(cfg.layers, cfg.hidden, seed=seed)
    model, report = train(data, start, cfg, seed, soft_temp, ref_model=ref_model)
    return HeadPolicy(model, name=name, mask_peer=masked), report


def replay_snapshot(dataset: Dataset, policies: list[Policy],
                    scenario: Scenario | None, max_steps: int) -> str:
    """Human-readable transcript of context, each policy's decision, and the
    per-decision objective."""
    if scenario is not None:
        dataset = dataset[dataset.scenario == scenario.code]
    dataset = dataset[:max_steps]
    chosen = [p.decide(dataset) for p in policies]
    times, peer = dataset.time, dataset.peer
    lines = []
    for i in range(len(dataset)):
        sub = f"{dataset.sub[i]:.0f}%" if peer[i] else "--"
        lines.append(
            f"step {dataset.step[i]:>4}  {TimeOfDay(times[i]).name:<9} "
            f"pub {dataset.pub[i]:.0f}%  sub {sub}  app {AppType(dataset.hist[i, -1]).name}"
        )
        for p, actions in zip(policies, chosen):
            a = actions[i]
            lines.append(f"    {p.name:<16} -> {action_from_index(a)}  "
                         f"objective {dataset.rewards[i, a]:+.3f}")
    return "\n".join(lines) + ("\n" if lines else "")


def flat_table(reports: dict[str, dict[str, EvalReport]]) -> str:
    """One row per policy x slice x metric, both averaging conventions."""
    header = "policy\tslice\tmetric\tper_sample_mean\tper_scenario_mean"
    rows = [header]
    for policy_name in reports:
        for slice_name, rep in reports[policy_name].items():
            for metric in ("objective", "latency", "energy"):
                rows.append(f"{policy_name}\t{slice_name}\t{metric}\t{getattr(rep, metric + '_score')!r}"
                            f"\t{getattr(rep, 'scenario_mean_' + metric)!r}")
    return "\n".join(rows) + "\n"
