"""Command-line surface: gen / train / eval / compare / replay."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

# OpenBLAS reads its thread count once, as numpy loads. Unless the user chose
# one, it gets one thread: every product here is too small to gain from a
# thread pool, which can slow a small box, and outputs are the same bits.
# The environment is restored, so child processes get the caller's.
_ONE_THREAD = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}.isdisjoint(os.environ)
if _ONE_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as np
if _ONE_THREAD:
    del os.environ["OPENBLAS_NUM_THREADS"]

from .config import ExperimentConfig, atomic_write_text, load_config, save_config
from .datagen import (
    IN_DISTRIBUTION_PROFILE,
    OOD_PROFILE,
    Dataset,
    DatasetError,
    dataset_blocks,
    file_hash,
    generate_dataset,
    load_dataset,
    split,
)
from .domain import BatteryConfig, Scenario, TimeOfDay
from .policy import BASELINE_NAMES, HeadPolicy, make_baseline
from .reward import RewardMode
from .train import TrainingDiverged, load_checkpoint, save_checkpoint
from .evaluate import cooperative_slice, evaluate, flat_table, replay_snapshot, train_head

OOD_STREAM = 1


class CliError(RuntimeError):
    pass


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def cmd_gen(args) -> int:
    cfg = _load_cfg(args)
    _generate(cfg, args.out or cfg.out_dir, args.config)
    return 0


def _grid(profile, cfg: ExperimentConfig, stream: int, source: str | None) -> Dataset:
    """The dataset grid of `cfg`. A refused column is named by the config
    section that made it, and by `source`, the config file, if one was given:
    the rewards by `reward`, the measurements and their scores by `link`."""
    try:
        return generate_dataset(profile, cfg.link, cfg.dataset, cfg.reward, cfg.seed, stream=stream)
    except DatasetError as exc:
        section = "reward" if exc.column == "rewards" else "link"
        where = f"{source}: " if source else ""
        raise CliError(f"{where}{section}.* settings: generated {exc.message}") from None


def _generate(cfg: ExperimentConfig, out: str, source: str | None) -> Dataset:
    """Write the train/test/OOD files, config and manifest of `cfg` (read from
    the file `source`, if any) to `out`; returns the train split. Each split
    is written as soon as it exists, and only the train split is kept."""
    os.makedirs(out, exist_ok=True)
    full = _grid(IN_DISTRIBUTION_PROFILE, cfg, 0, source)
    rng = np.random.default_rng([cfg.seed, 9973])
    counts, hashes = {"in_distribution": len(full)}, {}
    train_set, test_set = split(full, cfg.dataset.split_fraction, rng)
    del full

    def write(name: str, data: Dataset) -> None:
        hashes[name] = atomic_write_text(os.path.join(out, f"{name}.jsonl"), dataset_blocks(data))
        counts[name] = len(data)

    write("train", train_set)
    write("test", test_set)
    del test_set
    write("ood", _grid(OOD_PROFILE, cfg, OOD_STREAM, source))
    save_config(os.path.join(out, "config.json"), cfg)

    manifest = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "counts": counts,
        "hashes": hashes,
    }
    atomic_write_text(os.path.join(out, "manifest.json"),
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {counts['in_distribution']} in-distribution samples "
          f"({counts['train']} train / {counts['test']} test), {counts['ood']} OOD -> {out}")
    return train_set


def _resolve_data(path: str, which: str = "test") -> str:
    if os.path.isdir(path):
        f = os.path.join(path, f"{which}.jsonl")
        if not os.path.exists(f):
            raise CliError(f"no {which}.jsonl under {path}; run `watune gen` first")
        return f
    return path


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    tcfg = replace(cfg.train, loss=args.loss)
    if args.ref is not None and tcfg.loss != "dpo":
        raise CliError("--ref is only read with --loss dpo")
    if tcfg.loss == "dpo" and not args.ref:
        raise CliError("--loss dpo requires --ref <sft-checkpoint>")
    data = _load_records(_resolve_data(args.data, "train"), cfg)
    ref_model = None
    if args.ref:  # the DPO head starts from its reference, so it sees what the reference saw
        flag = "with" if args.no_peer else "without"
        ref_model = _load_head(args.ref, cfg, spec={"no_peer": args.no_peer},
                               user=f"a DPO head trained {flag} --no-peer").model
    policy, report = train_head(data, tcfg, cfg.seed, cfg.reward.soft_temp,
                                masked=args.no_peer, ref_model=ref_model)
    _save_head(args.out, policy, report, cfg)
    print(f"trained {tcfg.loss} head ({policy.model.n_layers} layers) on {len(data)} samples -> {args.out}")
    return 0


def _save_head(path: str, policy: HeadPolicy, report: dict, cfg: ExperimentConfig) -> None:
    """Write a trained head and the metadata every watune checkpoint carries:
    the hash and reward mode of the config it was trained under. `layers`
    is the model's own: a DPO head has its reference's."""
    save_checkpoint(path, policy.model, {
        "loss": report["loss"], "layers": policy.model.n_layers, "seed": report["seed"],
        "config_hash": cfg.config_hash(), "no_peer": policy.mask_peer,
        "reward_mode": "naive" if cfg.reward.reward_mode is RewardMode.naive else "context",
        "report": report,
    })


def _parse_scenario(text: str) -> Scenario:
    try:
        time_name, bc_name = text.split("/")
        return Scenario(TimeOfDay[time_name], BatteryConfig[bc_name])
    except (ValueError, KeyError):
        raise CliError(f"bad scenario {text!r}; expected e.g. afternoon/pubHighSubLow") from None


def _load_head(path: str, cfg: ExperimentConfig, name: str = "head",
               spec: dict | None = None, user: str | None = None) -> HeadPolicy:
    """The head at `path`, refused unless it was trained under `cfg` and its
    metadata holds the values of `spec`, a dict keyed by metadata field,
    which `user` (by default its row `name`) needs; it masks the peer if it
    was trained masked."""
    model, meta = load_checkpoint(path)
    _check_config(f"checkpoint {path}", meta.get("config_hash"), cfg.config_hash())
    masked = meta.get("no_peer", False)
    for field, want in (spec or {}).items():
        got = masked if field == "no_peer" else meta.get(field)
        if got != want:
            raise CliError(f"checkpoint {path} has metadata.{field} {got!r}, "
                           f"{user or f'its row {name}'} needs {want!r}")
    return HeadPolicy(model, name=name, mask_peer=masked)


def _make_policy(name: str, checkpoint: str | None, cfg: ExperimentConfig):
    if name == "head":
        if not checkpoint:
            raise CliError("policy 'head' requires --checkpoint")
        return _load_head(checkpoint, cfg)
    return make_baseline(name)  # an unknown name is a ValueError, which `main` reports


def _load_records(path: str, cfg: ExperimentConfig, sha256: str | None = None) -> Dataset:
    """The dataset at `path`, refused if it holds no records; `sha256` goes to `load_dataset`."""
    data = load_dataset(path, cfg.reward, sha256=sha256)
    if not len(data):
        raise CliError(f"{path} holds no dataset records")
    return data


def _coop_records(path: str, data: Dataset) -> Dataset:
    """The cooperative slice of `data`, read from `path`, refused if empty."""
    data = cooperative_slice(data)
    if not len(data):
        raise CliError(f"{path} holds no cooperative (pubHighSubLow) records")
    return data


def cmd_eval(args) -> int:
    if args.checkpoint is not None and args.policy != "head":
        raise CliError("--checkpoint is only read with --policy head")
    cfg = _load_cfg(args)
    policy = _make_policy(args.policy, args.checkpoint, cfg)
    path = _resolve_data(args.data)
    data = _load_records(path, cfg)
    if args.scenario == "coop":
        data = _coop_records(path, data)
    rep = evaluate(policy, data, cfg.reward).__dict__
    out = {policy.name: {**rep, "dataset_hash": file_hash(path), "config_hash": cfg.config_hash()}}
    return _emit(args.out, json.dumps(out, indent=2, sort_keys=True) + "\n", "report")


def _emit(path: str | None, text: str, what: str) -> int:
    """Write `text` to `path` atomically, or to stdout without one."""
    if path:
        atomic_write_text(path, text)
        print(f"{what} -> {path}")
    else:
        sys.stdout.write(text)
    return 0


# The comparison table's head rows: each one's loss, and whether it hides the subscriber battery.
HEAD_ROWS = {"head-ce": ("ce", False), "head-kl": ("kl", False),
             "head-kl+dpo": ("dpo", False), "head-kl-no-peer": ("kl", True)}
COMPARE_ROWS = BASELINE_NAMES + tuple(HEAD_ROWS)
COMPARE_SLICES = ("aggregate", "coop", "ood")
COMPARE_METRICS = ("objective", "latency", "energy")


def _check_config(what: str, found: str | None, chash: str) -> None:
    if found != chash:
        raise CliError(f"{what} came from config {found}, current config is {chash}; "
                       "remove stale artifacts or use a fresh out dir")


def _head_variants(train_path: str, cfg: ExperimentConfig, out: str,
                   train_set: Dataset | None) -> dict:
    """Reload the `HEAD_ROWS` heads of the comparison table; train any
    missing on `train_set`, parsed from `train_path` when not given."""
    variants = {}
    for name, (loss, masked) in HEAD_ROWS.items():
        ckpt = os.path.join(out, name + ".ckpt.json")
        if os.path.exists(ckpt):
            variants[name] = _load_head(ckpt, cfg, name, {"loss": loss, "no_peer": masked})
            continue
        if train_set is None:
            train_set = _load_records(train_path, cfg)
        ref_model = None
        if loss == "dpo":  # its KL reference retrains head-kl, a run ROADMAP item 2 removes
            ref_model = train_head(train_set, replace(cfg.train, loss="kl"), cfg.seed,
                                   cfg.reward.soft_temp)[0].model
        variants[name], report = train_head(train_set, replace(cfg.train, loss=loss), cfg.seed,
                                            cfg.reward.soft_temp, masked, ref_model, name)
        _save_head(ckpt, variants[name], report, cfg)
    return variants


def _read_manifest(path: str) -> tuple[dict, dict]:
    """The manifest at `path` and its `hashes` object."""
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON or UTF-8, or nested too deeply
            raise CliError(f"{path}: not a JSON manifest: {exc}") from None
    if type(manifest) is not dict:
        raise CliError(f"{path} must hold a JSON object, not {manifest!r}")
    hashes = manifest.get("hashes")
    if type(hashes) is not dict:
        raise CliError(f"{path}: hashes must be an object, not {hashes!r}")
    return manifest, hashes


def cmd_compare(args) -> int:
    cfg = _load_cfg(args)
    out = args.out or cfg.out_dir
    chash = cfg.config_hash()
    manifest_path = os.path.join(out, "manifest.json")
    paths = {k: os.path.join(out, f"{k}.jsonl") for k in ("train", "test", "ood")}
    train_set = None  # a warm run parses the training set only to retrain a missing head
    hashes = {}  # a warm run's manifest hashes, checked below; they key the column caches
    if os.path.exists(manifest_path):
        manifest, hashes = _read_manifest(manifest_path)
        _check_config(f"artifacts in {out}", manifest.get("config_hash"), chash)
        for k, path in paths.items():
            if file_hash(path) != hashes.get(k):
                raise CliError(f"{path} does not match its hash in {manifest_path}; "
                               "remove stale artifacts or use a fresh out dir")
    else:
        train_set = _generate(cfg, out, args.config)

    policies = {name: make_baseline(name) for name in BASELINE_NAMES}
    policies.update(_head_variants(paths["train"], cfg, out, train_set))
    del train_set  # the heads are trained: free the train split before test and OOD are read

    test_set, ood_set = (_load_records(paths[k], cfg, hashes.get(k)) for k in ("test", "ood"))
    slices = {"aggregate": test_set, "coop": _coop_records(paths["test"], test_set), "ood": ood_set}
    lines = ["policy\t" + "\t".join(f"{m}/{s}" for m in COMPARE_METRICS for s in COMPARE_SLICES)]
    reports = {}
    for row in COMPARE_ROWS:
        reps = {s: evaluate(policies[row], data, cfg.reward) for s, data in slices.items()}
        reports[row] = reps
        cells = [f"{getattr(reps[s], metric + '_score'):.6f}"
                 for metric in COMPARE_METRICS for s in COMPARE_SLICES]
        lines.append(row + "\t" + "\t".join(cells))
    table = f"# config_hash: {chash}\n" + "\n".join(lines) + "\n"
    table_path = os.path.join(out, "compare.tsv")
    atomic_write_text(table_path, table)
    atomic_write_text(os.path.join(out, "compare_full.tsv"),
                      f"# config_hash: {chash}\n" + flat_table(reports))
    sys.stdout.write(table)
    print(f"table -> {table_path}")
    return 0


def cmd_replay(args) -> int:
    if args.steps < 0:
        raise CliError(f"--steps must be >= 0, not {args.steps}")
    names = [name.strip() for name in args.policies.split(",")]
    if args.checkpoint is not None and "head" not in names:
        raise CliError("--checkpoint is only read when --policies lists head")
    cfg = _load_cfg(args)
    data = _load_records(_resolve_data(args.data, "test"), cfg)
    policies = [_make_policy(name, args.checkpoint, cfg) for name in names]
    scenario = _parse_scenario(args.scenario) if args.scenario else None
    transcript = replay_snapshot(data, policies, scenario, args.steps)
    return _emit(args.out, transcript, "transcript")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="watune",
                                 description="Cooperative Wi-Fi Aware parameter-selection harness")
    ap.add_argument("--config", help="experiment config JSON, e.g. a `gen` config.json "
                                     "(default: built-ins)")
    ap.add_argument("--seed", type=int, help="override the config seed everywhere")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate train/test/OOD datasets and manifest")
    g.add_argument("--out", help="output directory (default: config out_dir)")
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train a classification head")
    t.add_argument("--data", required=True, help="train.jsonl or a gen output directory")
    t.add_argument("--loss", choices=("ce", "kl", "dpo"), default="kl")
    t.add_argument("--no-peer", action="store_true", help="train on peer-masked features")
    t.add_argument("--ref", help="reference SFT checkpoint (required for --loss dpo)")
    t.add_argument("--out", required=True, help="checkpoint path")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a policy")
    e.add_argument("--data", required=True, help="dataset file, or a gen output directory for its test.jsonl")
    e.add_argument("--policy", required=True, help="oracle | rule | fix-rt-iv | fix-bulk-bg | head")
    e.add_argument("--checkpoint", help="head checkpoint (for --policy head)")
    e.add_argument("--scenario", choices=("all", "coop"), default="all")
    e.add_argument("--out", help="report path (default: stdout)")
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("compare", help="end-to-end comparison table")
    c.add_argument("--out", help="artifact directory (default: config out_dir)")
    c.set_defaults(func=cmd_compare)

    r = sub.add_parser("replay", help="qualitative decision transcript")
    r.add_argument("--data", required=True)
    r.add_argument("--policies", default="oracle,rule",
                   help="comma-separated policy names")
    r.add_argument("--checkpoint", help="head checkpoint if 'head' is listed")
    r.add_argument("--scenario", help="filter, e.g. afternoon/pubHighSubLow")
    r.add_argument("--steps", type=int, default=10)
    r.add_argument("--out")
    r.set_defaults(func=cmd_replay)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, KeyError, OSError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
