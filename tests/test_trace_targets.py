"""The benchmark's per-layer trace wraps program functions by module and
attribute name; a rename would silently zero its metrics. Resolve each
target the way `Tracer.install` does, without installing anything, and
count the training calls and training-step hooks with the benchmark's own
wrapper."""

import importlib
import importlib.util
import json
import math
import os
from pathlib import Path

import watune.evaluate
from watune.cli import main
from watune.config import ExperimentConfig, save_config
from watune.train import TrainConfig, init_head, train

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced


def resolve(module_name, attr):
    """The object that holds the target's leaf attribute, and that leaf."""
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for name in path:
        owner = getattr(owner, name, None)
    return owner, leaf


def test_every_trace_target_resolves():
    absent = []
    for module_name, attr, _, _ in load_traced().TARGETS:
        owner, leaf = resolve(module_name, attr)
        if not callable(getattr(owner, leaf, None)):
            absent.append(f"{module_name}.{attr}")
    # Gone since the dataset writer moved into `datagen.dataset_blocks`, and
    # since `watune train` trains through `evaluate.train_head`.
    assert absent == ["watune.cli.sample_record", "watune.cli.train_head_raw"]


def test_training_step_hooks_run_once_per_step(monkeypatch, small_split):
    """An inlined forward, backward or optimizer step would still resolve,
    but its per-layer metric would read 0: each must run once per batch."""
    traced = load_traced()
    tracer = traced.Tracer()
    spans = ("train.forward", "train.backward", "train.adamw")
    for module_name, attr, name, counters in traced.TARGETS:
        if name in spans:
            owner, leaf = resolve(module_name, attr)
            monkeypatch.setattr(owner, leaf, tracer.wrap(name, getattr(owner, leaf), counters))
    data = small_split[0][:150]
    cfg = TrainConfig(loss="kl", epochs=3, layers=2, hidden=8)
    train(data, init_head(cfg.layers, cfg.hidden, seed=cfg.seed), cfg)
    steps = cfg.epochs * math.ceil(len(data) / cfg.effective_batch)
    assert {name: tracer.layers[name]["calls"] for name in spans} == dict.fromkeys(spans, steps)


def test_gen_measures_once_per_row_and_counts_written_bytes(monkeypatch, tmp_path):
    """The benchmark counts `measure` calls against generated rows and takes
    the bytes of each write from the file it leaves: `gen` makes one
    `watune.datagen.measure` call per row, and the traced writer's bytes
    are each dataset file's size."""
    traced = load_traced()
    tracer = traced.Tracer()
    for module_name, attr, name, counters in traced.TARGETS:
        if (module_name, attr) == ("watune.cli", "atomic_write_text"):  # one span per file
            name = lambda a, k, name=name: f"{name}:{os.path.basename(a[0])}"
        elif (module_name, attr) != ("watune.datagen", "measure"):
            continue
        owner, leaf = resolve(module_name, attr)
        monkeypatch.setattr(owner, leaf, tracer.wrap(name, getattr(owner, leaf), counters))
    cfg = ExperimentConfig(seed=2)
    cfg.dataset.logs_per_session = 12
    config, out = str(tmp_path / "config.json"), tmp_path / "out"
    save_config(config, cfg)
    assert main(["--config", config, "gen", "--out", str(out)]) == 0
    counts = json.loads((out / "manifest.json").read_text())["counts"]
    assert tracer.layers["measurement.measure"]["calls"] == counts["in_distribution"] + counts["ood"]
    for k in ("train", "test", "ood"):
        span = tracer.layers[f"config.atomic_write_text:{k}.jsonl"]
        assert (span["calls"], span["bytes"]) == (1, (out / f"{k}.jsonl").stat().st_size)


def test_every_head_trains_through_the_traced_train(monkeypatch, tmp_path):
    """The benchmark counts training calls at `watune.evaluate.train`:
    `watune train` reaches it once per head, `compare` once per head plus
    once for the KL reference of its DPO head."""
    traced = load_traced()
    tracer = traced.Tracer()
    (name, counters), = [(name, counters) for module_name, attr, name, counters in traced.TARGETS
                         if (module_name, attr) == ("watune.evaluate", "train")]
    monkeypatch.setattr(watune.evaluate, "train", tracer.wrap(name, watune.evaluate.train, counters))

    def calls():
        return sum(rec["calls"] for span, rec in tracer.layers.items()
                   if span.startswith("train.train."))

    cfg = ExperimentConfig(seed=1)
    cfg.dataset.logs_per_session = 20
    cfg.train.epochs = 1
    cfg.train.layers = 1
    config, out = str(tmp_path / "config.json"), str(tmp_path / "out")
    save_config(config, cfg)
    assert main(["--config", config, "gen", "--out", out]) == 0
    assert main(["--config", config, "train", "--data", out, "--loss", "kl",
                 "--out", str(tmp_path / "kl.ckpt.json")]) == 0
    assert calls() == 1
    assert main(["--config", config, "compare", "--out", out]) == 0
    assert calls() == 1 + 5
