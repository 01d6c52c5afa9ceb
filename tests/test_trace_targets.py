"""The benchmark's per-layer trace wraps program functions by module and
attribute name; a rename would silently zero its metrics. Resolve each
target the way `Tracer.install` does, without installing anything, and
count the training-step hooks with the benchmark's own wrapper."""

import importlib
import importlib.util
import math
from pathlib import Path

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
    # Gone since the dataset writer moved into `datagen.dataset_text`.
    assert absent == ["watune.cli.sample_record"]


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
