"""Smoke test of the benchmark harness: every workload on a tiny config."""

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def run_smoke(workload, trace, seed=3):
    out = bench("--workload", workload, "--seed", seed, "--seconds", 1, "--trace", trace,
                "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    stamp = json.loads(lines[-2])["stamp"]
    assert stamp["failed_ratio"] == 0 and stamp["config_hash"][workload]
    return {k: v["value"] for k, v in result["metrics"].items()}


smoke = functools.cache(run_smoke)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_end_to_end(workload):
    metrics = smoke(workload, trace=0)
    assert all(metrics[name] > 0 for name in metrics)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_traced(workload):
    layers = smoke(workload, trace=1)
    assert layers["cli.import_s"] > 0 and layers["datagen.load_dataset.samples"] > 0
    if workload == "warm-compare":
        assert layers["datagen.generate_dataset.samples"] == 0
        assert layers["train.train.calls"] == 0 and layers["train.steps"] == 0
        assert layers["policy.oracle.decide.calls"] > 0
    elif workload == "cold-compare":
        assert layers["train.train.calls"] == 5 and layers["train.useful_ratio"] == 0.8
        assert layers["measurement.measure.calls"] == layers["datagen.generate_dataset.samples"]
    else:
        assert layers["train.train.calls"] == 4 and layers["train.useful_ratio"] == 1.0
        assert layers["evaluate.evaluate.calls"] == 0


def test_traced_counts_repeat():
    first, second = smoke("cold-compare", trace=1), run_smoke("cold-compare", trace=1)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes", "ratio")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = bench("--workload", WORKLOADS[0], "--seed", 1, "--seconds", 1, "--trace", 0,
                cwd=tmp_path)
    assert out.returncode != 0 and out.stdout == ""


def test_tracer_self_time_and_absent_targets(monkeypatch):
    import types

    import traced

    layer = types.ModuleType("fake_layer")
    layer.inner = lambda: None
    layer.outer = lambda: layer.inner()
    monkeypatch.setitem(sys.modules, "fake_layer", layer)
    tracer = traced.Tracer()
    absent = tracer.install((("fake_layer", "outer", "outer", None),
                             ("fake_layer", "inner", "inner", lambda a, k, r: {"rows": 2}),
                             ("fake_layer", "gone", "gone", None),
                             ("no_such_module", "f", "f", None)))
    assert absent == ["fake_layer.gone", "no_such_module.f"]
    layer.outer()
    outer, inner = tracer.layers["outer"], tracer.layers["inner"]
    assert outer["calls"] == inner["calls"] == 1 and inner["rows"] == 2
    assert outer["self_s"] == pytest.approx(outer["s"] - inner["s"])
    assert tracer.top_s == outer["s"]
