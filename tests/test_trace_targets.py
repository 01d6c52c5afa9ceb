"""The benchmark's per-layer trace wraps program functions by module and
attribute name; a rename would silently zero its metrics. Resolve each
target the way `Tracer.install` does, without installing anything."""

import importlib
import importlib.util
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    absent = []
    for module_name, attr, _, _ in traced.TARGETS:
        owner = importlib.import_module(module_name)
        for name in attr.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            absent.append(f"{module_name}.{attr}")
    # Gone since the dataset writer moved into `datagen.dataset_text`.
    assert absent == ["watune.cli.sample_record"]
