"""Run one watune CLI command with per-layer spans recorded around it.

    python3 perfbench/traced.py OUT.json -- [watune arguments...]

Each layer is traced by wrapping a public function at the module attribute
its caller looks up (``watune.cli.load_dataset``, ``watune.datagen.measure``,
``watune.policy.HeadPolicy.decide``...), so nothing in the program changes.
A span records its wall time and, through a stack of open spans, the time its
traced children took; self time is the difference.  Spans are aggregated per
name in memory and written to OUT.json when the command returns.

A target that no longer exists is listed under ``absent`` and the command
still runs, so the traced run survives refactors of the wrapped APIs.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _path_bytes(args, kwargs):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _loaded(args, kwargs, result):
    return {"samples": len(result), **_path_bytes(args, kwargs)}


def _train_name(args, kwargs):
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    return "train.train." + getattr(cfg, "loss", "other")


# (module, attribute, span name or name(args, kwargs), counters(args, kwargs, result))
TARGETS = (
    ("watune.cli", "generate_dataset", "datagen.generate_dataset",
     lambda a, k, r: {"samples": len(r)}),
    ("watune.cli", "split", "datagen.split", None),
    ("watune.datagen", "measure", "measurement.measure", None),
    ("watune.datagen", "objective", "reward.objective", None),
    ("watune.train", "soft_labels", "reward.soft_labels", None),
    ("watune.cli", "sample_record", "datagen.sample_record", None),
    ("watune.cli", "atomic_write_text", "config.atomic_write_text",
     lambda a, k, r: _path_bytes(a, k)),
    ("watune.config", "atomic_write_text", "config.atomic_write_text",
     lambda a, k, r: _path_bytes(a, k)),
    ("watune.cli", "load_dataset", "datagen.load_dataset", _loaded),
    ("watune.cli", "train_head_raw", _train_name, None),
    ("watune.evaluate", "train", _train_name, None),
    ("watune.train", "encode_batch", "train.encode_batch", lambda a, k, r: {"rows": len(r)}),
    ("watune.train", "_forward_cached", "train.forward", None),
    ("watune.train", "backward", "train.backward", None),
    ("watune.train", "AdamW.step", "train.adamw", None),
    ("watune.cli", "save_checkpoint", "train.save_checkpoint",
     lambda a, k, r: _path_bytes(a, k)),
    ("watune.cli", "load_checkpoint", "train.load_checkpoint", None),
    ("watune.policy", "OraclePolicy.decide", "policy.oracle.decide", None),
    ("watune.policy", "RulePolicy.decide", "policy.rule.decide", None),
    ("watune.policy", "FixedPolicy.decide", "policy.fixed.decide", None),
    ("watune.policy", "HeadPolicy.decide", "policy.head.decide", None),
    ("watune.cli", "evaluate", "evaluate.evaluate", None),
    ("watune.cli", "cooperative_slice", "evaluate.cooperative_slice", None),
)


class Tracer:
    """Per-name span totals: seconds, self seconds, calls and counters."""

    def __init__(self):
        self.layers: dict[str, dict] = {}
        self.top_s = 0.0  # time inside spans that have no traced parent
        self._open: list[float] = []  # child seconds of each open span

    def wrap(self, name, fn, counters=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            self._open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                child = self._open.pop()
                if self._open:
                    self._open[-1] += seconds
                else:
                    self.top_s += seconds
                rec = self.layers.setdefault(span, {"s": 0.0, "self_s": 0.0, "calls": 0})
                rec["s"] += seconds
                rec["self_s"] += seconds - child
                rec["calls"] += 1
            if counters is not None:
                try:
                    counts = counters(args, kwargs, result)
                except Exception as exc:  # a counter must never break the command
                    rec["counter_error"] = repr(exc)
                else:
                    for key, value in counts.items():
                        rec[key] = rec.get(key, 0) + value
            return result

        return traced

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target that exists; return the ones that do not."""
        absent = []
        for module_name, attr, name, counters in targets:
            owner_name, _, leaf = attr.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                absent.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(name, fn, counters))
        return absent


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py OUT.json -- [watune arguments...]", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    absent = tracer.install()
    from watune.cli import main as cli_main

    code = 1
    start = perf_counter()
    try:
        code = cli_main(cli_args)
    finally:
        record = {
            "argv": cli_args,
            "exit_code": code,
            "main_s": perf_counter() - start,
            "top_s": tracer.top_s,
            "absent": absent,
            "layers": tracer.layers,
        }
        with open(out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
