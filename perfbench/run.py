#!/usr/bin/env python3
"""The watune benchmark: closed-loop CLI workloads with per-process accounting.

    python3 perfbench/run.py --workload cold-compare --seed 1 --seconds 20 --trace 0

One client runs ``watune`` commands one after another; only one watune
process is alive at a time.  Each command's wall time comes from the parent's
clock, its CPU time and peak RSS from its own ``os.wait4`` result.  Outputs
are checked after every command.  The last stdout line is the JSON result;
the line before it stamps the environment.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = BENCH / ".work"

WORKLOADS = ("cold-compare", "warm-compare", "train-heads")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
COMMAND_TIMEOUT_S = 150

# Stated dataset sizes: (logs_per_session, epochs).  16 scenarios, so
# in-distribution samples = 16 * logs_per_session, of which 80% train; the
# OOD set is as large again.
SIZES = {
    "bench": {"compare": (200, 5), "train": (50, 350)},
    "smoke": {"compare": (20, 1), "train": (20, 2)},
}

# The built-in defaults of watune, written out so that the benchmark's input
# does not move when a program default does.
BASE_CONFIG = {
    "seed": 1,
    "out_dir": "artifacts",
    "dataset": {
        "logs_per_session": 2000, "sample_interval_s": 5.0, "window": 10,
        "split_fraction": 0.8,
        "battery_class_ranges": {"high": [70.0, 100.0], "medium": [30.0, 70.0],
                                 "low": [5.0, 30.0]},
    },
    "link": {
        "base_latency_ms": [3.5, 5.5, 3.0, 2.5, 7.0, 11.0, 6.0, 5.0],
        "base_energy_pct_h": [3.8, 3.1, 4.1, 4.3, 2.6, 1.8, 2.9, 3.1],
        "time_latency_multiplier": {"morning": 1.0, "afternoon": 1.3, "evening": 1.9,
                                    "night": 3.1},
        "latency_noise_sigma": 0.6, "energy_noise_sigma": 0.15,
    },
    "reward": {"w_l": 0.1, "w_p": 1.0, "reward_mode": "contextAware", "soft_temp": 0.25},
    "train": {"loss": "kl", "epochs": 5, "effective_batch": 64, "learning_rate": 0.001,
              "weight_decay": 0.01, "dpo_beta": 0.1, "layers": 3, "hidden": 64},
}

# `watune --seed 1 compare` on the built-in config must reproduce these.
GOLDEN_SEED = 1
GOLDEN_SHA256 = {
    "compare.tsv": "adbad82a13f89c47942bb8ba56c467b7f6926178964f1951b1936d9745b7411e",
    "compare_full.tsv": "b86a080f67c8a2b1065fa478d1577404be485335046f24359be9036c24479ec5",
}
COMPARE_ROWS = 8
COMPARE_CELLS = 9

# The `watune` console script, without needing the package installed.
WATUNE_MAIN = "import sys; from watune.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import watune.cli; "
                "print(time.perf_counter() - t)")

TRAIN_RUNS = (  # (checkpoint name, loss, extra flags); dpo gets --ref <kl checkpoint>
    ("ce", "ce", ()),
    ("kl", "kl", ()),
    ("dpo", "dpo", ()),
    ("kl-no-peer", "kl", ("--no-peer",)),
)


class SetupError(RuntimeError):
    pass


@dataclass
class Proc:
    """One finished child process, accounted from its own wait4 result."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    log: Path


@dataclass
class Iteration:
    procs: list
    artifact_bytes: int

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.procs)


def spawn(argv: list[str], log: Path, env: dict) -> Proc:
    """Run one process to completion; kill it if it outlives the timeout."""
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode, log)


def tail(path: Path, lines: int = 5) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def dir_state(path: Path) -> dict:
    """File name -> (inode, mtime, size); an atomic rewrite changes the inode."""
    state = {}
    for f in path.iterdir():
        if f.is_file():
            st = f.stat()
            state[f.name] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return state


def changed_bytes(before: dict, path: Path) -> int:
    """Bytes of the files in `path` that are new or rewritten since `before`."""
    return sum(state[2] for name, state in dir_state(path).items() if before.get(name) != state)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_tables(out: Path) -> str | None:
    """compare.tsv: 8 rows of 9 finite cells, oracle on top of every objective
    column; compare_full.tsv: finite values.  Returns a problem or None."""
    try:
        lines = (out / "compare.tsv").read_text().splitlines()
        full = (out / "compare_full.tsv").read_text().splitlines()
        header = lines[1].split("\t")
        rows = {cells[0]: [float(c) for c in cells[1:]]
                for cells in (line.split("\t") for line in lines[2:])}
        full_values = [float(v) for line in full[2:] for v in line.split("\t")[3:]]
    except (OSError, IndexError, ValueError) as exc:
        return f"unreadable comparison table in {out}: {exc}"
    if not lines[0].startswith("# config_hash:") or len(header) != COMPARE_CELLS + 1:
        return f"compare.tsv in {out} has an unexpected header"
    if len(rows) != COMPARE_ROWS or any(len(v) != COMPARE_CELLS for v in rows.values()):
        return f"compare.tsv in {out} is not {COMPARE_ROWS} x {COMPARE_CELLS}"
    if not all(math.isfinite(v) for v in [*sum(rows.values(), []), *full_values]):
        return f"non-finite cell in the tables in {out}"
    oracle = rows.get("oracle")
    if oracle is None:
        return f"compare.tsv in {out} has no oracle row"
    for j, column in enumerate(header[1:]):
        if column.startswith("objective/"):
            for name, vals in rows.items():
                if vals[j] > oracle[j]:
                    return f"{name} beats oracle on {column} in {out}"
    return None


class Workload:
    """Shared plumbing: work directory, config, commands and failure counts."""

    kind = "compare"

    def __init__(self, seed: int, size: str, work: Path):
        self.seed, self.size, self.work = seed, size, work
        self.attempted = 0
        self.failed = 0
        self.config_hash = None
        self.config = work / f"{self.kind}.json"
        # Bytecode is cached in the work directory whatever the caller's
        # environment says, so timed commands run compiled modules and nothing
        # is written outside the checkout.
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("WATUNE_CONFIG", "PYTHONDONTWRITEBYTECODE")}
        self.env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                               os.environ.get("PYTHONPATH")]))
        self.trace_dir = None  # set while the traced iteration runs
        self._logs = 0

    def _log(self) -> Path:
        self._logs += 1
        return self.work / f"cmd-{self._logs:04d}.log"

    def watune(self, *args, config=True) -> Proc:
        """One watune command, traced when a trace directory is set."""
        log = self._log()
        if self.trace_dir is None:
            argv = [sys.executable, "-c", WATUNE_MAIN]
        else:
            trace = self.trace_dir / log.with_suffix(".json").name
            argv = [sys.executable, str(BENCH / "traced.py"), str(trace), "--"]
        argv += ["--seed", str(self.seed)] + (["--config", str(self.config)] if config else [])
        return spawn(argv + [str(a) for a in args], log, self.env)

    def command(self, *args, check=lambda: None, config=True) -> Proc:
        """A counted command: it fails on a non-zero exit or a failed check."""
        self.attempted += 1
        proc = self.watune(*args, config=config)
        problem = (f"exit code {proc.exit_code}: {tail(proc.log)}" if proc.exit_code
                   else check())
        if problem:
            self.fail(f"watune {' '.join(map(str, args))}: {problem}")
        return proc

    def fail(self, problem: str) -> None:
        self.failed += 1
        print(f"FAILED {problem}", file=sys.stderr)

    def setup_command(self, *args) -> Proc:
        proc = self.watune(*args)
        if proc.exit_code:
            raise SetupError(f"set-up command {' '.join(map(str, args))} exited "
                             f"{proc.exit_code}: {tail(proc.log)}")
        return proc

    def write_config(self) -> None:
        logs, epochs = SIZES[self.size][self.kind]
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["seed"] = self.seed
        cfg["dataset"]["logs_per_session"] = logs
        cfg["train"]["epochs"] = epochs
        self.config.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")

    def warm_interpreter(self) -> float:
        """Import watune.cli in a fresh interpreter; returns the import seconds.

        The first import of a run compiles the bytecode, which the timed
        commands must not pay."""
        log = self._log()
        proc = spawn([sys.executable, "-c", IMPORT_PROBE], log, self.env)
        if proc.exit_code:
            raise SetupError(f"cannot import watune.cli from {SRC}: {tail(log)}")
        return float(log.read_text().split()[-1])

    def read_config_hash(self, directory: Path) -> None:
        with open(directory / "manifest.json") as fh:
            self.config_hash = json.load(fh)["config_hash"]

    def setup(self) -> None:
        self.write_config()
        self.warm_interpreter()

    def iteration(self) -> Iteration:
        raise NotImplementedError

    def final_checks(self) -> None:
        pass


class ColdCompare(Workload):
    """`watune compare` into an empty directory: generate, write, read, train
    all four heads, evaluate."""

    def __init__(self, *args):
        super().__init__(*args)
        self.table = None

    def iteration(self) -> Iteration:
        out = self.work / "cold"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        proc = self.command("compare", "--out", out, check=lambda: self.check(out))
        return Iteration([proc], changed_bytes({}, out))

    def check(self, out: Path) -> str | None:
        problem = check_tables(out)
        if problem:
            return problem
        self.read_config_hash(out)
        table = (out / "compare.tsv").read_bytes()
        if self.table is None:
            self.table = table
        elif table != self.table:
            return "compare.tsv differs between runs of the same seed and config"
        return None

    def final_checks(self) -> None:
        if self.seed != GOLDEN_SEED or self.size != "bench":
            return
        out = self.work / "golden"
        out.mkdir()
        self.command("compare", "--out", out, config=False,
                     check=lambda: check_tables(out) or self.check_golden(out))
        shutil.rmtree(out, ignore_errors=True)

    @staticmethod
    def check_golden(out: Path) -> str | None:
        for name, digest in GOLDEN_SHA256.items():
            if sha256(out / name) != digest:
                return f"{name} of the built-in seed-{GOLDEN_SEED} config does not match its pinned sha256"
        return None


class WarmCompare(Workload):
    """`watune compare` on the artifacts a cold compare left during set-up:
    only the read path and evaluation run."""

    def setup(self) -> None:
        super().setup()
        self.out = self.work / "warm"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        self.setup_command("compare", "--out", self.out)
        problem = check_tables(self.out)
        if problem:
            raise SetupError(problem)
        self.read_config_hash(self.out)
        self.cold_table = (self.out / "compare.tsv").read_bytes()

    def iteration(self) -> Iteration:
        before = dir_state(self.out)
        proc = self.command("compare", "--out", self.out, check=self.check)
        return Iteration([proc], changed_bytes(before, self.out))

    def check(self) -> str | None:
        if (self.out / "compare.tsv").read_bytes() != self.cold_table:
            return "warm compare.tsv is not byte-identical to the cold one"
        return check_tables(self.out)


class TrainHeads(Workload):
    """`watune train` for ce, kl, dpo --ref kl and kl --no-peer on a small
    dataset with many epochs, generated during set-up."""

    kind = "train"

    def setup(self) -> None:
        super().setup()
        self.data = self.work / "data"
        shutil.rmtree(self.data, ignore_errors=True)
        self.setup_command("gen", "--out", self.data)
        self.read_config_hash(self.data)

    def iteration(self) -> Iteration:
        self.ckpt = self.work / "heads"
        shutil.rmtree(self.ckpt, ignore_errors=True)
        self.ckpt.mkdir()
        paths = {name: self.ckpt / f"{name}.ckpt.json" for name, _, _ in TRAIN_RUNS}
        procs = []
        for name, loss, flags in TRAIN_RUNS:
            ref = ("--ref", paths["kl"]) if loss == "dpo" else ()
            procs.append(self.command("train", "--data", self.data, "--loss", loss, *ref, *flags,
                                      "--out", paths[name],
                                      check=lambda p=paths[name], l=loss: self.check(p, l)))
        return Iteration(procs, changed_bytes({}, self.ckpt))

    def check(self, path: Path, loss: str) -> str | None:
        try:
            with open(path) as fh:
                meta = json.load(fh)["metadata"]
        except (OSError, ValueError, KeyError) as exc:
            return f"unreadable checkpoint {path.name}: {exc}"
        if meta.get("config_hash") != self.config_hash or meta.get("loss") != loss:
            return (f"checkpoint {path.name} carries config {meta.get('config_hash')} / "
                    f"loss {meta.get('loss')}, expected {self.config_hash} / {loss}")
        return None

    def final_checks(self) -> None:
        """Each last checkpoint must load through the CLI (untimed)."""
        for path in sorted(self.ckpt.glob("*.ckpt.json")):
            proc = self.watune("eval", "--data", self.data, "--policy", "head",
                               "--checkpoint", path)
            if proc.exit_code:
                self.fail(f"checkpoint {path.name} does not load: {tail(proc.log)}")


WORKLOAD_CLASSES = {"cold-compare": ColdCompare, "warm-compare": WarmCompare,
                    "train-heads": TrainHeads}


def measure(bench: Workload, seconds: float) -> list[Iteration]:
    """Closed loop: iterate until `seconds` have passed (at least once)."""
    iterations = []
    deadline = time.perf_counter() + seconds
    while not iterations or time.perf_counter() < deadline:
        iterations.append(bench.iteration())
    return iterations


def traced_iteration(bench: Workload) -> tuple[Iteration, list[dict]]:
    trace_dir = bench.work / "trace"
    trace_dir.mkdir()
    bench.trace_dir = trace_dir
    try:
        it = bench.iteration()
    finally:
        bench.trace_dir = None
    traces = []
    for path in sorted(trace_dir.glob("*.json")):
        with open(path) as fh:
            traces.append(json.load(fh))
    return it, traces


def merge_layers(traces: list[dict]) -> dict:
    merged: dict[str, dict] = {}
    for trace in traces:
        for name, rec in trace["layers"].items():
            into = merged.setdefault(name, {})
            for key, value in rec.items():
                if isinstance(value, (int, float)):
                    into[key] = into.get(key, 0) + value
    return merged


# Per-layer metrics read straight from the merged spans as "<span>.<field>".
SPAN_FIELDS = (
    "datagen.generate_dataset.s", "datagen.generate_dataset.samples", "datagen.split.s",
    "measurement.measure.s", "measurement.measure.calls",
    "reward.objective.s", "reward.objective.calls", "reward.soft_labels.s",
    "datagen.sample_record.s", "datagen.sample_record.calls",
    "config.atomic_write_text.s", "config.atomic_write_text.bytes",
    "datagen.load_dataset.s", "datagen.load_dataset.samples", "datagen.load_dataset.bytes",
    "train.train.ce.s", "train.train.kl.s", "train.train.dpo.s",
    "train.encode_batch.s", "train.encode_batch.rows",
    "train.forward.s", "train.backward.s", "train.adamw.s",
    "train.save_checkpoint.s", "train.load_checkpoint.s",
    *(f"policy.{p}.decide.{f}" for p in ("oracle", "rule", "fixed", "head") for f in ("s", "calls")),
    "evaluate.evaluate.s", "evaluate.evaluate.calls", "evaluate.cooperative_slice.s",
)


def layer_metrics(traces: list[dict], traced_wall: float, untraced_wall: float,
                  import_s: float, cpu_s: float) -> dict:
    """Per-layer metrics of one traced iteration; a layer that did no work
    (or whose traced function is absent) reads 0."""
    layers = merge_layers(traces)

    def get(span: str, field: str) -> float:
        return layers.get(span, {}).get(field, 0)

    metrics = {name: get(*name.rsplit(".", 1)) for name in SPAN_FIELDS}
    train_calls = sum(get(f"train.train.{loss}", "calls") for loss in ("ce", "kl", "dpo"))
    metrics.update({
        "datagen.self_s": get("datagen.generate_dataset", "self_s"),
        "train.train.calls": train_calls,
        "train.steps": get("train.adamw", "calls"),
        "train.checkpoint.bytes": get("train.save_checkpoint", "bytes"),
        "train.useful_ratio": (get("train.save_checkpoint", "calls") / train_calls
                               if train_calls else 0.0),
        "evaluate.self_s": get("evaluate.evaluate", "self_s"),
        "cli.import_s": import_s,
        "cli.self_s": sum(t["main_s"] - t["top_s"] for t in traces),
        "trace.overhead_s": traced_wall - untraced_wall,
        "proc.cpu_s": cpu_s,
    })
    return metrics


def unit(name: str) -> str:
    """Units follow the metric name; whatever is not a time, size or ratio is a count."""
    for suffix, u in (("_s", "s"), (".s", "s"), ("bytes", "bytes"), ("_mb", "MB"),
                      ("_ratio", "ratio")):
        if name.endswith(suffix):
            return u
    return "count"


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(bench: Workload, workload: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "config_hash": {workload: bench.config_hash},
    }


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny config for testing the harness itself")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def run(args: argparse.Namespace, work: Path) -> tuple[dict, dict]:
    bench = WORKLOAD_CLASSES[args.workload](args.seed, "smoke" if args.smoke else "bench", work)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        bench.setup()
        setup_s.append(time.perf_counter() - start)

    iterations = measure(bench, args.seconds)
    wall_s = statistics.median(it.wall_s for it in iterations)
    extra = {"iterations": len(iterations),
             "iteration_wall_s": [round(it.wall_s, 4) for it in iterations]}
    if args.trace:
        traced, traces = traced_iteration(bench)
        import_s = statistics.median(bench.warm_interpreter() for _ in range(IMPORT_REPEATS))
        metrics = layer_metrics(traces, traced.wall_s, wall_s, import_s,
                                statistics.median(it.cpu_s for it in iterations))
        extra["absent"] = sorted({a for t in traces for a in t["absent"]})
        with open(WORK / f"{args.workload}.trace.json", "w") as fh:
            json.dump(traces, fh, indent=1)
    else:
        metrics = {
            "wall_s": wall_s,
            "peak_rss_mb": max(p.rss_mb for it in iterations for p in it.procs),
            "artifact_bytes": statistics.median(it.artifact_bytes for it in iterations),
            "setup_s": statistics.median(setup_s),
        }
    bench.final_checks()

    stamp = environment(bench, args.workload)
    stamp.update(extra, workload=args.workload, seed=args.seed, seconds=args.seconds,
                 trace=args.trace, attempted=bench.attempted, failed=bench.failed,
                 failed_ratio=bench.failed / bench.attempted)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    return stamp, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "watune" / "cli.py").is_file():
        print(f"error: no watune sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        stamp, result = run(args, work)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
