#!/usr/bin/env python3
"""Paired A/B runs of the watune benchmark on two checkouts.

    python3 tools/ab.py --base ../parent --workload warm-compare --pairs 10
    python3 tools/ab.py --base ../parent --full --pairs 1

Each checkout runs its own `perfbench/run.py`, one process at a time. Pair i
runs both sides with the seed SEED0 + i, in ABBA order: the base first in
even pairs, the change first in odd ones. For each end-to-end metric that
BENCHMARK.json names, the report gives:
- each side's median and quartiles;
- the median per-pair delta (change - base);
- the change's wins and ties over the pairs;
- a two-sided sign-test p, ties left out;
- whether a gain may be claimed: at least ten pairs, wins in at least nine
  tenths of them (ties count for neither), and medians further apart, in the
  better direction, than the base's interquartile range;
- whether the change's median is within the metric's bound of the base's.

`--full` runs, in place of a workload, the built-in-size
`python3 -m watune.cli --seed 1 compare` of each side's `src`, three times
a pair into a fresh directory: cold, first warm (which writes the column
caches) and later warm. Each run's wall time and child peak RSS (`os.wait4`)
are summarized as above, against the `wall_s` and `peak_rss_mb` bounds, and
`differs` lists every file that differs between the two sides' first-pair
directories, or that only one side has.

`--probe K` adds K fresh-interpreter `import watune.cli` timings a side, in
the same alternating order, after one untimed import a side that compiles
the bytecode. The report goes to stdout, and as JSON to `--out`. The exit
status is 1 when a benchmark run reports a failed operation or a `--full`
run fails.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED0 = 101
IMPORT_PROBE = ("import time; t = time.perf_counter(); import watune.cli; "
                "print(time.perf_counter() - t)")
FULL_RUNS = ("cold", "first-warm", "warm")  # the `--full` compare runs of a pair, in order
FULL_METRICS = ("wall_s", "peak_rss_mb")


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided sign-test p of `wins` against `losses` (ties left out)."""
    n, k = wins + losses, min(wins, losses)
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(spec: dict, base: list[float], change: list[float]) -> dict:
    """The summary of one metric over pairs of runs, `base[i]` beside `change[i]`."""
    better = 1 if spec["better"] == "lower" else -1  # a positive sign * delta is worse
    deltas = [c - b for b, c in zip(base, change)]
    wins = sum(better * d < 0 for d in deltas)
    ties = deltas.count(0)
    mb, mc = statistics.median(base), statistics.median(change)
    (b1, b3), (c1, c3) = quartiles(base), quartiles(change)
    if mb:
        worse_by = better * (mc - mb) / abs(mb)
    else:  # nothing to scale by: any worsening is unbounded
        worse_by = 0.0 if mc == mb else better * (mc - mb) * math.inf
    return {
        "base": {"median": mb, "q1": b1, "q3": b3, "runs": base},
        "change": {"median": mc, "q1": c1, "q3": c3, "runs": change},
        "median_delta": statistics.median(deltas), "pairs": len(deltas), "wins": wins,
        "ties": ties, "sign_test_p": sign_test_p(wins, len(deltas) - wins - ties),
        "gain": (len(deltas) >= 10 and 10 * wins >= 9 * len(deltas)
                 and better * (mb - mc) > b3 - b1),
        "worse_by": worse_by, "bound": spec["bound"], "within_bound": worse_by <= spec["bound"],
    }


def bench(checkout: Path, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """The result line of one run of `checkout`'s own benchmark."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"error: {checkout}: perfbench/run.py exited {proc.returncode}: "
                 f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def full(checkout: Path, out: Path) -> dict:
    """The metrics of the `FULL_RUNS` of `checkout`'s seed-1 `compare` into
    `out`, in the shape of a benchmark result line."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-m", "watune.cli", "--seed", "1", "compare", "--out", str(out)]
    metrics = {}
    for run in FULL_RUNS:
        with tempfile.TemporaryFile() as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode:
                err.seek(0)
                sys.exit(f"error: {checkout}: {run} compare exited {proc.returncode}: "
                         f"{err.read().decode(errors='replace').strip()[-2000:]}")
        metrics[f"{run} wall_s"] = {"value": wall}
        metrics[f"{run} peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0}
    return {"metrics": metrics, "failed": 0}


def differs(a: Path, b: Path) -> list[str]:
    """The files under `a` and `b`, by relative path, that differ between
    the two trees or that only one of them holds."""
    def files(root: Path) -> set[str]:
        return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}
    in_a, in_b = files(a), files(b)
    return sorted((in_a ^ in_b) | {f for f in in_a & in_b if not filecmp.cmp(a / f, b / f, shallow=False)})


def probe(checkout: Path, pycache: str) -> float:
    """Seconds a fresh interpreter takes to import `checkout`'s watune.cli."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}  # as perfbench
    env.update(PYTHONPATH=str(checkout / "src"), PYTHONPYCACHEPREFIX=pycache)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=checkout, env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"error: {checkout}: cannot import watune.cli: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout)


def abba(pairs: int, run) -> dict[str, list]:
    """`run(side, i)` for each side of each pair, the base first in even pairs."""
    out = {"base": [], "change": []}
    for i in range(pairs):
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            out[side].append(run(side, i))
    return out


def parse_args(argv=None) -> argparse.Namespace:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, default=ROOT, help="checkout of the change (default: this one)")
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    what.add_argument("--full", action="store_true",
                      help="built-in-size seed-1 compare runs, cold, first warm and later warm")
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"], help="with --workload")
    ap.add_argument("--smoke", action="store_true", help="the benchmark's tiny config, with --workload")
    ap.add_argument("--probe", type=int, default=0, metavar="K")
    ap.add_argument("--out", type=Path, help="JSON report path")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.probe < 0:
        ap.error("--pairs must be >= 1 and --probe >= 0")
    args.end_to_end = spec["end_to_end"]
    args.metrics = args.end_to_end  # the summarized metrics; under --full, each run's own
    if args.full:
        args.metrics = [dict(s, name=f"{run} {s['name']}") for run in FULL_RUNS
                        for s in args.end_to_end if s["name"] in FULL_METRICS]
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    if args.full:
        firsts = {}  # each side's first-pair directory, the one compared
        with tempfile.TemporaryDirectory() as tmp:
            def run(side: str, i: int) -> dict:
                # mkdtemp names are all one length: full-size cold peak RSS
                # moved by 2 MB with the length of `--out` alone.
                out = Path(tempfile.mkdtemp(dir=tmp))
                result = full(sides[side], out)
                if i:
                    shutil.rmtree(out)
                else:
                    firsts[side] = out
                return result
            results = abba(args.pairs, run)
            head = {"workload": "full", "seed": 1, "differs": differs(firsts["base"], firsts["change"])}
    else:
        results = abba(args.pairs, lambda side, i: bench(sides[side], args.workload, SEED0 + i,
                                                         args.seconds, args.smoke))
        head = {"workload": args.workload, "seeds": [SEED0 + i for i in range(args.pairs)],
                "seconds": args.seconds, "smoke": args.smoke}
    values = lambda side, name: [r["metrics"][name]["value"] for r in results[side]]
    report = {
        **head, **{k: str(v) for k, v in sides.items()},
        "failed": {side: sum(r["failed"] for r in runs) for side, runs in results.items()},
        "metrics": {s["name"]: compare(s, values("base", s["name"]), values("change", s["name"]))
                    for s in args.metrics},
    }
    if args.probe:
        with tempfile.TemporaryDirectory() as base_cache, tempfile.TemporaryDirectory() as change_cache:
            caches = {"base": base_cache, "change": change_cache}
            for side in sides:
                probe(sides[side], caches[side])
            times = abba(args.probe, lambda side, i: probe(sides[side], caches[side]))
        setup = next(s for s in args.end_to_end if s["name"] == "setup_s")  # the import it times
        report["probe_import_s"] = compare(setup, times["base"], times["change"])

    seeds = "seed 1" if args.full else f"seeds {SEED0}-{SEED0 + args.pairs - 1}"
    print(f"{report['workload']}: {args.pairs} pairs, {seeds}, "
          f"failed ops base {report['failed']['base']} change {report['failed']['change']}")
    if args.full:
        print(f"  differs: {', '.join(report['differs']) or 'none'}")
    rows = list(report["metrics"].items())
    rows += [("import_s (probe)", report["probe_import_s"])] if args.probe else []
    for name, m in rows:
        b, c = m["base"], m["change"]
        print(f"  {name:<22} base {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]  "
              f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
              f"delta {m['median_delta']:+.4g}  wins {m['wins']}/{m['pairs']} ties {m['ties']}  "
              f"p {m['sign_test_p']:.4f}  gain {'yes' if m['gain'] else 'no'}  "
              f"within bound {'yes' if m['within_bound'] else 'NO'}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if any(report["failed"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
