"""`tools/ab.py`, the paired A/B runner of the benchmark."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", AB)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


@pytest.mark.parametrize("wins, losses, p", [(9, 1, 0.0215), (15, 5, 0.0414), (10, 10, 1.0)])
def test_sign_test_p(wins, losses, p):
    assert round(ab.sign_test_p(wins, losses), 4) == p


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_wider_than_the_base_spread():
    spec = {"better": "lower", "bound": 0.25}
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    faster = [b - 0.5 for b in base]
    assert ab.compare(spec, base, faster)["gain"]
    assert not ab.compare(spec, base, [b - 0.1 for b in base])["gain"]  # inside the base's quartiles
    assert not ab.compare(spec, base, faster[:8] + base[8:])["gain"]  # 8 wins, 2 ties
    assert not ab.compare(spec, base[:9], faster[:9])["gain"]  # fewer than ten pairs
    slower = ab.compare(spec, base, [b * 1.3 for b in base])
    assert (slower["wins"], slower["within_bound"]) == (0, False)


def test_an_a_a_smoke_run_reports_every_metric_and_claims_nothing(tmp_path):
    out = tmp_path / "ab.json"
    proc = subprocess.run([sys.executable, str(AB), "--base", str(ROOT), "--change", str(ROOT),
                           "--workload", "cold-compare", "--pairs", "1", "--seconds", "0",
                           "--smoke", "--out", str(out)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert list(report["metrics"]) == names
    assert report["failed"] == {"base": 0, "change": 0}
    for name, m in report["metrics"].items():
        assert m["pairs"] == 1 and not m["gain"], name
        assert name in proc.stdout
    assert report["metrics"]["artifact_bytes"]["ties"] == 1


def test_exactly_one_of_workload_and_full_is_required():
    for what in ([], ["--workload", "cold-compare", "--full"]):
        with pytest.raises(SystemExit):
            ab.parse_args(["--base", str(ROOT), "--pairs", "1", *what])
    args = ab.parse_args(["--base", str(ROOT), "--pairs", "1", "--full"])
    assert [(s["name"], s["bound"]) for s in args.metrics] == [
        (f"{run} {name}", bound) for run in ("cold", "first-warm", "warm")
        for name, bound in (("wall_s", 0.25), ("peak_rss_mb", 0.1))]


def test_differs_names_each_file_that_differs_or_that_one_side_lacks(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for side in (a, b):
        (side / "sub").mkdir(parents=True)
        (side / "compare.tsv").write_text("x\n")
        (side / "sub" / "test.columns").write_bytes(b"\0\1")
    assert ab.differs(a, b) == []
    (b / "compare.tsv").write_text("y\n")  # same size, other bytes
    assert ab.differs(a, b) == ["compare.tsv"]
    (a / "sub" / "test.columns").unlink()
    assert ab.differs(a, b) == ["compare.tsv", "sub/test.columns"]
