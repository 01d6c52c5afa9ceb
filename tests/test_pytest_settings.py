"""The suite's pytest settings: a failing test is reported, and the tests
after it still run."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_and_the_rest_run(tmp_path):
    """Under the repo's warning filters (warnings are errors), reporting a
    failing hypothesis example must not raise INTERNALERROR (exit 3): the
    run reports one failure and one pass, and exits 1."""
    shutil.copy(PYPROJECT, tmp_path)
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_two.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
