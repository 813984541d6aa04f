"""The suite's own configuration: a failing property must not end the run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

FAILING_MODULE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_a_failing_plain_test():
    assert False
'''


def test_a_failing_property_is_reported_like_any_failing_test(tmp_path):
    # hypothesis's failure report imports a module that warns on import,
    # which filterwarnings = error must not turn into an INTERNALERROR
    conftest = Path(__file__).with_name("conftest.py").read_text()
    (tmp_path / "conftest.py").write_text(conftest)
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings = error\n")
    (tmp_path / "test_failing.py").write_text(FAILING_MODULE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout
    assert "2 failed" in run.stdout
