"""A failing property test reports its falsifying example under this repo's pytest settings."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''\
import warnings

from hypothesis import given
from hypothesis import strategies as st


@given(st.integers(0, 10))
def test_probe(n):
    assert n < 5


def test_a_deprecation_still_fails():
    warnings.warn("deprecated here", DeprecationWarning)
'''


def test_a_failing_property_test_prints_its_falsifying_example(tmp_path):
    # On a failure Hypothesis loads libcst, which warns about mypy_extensions;
    # pyproject.toml ignores that one warning, so the report is printed, and
    # every other deprecation still fails the test that raises it.
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    report = result.stdout + result.stderr
    assert result.returncode == 1, report
    assert "INTERNALERROR" not in report
    assert "Falsifying example: test_probe(" in report
    assert "DeprecationWarning: deprecated here" in report and "2 failed" in report
