"""The pytest settings in pyproject.toml: warnings are errors, yet a failing
hypothesis test is reported as a failure rather than crashing the pytest run,
and the package is imported from src/ without an install or PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

# the failure comes first, so a crash on reporting it would also lose the pass
TINY_SUITE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_reported(tmp_path):
    (tmp_path / "test_tiny.py").write_text(TINY_SUITE, encoding="utf-8")
    argv = [
        sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
        "-q", "-p", "no:cacheprovider", "test_tiny.py",
    ]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert proc.returncode == 1


def test_package_imported_from_source_tree(tmp_path):
    src = PYPROJECT.parent / "src"
    (tmp_path / "test_tiny.py").write_text(
        f"import qmetro\n\n\ndef test_source():\n    assert qmetro.__file__.startswith({str(src)!r})\n",
        encoding="utf-8",
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTEST_DISABLE_PLUGIN_AUTOLOAD"] = "1"
    argv = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q", "-p", "no:cacheprovider", "test_tiny.py"]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
