"""Every demo runs to completion: each asserts its own claims and exits
non-zero when one fails."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import magtorus as mt

#: The pytest filter of pyproject.toml, which does not reach a subprocess.
WARNINGS_FAIL = ("-W", "error::RuntimeWarning")

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(mt.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, *WARNINGS_FAIL, str(demo)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    code = block.split("```", 1)[0]
    assert "import magtorus" in code
    env = dict(os.environ, PYTHONPATH=str(Path(mt.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, *WARNINGS_FAIL, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
