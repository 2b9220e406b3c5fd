"""Every demo script, and the README's quick start, runs to completion
against the in-tree package."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    result = run_python(str(script))
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert "equivalent: True" in result.stdout
