"""Smoke test: every demo script, and the README's ``Library use`` block,
runs standalone and exits 0, under ``-W error`` as CI runs the selftest
and sweeps: a numpy or scipy warning fails it (pytest's filterwarnings
does not reach the subprocess)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script):
    run_python([str(script)])


def test_readme_library_use_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library use\n+```python\n(.*?)^```", readme,
                      re.M | re.S)
    assert block, "README has no Library use python block"
    run_python(["-c", block.group(1)])
