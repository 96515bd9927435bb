"""Every demo script and every Python example in README.md runs to
completion against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```",
                           (ROOT / "README.md").read_text(), re.M | re.S)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("k", range(len(README_BLOCKS)),
                         ids=lambda k: f"block{k + 1}")
def test_readme_example_runs(k, tmp_path, monkeypatch):
    # the examples write relative paths (the library quick start writes
    # out/), so each runs in a scratch working directory
    monkeypatch.chdir(tmp_path)
    exec(compile(README_BLOCKS[k], f"README.md python block {k + 1}",
                 "exec"), {})
