"""Every demo script, every Python example and every `opendyn` command
line in README.md runs to completion against the current API and CLI,
and every API name README.md cites exists."""

import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import opendyn
from opendyn import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
# the argument lists of the `opendyn ...` lines in README's shell blocks
README_COMMANDS = [
    line.split()[1:]
    for lang, block in re.findall(r"^```(\w*)\n(.*?)^```", README,
                                  re.M | re.S) if not lang
    for line in block.splitlines() if line.startswith("opendyn ")]
# backticked `name(...)` calls and `Class.attr` references outside the
# fenced blocks; a code span may wrap a line
README_REFS = sorted({
    m.group(1) or m.group(2)
    for span in re.findall(r"`([^`]+)`",
                           re.sub(r"^```.*?^```", "", README, flags=re.M | re.S))
    for m in [re.match(r"([A-Za-z_][\w.]*)\(|([A-Z]\w*\.\w+)$", span)] if m})
MODULES = [opendyn] + [importlib.import_module(f"opendyn.{m.name}")
                       for m in pkgutil.iter_modules(opendyn.__path__)]


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


@pytest.mark.parametrize("argv", README_COMMANDS,
                         ids=[" ".join(a[:2]) for a in README_COMMANDS])
def test_readme_command_runs(argv, tmp_path, monkeypatch):
    # config paths are relative to the repository root; each --out
    # directory moves into the scratch directory
    monkeypatch.chdir(ROOT)
    argv = [str(tmp_path / a) if prev == "--out" else a
            for prev, a in zip([None] + argv, argv)]
    assert cli.main(argv) == 0


def _resolves(ref: str) -> bool:
    """ref is an attribute path of opendyn or one of its modules, or a
    bare method name that some opendyn class defines."""
    head, *rest = ref.split(".")
    for mod in MODULES:
        obj = getattr(mod, head, None)
        for attr in rest:
            obj = getattr(obj, attr, None)
        if obj is not None:
            return True
    return not rest and any(
        hasattr(cls, head) for mod in MODULES
        for _, cls in inspect.getmembers(mod, inspect.isclass)
        if cls.__module__.startswith("opendyn"))


@pytest.mark.parametrize("ref", README_REFS)
def test_readme_reference_resolves(ref):
    assert _resolves(ref), f"README.md cites `{ref}`, which opendyn lacks"
