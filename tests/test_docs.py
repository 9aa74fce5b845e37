"""The documentation runs: every demo script exits 0, and the README lists the API."""

import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import zenotraj

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_api_table_lists_each_module_all_in_order():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.+) \|$", section, re.MULTILINE)
    table = {module: re.findall(r"`(\w+)`", names) for module, names in rows}
    library = [info.name for info in pkgutil.iter_modules(zenotraj.__path__)
               if info.name != "cli"]
    assert sorted(table) == sorted(library)
    for module, names in table.items():
        assert names == importlib.import_module(f"zenotraj.{module}").__all__, module
