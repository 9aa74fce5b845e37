"""The documentation runs: every demo script and README python block runs, and the
README lists the API and recipes."""

import contextlib
import importlib
import inspect
import io
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import zenotraj
from zenotraj import cli, core, dephasing, dicke, numerics, perturbation

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


def test_readme_python_blocks_run():
    # the quickstart and every other python block, in order, each in a fresh namespace
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert blocks
    for index, block in enumerate(blocks):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, f"README.md python block {index}", "exec"), {})
        assert out.getvalue(), index


def _readme_recipes():
    """recipe -> (subcommand, [(key, value), ...]) from the README's CLI recipe table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^  \| `(fig\w+)` \| `([\w-]+)` \| (.+) \|$", section, re.MULTILINE)
    return {recipe: (scenario, re.findall(r"`(\w+)=([^`]+)`", pins))
            for recipe, scenario, pins in rows}


def test_readme_recipe_table_matches_the_cli():
    expected = {}
    for recipe, (scenario, overlay, pinned) in cli._RECIPES.items():
        preset = {**cli._defaults(cli._declared(scenario)), **overlay}
        expected[recipe] = (scenario, [(key, cli._format_metadata_value(preset[key]))
                                       for key in pinned])
    assert _readme_recipes() == expected


@pytest.mark.parametrize("scenario", list(cli._SCENARIO_DEFAULTS))
def test_each_help_lists_exactly_its_recipes(scenario):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        cli.main([scenario, "--help"])
    offered = re.findall(r"--recipe \{([\w,]+)\}", out.getvalue())
    own = [recipe for recipe, (owner, _) in _readme_recipes().items() if owner == scenario]
    assert set(offered) == ({",".join(own)} if own else set())  # usage and option lines


def test_readme_size_budget_states_the_code_numbers():
    # the budget and each route's bytes per unit, as the code declares them
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    bullet = text.split("\n- Size budget: ", 1)[1].split("\n- ", 1)[0]
    bullet = " ".join(bullet.split())  # one line, whatever the wrapping
    assert f"{numerics._SIZE_BUDGET:,} bytes (1 GiB)" in bullet
    assert numerics._SIZE_BUDGET == 2**30
    assert f"at most {numerics._SIZE_BUDGET // cli._ROW_BYTES:,} rows" in bullet
    for unit, value in [("a table row", cli._ROW_BYTES),
                        ("a path of `perturbation`'s phase vector", core._PATH_BYTES),
                        ("a half-period of a Gauss–Legendre dephasing point",
                         dephasing._HALF_PERIOD_BYTES),
                        ("a node of the second-order engine's `(t1, t2)` mesh",
                         perturbation._NODE_BYTES),
                        ("an entry of `dicke --numeric`'s state history", dicke._HISTORY_BYTES)]:
        assert f"{unit}, {value:,} bytes" in bullet, unit


def test_readme_frequency_rule_states_the_code_numbers():
    # the grading, the chunk, the tolerance, the budget and the subnormal floor of numerics' rule
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    bullet = text.split("\n- **The frequency rule.** ", 1)[1].split("\n- **Memory.**", 1)[0]
    bullet = " ".join(bullet.split())
    for stated in (f"ratio {numerics._GRADING}", f"becomes {numerics._GRADED_PANELS + 1} panels",
                   f"{numerics._PANEL_CHUNK} at a time", f"`{numerics._RULE_TOL:g}`",
                   f"more than {numerics._MAX_BISECTIONS} bisections per starting panel",
                   "`2^-1064`"):
        assert stated in bullet, stated
    assert numerics._SUBNORMAL_TOL == 2.0**-1064


def test_readme_states_the_quadpack_adapter_signature():
    # no default tolerance: each caller passes its own
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    assert f"`integrate_adaptive{inspect.signature(numerics.integrate_adaptive)}`" in text
