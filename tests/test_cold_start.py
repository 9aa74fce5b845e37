"""Cold start: scipy is imported only by the routes that call QUADPACK, no
route imports ``numpy.random`` of its own, and the dephasing exponent's
thread pool starts only for tables with long panel points.

The routes that need scipy reach it through one module global that stays
patchable: ``numerics.integrate`` (QUADPACK ``quad``, looked up on every
call).  The sudden-death root search is ``cli.brentq``, Brent's method in
``numerics`` without scipy, so fig4b, fig4c and the ``nonmarkov --model
deph`` defaults load none; the filter overlap runs on ``numerics``'
frequency rule, so ``perturbation`` loads none either.  Per-layer tracing
replaces exactly these two names, so the tests below pin them down.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.integrate

import zenotraj
from zenotraj import cli, numerics
from zenotraj.cli import parse_config, run

SRC = str(Path(zenotraj.__file__).resolve().parents[1])

# Runs each argv list given on the command line through ``main`` in this
# fresh interpreter; prints, per run, the exit code, the scipy modules
# loaded so far and whether numpy.random is loaded.
_REPORT = """
import contextlib, io, json, sys
from zenotraj.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    out.append([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                "numpy.random" in sys.modules])
print(json.dumps(out))
"""


def _fresh_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    return env


def _fresh_runs(*argvs):
    proc = subprocess.run([sys.executable, "-c", _REPORT, json.dumps(argvs)],
                          capture_output=True, text=True, env=_fresh_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _imported_scipy(*interpreter_args):
    """scipy modules that ``python -X importtime <interpreter_args>`` loads."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *interpreter_args],
                          capture_output=True, text=True, env=_fresh_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")]
    assert "zenotraj.numerics" in names
    return [name for name in names if name.split(".")[0] == "scipy"]


class TestNoScipyOnImport:
    def test_import_cli_loads_no_scipy(self):
        assert _imported_scipy("-c", "import zenotraj.cli") == []

    def test_module_entry_point_loads_no_scipy(self):
        assert _imported_scipy("-m", "zenotraj.cli", "dicke", "--recipe", "fig3") == []

    @pytest.mark.parametrize("argv", [
        ["filter", "--recipe", "fig2"],
        ["dicke", "--recipe", "fig3"],
        ["nonmarkov", "--recipe", "fig4a"],
        ["filter", "--kind", "deph", "--spectral", "ohmic"],
        ["dicke", "--numeric"],
        ["dynamics-deph"],
        ["nonmarkov", "--model", "deph", "--tmax", "1", "--steps", "10"],
        ["nonmarkov", "--model", "deph"],
        ["nonmarkov", "--recipe", "fig4b"],
        ["nonmarkov", "--recipe", "fig4c"],
        ["perturbation"],
    ], ids=" ".join)
    def test_scipy_free_route_stays_scipy_free(self, argv):
        # nor does it import numpy.random; fig4b, fig4c and the nonmarkov --model deph
        # defaults search a sudden-death root, and perturbation's overlap runs on the
        # frequency rule
        assert _fresh_runs(argv) == [[0, [], False]]

    def test_second_order_engine_loads_no_scipy(self):
        # the block and the decay factor integrate J on the frequency rule, without quad_vec
        engine = ("from zenotraj.core import Lorentzian, QubitState, binary_phases;"
                  "from zenotraj.perturbation import dissipative_coupling_model as model,"
                  " general_decay_factor, second_order_block;"
                  "m = model(Lorentzian(4.0, 2.0, 1.0), 1.0);"
                  "second_order_block(m, QubitState.excited(), 0.5);"
                  "general_decay_factor(m, QubitState.excited(), 0.5, binary_phases(3, 1))")
        assert _imported_scipy("-c", engine) == []

    def test_volterra_route_imports_scipy_on_demand(self):
        ((code, loaded, _),) = _fresh_runs(["dynamics-diss", "--tmax", "0.8", "--steps", "16"])
        assert code == 0
        assert "scipy.integrate" in loaded


# Imports zenotraj.cli and runs the dynamics-deph defaults, whose points all
# lie below the Gauss-Legendre panel switch; prints whether concurrent.futures
# was loaded and how many threads ran, after the import and after the run.
_THREAD_REPORT = """
import contextlib, io, json, sys, threading
import zenotraj.cli
seen = [["concurrent.futures" in sys.modules, threading.active_count()]]
with contextlib.redirect_stdout(io.StringIO()):
    code = zenotraj.cli.main(["dynamics-deph"])
seen.append(["concurrent.futures" in sys.modules, threading.active_count()])
print(json.dumps([code, seen]))
"""


class TestNoPanelPoolBelowTheSwitch:
    def test_import_and_inline_table_start_no_thread(self):
        proc = subprocess.run([sys.executable, "-c", _THREAD_REPORT],
                              capture_output=True, text=True, env=_fresh_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, [[False, 1], [False, 1]]]


class TestPatchPoints:
    def test_numerics_integrate_resolves_to_scipy(self):
        assert numerics.integrate.quad is scipy.integrate.quad

    def test_quad_is_looked_up_on_numerics_integrate(self, monkeypatch):
        class CountingIntegrate:
            calls = 0

            def quad(self, *args, **kwargs):
                self.calls += 1
                return scipy.integrate.quad(*args, **kwargs)

        counting = CountingIntegrate()
        monkeypatch.setattr(numerics, "integrate", counting)
        run(parse_config(["dynamics-deph", "--temperature", "0.5", "--tmax", "1", "--steps", "5"]))
        assert counting.calls > 0

    def test_root_search_calls_cli_brentq(self, monkeypatch):
        roots = []
        brentq = cli.brentq

        def counting_brentq(*args, **kwargs):
            roots.append(brentq(*args, **kwargs))
            return roots[-1]

        monkeypatch.setattr(cli, "brentq", counting_brentq)
        table = run(parse_config(["nonmarkov", "--recipe", "fig4b", "--steps", "60"]))
        assert len(roots) == 1
        assert table.metadata["sudden_death_time"] == roots[0]
