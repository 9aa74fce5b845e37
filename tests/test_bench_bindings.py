"""The benchmark tracer's binding sites exist in the package.

``bench/layers.py`` patches package functions by (module, attribute) and
rebuilds ``MemoryKernel(f, provenance)`` around a traced ``f``; a renamed or
moved function would otherwise show up only as a failed traced benchmark
run.  The module is loaded from its file and left unchanged.
"""

import dataclasses
import importlib
import importlib.util
import pathlib

import pytest

from zenotraj import cli, core, dissipative
from zenotraj.core import Lorentzian

LAYERS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(layers):
    missing = [f"{home}.{attr}" for home, attr, _, _ in layers._FUNCTIONS
               if not callable(getattr(importlib.import_module(f"zenotraj.{home}"), attr, None))]
    assert missing == []
    assert callable(cli.brentq) and callable(dissipative.memory_kernel)
    fields = [f.name for f in dataclasses.fields(dissipative.MemoryKernel)]
    assert fields == ["f", "provenance"]


def test_tracer_installs_and_uninstalls_around_a_recipe(layers):
    originals = (cli.parse_config, cli.run, cli.emit, core.SpectralDensity.__call__)
    tracer = layers.Tracer()
    tracer.install()
    try:
        cli.emit(cli.run(cli.parse_config(["filter", "--recipe", "fig2"])))
    finally:
        tracer.uninstall()
    names = {span[1] for span in tracer.spans}
    assert {"cli.parse_config", "cli.run", "cli.emit", "filters.filter"} <= names
    assert (cli.parse_config, cli.run, cli.emit, core.SpectralDensity.__call__) == originals


def _subclasses(cls):
    return [sub for direct in cls.__subclasses__() for sub in [direct, *_subclasses(direct)]]


def test_no_spectral_density_defines_its_own_call():
    # the tracer patches SpectralDensity.__call__ alone; a family's own
    # __call__ would take its J calls out of the core.spectral_density span
    families = _subclasses(core.SpectralDensity)
    assert families and [f.__name__ for f in families if "__call__" in vars(f)] == []


def test_lorentzian_kernel_records_spectral_density_calls(layers):
    # the kernel's QUADPACK nodes take J's float route, still through the patched __call__
    tracer = layers.Tracer()
    tracer.install()
    try:
        dissipative.memory_kernel(Lorentzian(1.0, 1.0, 1.0), 1.0).f(0.7)
    finally:
        tracer.uninstall()
    calls = [count for (name, _, _), (count, _) in tracer.leaves.items()
             if name == "core.spectral_density"]
    assert sum(calls) > 0
