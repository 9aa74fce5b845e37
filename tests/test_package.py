"""Package surface: every exported name resolves and is declared once."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import zenotraj

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(zenotraj.__path__))

# the library modules the package re-exports; cli is the front end on top
LIBRARY = [name for name in SUBMODULES if name != "cli"]

# names that left the package: test-only helpers that live in tests/ as
# oracles, InterferometerConfig, whose phase profile is its phase vector,
# FilterSpec, whose filter is the filter function its caller names, and
# Tabulated, a family outside the paper's three (a custom J subclasses
# SpectralDensity)
MOVED = ("PathBlockMatrix", "postselect_general", "superpose_identical",
         "lorentzian_kernel_closed", "Geometry", "ControlQubitState",
         "dicke_rates_two_atom", "qd_for_collective_factor", "InterferometerConfig",
         "FilterSpec", "Tabulated")


def test_package_all_resolves():
    missing = [name for name in zenotraj.__all__ if not hasattr(zenotraj, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"zenotraj.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_all_is_the_union_of_the_submodule_lists():
    declared = [name for module in LIBRARY
                for name in importlib.import_module(f"zenotraj.{module}").__all__]
    errors = importlib.import_module("zenotraj.errors").__all__
    assert set(errors) == {"ZenoTrajError", "ConfigError", "NumericError",
                           "QuadratureError", "NullOutcome"}
    assert len(set(declared)) == len(declared)  # no name declared twice
    assert sorted(zenotraj.__all__) == sorted(["__version__", *declared])
    assert len(zenotraj.__all__) <= 59


@pytest.mark.parametrize("name", MOVED)
def test_test_only_names_are_not_exported(name):
    assert not hasattr(zenotraj, name)
    for module in SUBMODULES:
        assert not hasattr(importlib.import_module(f"zenotraj.{module}"), name)


def test_rate_matrix_has_only_the_factor_constructor():
    assert not hasattr(zenotraj.CollectiveRateMatrix, "from_geometry")


@pytest.mark.parametrize("name", ["SpectralDensity", "Lorentzian", "Ohmic", "GaussianPeak"])
def test_coupling_strength_is_a_family_parameter(name):
    # J -> eps^2 J is the family with gamma0 or eta times eps^2: no second knob
    family = getattr(zenotraj, name)
    assert "scale" not in [f.name for f in dataclasses.fields(family)]
    assert not hasattr(family, "scaled")


def test_no_family_carries_breakpoints():
    # each family is smooth on (0, omega_max): no quadrature splits at a kink of J
    families = [cls for cls in zenotraj.SpectralDensity.__subclasses__()
                if cls.__module__.startswith("zenotraj.")]
    assert {cls.__name__ for cls in families} == {"Lorentzian", "Ohmic", "GaussianPeak"}
    for cls in [zenotraj.SpectralDensity, *families]:
        assert not hasattr(cls, "breakpoints"), cls.__name__


def test_coupling_model_holds_one_bath():
    # every path couples to the one J: no per-path density lookup, no path argument
    model = zenotraj.CouplingModel
    assert [f.name for f in dataclasses.fields(model)] == ["h_q", "operators", "correlations", "j"]
    assert [name for name in vars(model) if not name.startswith("_")] == ["omega_scale"]
    assert list(inspect.signature(zenotraj.second_order_block).parameters) == ["model", "rho0", "t"]
    for name in importlib.import_module("zenotraj.perturbation").__all__:
        params = inspect.signature(getattr(zenotraj, name)).parameters
        assert not any("path" in param for param in params), name


def test_a_qubit_state_is_one_type():
    # one field, and both post-selection builders take the initial state as one
    assert [f.name for f in dataclasses.fields(zenotraj.QubitState)] == ["matrix"]
    for builder in (zenotraj.postselected_state_diss, zenotraj.postselected_state_deph):
        assert list(inspect.signature(builder).parameters)[0] == "rho0"
    assert list(inspect.signature(zenotraj.postselected_state_diss).parameters) == [
        "rho0", "g_t", "n_paths", "n_shifts"]


def _defaulted(fn):
    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):
        return 0
    return sum(p.default is not inspect.Parameter.empty for p in params)


def _settable(obj):
    """Dataclass fields (or defaulted constructor parameters) plus the
    defaulted parameters of the public methods; for a function, its own."""
    if not inspect.isclass(obj):
        return _defaulted(obj)
    own = (len(dataclasses.fields(obj)) if dataclasses.is_dataclass(obj)
           else _defaulted(obj.__init__))
    methods = (getattr(obj, name) for name in vars(obj) if not name.startswith("_"))
    return own + sum(_defaulted(m) for m in methods if inspect.isroutine(m))


def test_settable_values_of_the_public_callables_are_bounded():
    counts = {name: _settable(getattr(zenotraj, name)) for name in zenotraj.__all__
              if callable(getattr(zenotraj, name))}
    assert counts["TimeGrid"] == 2 and counts["QubitState"] == 1
    assert sum(counts.values()) <= 32
