"""Command-line front end: config parsing, scenario runs, CSV/JSON emission.

Six subcommands cover the library's scenarios::

    zenotraj filter         leakage filter functions on a frequency grid
    zenotraj dynamics-diss  post-selected amplitude-damping dynamics
    zenotraj dynamics-deph  post-selected dephasing dynamics
    zenotraj dicke          collective-emission populations
    zenotraj nonmarkov      trace-distance diagnostics and divisibility
    zenotraj perturbation   general second-order engine vs closed forms

Named presets (``--recipe``, on filter, dicke and nonmarkov) bundle the
parameter choices behind the standard survey figures.  Output is a
deterministic CSV or JSON table: identical configuration, identical bytes.
Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .core import (GaussianPeak, Lorentzian, Ohmic, QubitState, _check_path_range,
                   _refuse_dark_port, binary_phases)
from .dephasing import (DephasingParams, _coherence_offset, dephasing_exponent,
                        dephasing_exponent_series, modified_dephasing, single_path_factor)
from .dicke import (SINC_MIN, CollectiveRateMatrix, _check_state_history, evolve_collective,
                    excited_population_analytic, excited_population_numeric,
                    superposed_initial_state)
from .dissipative import (decay_amplitude_auto, decay_factor, is_cp_divisible,
                          survival_probability_diss, trace_distance_diss)
from .errors import ConfigError, NumericError, ZenoTrajError
from .filters import (_check_pulse_count, decay_factor_overlap, filter_deph, filter_diss,
                      filter_traditional_zeno, sinc)
from .numerics import TimeGrid, _check_size, brentq
from .perturbation import dissipative_coupling_model, general_filter

__all__ = ["RunConfig", "ResultTable", "parse_config", "run", "emit", "main"]

# recipe -> (scenario, overlay, pinned keys).  A recipe pins the keys that
# decide its curves and every key its table layout ignores, each at its
# overlay value or else its default; a run may override every other key.
_RECIPES = {
    "fig2": ("filter", {"spectral": "gaussian", "omega_q": 1.0, "t": 5.0,
                        "omega_m": 1.5, "delta": 0.2,
                        "omega_min": -5.0, "omega_max": 7.0, "omega_points": 1201},
             ("kind", "N", "n", "n_tilde")),
    "fig3": ("dicke", {"N": 3, "sinc": 1.0 / 6.0, "gamma0": 0.01, "tmax": 5.0, "steps": 500},
             ("N", "n", "numeric")),
    "fig4a": ("nonmarkov", {"model": "diss", "gamma0": 1.0, "lam": 0.1, "omega_q": 50.0,
                            "tmax": 60.0, "steps": 6000},
              ("model", "eta", "s", "omega_c", "temperature")),
    "fig4b": ("nonmarkov", {"model": "deph", "eta": 1.0 / 3.0, "s": 1.0, "omega_c": 1.0,
                            "temperature": 0.0, "tmax": 4.0, "steps": 400},
              ("model", "s", "gamma0", "lam", "omega_q")),
    "fig4c": ("nonmarkov", {"model": "deph", "eta": 1.0 / 3.0, "s": 4.0, "omega_c": 1.0,
                            "temperature": 0.0, "tmax": 200.0, "steps": 1000},
              ("model", "s", "gamma0", "lam", "omega_q")),
}

# file/CLI key -> internal name ("lambda" is a Python keyword)
_KEYMAP = {"lambda": "lam"}
_FLAGS = {name: key for key, name in _KEYMAP.items()}

# Each scenario's parameters and their defaults: the only declaration of
# what a subcommand accepts.  Its flags, the keys a config file may set and
# the metadata keys of its table all come from here.  A tuple lists the
# allowed values, the first being the default; a None default is a float.
_SCENARIO_DEFAULTS = {
    "filter": {
        "kind": ("diss", "deph", "traditional"),
        "spectral": ("gaussian", "lorentzian", "ohmic"),
        "omega_q": 1.0, "t": 5.0, "N": 1, "n": 0, "n_tilde": 1.0,
        "gamma0": 1.0, "lam": 0.5, "eta": 1.0 / 3.0, "s": 1.0, "omega_c": 1.0,
        "omega_m": 1.5, "delta": 0.2,
        "omega_min": -5.0, "omega_max": 7.0, "omega_points": 1201,
    },
    "dynamics-diss": {
        "spectral": ("lorentzian",), "gamma0": 1.0, "lam": 1.0, "omega_q": 1.0,
        "N": 1, "n": 0, "tmax": 10.0, "steps": 1000,
    },
    "dynamics-deph": {
        "eta": 1.0 / 3.0, "s": 1.0, "omega_c": 1.0, "temperature": 0.0,
        "N": 3, "n": 1, "tmax": 4.0, "steps": 400,
    },
    "dicke": {
        "N": 3, "n": 0, "sinc": None, "qd": None, "gamma0": 1.0,
        "tmax": 5.0, "steps": 500, "numeric": False,
    },
    "nonmarkov": {
        "model": ("diss", "deph"), "gamma0": 1.0, "lam": 0.1, "omega_q": 50.0,
        "eta": 1.0 / 3.0, "s": 1.0, "omega_c": 1.0, "temperature": 0.0,
        "tmax": 60.0, "steps": 6000,
    },
    "perturbation": {
        "gamma0": 4.0, "lam": 2.0, "omega_q": 1.0, "t": 0.5, "N": 3, "n": 1,
        "omega_min": -2.0, "omega_max": 4.0, "omega_points": 201,
    },
}

_HELP = {
    "format": "output format",
    "recipe": "named preset sweep",
    "kind": "filter to tabulate",
    "spectral": "spectral density family",
    "model": "dissipative or pure-dephasing bath",
    "omega_q": "qubit transition frequency",
    "t": "evolution time",
    "N": "number of superposed paths",
    "n": "number of sign-flipped paths",
    "n_tilde": "pulse count of the sequential protocol",
    "gamma0": "decay rate scale (Lorentzian line or single emitter)",
    "lam": "Lorentzian line width",
    "eta": "power-law coupling strength",
    "s": "power-law exponent",
    "omega_c": "power-law cutoff frequency",
    "omega_m": "bell-peak centre frequency",
    "delta": "bell-peak squared width",
    "omega_min": "lowest grid frequency",
    "omega_max": "highest grid frequency",
    "omega_points": "number of grid frequencies",
    "temperature": "bath temperature (k_B = 1)",
    "tmax": "final time (dicke: in units of 1/gamma0)",
    "steps": "number of time steps",
    "sinc": f"collective coupling factor in [{SINC_MIN!r}, 1], at least -1/(N-1)",
    "qd": "wavenumber times spacing (sets the factor)",
    "numeric": "add a master-equation population column",
}

_DEFAULT_SINC = 1.0 / 6.0

# traced bytes per table row (run and emit) of the widest table, fig2's eight
# columns as JSON (637 at 20,000 and 100,000 rows; a CSV row of it takes 551)
_ROW_BYTES = 640

# largest a-priori RK4 error a dicke --numeric table may carry: for N <= 4 and every
# reachable s, down to SINC_MIN, a 3,000-draw scan found the pe_numeric error at most 1.99
# times the bound (at s = SINC_MIN), so an accepted column is within 1e-6 of the closed form
_RK4_ERROR_TOL = 4e-7


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved, validated run description.

    Construction checks ``params`` and ``out`` and builds the run's library objects into
    ``inputs``, once: a library refusal is ConfigError (exit 2), a size refusal NumericError (3).
    """

    scenario: str
    params: dict
    out: str | None = None
    fmt: str = "csv"
    recipe: str | None = None
    inputs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            _validate(self.scenario, self.params)
            inputs = _inputs(self.scenario, self.params)
        except ValueError as exc:  # a library refusal
            raise ConfigError(str(exc)) from exc
        except NumericError as exc:  # a size refusal reads as it does at run time
            raise self._scoped(exc)
        if self.out is not None:
            _check_out(self.out)
        object.__setattr__(self, "inputs", inputs)

    def _scoped(self, exc):
        exc.args = (f"[{self.scenario}] {exc}",) + exc.args[1:]
        return exc


@dataclass(frozen=True)
class ResultTable:
    """Rectangular result columns plus the metadata that reproduces them."""

    columns: tuple
    values: np.ndarray  # shape (rows, len(columns)), real
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or (vals.size and vals.shape[1] != len(self.columns)):
            raise ValueError("values must be rectangular with one column per name")
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "values", vals)


def _check_out(path):
    """ConfigError unless the file ``path`` can be written; creates and truncates nothing."""
    import errno
    import os

    parent = os.path.dirname(path) or os.curdir
    code = (errno.EISDIR if os.path.isdir(path) else errno.ENOENT if not os.path.isdir(parent)
            else None if os.access(path if os.path.exists(path) else parent, os.W_OK)
            else errno.EACCES)
    if code is not None:
        raise ConfigError(f"cannot write output file: {OSError(code, os.strerror(code), path)}")


def _declared(scenario):
    """Every key a subcommand takes, by flag or config file: the output keys,
    its own recipes (if it has any) and its parameters."""
    recipes = tuple(name for name, (owner, _, _) in _RECIPES.items() if owner == scenario)
    return {"out": None, "format": ("csv", "json"), **({"recipe": recipes} if recipes else {}),
            **_SCENARIO_DEFAULTS[scenario]}


def _defaults(declared):
    """The first value of each choice, else the default; a recipe only when named."""
    return {**{key: value[0] if isinstance(value, tuple) else value
               for key, value in declared.items()}, "recipe": None}


def _add_parameter(parser, key, default):
    flag = "--" + _FLAGS.get(key, key).replace("_", "-")
    if isinstance(default, bool):
        parser.add_argument(flag, dest=key, action="store_true", default=None, help=_HELP[key])
    elif isinstance(default, tuple):
        parser.add_argument(flag, dest=key, choices=default, help=_HELP[key])
    else:
        kind = int if isinstance(default, int) else float
        parser.add_argument(flag, dest=key, type=kind, help=_HELP[key])


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argparse tree, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="zenotraj",
        description="Post-selected open-system dynamics over superposed paths.")
    parser.add_argument("--version", action="version", version=f"zenotraj {__version__}")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for scenario in _SCENARIO_DEFAULTS:
        p = sub.add_parser(scenario, help=_RUNNERS[scenario].__doc__)
        p.add_argument("--config", help="JSON file with configuration keys")
        p.add_argument("--out", help="output file path (default: stdout)")
        for key, default in _declared(scenario).items():
            if key != "out":
                _add_parameter(p, key, default)
    return parser


def _check_choice(key, value, allowed):
    if value not in allowed:
        raise ConfigError(f"{key} must be one of {', '.join(allowed)}, got {value!r}")


def _check_file_value(key, value, default):
    """ConfigError unless a config-file value is one of its declared choices,
    or has the type of its declared default ("out" is a path).

    An integer is a number but never a bool; it is kept as given for a float
    key, as converting it would change the table's metadata bytes.
    """
    if isinstance(default, tuple):
        return _check_choice(key, value, default)
    if value is None and default is None:
        return
    if key == "out":
        want, ok = "a string", isinstance(value, str)
    elif isinstance(default, bool):
        want, ok = "true or false", isinstance(value, bool)
    elif isinstance(default, int):
        want, ok = "an integer", isinstance(value, int) and not isinstance(value, bool)
    else:
        want, ok = "a number", isinstance(value, (int, float)) and not isinstance(value, bool)
    if not ok:
        raise ConfigError(f"config file value of '{key}' must be {want}, got {value!r}")


def _load_config_file(path, scenario, declared):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:  # also an integer with too many digits to convert
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    out = {}
    for key, value in raw.items():
        name = _KEYMAP.get(key, key)
        if name == "scenario":
            if value != scenario:
                raise ConfigError(
                    f"config file scenario '{value}' does not match subcommand '{scenario}'")
            continue
        if name not in declared:
            raise ConfigError(f"unknown configuration key: '{key}'")
        _check_file_value(key, value, declared[name])
        out[name] = value
    return out


def _validate(scenario, params):
    """Check finiteness, the (N, n) profile, choices and the bounds no library object owns."""
    for key, value in params.items():  # an integer past float range is not finite either
        if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{key} must be finite, got {value}")
    if "N" in params:  # every subcommand with N takes n too
        _check_path_range(params["N"], params["n"])
        _refuse_dark_port(params["N"], params["n"])
    for key, allowed in _SCENARIO_DEFAULTS[scenario].items():
        if isinstance(allowed, tuple):
            _check_choice(key, params[key], allowed)
    if "t" in params and params["t"] <= 0:
        raise ConfigError("t must be > 0")
    if scenario == "dicke" and params["gamma0"] <= 0:  # the analytic route divides by it
        raise ConfigError("gamma0 must be > 0")
    if "steps" in params and params["steps"] < 1:
        raise ConfigError("steps must be >= 1")
    if "omega_points" in params and params["omega_points"] < 2:
        raise ConfigError("omega_points must be >= 2")
    if scenario == "dicke" and params["sinc"] is not None and params["qd"] is not None:
        raise ConfigError("give either --sinc or --qd, not both")


def _inputs(scenario, p):
    """The run's library objects (J keyed by its ``spectral`` choice), built once.

    Every family the scenario declares parameters of is built, also on a branch
    the run does not take, so each value the metadata records is checked.  The
    table's row count is checked against the size budget (NumericError, exit 3).
    """
    made = {}
    if "lam" in p:
        made["lorentzian"] = Lorentzian(p["gamma0"], p["lam"], p["omega_q"])
    if "eta" in p:
        made["ohmic"] = Ohmic(p["eta"], p["s"], p["omega_c"])
    if "delta" in p:
        made["gaussian"] = GaussianPeak(p["omega_m"], p["delta"])
    if "temperature" in p:
        made["bath"] = DephasingParams(made["ohmic"], temperature=p["temperature"])
    if "n_tilde" in p:  # for every kind, not only the traditional one
        _check_pulse_count(p["n_tilde"])
    if scenario == "perturbation":
        made["phases"] = binary_phases(p["N"], p["n"])
    if "tmax" in p:
        span = p["tmax"] / p["gamma0"] if scenario == "dicke" else p["tmax"]
        made["grid"] = TimeGrid(span / p["steps"], p["steps"] + 1)
    if scenario == "dicke":  # both routes need a reachable, positive semidefinite matrix
        made["factor"] = (float(sinc(p["qd"])) if p["qd"] is not None
                          else _DEFAULT_SINC if p["sinc"] is None else p["sinc"])
        CollectiveRateMatrix.check_factor(p["N"], made["factor"])
    if "steps" in p:
        _check_size(p["steps"] + 1, _ROW_BYTES, "table rows", ("--steps",))
    else:
        _check_size(p["omega_points"], _ROW_BYTES, "table rows", ("--omega-points",))
    return made


def parse_config(argv=None):
    """argv -> RunConfig with precedence command line > file > recipe > defaults.

    A recipe pre-sets the sweep that defines the named figure; the keys it
    pins (its curves' identity and the keys its table ignores) may not be
    overridden, everything else may.
    """
    args = _build_parser().parse_args(argv)
    scenario = args.scenario
    declared = _declared(scenario)
    file_vals = _load_config_file(args.config, scenario, declared) if args.config else {}
    cli_vals = {k: v for k, v in vars(args).items()
                if k not in ("scenario", "config") and v is not None}
    recipe = cli_vals.get("recipe", file_vals.get("recipe"))
    _, overlay, pinned = _RECIPES.get(recipe, (scenario, {}, ()))
    preset = {**_defaults(declared), **overlay}
    resolved = {**preset, **file_vals, **cli_vals}
    for key in pinned:
        if resolved[key] != preset[key]:
            raise ConfigError(
                f"recipe '{recipe}' fixes {key}={preset[key]}; drop the recipe to vary it")
    out, fmt, recipe = resolved.pop("out"), resolved.pop("format"), resolved.pop("recipe")
    return RunConfig(scenario=scenario, params=resolved, out=out, fmt=fmt, recipe=recipe)


def _base_metadata(config, units):
    meta = {"tool": "zenotraj", "version": __version__,
            "scenario": config.scenario, "units": units}
    if config.recipe:
        meta["recipe"] = config.recipe
    for key in sorted(config.params):
        value = config.params[key]
        if value is not None:
            meta[key] = value
    return meta


def _run_filter(config):
    """filter functions on a frequency grid"""
    p = config.params
    omega_q, t = p["omega_q"], p["t"]
    grid = np.linspace(p["omega_min"], p["omega_max"], p["omega_points"])
    j = config.inputs[p["spectral"]]
    meta = _base_metadata(config, "omega_q = 1 sets the clock")
    meta["omega_q_t"] = omega_q * t  # resolved time choice, not a silent default
    # past float range a sinc argument is inf and the filter NaN, which _check_finite
    # refuses (exit 3) without a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        if config.recipe == "fig2":
            cols = ["omega", "j", "f_N1", "f_N4", "f_N8",
                    "f_tilde_N1", "f_tilde_N4", "f_tilde_N8"]
            series = [filter_diss(grid, t, N, 0, omega_q) for N in (1, 4, 8)]
            series += [filter_traditional_zeno(grid, t, nt, omega_q) for nt in (1.0, 4.0, 8.0)]
            values = np.column_stack([grid, j(grid)] + series)
            return ResultTable(cols, values, meta)
        kinds = {"diss": lambda w: filter_diss(w, t, p["N"], p["n"], omega_q),
                 "deph": lambda w: filter_deph(w, t, p["N"], p["n"]),
                 "traditional": lambda w: filter_traditional_zeno(w, t, p["n_tilde"], omega_q)}
        vals = kinds[p["kind"]](grid)
    return ResultTable(["omega", "j", "f"], np.column_stack([grid, j(grid), vals]), meta)


def _run_dynamics_diss(config):
    """post-selected amplitude-damping dynamics"""
    p, grid = config.params, config.inputs["grid"]
    g = decay_amplitude_auto(config.inputs["lorentzian"], p["omega_q"], grid)
    n_paths, n_shifts = p["N"], p["n"]
    survival = survival_probability_diss(g.values, n_paths, n_shifts)
    gamma = decay_factor(survival)
    d_pair = trace_distance_diss(g.values, n_paths, n_shifts)
    meta = _base_metadata(config, "omega_q = 1 sets the clock")
    meta["g_route"] = g.source
    values = np.column_stack([grid.times, np.abs(g.values), survival, gamma, d_pair])
    return ResultTable(["t", "g_abs", "p_survival", "gamma_decay", "d_pair"], values, meta)


def _run_dynamics_deph(config):
    """post-selected dephasing dynamics"""
    p, grid = config.params, config.inputs["grid"]
    gamma = dephasing_exponent_series(config.inputs["bath"], grid).values
    phi = single_path_factor(gamma)
    phi_mod = modified_dephasing(phi, p["N"], p["n"])
    meta = _base_metadata(config, "omega_c = 1 sets the clock")
    values = np.column_stack([grid.times, gamma, phi, phi_mod, np.abs(phi_mod)])
    return ResultTable(["t", "gamma_exponent", "phi", "phi_modified", "d_pair"], values, meta)


def _rk4_error_bound(gamma0, grid):
    """max_k |R(z)^k - e^{kz}| over the collective generator's decay rates.

    The generator's spectrum is {0, -gamma0/2, -gamma0}; on each eigenmode
    one RK4 step multiplies by R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 with
    z = -rate*dt instead of by e^z, so this is the a-priori error of the
    evolved modes over the grid (the zero mode is exact).
    """
    z = -grid.dt * gamma0 * np.array([[0.5], [1.0]])
    k = np.arange(1, grid.count)
    amp = 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
    return float(np.max(np.abs(amp ** k - np.exp(k * z))))


def _run_dicke(config):
    """collective-emission populations"""
    p = config.params
    gamma0, s = p["gamma0"], config.inputs["factor"]
    times = np.linspace(0.0, p["tmax"] / gamma0, p["steps"] + 1)
    meta = _base_metadata(config, "gamma0 sets the clock; omega_q = 1 units")
    meta["collective_factor"] = s
    x_axis = gamma0 * times
    if config.recipe == "fig3":
        pe0, pe1 = (excited_population_analytic(times, 3, n, gamma0, s) for n in (0, 1))
        values = np.column_stack([
            x_axis, pe0, pe1,
            np.exp(-gamma0 * (1.0 + s) * times),
            np.exp(-gamma0 * (1.0 - s) * times),
            np.exp(-gamma0 * times),
        ])
        cols = ["gamma0_t", "pe_N3_n0", "pe_N3_n1",
                "exp_gamma_plus", "exp_gamma_minus", "exp_gamma0"]
        return ResultTable(cols, values, meta)
    pe = excited_population_analytic(times, p["N"], p["n"], gamma0, s)
    cols = ["gamma0_t", "pe_analytic"]
    series = [x_axis, pe]
    if p.get("numeric"):
        grid = config.inputs["grid"]  # its dt is the linspace step times[1] - times[0]
        _check_state_history(p["N"], grid.count)  # before the matrices are allocated
        rates = CollectiveRateMatrix.from_factor(p["N"], s, gamma0)
        states = evolve_collective(rates, superposed_initial_state(p["N"]), grid)
        bound = _rk4_error_bound(gamma0, grid)
        if bound > _RK4_ERROR_TOL:
            raise NumericError(
                f"RK4 error bound {bound:.3g} on the generator's spectrum exceeds "
                f"{_RK4_ERROR_TOL:g}; use more steps")
        series.append(excited_population_numeric(states, p["N"], p["n"]))
        cols.append("pe_numeric")
    return ResultTable(cols, np.column_stack(series), meta)


def _run_nonmarkov(config):
    """trace-distance and divisibility diagnostics"""
    p, grid = config.params, config.inputs["grid"]
    pairs = [(1, 0), (3, 0), (3, 1)]
    if p["model"] == "diss":
        units = "omega_q = 1 sets the clock"
        g = decay_amplitude_auto(config.inputs["lorentzian"], p["omega_q"], grid)
        columns = [trace_distance_diss(g.values, N, n) for N, n in pairs]
        divisible, violation = is_cp_divisible(g)
        landmarks = {"g_route": g.source, "cp_divisible": divisible}
        if violation is not None:
            landmarks["first_violation_time"] = violation
    else:
        units = "omega_c = 1 sets the clock"
        params = config.inputs["bath"]
        gamma = dephasing_exponent_series(params, grid).values
        # phi is (N, n)-independent; all modified factors derive from one series
        phi = single_path_factor(gamma)
        columns = [np.abs(modified_dephasing(phi, N, n)) for N, n in pairs]
        landmarks = _deph_landmarks(params, phi, grid)
    meta = {**_base_metadata(config, units), **landmarks}
    values = np.column_stack([grid.times] + columns)
    return ResultTable(["t", "d_N1_n0", "d_N3_n0", "d_N3_n1"], values, meta)


def _deph_landmarks(params, phi, grid):
    """Sudden-death root (if crossed) and trapping-plateau diagnostics of the phi series."""
    meta = {}
    c = _coherence_offset(3, 1)
    crossing = np.sqrt(phi) + c
    sign_change = np.nonzero(np.diff(np.sign(crossing)) != 0)[0]
    if sign_change.size:
        k = sign_change[0]
        try:  # the grid brackets a sign change, so a ValueError is a fault of Gamma inside it
            root = brentq(lambda tt: np.sqrt(single_path_factor(dephasing_exponent(params, tt)))
                          + c, grid.times[k], grid.times[k + 1])
        except ValueError as exc:
            raise NumericError(f"sudden-death root search: {exc}") from exc
        meta["sudden_death_time"] = float(root)
    tail = slice(-max(2, grid.count // 10), None)
    phi_mod_tail = modified_dephasing(phi[tail], 3, 0)
    meta["plateau_phi"] = float(phi[-1])
    meta["plateau_phi_mod_N3_n0"] = float(phi_mod_tail[-1])
    meta["plateau_variation"] = float(np.ptp(phi_mod_tail))
    return meta


def _run_perturbation(config):
    """general engine vs closed-form filter"""
    p, j = config.params, config.inputs["lorentzian"]
    omega_q, t = p["omega_q"], p["t"]
    model = dissipative_coupling_model(j, omega_q=omega_q)
    grid = np.linspace(p["omega_min"], p["omega_max"], p["omega_points"])
    general = general_filter(model, QubitState.excited(), grid, t, config.inputs["phases"])
    f = lambda w: filter_diss(w, t, p["N"], p["n"], omega_q)
    closed = f(grid)
    meta = _base_metadata(config, "omega_q = 1 sets the clock")
    meta["decay_factor_overlap"] = decay_factor_overlap(j, f, omega_q)
    nonzero = np.abs(closed) > 1e-300
    if not nonzero.any():
        raise NumericError("max_rel_deviation has no point: no |f_closed_form| on the "
                           "frequency grid exceeds 1e-300")
    meta["max_rel_deviation"] = float(np.max(
        np.abs(general[nonzero] - closed[nonzero]) / np.abs(closed[nonzero])))
    values = np.column_stack([grid, general, closed])
    return ResultTable(["omega", "f_general", "f_closed_form"], values, meta)


_RUNNERS = {
    "filter": _run_filter,
    "dynamics-diss": _run_dynamics_diss,
    "dynamics-deph": _run_dynamics_deph,
    "dicke": _run_dicke,
    "nonmarkov": _run_nonmarkov,
    "perturbation": _run_perturbation,
}


def _check_finite(table):
    """NumericError unless every table value and float metadata value is finite."""
    bad = [name for name, ok in zip(table.columns, np.isfinite(table.values).all(axis=0))
           if not ok]
    bad += [key for key, value in sorted(table.metadata.items())
            if isinstance(value, float) and not math.isfinite(value)]
    if bad:
        raise NumericError(f"result is not finite in {', '.join(bad)}")


def run(config):
    """Execute the scenario; deterministic output for identical config.

    A result with a value that is not finite, in the table or in a float of
    its metadata, raises NumericError (exit 3) instead of being emitted.
    """
    try:
        table = _RUNNERS[config.scenario](config)
        _check_finite(table)
        return table
    except ZenoTrajError as exc:
        raise config._scoped(exc)


def _format_metadata_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _json_rows(values):
    """The rows as ``json.dumps(values.tolist(), indent=2)`` lays them out one level in.

    One ``%r`` format over all values gives each float's repr, as json's
    encoder does; json spells the non-finite ones NaN, Infinity and -Infinity.
    """
    n_rows, n_cols = values.shape
    if not n_rows:
        return "[]"
    row = "    [\n      " + ",\n      ".join(["%r"] * n_cols) + "\n    ]" if n_cols else "    []"
    text = "[\n" + ",\n".join([row] * n_rows) % tuple(values.ravel().tolist()) + "\n  ]"
    if not np.isfinite(values).all():  # no other letter than e is in a float's repr
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def emit(table, fmt="csv", path=None):
    """Serialize the table; identical tables give identical bytes.

    The rows are written by one printf-style format over all values, the
    bytes of ``f"{v:.17g}"`` per CSV value and of ``json.dumps(..., indent=2)``
    for JSON.  A ``path`` that cannot be written is a ConfigError (exit 2).
    """
    if fmt == "csv":
        lines = [f"# {key}={_format_metadata_value(table.metadata[key])}"
                 for key in sorted(table.metadata)]
        lines.append(",".join(table.columns))
        row = ",".join(["%.17g"] * table.values.shape[1]) + "\n"
        text = ("\n".join(lines) + "\n"
                + (row * table.values.shape[0]) % tuple(table.values.ravel().tolist()))
    elif fmt == "json":
        head = json.dumps({"columns": list(table.columns), "metadata": table.metadata},
                          sort_keys=True, indent=2)
        # "rows" sorts last: it goes in before the closing brace
        text = head[:-2] + ',\n  "rows": ' + _json_rows(table.values) + "\n}\n"
    else:
        raise ConfigError(f"unknown output format: '{fmt}'")
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file: {exc}") from exc
    return text


def main(argv=None):
    try:
        config = parse_config(argv)
        table = run(config)
        text = emit(table, config.fmt, config.out)
    except ConfigError as exc:
        print(f"zenotraj: configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"zenotraj: numeric failure: {exc}", file=sys.stderr)
        return 3
    if config.out is None:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
