"""Tests for configuration parsing, scenario runs, and table emission."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zenotraj import cli, core, dissipative, numerics
from zenotraj.cli import ResultTable, RunConfig, emit, main, parse_config, run
from zenotraj.dicke import SINC_MIN
from zenotraj.errors import ConfigError, NumericError

import emit_oracle

# flags a subcommand refuses because its run reads no such parameter
UNREAD_FLAGS = {
    "dynamics-diss": ("--eta", "--s", "--omega-c", "--omega-m", "--delta"),
    "nonmarkov": ("--spectral", "--omega-m", "--delta"),
    "perturbation": ("--spectral", "--eta", "--s", "--omega-c", "--omega-m", "--delta"),
}


# bounds the CLI leaves to the library object that owns them: (argv, exit
# code, message); values on a branch the run does not take are checked too
OWNED_BOUNDS = [
    (["filter", "--spectral", "gaussian", "--eta", "-1"], 2, "Ohmic needs eta > 0, got eta=-1.0"),
    (["dynamics-deph", "--s", "0"], 2, "Ohmic needs s > 0, got s=0.0"),
    (["nonmarkov", "--model", "diss", "--omega-c", "-2"], 2,
     "Ohmic needs omega_c > 0, got omega_c=-2.0"),
    (["filter", "--spectral", "ohmic", "--delta", "0"], 2,
     "GaussianPeak needs delta > 0, got delta=0.0"),
    (["perturbation", "--gamma0", "0"], 2, "Lorentzian needs gamma0 > 0, got gamma0=0.0"),
    (["nonmarkov", "--model", "deph", "--lambda", "-1"], 2, "Lorentzian needs lam > 0, got lam=-1.0"),
    (["filter", "--kind", "diss", "--n-tilde", "0.5"], 2,
     "the traditional filter needs n_tilde >= 1, got n_tilde=0.5"),
    (["nonmarkov", "--model", "diss", "--temperature", "-1"], 2,
     "temperature must be >= 0, got temperature=-1.0"),
    (["dynamics-diss", "--tmax", "-1"], 2, "TimeGrid.dt must be positive, got dt=-0.001"),
    (["dicke", "--tmax", "-5"], 2, "TimeGrid.dt must be positive, got dt=-0.01"),
    # a step that underflows to 0 (a traceback when the runner built the grid)
    (["dynamics-deph", "--tmax", "1e-322"], 2, "TimeGrid.dt must be positive, got dt=0.0"),
    # the CLI's own bounds are checked before any constructor runs
    (["dicke", "--gamma0", "-1", "--tmax", "-5"], 2, "gamma0 must be > 0"),
    # the bath the table's metadata records is refused on the diss branch too
    (["nonmarkov", "--model", "diss", "--s", "0.5", "--temperature", "0.5"], 3,
     "finite-temperature dephasing exponent refused"),
]


# a recipe refuses every value its table would ignore, and a subcommand every
# recipe and format it does not declare, before anything runs: (argv, config
# file text, exit code, message)
RECIPE_EXITS = [
    (["filter", "--recipe", "fig2", "--N", "5"], None, 2, "recipe 'fig2' fixes N=1;"),
    (["filter", "--recipe", "fig2", "--n", "1"], None, 2, "recipe 'fig2' fixes n=0;"),
    (["filter", "--recipe", "fig2", "--kind", "deph"], None, 2, "recipe 'fig2' fixes kind=diss;"),
    (["filter", "--recipe", "fig2", "--n-tilde", "3"], None, 2,
     "recipe 'fig2' fixes n_tilde=1.0;"),
    (["dicke", "--recipe", "fig3", "--n", "1"], None, 2, "recipe 'fig3' fixes n=0;"),
    (["dicke", "--recipe", "fig3", "--numeric"], None, 2, "recipe 'fig3' fixes numeric=False;"),
    # the fig4 tables read either the Lorentzian line or the Ohmic bath, not both
    (["nonmarkov", "--recipe", "fig4a", "--eta", "2", "--temperature", "0.5"], None, 2,
     "recipe 'fig4a' fixes eta=0.3333333333333333;"),
    (["nonmarkov", "--recipe", "fig4a", "--s", "2"], None, 2, "recipe 'fig4a' fixes s=1.0;"),
    (["nonmarkov", "--recipe", "fig4a"], '{"omega_c": 2}', 2, "recipe 'fig4a' fixes omega_c=1.0;"),
    (["nonmarkov", "--recipe", "fig4a", "--temperature", "0.5"], None, 2,
     "recipe 'fig4a' fixes temperature=0.0;"),
    (["nonmarkov", "--recipe", "fig4b", "--gamma0", "2"], None, 2,
     "recipe 'fig4b' fixes gamma0=1.0;"),
    (["nonmarkov", "--recipe", "fig4b"], '{"lambda": 0.2}', 2, "recipe 'fig4b' fixes lam=0.1;"),
    (["nonmarkov", "--recipe", "fig4c", "--omega-q", "1"], None, 2,
     "recipe 'fig4c' fixes omega_q=50.0;"),
    (["nonmarkov", "--recipe", "fig4c", "--lambda", "0.5"], None, 2,
     "recipe 'fig4c' fixes lam=0.1;"),
    (["dynamics-diss", "--recipe", "fig2"], None, 2, "unrecognized arguments: --recipe fig2"),
    (["perturbation"], '{"recipe": "fig2"}', 2, "unknown configuration key: 'recipe'"),
    (["nonmarkov", "--recipe", "fig4c"], '{"format": "xml"}', 2,
     "format must be one of csv, json, got 'xml'"),
    (["nonmarkov", "--recipe", "fig4b", "--steps", "60"], None, 0, ""),
    # a pinned key set to its pinned value is no override
    (["nonmarkov", "--recipe", "fig4a", "--eta", "0.3333333333333333", "--steps", "10"],
     '{"temperature": 0}', 0, ""),
    (["nonmarkov", "--recipe", "fig4b", "--omega-q", "50", "--steps", "60"], None, 0, ""),
]


# the subcommands that take a binary (N, n) profile
PROFILE_SCENARIOS = [name for name, declared in cli._SCENARIO_DEFAULTS.items() if "n" in declared]


class TestParseConfig:
    def test_valid_collective_run(self):
        cfg = parse_config(["dicke", "--N", "3", "--n", "0", "--sinc", "0.1667",
                            "--gamma0", "0.01", "--tmax", "5"])
        assert cfg.scenario == "dicke"
        assert cfg.params["N"] == 3 and cfg.params["n"] == 0
        assert cfg.params["sinc"] == pytest.approx(0.1667)
        assert cfg.params["gamma0"] == pytest.approx(0.01)
        assert cfg.fmt == "csv" and cfg.out is None

    def test_null_post_selection_rejected(self):
        with pytest.raises(ConfigError, match="null result"):
            parse_config(["dicke", "--N", "4", "--n", "2"])

    def test_narrow_line_config(self):
        cfg = parse_config(["nonmarkov", "--lambda", "0.1", "--gamma0", "1"])
        assert cfg.params["lam"] == pytest.approx(0.1)
        assert cfg.params["gamma0"] == pytest.approx(1.0)
        assert cfg.params["model"] == "diss"

    def test_precedence_cli_over_file_over_defaults(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"gamma0": 0.05, "steps": 40}))
        cfg = parse_config(["dicke", "--config", str(path), "--gamma0", "0.07"])
        assert cfg.params["gamma0"] == pytest.approx(0.07)  # CLI wins
        assert cfg.params["steps"] == 40                    # file wins
        assert cfg.params["tmax"] == pytest.approx(5.0)     # default

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"gamma_zero": 1.0}))
        with pytest.raises(ConfigError, match="gamma_zero"):
            parse_config(["dicke", "--config", str(path)])

    def test_file_scenario_mismatch_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scenario": "filter"}))
        with pytest.raises(ConfigError, match="scenario"):
            parse_config(["dicke", "--config", str(path)])

    def test_recipe_scenario_guard(self, capsys):
        # a subcommand offers only its own recipes
        with pytest.raises(SystemExit) as exit_info:
            parse_config(["filter", "--recipe", "fig3"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'fig3' (choose from 'fig2')" in capsys.readouterr().err

    def test_recipe_overridable_and_fixed_keys(self):
        cfg = parse_config(["dicke", "--recipe", "fig3", "--gamma0", "0.02"])
        assert cfg.params["gamma0"] == pytest.approx(0.02)
        assert cfg.params["N"] == 3
        with pytest.raises(ConfigError, match="fixes N=3"):
            parse_config(["dicke", "--recipe", "fig3", "--N", "4"])

    @pytest.mark.parametrize("value, code", [("-0.2172", 0), ("-0.21723362821122166", 0),
                                             ("-0.2174", 2), ("1", 0)])
    def test_sinc_range_is_the_reachable_range(self, value, code, capsys):
        # sinc(x) >= -0.21723362821122166, reached at x ~ 4.4934
        assert main(["dicke", "--sinc", value, "--steps", "5"]) == code
        err = capsys.readouterr().err
        if code:
            assert "reachable range [-0.21723362821122166, 1]" in err

    @pytest.mark.parametrize("argv", [
        ["--N", "6", "--sinc", "-0.21", "--tmax", "2.5"],
        ["--N", "6", "--qd", "4.4934", "--tmax", "2.5"],
        ["--N", "6", "--sinc", "-0.21", "--tmax", "2.5", "--numeric"],
    ], ids=" ".join)
    def test_factor_below_the_psd_floor_exit_code(self, argv, capsys):
        # the uniform matrix has the eigenvalue 1 + (N-1) s; at N = 6 these
        # factors gave pe_analytic up to 1.1028 and 1.1913
        assert main(["dicke", *argv]) == 2
        assert "s >= -1/(N-1) = -0.2 for N = 6" in capsys.readouterr().err

    def test_factor_at_the_psd_floor_is_accepted(self, capsys):
        # the matrix is singular there, not negative
        assert main(["dicke", "--N", "6", "--sinc", "-0.2", "--tmax", "5"]) == 0

    def test_analytic_route_never_builds_the_matrix(self, monkeypatch, capsys):
        # the floor is checked in closed form, so the run stays O(steps) at any N
        def refuse(*args):
            raise AssertionError("the analytic route built the collective matrix")
        monkeypatch.setattr(cli.CollectiveRateMatrix, "from_factor", refuse)
        assert main(["dicke", "--N", "100000", "--steps", "5"]) == 0

    def test_sinc_help_states_the_range(self):
        assert cli._HELP["sinc"] == ("collective coupling factor in "
                                     "[-0.21723362821122166, 1], at least -1/(N-1)")

    def test_range_validation(self):
        with pytest.raises(ConfigError, match=r"Lorentzian needs gamma0 > 0, got gamma0=-1\.0"):
            parse_config(["dynamics-diss", "--gamma0", "-1"])
        with pytest.raises(ConfigError, match="steps"):
            parse_config(["dynamics-diss", "--steps", "0"])
        with pytest.raises(ConfigError, match="sinc"):
            parse_config(["dicke", "--sinc", "-0.5"])
        with pytest.raises(ConfigError, match="sinc"):
            parse_config(["dicke", "--sinc", "1.0001"])
        with pytest.raises(ConfigError, match="not both"):
            parse_config(["dicke", "--sinc", "0.2", "--qd", "1.0"])
        with pytest.raises(ConfigError, match="n must satisfy"):
            parse_config(["dicke", "--N", "2", "--n", "3"])
        for argv in (["dynamics-deph", "--eta", "0"],
                     ["nonmarkov", "--model", "deph", "--eta", "0"],
                     ["filter", "--spectral", "ohmic", "--eta", "0"]):
            with pytest.raises(ConfigError, match=r"Ohmic needs eta > 0, got eta=0\.0"):
                parse_config(argv)

    def test_file_value_outside_choices_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"spectral": "ohmic"}))
        with pytest.raises(ConfigError, match="spectral must be one of lorentzian"):
            parse_config(["dynamics-diss", "--config", str(path)])

    @pytest.mark.parametrize("config_text, message", [
        ('{"recipe": "fig9"}', "recipe must be one of"),
        ('{"out": 5}', "'out' must be a string"),
        ('{"tmax": null}', "'tmax' must be a number"),
        ('{"N": true}', "'N' must be an integer"),
    ], ids=["recipe-unknown", "out-integer", "tmax-null", "N-bool"])
    def test_file_value_of_wrong_type_rejected(self, config_text, message, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(config_text)
        with pytest.raises(ConfigError, match=message):
            parse_config(["dicke", "--config", str(path)])

    def test_file_integer_for_float_key_is_kept(self, tmp_path):
        # no int -> float conversion: it would change the metadata bytes
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"tmax": 2}))
        cfg = parse_config(["dicke", "--config", str(path)])
        assert type(cfg.params["tmax"]) is int

    def test_parser_is_shared_and_configs_independent(self):
        assert cli._build_parser() is cli._build_parser()
        first = parse_config(["dynamics-deph", "--temperature", "0.5", "--steps", "10"])
        second = parse_config(["dicke", "--numeric", "--format", "json"])
        assert first.scenario == "dynamics-deph" and second.scenario == "dicke"
        assert first.params["temperature"] == 0.5 and first.params["steps"] == 10
        assert first.fmt == "csv" and second.fmt == "json"
        assert second.params["numeric"] is True and second.params["steps"] == 500
        assert "numeric" not in first.params and "temperature" not in second.params
        assert parse_config(["dynamics-deph"]).params["temperature"] == 0.0

    def test_run_config_builds_its_inputs_from_its_params(self):
        config = parse_config(["filter", "--spectral", "lorentzian"])
        direct = RunConfig("filter", dict(config.params))
        assert emit(run(direct)) == emit(run(config))
        changed = dataclasses.replace(config, params={**config.params, "lam": 0.25})
        assert changed.inputs["lorentzian"].lam == 0.25
        with pytest.raises(ConfigError, match="Lorentzian needs lam > 0, got lam=-1.0"):
            dataclasses.replace(config, params={**config.params, "lam": -1.0})
        with pytest.raises(TypeError):
            RunConfig("filter", dict(config.params), inputs={})

    def test_each_subcommand_takes_exactly_its_declared_keys(self):
        common = {"config", "out", "format"}
        with_recipes = {"filter", "dicke", "nonmarkov"}
        sub = next(a for a in cli._build_parser()._actions if a.dest == "scenario")
        total = 0
        for scenario, parser in sub.choices.items():
            dests = {a.dest for a in parser._actions if a.dest != "help"}
            recipe = {"recipe"} if scenario in with_recipes else set()
            assert dests == set(cli._SCENARIO_DEFAULTS[scenario]) | common | recipe
            total += len(dests)
        assert set(sub.choices) == set(cli._SCENARIO_DEFAULTS)
        assert total == 81


class TestRun:
    def test_filter_recipe_columns_and_time_choice(self):
        cfg = parse_config(["filter", "--recipe", "fig2", "--omega-points", "101"])
        table = run(cfg)
        assert table.columns == ("omega", "j", "f_N1", "f_N4", "f_N8",
                                 "f_tilde_N1", "f_tilde_N4", "f_tilde_N8")
        # the time convention is resolved explicitly, never silently
        assert table.metadata["omega_q_t"] == pytest.approx(5.0)
        w = table.values[:, 0]
        # superposed filters share their peak location; scaled widths differ
        for col in (2, 3, 4):
            assert w[np.argmax(table.values[:, col])] == pytest.approx(1.0, abs=0.02)

    def test_collective_recipe_columns_and_orderings(self):
        cfg = parse_config(["dicke", "--recipe", "fig3", "--steps", "100"])
        table = run(cfg)
        assert table.columns == ("gamma0_t", "pe_N3_n0", "pe_N3_n1",
                                 "exp_gamma_plus", "exp_gamma_minus", "exp_gamma0")
        x, pe0, pe1 = table.values[:, 0], table.values[:, 1], table.values[:, 2]
        assert table.values[0, 1] == pytest.approx(1.0, abs=1e-12)
        # enhanced-decay branch sits below the fast reference everywhere
        assert np.all(pe1[1:] < table.values[1:, 3])

    def test_trace_distance_recipe_with_trapping(self):
        cfg = parse_config(["nonmarkov", "--recipe", "fig4c", "--steps", "200"])
        table = run(cfg)
        assert table.columns == ("t", "d_N1_n0", "d_N3_n0", "d_N3_n1")
        d_single, d_enh = table.values[:, 1], table.values[:, 2]
        # coherence trapping: strictly positive limits, tail flat to < 1e-4
        assert d_single[-1] > 0.06 and d_enh[-1] > 0.35
        assert table.metadata["plateau_variation"] < 1e-4

    def test_sudden_death_landmark(self):
        cfg = parse_config(["nonmarkov", "--recipe", "fig4b", "--steps", "60"])
        table = run(cfg)
        root = table.metadata["sudden_death_time"]
        assert root == pytest.approx(np.sqrt(19.0 / 8.0), rel=1e-9)
        # the (3,1) distance column touches zero at the root
        k = np.searchsorted(table.values[:, 0], root)
        assert table.values[k - 1 : k + 1, 3].min() < 2e-2

    def test_divisibility_metadata(self):
        cfg = parse_config(["nonmarkov", "--tmax", "20", "--steps", "2000"])
        table = run(cfg)
        assert table.metadata["g_route"] == "lorentzian_closed_form"
        assert table.metadata["cp_divisible"] is True or "first_violation_time" in table.metadata
        cfg = parse_config(["nonmarkov", "--lambda", "4", "--omega-q", "400",
                            "--tmax", "10", "--steps", "1000"])
        assert run(cfg).metadata["cp_divisible"] is True

    def test_collective_numeric_column_matches_analytic(self):
        cfg = parse_config(["dicke", "--N", "2", "--n", "0", "--numeric",
                            "--tmax", "2", "--steps", "2000"])
        table = run(cfg)
        assert table.columns[-1] == "pe_numeric"
        np.testing.assert_allclose(table.values[:, 1], table.values[:, 2], atol=1e-6)

    def test_general_engine_scenario(self):
        cfg = parse_config(["perturbation", "--omega-points", "40"])
        table = run(cfg)
        assert table.metadata["max_rel_deviation"] < 1e-6
        assert table.metadata["decay_factor_overlap"] > 0

    def test_dynamics_scenarios_start_at_identity(self):
        table = run(parse_config(["dynamics-diss", "--tmax", "2", "--steps", "50"]))
        assert table.values[0, 1] == 1.0   # |G(0)|
        assert table.values[0, 2] == 1.0   # survival
        assert table.values[0, 3] == 0.0   # decay factor
        table = run(parse_config(["dynamics-deph", "--tmax", "1", "--steps", "20"]))
        assert table.values[0, 2] == 1.0 and table.values[0, 3] == 1.0

    def test_cold_bath_table_emits_no_warning(self):
        # omega / T runs far past the float64 overflow of expm1 at this temperature
        cfg = parse_config(["dynamics-deph", "--temperature", "0.05",
                            "--tmax", "4", "--steps", "10"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = run(cfg)
        assert np.all(np.isfinite(table.values))

    def test_sharp_ohmic_cutoff_filter_emits_no_warning(self):
        # e^{-omega/omega_c} overflows on the negative grid frequencies
        cfg = parse_config(["filter", "--spectral", "ohmic", "--omega-c", "0.001"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = run(cfg)
        assert np.all(table.values[table.values[:, 0] <= 0, 1] == 0.0)

    def test_denormal_temperature_table_emits_no_warning(self):
        # omega / 2T overflows float64 unless omega is capped before dividing
        cfg = parse_config(["dynamics-deph", "--temperature", "1e-320",
                            "--tmax", "10", "--steps", "2"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = run(cfg)
        assert np.all(np.isfinite(table.values))

    def test_error_carries_scenario_context(self):
        cfg = parse_config(["dicke", "--sinc", "0.99", "--numeric", "--steps", "3", "--tmax", "5"])
        with pytest.raises(NumericError, match=r"\[dicke\] RK4 error bound"):
            run(cfg)

    def test_deterministic_bytes(self):
        argv = ["dicke", "--recipe", "fig3", "--steps", "50"]
        a = emit(run(parse_config(argv)), "csv")
        b = emit(run(parse_config(argv)), "csv")
        assert a == b


# the floats every row format must spell as the oracle does: signed zeros,
# subnormals, the non-finite values and the float range's ends
_SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3.0,
                   2.2250738585072014e-308, math.inf, -math.inf, math.nan,
                   1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2, 1e16, 1e-5)
_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\,\n=#é∞')), max_size=12)
_METADATA = st.dictionaries(_TEXT, st.one_of(st.booleans(), st.integers(-10**20, 10**20),
                                             st.floats(), st.sampled_from(_SPECIAL_FLOATS),
                                             _TEXT), max_size=6)


@st.composite
def _tables(draw):
    """Every shape ResultTable admits: (rows, width) with width = len(columns), or
    no values at all (zero rows, or zero width) under any columns."""
    columns = draw(st.lists(_TEXT, max_size=8))
    # one table in four has no rows, and one in four of the others no width
    rows = draw(st.integers(1, 300)) if draw(st.integers(0, 3)) else 0
    if rows:
        width = len(columns) if draw(st.integers(0, 3)) else 0
    else:
        width = draw(st.integers(0, 8))
    # the drawn specials, random bit patterns (every float class) and normal draws
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specials = np.array(draw(st.lists(st.sampled_from(_SPECIAL_FLOATS) | st.floats(),
                                      min_size=1, max_size=12)))
    pick = rng.integers(0, 3, (rows, width))
    values = np.where(pick == 0, specials[rng.integers(0, specials.size, (rows, width))],
                      np.where(pick == 1, rng.integers(0, 2**64, (rows, width), dtype=np.uint64)
                               .view(float), rng.standard_normal((rows, width))))
    return ResultTable(columns, values, draw(_METADATA))


_TABLES = _tables()


class TestEmit:
    def _small_table(self):
        return ResultTable(("x", "y"), np.array([[0.1, 1.0 / 3.0]]),
                           {"tool": "zenotraj", "alpha": 0.30000000000000004})

    def test_csv_format_details(self):
        text = emit(self._small_table(), "csv")
        lines = text.splitlines()
        assert lines[-2] == "x,y"
        x_str, y_str = lines[-1].split(",")
        assert "." in y_str and "," not in y_str
        assert float(y_str) == 1.0 / 3.0  # 17 significant digits round-trip
        assert "# alpha=0.30000000000000004" in lines

    def test_empty_table_is_header_only(self):
        table = ResultTable(("a", "b"), np.empty((0, 2)), {"k": 1})
        text = emit(table, "csv")
        assert text.splitlines()[-1] == "a,b"

    def test_json_round_trip_bit_exact(self):
        table = ResultTable(("x",), np.array([[np.pi], [1e-17], [0.1 + 0.2]]),
                            {"tool": "zenotraj"})
        payload = json.loads(emit(table, "json"))
        assert payload["rows"] == table.values.tolist()
        assert payload["columns"] == ["x"]
        assert payload["metadata"]["tool"] == "zenotraj"

    def test_rows_match_numpy_float_formatting(self):
        # the rows are formatted from Python floats; numpy float64 scalars,
        # as in row iteration over the array, must give the same bytes
        tiny = np.finfo(float).tiny
        special = [0.0, -0.0, 5e-324, -5e-324, 0.5 * tiny, tiny, np.inf, -np.inf, np.nan,
                   1e300, -1.0 / 3.0, 2.0 ** 53 + 2.0, 0.1 + 0.2]
        rng = np.random.default_rng(3)
        randoms = rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)
        values = np.concatenate([special, randoms]).reshape(-1, 1)
        table = ResultTable(("x",), values, {"tool": "zenotraj"})
        rows = emit(table, "csv").splitlines()[-len(values):]
        assert rows == [f"{v:.17g}" for v in table.values[:, 0]]
        payload = {"metadata": table.metadata, "columns": ["x"],
                   "rows": [list(map(float, row)) for row in table.values]}
        assert emit(table, "json") == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=_TABLES, to_file=st.booleans())
    def test_bytes_match_the_oracle(self, fmt, table, to_file, tmp_path):
        # whole-table formats against the per-value formatting they replace
        if to_file:
            path, oracle_path = tmp_path / "emit.out", tmp_path / "oracle.out"
            text = emit(table, fmt, str(path))
            want = emit_oracle.emit(table, fmt, str(oracle_path))
            assert path.read_bytes() == oracle_path.read_bytes()
        else:
            text, want = emit(table, fmt), emit_oracle.emit(table, fmt)
        assert text == want

    def test_writes_file(self, tmp_path):
        path = tmp_path / "out.csv"
        text = emit(self._small_table(), "csv", str(path))
        assert path.read_text(encoding="utf-8") == text

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError):
            emit(self._small_table(), "yaml")


class TestMain:
    def test_success_exit_code_and_stdout(self, capsys, tmp_path):
        code = main(["dicke", "--N", "3", "--n", "0", "--sinc", "0.1667",
                     "--gamma0", "0.01", "--tmax", "5", "--steps", "10"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "gamma0_t,pe_analytic" in lines
        assert sum(1 for ln in lines if not ln.startswith("#")) == 12  # header + rows

    def test_out_flag_writes_file(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        code = main(["dicke", "--steps", "5", "--tmax", "1", "--format", "json",
                     "--out", str(path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(path.read_text())["metadata"]["scenario"] == "dicke"

    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_unwritable_out_path_is_a_config_error(self, where, tmp_path, capsys):
        # a missing parent directory or a directory in the file's place
        path = tmp_path / "missing" / "table.csv" if where == "missing-dir" else tmp_path
        assert main(["dicke", "--steps", "5", "--tmax", "1", "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("zenotraj: configuration error: cannot write output file: ")
        assert str(path) in err[0]

    def test_config_error_exit_code(self, capsys):
        assert main(["dicke", "--N", "4", "--n", "2"]) == 2
        assert "null" in capsys.readouterr().err

    def test_profile_subcommands(self):
        assert PROFILE_SCENARIOS == ["filter", "dynamics-diss", "dynamics-deph", "dicke",
                                     "perturbation"]

    @pytest.mark.parametrize("scenario", PROFILE_SCENARIOS)
    @pytest.mark.parametrize("n_paths, n_shifts, message", [
        ("4", "2", "one obtains a null result"),
        ("2", "3", "n must satisfy 0 <= n <= N"),
        ("0", "0", "N must be a positive integer"),
    ], ids=["dark-port", "n-above-N", "no-path"])
    def test_profile_refusal_exit_code(self, scenario, n_paths, n_shifts, message, capsys):
        # the library's path-range and dark-port refusals, as configuration errors
        assert main([scenario, "--N", n_paths, "--n", n_shifts]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code, message", OWNED_BOUNDS,
                             ids=[" ".join(case[0]) for case in OWNED_BOUNDS])
    def test_owned_bound_exit_code(self, argv, code, message, capsys):
        # each bound is checked at parse time by the library object that owns it
        assert main(argv) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["dynamics-deph", "--tmax", "2.5e16", "--steps", "3"],
        ["nonmarkov", "--model", "deph", "--omega-c", "1.35e16", "--steps", "3"],
        ["dynamics-deph", "--omega-c", "8.3e296", "--tmax", "8.3e296", "--steps", "3"],
    ], ids=" ".join)
    @pytest.mark.filterwarnings("error")
    def test_oversized_half_period_count_exit_code(self, argv, capsys):
        # the panel edges would need exabytes, or an infinite count of half-periods
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "half-periods at t = " in err and "exceed the size budget of 1,073,741,824" in err
        assert err.endswith("; shrink --tmax or --omega-c\n")

    @pytest.mark.parametrize("argv, config_text, code, message", RECIPE_EXITS,
                             ids=[" ".join(case[0] + [case[1] or ""]) for case in RECIPE_EXITS])
    def test_recipe_and_choice_exit_code(self, argv, config_text, code, message, tmp_path,
                                         monkeypatch, capsys):
        def refuse(config):
            raise AssertionError("a refused configuration was run")

        if config_text is not None:
            path = tmp_path / "run.json"
            path.write_text(config_text)
            argv = argv + ["--config", str(path)]
        if code:
            monkeypatch.setattr(cli, "run", refuse)
        try:
            result = main(argv)
        except SystemExit as exc:  # argparse refuses the flag
            result = exc.code
        assert result == code
        assert message in capsys.readouterr().err

    def test_numeric_error_exit_code(self, capsys):
        code = main(["dynamics-deph", "--s", "0.5", "--temperature", "0.5",
                     "--tmax", "1", "--steps", "5"])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_oversized_perturbation_mesh_exit_code(self, capsys):
        # 42,250,000 mesh nodes would need about 6.6 GB
        assert main(["perturbation", "--t", "20"]) == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err and "42,250,000 (t1, t2) mesh nodes" in err
        assert err.endswith("; shrink --t or --lambda or --omega-q\n")

    @pytest.mark.parametrize("n_paths", [
        numerics._SIZE_BUDGET // core._PATH_BYTES + 1, 2**31, 2**62])
    def test_phase_vector_past_the_budget_exit_code(self, n_paths, capsys):
        # perturbation's phase vector is built, and its path count checked, at parse
        # time; the refusal names its scenario, as a refusal at run time does
        argv = ["perturbation", "--N", str(n_paths), "--n", "0", "--omega-points", "3"]
        with pytest.raises(NumericError, match=rf"^\[perturbation\] {n_paths:,} phase-vector paths"):
            parse_config(argv)
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"zenotraj: numeric failure: [perturbation] {n_paths:,} phase-vector paths, 72 bytes "
            "each, exceed the size budget of 1,073,741,824 bytes; shrink --N\n")

    @pytest.mark.parametrize("argv, key", [
        ([scenario, "--steps", "2000000000"], "--steps")
        for scenario in ("dicke", "dynamics-deph", "dynamics-diss", "nonmarkov")
    ] + [([scenario, "--omega-points", "2000000000"], "--omega-points")
         for scenario in ("filter", "perturbation")],
        ids=lambda value: " ".join(value) if isinstance(value, list) else value)
    def test_oversized_table_exit_code(self, argv, key, capsys):
        # a table of 2,000,000,000 rows is refused at parse time, before any
        # row is allocated (dicke asked for about 96 GB), under its scenario's name
        cli._build_parser()  # the parser is built outside the bound
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and peak < 1e6
        rows = "2,000,000,001" if key == "--steps" else "2,000,000,000"
        assert capsys.readouterr().err == (
            f"zenotraj: numeric failure: [{argv[0]}] {rows} table rows, 640 bytes each, "
            f"exceed the size budget of 1,073,741,824 bytes; shrink {key}\n")

    def test_no_closed_form_point_exit_code(self, capsys):
        # every |f_closed_form| is below 1e-300, so max_rel_deviation compares nothing
        assert main(["perturbation", "--t", "1e-151", "--omega-points", "3"]) == 3
        assert "max_rel_deviation has no point" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, digest", [
        (["filter", "--omega-points", "3", "--omega-min=-1e300", "--omega-max", "1e300"],
         "e5330f6e4d014cd702070b75c8144a7dc3f79b5a1384a70a7c5b82a17b9e2707"),
    ], ids=["filter"])
    @pytest.mark.filterwarnings("error")
    def test_extreme_finite_frequencies_are_silent(self, argv, digest, capsys):
        # sinc's series term and the Gaussian square overflow no more; the bytes stay
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("window, nodes", [
        (["--omega-min", "1900", "--omega-max", "2000"], "10,176,100"),
        (["--omega-min", "5000", "--omega-max", "6000"], "91,393,600"),
        (["--omega-min=-1e300", "--omega-max", "1e300"], "inf"),
        (["--t", "0.01", "--omega-min", "1e200", "--omega-max", "1e200"], "inf"),
    ], ids=" ".join)
    @pytest.mark.filterwarnings("error")
    def test_frequency_past_the_mesh_exit_code(self, window, nodes, capsys):
        # the contraction at omega oscillates at omega_q + |omega|, past what a mesh
        # sized from J's omega_max = 101 resolves: the mesh grows to the window
        # instead, up to the size budget (these exited 0 with f_general off by up
        # to 85 %); the window sets the mesh, so the refusal names its bounds
        assert main(["perturbation", "--omega-points", "3", *window]) == 3
        assert (f"{nodes} (t1, t2) mesh nodes, 157 bytes each, exceed the size budget of "
                "1,073,741,824 bytes; shrink --t or --omega-min or --omega-max\n"
                in capsys.readouterr().err)

    def test_frequency_past_the_support_is_resolved(self, capsys):
        # 200-300 lies past J's omega_max = 101 and within the size budget
        argv = ["perturbation", "--omega-min", "200", "--omega-max", "300",
                "--omega-points", "3"]
        table = run(parse_config(argv))
        assert table.metadata["max_rel_deviation"] < 5e-12
        assert main(argv) == 0

    @pytest.mark.parametrize("argv", [
        ["filter", "--spectral", "lorentzian", "--lambda", "1e300"],
        ["dynamics-diss", "--lambda", "1e300", "--steps", "3"],
        ["nonmarkov", "--model", "diss", "--lambda", "1e300", "--steps", "3"],
    ], ids=" ".join)
    def test_lorentzian_width_past_float_range_exit_code(self, argv, capsys):
        # lambda^2 is past float range: J is not finite (a traceback before)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(argv) == 3
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("n_paths, entries", [
        ("1000", "2,004,000,000"), ("100000", "20,040,000,000,000")])
    def test_oversized_state_history_exit_code(self, n_paths, entries, capsys):
        # (steps + 1) (2N)^2 complex entries, refused before any matrix is built
        # (--N 1000 would ask for about 32 GB, --N 100000 for 80 GB of rate matrix)
        argv = ["dicke", "--numeric", "--N", n_paths]
        parse_config(argv)  # the parser is built outside the bound
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and peak < 1e6
        assert (f"{entries} state-history entries, 21 bytes each, exceed the size budget of "
                "1,073,741,824 bytes; shrink --steps or --N\n" in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["perturbation", "--t", "1e308"],
        ["perturbation", "--lambda", "1e307"],
        ["perturbation", "--omega-q", "1e308", "--omega-points", "5"],
    ], ids=" ".join)
    def test_mesh_count_past_float_range_exit_code(self, argv, capsys):
        # the panel count is inf: refused past the size budget, not converted to an integer
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err and "inf (t1, t2) mesh nodes" in err

    @pytest.mark.parametrize("argv", [
        ["dynamics-deph", "--s", "50", "--tmax", "1", "--steps", "2"],
        ["nonmarkov", "--model", "deph", "--s", "50", "--tmax", "1", "--steps", "2"],
    ], ids=" ".join)
    def test_underflowing_coherence_exit_code(self, argv, capsys):
        # Gamma_T is so large that exp(-Gamma_T) underflows to 0
        assert main(argv) == 3
        assert "underflows" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config_text", [
        (["dicke", "--gamma0", "nan"], None),
        (["filter", "--t", "nan"], None),
        (["dicke", "--tmax", "inf"], None),
        (["filter"], '{"omega_q": NaN}'),
        # integers too large for a float
        (["dicke", "--N=1" + "0" * 400], None),
        (["dynamics-diss"], '{"gamma0": 1' + "0" * 400 + "}"),
    ], ids=["flag-gamma0-nan", "flag-t-nan", "flag-tmax-inf", "file-omega_q-nan",
            "flag-N-1e400", "file-gamma0-1e400"])
    def test_non_finite_input_exit_code(self, argv, config_text, tmp_path, capsys):
        if config_text is not None:
            path = tmp_path / "run.json"
            path.write_text(config_text)
            argv = argv + ["--config", str(path)]
        assert main(argv) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("config_text, message", [
        ('{"steps": "10"}', "'steps' must be an integer"),
        ('{"steps": 2.5}', "'steps' must be an integer"),
        ('{"numeric": 1}', "'numeric' must be true or false"),
        # past Python's digit limit for converting a string to an integer
        ('{"tmax": 1' + "0" * 5000 + "}", "config file is not valid JSON: Exceeds the limit"),
    ], ids=["steps-string", "steps-float", "numeric-integer", "tmax-5001-digits"])
    def test_config_file_value_type_exit_code(self, config_text, message, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(config_text)
        assert main(["dicke", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_unstable_rk4_step_exit_code(self, capsys):
        # gamma0*dt = 50/3 is far beyond RK4's real-axis stability limit
        code = main(["dicke", "--sinc", "0.99", "--numeric", "--steps", "3", "--tmax", "50"])
        assert code == 3
        assert "stability limit" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        [scenario, flag, "1"] for scenario, flags in UNREAD_FLAGS.items() for flag in flags
    ], ids=" ".join)
    def test_unread_flag_exit_code(self, argv, capsys):
        # a flag the run would not read is refused instead of stamped on the table
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage: zenotraj" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["dynamics-diss", "--tmax", "1", "--steps", "10"],
        ["nonmarkov", "--model", "diss", "--lambda", "1", "--omega-q", "1",
         "--tmax", "1", "--steps", "10"],
    ], ids=" ".join)
    def test_growing_decay_amplitude_exit_code(self, argv, monkeypatch, capsys):
        # a stand-in Volterra solution whose |G| grows past 1 + 1e-9 is
        # refused by the library route that builds G's series, not emitted
        def growing(samples, grid):
            return np.exp(0.01 * grid.times).astype(complex)

        monkeypatch.setattr(dissipative, "solve_volterra", growing)
        assert main(argv) == 3
        assert "volterra series leaves [0.0, 1.000000001] at t = 0.1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["dynamics-diss", "--lambda", "0.01", "--tmax", "1", "--steps", "10"],
        ["nonmarkov", "--model", "diss", "--tmax", "1", "--steps", "10"],
    ], ids=" ".join)
    def test_growing_closed_form_amplitude_exit_code(self, argv, monkeypatch, capsys):
        # the closed-form route (lambda <= 0.02 omega_q) builds a checked series too
        def growing(gamma0, lam, t):
            return np.exp(0.01 * t).astype(complex)

        monkeypatch.setattr(dissipative, "decay_amplitude_lorentzian_closed", growing)
        assert main(argv) == 3
        assert ("lorentzian_closed_form series leaves [0.0, 1.000000001] at t = 0.1"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["value", "metadata"])
    def test_non_finite_result_exit_code(self, where, bad, monkeypatch, capsys):
        # a stand-in runner whose table carries one non-finite number
        def runner(config):
            values = np.zeros((3, 2))
            metadata = {"scenario": config.scenario, "count": 3, "plateau": 0.5}
            if where == "value":
                values[1, 1] = bad
            else:
                metadata["plateau"] = bad
            return ResultTable(("t", "gamma"), values, metadata)

        monkeypatch.setitem(cli._RUNNERS, "dynamics-deph", runner)
        with pytest.raises(NumericError, match="gamma" if where == "value" else "plateau"):
            run(parse_config(["dynamics-deph"]))
        assert main(["dynamics-deph"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "result is not finite" in err

    def test_finite_result_passes_the_gate(self, monkeypatch, capsys):
        def runner(config):
            return ResultTable(("t", "gamma"), np.array([[0.0, -0.0], [1e-320, 1e308]]),
                               {"scenario": config.scenario, "x": 1.5, "n": True})

        monkeypatch.setitem(cli._RUNNERS, "dynamics-deph", runner)
        assert main(["dynamics-deph"]) == 0
        assert capsys.readouterr().out.endswith("t,gamma\n0,-0\n9.9998886718268301e-321,1e+308\n")

    def test_large_power_ohmic_exit_code(self, capsys):
        # w^170 overflows a float past w = 65 < omega_max = 500, while J itself
        # stays below 1e-31 there: the table is emitted, with no warning
        argv = ["dynamics-deph", "--s", "170", "--eta", "1e-300", "--omega-c", "10",
                "--tmax", "0.1", "--steps", "2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        gamma = [float(row.split(",")[1]) for row in out.splitlines()[-3:]]
        assert gamma[0] == 0.0 and 0.0 < gamma[1] < gamma[2] < 1e-30

    def test_coarse_rk4_grid_exit_code(self, capsys):
        # gamma0*dt = 5/3 is stable but far too coarse: pe_numeric 0.27 vs 0.19
        code = main(["dicke", "--sinc", "0.99", "--numeric", "--steps", "3", "--tmax", "5"])
        assert code == 3
        assert "RK4 error bound 0.0832" in capsys.readouterr().err

    # the coarsest grid of the threshold sweep that is still accepted, and the
    # largest deviation a random scan found, 1.99 times _RK4_ERROR_TOL at s = SINC_MIN
    @pytest.mark.parametrize("argv", [
        ["dicke", "--N", "4", "--sinc", "-0.2", "--numeric", "--steps", "50"],
        ["dicke", "--numeric", "--N", "4", "--n", "0", f"--sinc={SINC_MIN!r}",
         "--gamma0", "0.07687233874570298", "--tmax", "10.425390573038149", "--steps", "100"],
    ], ids=["threshold", "sinc-min"])
    def test_accepted_rk4_grid_meets_cross_oracle(self, argv, capsys):
        assert main(argv) == 0
        table = run(parse_config(argv))
        assert np.max(np.abs(table.values[:, 1] - table.values[:, 2])) < 1e-6

    def test_default_numeric_grid_is_stable(self, capsys):
        assert main(["dicke", "--numeric"]) == 0
        assert "pe_numeric" in capsys.readouterr().out


def _dicke_numeric_argv(draw):
    """A dicke --numeric argv: N <= 4, a reachable factor by --sinc or --qd, any grid."""
    n_paths = draw(st.integers(1, 4))
    n_shifts = draw(st.sampled_from([n for n in range(n_paths + 1) if 2 * n != n_paths]))
    if draw(st.booleans()):
        lowest = SINC_MIN if n_paths < 2 else max(SINC_MIN, -1.0 / (n_paths - 1))
        factor = f"--sinc={draw(st.floats(lowest, 1.0))!r}"
    else:
        factor = f"--qd={draw(st.floats(0.0, 50.0))!r}"
    gamma0 = 10.0 ** draw(st.floats(-2.0, 2.0))
    return ["dicke", "--numeric", "--N", str(n_paths), "--n", str(n_shifts), factor,
            "--gamma0", repr(gamma0), "--tmax", repr(draw(st.floats(0.01, 20.0))),
            "--steps", str(draw(st.integers(1, 400)))]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_accepted_numeric_column_is_within_its_promise(data):
    """Every dicke --numeric table that is emitted has |pe_numeric - pe_analytic| <= 1e-6,
    the promise of _RK4_ERROR_TOL; a grid the RK4 bounds refuse exits 3 instead."""
    argv = _dicke_numeric_argv(data.draw)
    try:
        table = run(parse_config(argv))
    except NumericError as exc:
        assert "RK4" in str(exc), argv
        return
    assert table.columns == ("gamma0_t", "pe_analytic", "pe_numeric")
    assert np.max(np.abs(table.values[:, 2] - table.values[:, 1])) <= 1e-6, argv


# cheap routes: each subcommand's argv and the keys that hold it on its route;
# a drawn row count is at most 12 or is refused by the size budget
CHEAP_ROUTES = {
    "filter": (["filter", "--omega-points=5"], ()),
    "dicke": (["dicke", "--steps=3"], ("numeric",)),
    "dynamics-deph": (["dynamics-deph", "--steps=3"], ("temperature",)),
    "nonmarkov-deph": (["nonmarkov", "--model=deph", "--steps=3"], ("model", "temperature")),
    "dynamics-diss": (["dynamics-diss", "--lambda=0.01", "--omega-q=1", "--steps=3"],
                      ("lam", "omega_q")),
    # a 2-panel (t1, t2) mesh; gamma0, N, n and the frequency window are drawn
    "perturbation": (["perturbation", "--t=0.01", "--omega-points=3"], ("t", "lam", "omega_q")),
}
_EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
             1.7976931348623157e308, -1.7976931348623157e308, math.nan, math.inf, -math.inf)
_FLOATS = st.one_of(st.sampled_from(_EXTREMES), st.floats(-1e3, 1e3), st.floats())
_INTS = st.one_of(st.integers(-3, 12), st.sampled_from((2**31, 2**62, 10**400)))


@settings(max_examples=600, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_declared_value_exits_with_a_code(data):
    """Finite, non-finite or extreme values of the declared keys exit 0, 2 or 3, never raise;
    an emitted perturbation table has f_general within 1e-6 of f_closed_form's peak."""
    route, held = CHEAP_ROUTES[data.draw(st.sampled_from(sorted(CHEAP_ROUTES)))]
    declared = cli._SCENARIO_DEFAULTS[route[0]]
    keys = data.draw(st.lists(st.sampled_from([k for k in declared if k not in held]),
                              min_size=1, max_size=3, unique=True))
    argv = list(route)
    for key in keys:
        default = declared[key]
        if isinstance(default, tuple):
            value = data.draw(st.sampled_from(default))
        else:
            value = repr(data.draw(_INTS if isinstance(default, int) else _FLOATS))
        argv.append(f"--{cli._FLAGS.get(key, key).replace('_', '-')}={value}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy overflow at extreme inputs
        code = main(argv)
    assert code in (0, 2, 3), argv
    if code == 0 and route[0] == "perturbation":
        rows = np.array([line.split(",") for line in out.getvalue().splitlines()
                         if line[0] not in "#o"], dtype=float)
        general, closed = rows[:, 1], rows[:, 2]
        assert np.max(np.abs(general - closed)) <= 1e-6 * np.max(np.abs(closed)), argv
