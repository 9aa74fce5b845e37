"""Golden bytes: the emitted CSV and JSON tables of fixed runs never change.

Each case pins the SHA-256 digest of ``emit(run(parse_config(argv)), fmt)``.
The cases cover every recipe plus one cheap configuration of every other
code path (power-law filter, RK4 master equation, Volterra memory kernel,
closed-form Lorentzian G, zero- and finite-temperature exponent, dephasing
sudden-death root, second-order engine).  A refactor must leave every
digest unchanged; a deliberate numeric change re-records them with

    PYTHONPATH=src python tests/test_golden.py

and checks the re-recorded tables against the route they replace, as the
dephasing cases below do against the full-integrand QUADPACK oracle and the
perturbation cases against the QUADPACK overlap.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from zenotraj import cli, dephasing
from zenotraj.cli import emit, parse_config, run
from zenotraj.core import GaussianPeak, Lorentzian
from zenotraj.dephasing import DephasingParams, dephasing_exponent
from zenotraj.filters import decay_factor_overlap, filter_deph, filter_diss

from custom_density import SmoothDensity
from dephasing_oracle import oracle_exponent
from overlap_oracle import oracle_overlap

GOLDEN = (
    (["filter", "--recipe", "fig2"],
     "f10bf31e19a4b5d56820836f7ee9e7655d12c1bd42a0516501ed84ac83b8c1fa",
     "6a2b1c6f239a6b57d326649289b783dfd70c54b1f5a3d7c10d35af0a57e51b42"),
    (["dicke", "--recipe", "fig3"],
     "303bfed7c1af4e9ae2535e05c38ced6b2d0fa2114230b5f001d5e4b2639ab2ee",
     "fba327276bad082dde63100fc1f75d39eb92124c61c2b0d6067b50fa136dc156"),
    (["nonmarkov", "--recipe", "fig4a"],
     "0ca93c6dc98ebd7ccb7a6dad2fcebc6eaee8a82961b83b9d2ae7314b8ce88f78",
     "b99cf050f3e8d97c1ca5eaec4706bc6fd8585796431c35febb98bf57cf289b98"),
    # 980 of its 1,000 points on Gauss-Legendre panels; its plateau
    # variation moves at one ulp of the exponent near t = 200
    (["nonmarkov", "--recipe", "fig4c"],
     "478028e3d7e4d1dd4adbf600f576b55bc8d131677dfd745fededb666ee028a21",
     "a712243f1b521f3f773ab94dbb21a84f1483cf15a4e868782eff7ea098d257c1"),
    (["filter", "--spectral", "ohmic"],
     "3811518d8044497a7dfbea79dde875dc53e4907a77b23a4e52b3f280147c3c01",
     "7251c83c3cae9489fd2a5dc07f2035e1e0bf1d41d8dbd12e07d444667367dd97"),
    # the other two filter kinds of the single-filter table
    (["filter", "--kind", "deph"],
     "b3be14718b99cfc85b64606b1b0915c4704ff29437ca1bc147ad52e356514176",
     "0b7fc1885abc5c4d0f41db566b1c453254a9b969d4d2c58ffb1c4b9e2497635a"),
    (["filter", "--kind", "traditional", "--n-tilde", "4"],
     "fa9e1f0001b7bd0c4036d6e474d21e6ce9e0e4f7b905aee2dcd1a6bad4d05b2c",
     "709ef2922f292363d7eec3bb921594b5dfd382f90e567527dea23d57000c8107"),
    (["dicke", "--numeric"],
     "0e87060a0552beec016bb8601fc4b494146b55212ebc327fb886f0b6bfa114bb",
     "c0683d7268f245f81408bf67fb301e99ff09c94ec0f001f345a1ca7a98e21761"),
    # Volterra route: lambda = omega_q, omega_max * t = 40.8
    (["dynamics-diss", "--tmax", "0.8", "--steps", "16"],
     "c0742a088412d18b61bf7af7ef544f5a64995f60aa9701ed741acd808636fd5d",
     "ab509b0be367d3d787c530f06f99c3bb89e9b1466b6d37fec0d8f333b5ffc5d1"),
    (["dynamics-deph", "--temperature", "0.5", "--tmax", "2", "--steps", "20"],
     "983fc5fe4956112befb25e0146985d49602acdc009e48382f353cb3a40cd88c7",
     "034b662d18fa5481dacf578bb9c00c6f972380462ee805f2cb46bfbf1a04864b"),
    # crosses the (3, 1) sudden death near t = 1.54, so the root search runs
    (["nonmarkov", "--model", "deph", "--tmax", "2", "--steps", "10"],
     "a94f5e0a5793f80ed614f7275e75659a480a823f832c7cd9a26dfdb9d4d6554a",
     "1119497a1a2fe88ee5099c943a640bf7070405a7a5f22ae143338f02906e202a"),
    (["perturbation", "--t", "0.2", "--omega-points", "21"],
     "df6174d5c547b8475a176bf97b76c55b326d68312ba431df5a51a04d7cd7d1af",
     "970b83b295ba29541f3e60b60d8a32c79dc0a4d27e8f4705967c0e5acb291713"),
    # the CLI defaults: T = 0, s = 1 and the (3, 1) modified factor
    (["dynamics-deph"],
     "1754ecfead53569c635b4810693e6eb3057e08d586df8b02ba8ff2310ac32101",
     "34f55d9da6694a9f6a5e59e5cc27ba3a6ee5ba6d1706a1bf390295fa826f6fd5"),
    # lambda <= 0.02 omega_q: the closed-form route with the survival columns
    (["dynamics-diss", "--lambda", "0.01"],
     "5f8cb3f3d06ada347ed7518662ae656862f4590cbf0d82a528cbda1f5a743726",
     "19bd8093cb9372c8e8d5f1d16d3a91f31d526a6e88746f9f210864675419234f"),
    (["nonmarkov", "--recipe", "fig4b"],
     "cae25dc8c6b3f80426579aa227edd7e22d1c0bfb3380e0e63f0fc2b477636368",
     "f24f1de18c4ea8d91e19388d777bfac759ae0529bbb505690bf9bd3032e442bd"),
    # Volterra route with the CP-divisibility verdict in the metadata
    (["nonmarkov", "--model", "diss", "--lambda", "1", "--omega-q", "1",
      "--tmax", "0.8", "--steps", "16"],
     "536b1e73450ccc0cde263305010a3c62747da698e2b5fdcbfa3ab1c031f550e9",
     "fc39e51de9edad179f937759a46d90b7221b02260240882a649f3e4f6b619847"),
    # collective factor from the wavenumber-spacing product, RK4 column
    (["dicke", "--numeric", "--N", "4", "--n", "1", "--qd", "2.0"],
     "c50d62e0ff68be7f43cca7a3a74cfba0e2d9f4d581925bbf72a167775b5697ae",
     "3f8fd825841dd8fe2b552392fbcf721eaf460f91fd516a49ad7d5f12f04a224a"),
    # Gauss-Legendre panel branch (omega_max * t > 64 pi): the plateau
    # variation is a difference of nearly equal values, so one ulp moves it
    (["nonmarkov", "--model", "deph", "--s", "4", "--tmax", "40", "--steps", "100"],
     "e46c324b371fb39b364b3b55a5fbf224a9754e77701fd58de312f73367679385",
     "5f22cf16b535f4479fda03187a3744a318bca4c5b5bd2bd73f024ea75838386f"),
    # thermal GL panels at every t > 0 (omega_max * t >= 250 > 64 pi)
    (["dynamics-deph", "--s", "1.7", "--temperature", "0.4", "--tmax", "100", "--steps", "20"],
     "b966a2443fd57bed636c0216963264b1ba06813c97e6d7644cd3d2b5d3387972",
     "cec5e7e3fd8ac0aa29fd4ca5e71b7e3b7b437df33a73ee03141698b8cb7cd7a4"),
    # the CLI default: 201 frequencies on a 17-panel (t1, t2) mesh
    (["perturbation"],
     "f02ef97bdd889df2992e6548ae05390e2fed4503135be886fc6bb92b9f6c2119",
     "5585ee8cb1c04d16fa5d9a66aa3f89bad549699a6a37705270f3a240a85ff845"),
    # 601 frequencies in many row blocks of uneven size (recorded with the
    # contraction as one product over all rows)
    (["perturbation", "--t", "0.2", "--omega-points", "601"],
     "a96a3e3c94eeb15705b7a9581b1ab63d5a6222e58449a6cf466f42e1de0957e6",
     "a59167c69d50b2ce4b654f9b26a072849fc7414bd8f478bde44cff68026a0249"),
    # profiles with n > 0 beyond the (3, 1) defaults: K = (N - 2n)^2 = 1 in
    # the prefactor N/K, the trace distance and R; c = N*R - 1 of (3, 1)
    (["filter", "--kind", "diss", "--N", "5", "--n", "2"],
     "01e3432e0590484920b1d77ce7b6bf3b2e80a9c2ae476104da005631b0ea0147",
     "ef84d6ad45f8e81a79943f5090e0437e90ce9ea7ac16915e97bd75ba5e0c55d1"),
    (["filter", "--kind", "deph", "--N", "3", "--n", "1"],
     "531ea403edc1090101502ffd9977a4f4e9f7c59ec44ff7e06859ace6036c19c3",
     "ea9b62fd54f937f7db29cbe892d048982d20b1d5f21a94a51932019d9a3a418e"),
    (["dynamics-diss", "--lambda", "0.01", "--N", "5", "--n", "2"],
     "05a7085357687a7bee2b22d092b5a08ce0c1e3fe09b7e68d6d853b39163a5251",
     "f6bed410e29e2f32f1811b39c20aa61f3b5f0374aa315ee3170977380b4b558c"),
    (["dicke", "--N", "5", "--n", "2", "--sinc", "0.1"],
     "1315e4a56656d8601d3ab813b6a438b73a7ee950af3767af75245e51707e443d",
     "cfcf03988fe0aa9b69923ab1f623d8e09d866a39c84ec9daf71806daf33d7638"),
    (["perturbation", "--t", "0.2", "--omega-points", "21", "--N", "4", "--n", "1"],
     "64d9db958821a16139f532fe2128d7a97970b4a486412eed5bd47d99cf8d1999",
     "bac2440ff9fa32377723f602cc5b48f45645f04c6a739a5d222a4acb06539b37"),
    # the energy-exchange sweep's strata: the engine on 17- and 9-panel
    # meshes with 101 frequencies, and Volterra tables whose kernel samples
    # J at QUADPACK's float nodes (recorded before the node chunks, the
    # folded c_ab and J's float route)
    (["perturbation", "--gamma0", "2", "--lambda", "1", "--omega-q", "1", "--t", "1",
      "--omega-min", "-2", "--omega-max", "4", "--omega-points", "101", "--N", "3", "--n", "1"],
     "d01f061a064e7b55dbd29cf170650ca6eb07ee277be3c499360343399bede669",
     "a35e232fa89f9677341ec5434a84933a6ac418ccdd12a553d488423a22d70b48"),
    (["perturbation", "--gamma0", "1.5", "--lambda", "1.3", "--omega-q", "0.7", "--t", "0.4",
      "--omega-min", "-2.3", "--omega-max", "3.7", "--omega-points", "101", "--N", "4",
      "--n", "1"],
     "b17d573d5080b4d34741d3e11ef342440fc67b3c9741fea2c223cdc43067661f",
     "ff4f8c98b4120efea1f245f3cd18703300a33396ed31057f5967941ffea8f05b"),
    (["dynamics-diss", "--gamma0", "1.5", "--lambda", "2", "--omega-q", "2", "--tmax", "0.3",
      "--steps", "30", "--N", "5", "--n", "2"],
     "e54bbe135478854e33fb9e8be973e94798b6c4ab0ffccf852c6acf05678cf5c0",
     "b6115b705274fa083761112dfc5a48fc6759d7d450170491ef9e3e8cb9acc421"),
    (["nonmarkov", "--model", "diss", "--gamma0", "0.8", "--lambda", "1.5", "--omega-q", "1.5",
      "--tmax", "0.5", "--steps", "40"],
     "4197965713b32b569590cb3bd80c393f62daca5af5c435358d0df5b47be005b4",
     "e1880e24cb0822909a59c180e3fd8d7eab5b991976e049d87553501048e286f8"),
)


def _digests(argv):
    table = run(parse_config(argv))
    return tuple(hashlib.sha256(emit(table, fmt).encode("utf-8")).hexdigest()
                 for fmt in ("csv", "json"))


@pytest.mark.parametrize("argv, csv_digest, json_digest", GOLDEN,
                         ids=[" ".join(case[0]) for case in GOLDEN])
def test_emitted_bytes_match_recorded_digests(argv, csv_digest, json_digest):
    assert _digests(argv) == (csv_digest, json_digest)


# the dephasing cases on the closed-form routes below the panel switch; the
# Gauss-Legendre cases above carry that branch's known error for non-integer
# s and are held to their bytes only
_DEPH_CASES = [["dynamics-deph", "--temperature", "0.5", "--tmax", "2", "--steps", "20"],
               ["nonmarkov", "--model", "deph", "--tmax", "2", "--steps", "10"]]


@pytest.mark.parametrize("argv", _DEPH_CASES, ids=" ".join)
def test_dephasing_tables_match_quadrature_oracle(argv, monkeypatch):
    table = run(parse_config(argv))
    monkeypatch.setattr(dephasing, "dephasing_exponent", oracle_exponent)
    monkeypatch.setattr(cli, "dephasing_exponent", oracle_exponent)
    oracle = run(parse_config(argv))
    assert table.columns == oracle.columns
    assert table.metadata.keys() == oracle.metadata.keys()
    scale = np.max(np.abs(oracle.values), axis=0)
    assert np.all(np.abs(table.values - oracle.values) <= 1e-12 * scale)
    for key, want in oracle.metadata.items():
        if isinstance(want, float):
            assert table.metadata[key] == pytest.approx(want, rel=1e-12, abs=1e-15)
        else:
            assert table.metadata[key] == want


# The accuracy ledger: sampled rows of three goldens with an independent reference
# for each column and the absolute error the table has there, made by
# tests/reference_oracle.py (30-digit mpmath for the dephasing exponent, the
# Richardson limit of the Volterra solve on the E1 kernel for G).  A change may
# lower an error, re-recording the file; it may not raise one.
LEDGER = json.loads((pathlib.Path(__file__).resolve().parent / "reference_values.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(LEDGER))
def test_sampled_rows_are_no_further_from_the_reference_than_recorded(key):
    record, argv = LEDGER[key], key.split()
    assert argv in [case[0] for case in GOLDEN] and len(record["rows"]) <= 8
    table = run(parse_config(argv))
    rows = record["rows"]
    assert table.values[rows, 0].tolist() == record["t"]
    assert sorted(record["columns"]) == sorted(table.columns[1:])
    for name, column in record["columns"].items():
        got = table.values[rows, table.columns.index(name)]
        want = np.array([float(value) for value in column["reference"]])
        bound = 1.01 * np.array(column["error"]) + 1e-15 * np.max(np.abs(want))
        assert np.all(np.abs(got - want) <= bound), name


# Library routes no table above reaches: the full-integrand QUADPACK route
# of the dephasing exponent for non-Ohmic J (omega_max * t = 2.5 has no
# interior half-period breakpoint, 31.5 has ten) and the filter overlap on
# numerics' frequency rule, pinned as float.hex.  The overlap pins were
# re-recorded when the overlap left QUADPACK; each is within 9.3e-16 of that
# route's value and 5.2e-16 of a 30-digit mpmath.quad reference, and
# test_overlap_pins_match_the_quadpack_route holds them to the former route
# (tests/overlap_oracle.py).  GaussianPeak(4, 0.02) underflows to 0 near
# w = 0, so its thermal integrand stays finite there; a Lorentzian's does not
# (J(0) > 0).  The custom J, a SpectralDensity subclass, vanishes as w^2.
PIN_DENSITIES = {
    "gaussian": GaussianPeak(4.0, 0.02),
    "lorentzian": Lorentzian(1.0, 0.3, 1.5),
    "custom": SmoothDensity(eta=2.0, omega_c=2.0),
}
EXPONENT_PINS = (
    ("gaussian", 0.0, 2.5, "0x1.2fbcc49bbbb38p-4"),
    ("gaussian", 0.0, 31.5, "0x1.dcc5dc830701dp-4"),
    ("gaussian", 0.3, 2.5, "0x1.2fbd0913d91ebp-4"),
    ("gaussian", 0.3, 31.5, "0x1.dcc6495dac09ap-4"),
    ("lorentzian", 0.0, 2.5, "0x1.a09462b82a870p-8"),
    ("lorentzian", 0.0, 31.5, "0x1.dba35b5aae65ap-2"),
    ("custom", 0.0, 2.5, "0x1.745f53c95a103p-7"),
    ("custom", 0.0, 31.5, "0x1.51ef6bf0e5bc1p+0"),
    ("custom", 0.3, 2.5, "0x1.88ca6bdce4b18p-7"),
    ("custom", 0.3, 31.5, "0x1.6ae7db335f744p+0"),
)
# the filter of each kind at t=2, omega_q=1.5, N=3, n=1, with its peak: the
# deph filter's at 0 is an end of the integral, the diss filter's at omega_q
# splits it in two
PIN_FILTERS = {"deph": (lambda w: filter_deph(w, 2.0, 3, 1), 0.0),
               "diss": (lambda w: filter_diss(w, 2.0, 3, 1, 1.5), 1.5)}
OVERLAP_PINS = (
    ("gaussian", "deph", "0x1.b5012f52fb055p-6"),
    ("gaussian", "diss", "0x1.6d06e86365104p-3"),
    ("lorentzian", "deph", "0x1.6e58491e57809p-3"),
    ("lorentzian", "diss", "0x1.79c9d239b11d4p+0"),
    ("custom", "deph", "0x1.c8d039d83e075p+0"),
    ("custom", "diss", "0x1.f2a5e179e9d88p+3"),
)


def _pinned_exponent(name, temperature, phase):
    j = PIN_DENSITIES[name]
    return dephasing_exponent(DephasingParams(j, temperature), phase / j.omega_max).hex()


def _pinned_overlap(name, kind):
    return decay_factor_overlap(PIN_DENSITIES[name], *PIN_FILTERS[kind]).hex()


@pytest.mark.parametrize("name, temperature, phase, want", EXPONENT_PINS,
                         ids=[f"{n}-T{T}-phase{p}" for n, T, p, _ in EXPONENT_PINS])
def test_quadrature_exponent_bits(name, temperature, phase, want):
    assert _pinned_exponent(name, temperature, phase) == want


@pytest.mark.parametrize("name, kind, want", OVERLAP_PINS,
                         ids=[f"{n}-{k}" for n, k, _ in OVERLAP_PINS])
def test_overlap_integral_bits(name, kind, want):
    assert _pinned_overlap(name, kind) == want


# the re-recorded overlap values against the QUADPACK route they replace, at the
# 5e-15 relative that the change from one route to the other was held to
_OVERLAP_MOVE = 5e-15


@pytest.mark.parametrize("name, kind", [case[:2] for case in OVERLAP_PINS],
                         ids=[f"{n}-{k}" for n, k, _ in OVERLAP_PINS])
def test_overlap_pins_match_the_quadpack_route(name, kind):
    want = oracle_overlap(PIN_DENSITIES[name], *PIN_FILTERS[kind])
    assert float.fromhex(_pinned_overlap(name, kind)) == pytest.approx(want, rel=_OVERLAP_MOVE)


_PERTURBATION_CASES = [argv for argv, _, _ in GOLDEN if argv[0] == "perturbation"]


@pytest.mark.parametrize("argv", _PERTURBATION_CASES, ids=" ".join)
def test_perturbation_overlaps_match_the_quadpack_route(argv):
    # the metadata value each perturbation table above carries, from its own J and filter
    config = parse_config(argv)
    p, j = config.params, config.inputs["lorentzian"]
    f = lambda w: filter_diss(w, p["t"], p["N"], p["n"], p["omega_q"])
    want = oracle_overlap(j, f, p["omega_q"])
    assert decay_factor_overlap(j, f, p["omega_q"]) == pytest.approx(want, rel=_OVERLAP_MOVE)


if __name__ == "__main__":
    for argv, _, _ in GOLDEN:
        print(argv, *_digests(argv))
    for name, temperature, phase, _ in EXPONENT_PINS:
        print(name, temperature, phase, _pinned_exponent(name, temperature, phase))
    for name, kind, _ in OVERLAP_PINS:
        print(name, kind, _pinned_overlap(name, kind))
