"""Golden bytes: the emitted CSV and JSON tables of fixed runs never change.

Each case pins the SHA-256 digest of ``emit(run(parse_config(argv)), fmt)``.
The cases cover the fig2, fig3 and fig4a recipes plus one cheap
configuration of every other code path (power-law filter, RK4 master
equation, Volterra memory kernel, finite-temperature exponent, dephasing
sudden-death root, second-order engine).  A refactor must leave every
digest unchanged; a deliberate numeric change re-records them with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib

import pytest

from zenotraj.cli import emit, parse_config, run

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
    (["filter", "--spectral", "ohmic"],
     "3811518d8044497a7dfbea79dde875dc53e4907a77b23a4e52b3f280147c3c01",
     "7251c83c3cae9489fd2a5dc07f2035e1e0bf1d41d8dbd12e07d444667367dd97"),
    (["dicke", "--numeric"],
     "0e87060a0552beec016bb8601fc4b494146b55212ebc327fb886f0b6bfa114bb",
     "c0683d7268f245f81408bf67fb301e99ff09c94ec0f001f345a1ca7a98e21761"),
    # Volterra route: lambda = omega_q, omega_max * t = 40.8
    (["dynamics-diss", "--tmax", "0.8", "--steps", "16"],
     "c0742a088412d18b61bf7af7ef544f5a64995f60aa9701ed741acd808636fd5d",
     "ab509b0be367d3d787c530f06f99c3bb89e9b1466b6d37fec0d8f333b5ffc5d1"),
    (["dynamics-deph", "--temperature", "0.5", "--tmax", "2", "--steps", "20"],
     "25ad0bded98843ebfe802132074f37cd62c7c2964826aafcfb8da7c630265a4f",
     "00d348ccf45ed43946f7327273b7bde4a5f88373c3a82476353e7163c0e09ee1"),
    # crosses the (3, 1) sudden death near t = 1.54, so the root search runs
    (["nonmarkov", "--model", "deph", "--tmax", "2", "--steps", "10"],
     "58ce6387073726f38bba6acc9dc9fe75c9bd841c7c9e349d1628d4e55d388f77",
     "b17b2cfe3dd0fd93b49c356556ceee8f2ce27350b1f0b9cd8b2687ad81304d63"),
    (["perturbation", "--t", "0.2", "--omega-points", "21"],
     "b4c97f95b0f9b5c2567ac959e47b2a607591e52371dbd9b7b76b91c97c4b2454",
     "c7e8df81251a7ffe9baca8145e5732119db4cbe40336c3f8de0dcb87c12a6470"),
)


def _digests(argv):
    table = run(parse_config(argv))
    return tuple(hashlib.sha256(emit(table, fmt).encode("utf-8")).hexdigest()
                 for fmt in ("csv", "json"))


@pytest.mark.parametrize("argv, csv_digest, json_digest", GOLDEN,
                         ids=[" ".join(case[0]) for case in GOLDEN])
def test_emitted_bytes_match_recorded_digests(argv, csv_digest, json_digest):
    assert _digests(argv) == (csv_digest, json_digest)


if __name__ == "__main__":
    for argv, _, _ in GOLDEN:
        print(argv, *_digests(argv))
