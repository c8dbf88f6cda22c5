"""CLI reports pinned byte for byte by their sha256 digests.

A refactoring must leave every digest in place.  Configs shared with the
benchmark carry the same digests as ``perfbench/goldens.json``.
"""

import contextlib
import hashlib
import io
import json

import pytest

from markoff_padic import chebyshev, polydisk
from markoff_padic.cli import main
from markoff_padic.padic import PadicInt
from markoff_padic.surface import lift_point

GOLDEN = {
    "certify --p 5 --d 3": "537d3e86af8337e5f2944727a56cda0e2c5e6544d2d495b16d76ff886d9406f3",
    "certify --p 7 --k 3 --d 0": "8fb1e14c4c1308c19d5da810e65defe74ea8ef0d97d7fd93f03cc10dc44b3ccc",
    "certify --p 7 --k 3 --d 49": "45074ab7c830dcde43080aab9662b6b915de5186f71c936a4dc20b92c94eacdf",
    "certify --k 3 --p 13": "7e5d5366fb09094cc0436f55b92cc74b10d071e14b9934605e7d71855cf85524",
    "xd-check --p 7 --d 3": "04c9861c87832db103f27ac5bb2a423c51580511dc11806706547bf48b3760b4",
    "xd-check --p 13 --d 1": "36f0733cf3d07ff6d3d554d05d1c68b82ce97a2f7623893111c7c7f11739767e",
    "expansions --p 7": "c9854dc26c0b013ed3d6751fddd88217b8b8bcc27e81815e7416dbe13c5eb354",
    "expansions --p 13": "06898996a755d57fce80061b27f89e571b86b86346e25ecb04d5525619aa8c65",
    "expansions --p 5 --d 3": "1e254b2b788398a2fbe1bf7866310102959d2effd37dec7fe16bba9b43ae523c",
    "orbits --gens aut --p 7 --k 2": "2ffa2601235b54955777e0a6c08070134dc8bb2ce599f7b738e7f8ca7a201912",
    "orbits --gens gamma --d 4 --p 11 --k 2": "d00c7247c27bb685b37cec62bcb2439d6d185dd183bd2a5a6d1874dc1b4b3e1c",
    "census --p 13 --k 2": "1a2ce95b090026e8c9e408802512f11b3462bfbb10946788c130162e5a7bbcf0",
    "catalog --p 7 --k 4 --case D2": "f34a93dc65f48e157a7b15f158309f10e333896ea10441ad66b01fc76673acb7",
    "flow-check --p 7": "9e532d033fdc078e346a4c6cf3a1498d108c97166ea09bc19912b6e48c76a62b",
    "identities --p 7": "95b8c350e2b067d1ee6844ffe5c05da0526eb74a8e42e06cfaba88722cc9f700",
    # charts and certificates past K = 3, where xi and lift_point solve many digits
    "certify --p 13 --k 10": "d7b4e938a5c545a304e32a94d1569bd62ea75f8fec49f967f0beca010b47182f",
    "certify --p 5 --d 3 --k 8": "daba9e9a0bd976c9cbefeb3d9f7dddb08e141852a8803d3f7559ca26b418777c",
    "certify --p 23 --k 9": "1f18c661ed19886bc6b7c3f15663d8f6a6c51ccf13932635950065fa53f0034a",
    "expansions --p 7 --k 8": "11e29fdd3c3280727882fd25b6f15e475a61370116fc16ae4cc95ce8f4e3cc2f",
    "expansions --p 101 --k 6": "a60c9936f531e370ca1cbb2ad25747c5f951c07f86dc689bc4301fca87d6aa5c",
    "xd-check --p 13 --k 6 --d 1": "232afdd0f5390a65895d1f9e3f9550bef046cfb0a3733a1fc0ba35be5a89635c",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_report_matches_golden_digest(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(command.split())
    assert status == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[command]


# sha256 of the --csv files, recorded when every orbit came from the BFS: a
# partition proved transitive still writes its least code as representative
GOLDEN_CSV = {
    "orbits --gens aut --p 7 --k 2": "0f1fab672f44ea5a9f27da05fea76c9d7ed59bc9b02e15009be4c86cf794d3b8",
    "orbits --gens aut --p 7 --k 2 --d 3": "20d4b6133f35a09cfd42b82d62a6cd560b5f16ffaf4ebc713d9bee73d170cbb1",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_CSV))
def test_orbit_csv_matches_golden_digest(command, tmp_path):
    path = tmp_path / "orbits.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*command.split(), "--csv", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CSV[command]


def test_failing_expansion_reports_match_golden_digest(monkeypatch):
    # with T_p's fixed point taken as the identity, the drift terms of an
    # uncentred chart are wrong, so g-and-h and nonpara-f fail: the digest
    # pins their failure verdicts, first failures and sample counts
    monkeypatch.setattr(polydisk, "fixed_point_Tp", lambda x: x)
    chart = polydisk.parametrize(lift_point((1, 4, 1), 0, 7, 4))
    reports = [
        polydisk.verify_stabilizer_expansions(chart, lemma)
        for lemma in ("g-and-h", "nonpara-f")
    ]
    assert not any(r["passed"] for r in reports)
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == "563e9680de20bbe8ca6b2209ad2f98a60c990c1b08c2b1900bb3685a458f4a5c"


def _estimate_reports():
    reports = []
    for p, k in ((13, 4), (31, 5)):
        us = list(range(-p, 2 * p)) + [p**k + 3, -(p**k) - 5]
        for x0 in (0, 1, 2, p - 2, p + 2, p + 5, p**k - 1):
            reports.append(chebyshev.verify_companion_estimates(PadicInt(p, k, x0), us))
    return reports


def test_companion_estimate_reports_match_golden_digest(monkeypatch):
    reports = _estimate_reports()
    assert all(r["passed"] for r in reports)
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == "db6e6d2f5bd475fd4aec4d30080f657098ca23543662f96f39e402b9a8ad98cd"
    # with T_p's fixed point taken as x0 itself, generic samples fail
    monkeypatch.setattr(chebyshev, "fixed_point_Tp", lambda x: x)
    reports = _estimate_reports()
    for key in ("mod_p2", "mod_p3"):
        assert sum(not s[key] for r in reports for s in r["samples"]) == 136
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == "f79114daf7db8abb1e40c5cfd8a72143c6f77ff0280c31365c3a755df9831d3d"
