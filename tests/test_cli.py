"""CLI: reports, exit codes, determinism, parameter parsing."""

import json

import pytest

from markoff_padic import census, certify
from markoff_padic.cli import main, parse_parameter
from markoff_padic.padic import PadicInt


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_census_report(capsys):
    code, rep = _run(capsys, "census", "--p", "7", "--k", "1", "--d", "0")
    assert code == 0
    assert rep["result"]["count"] == 28
    assert rep["schema_version"] == 1
    assert rep["generator_alphabet"][0] == "sx"


def test_certify_exit_codes(capsys):
    code, rep = _run(capsys, "certify", "--p", "5", "--k", "3", "--d", "3")
    assert code == 0 and rep["result"]["overall"]


def test_usage_errors_exit_2(capsys):
    assert main(["census", "--p", "4", "--k", "1"]) == 2
    capsys.readouterr()
    assert main(["census", "--p", "131", "--k", "3"]) == 2  # 131^3 >= 2^21
    assert "int64" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["census"])  # missing --p
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["not-a-command", "--p", "7"])
    capsys.readouterr()


def test_hypothesis_violations_exit_2(capsys):
    # D = 7: neither 0 mod p^2 nor (D-4) a QR, so certify refuses the config
    code = main(["certify", "--p", "7", "--k", "3", "--d", "7"])
    assert code == 2
    # expansions builds its chart on the same admissible parameters
    assert main(["expansions", "--p", "7", "--d", "7"]) == 2
    assert main(["expansions", "--p", "3"]) == 2
    # the companion estimates need p > 3
    assert main(["identities", "--p", "3"]) == 2
    capsys.readouterr()


def test_budget_refusal_exits_2(capsys, monkeypatch):
    # a budget refusal is a usage error, not a stage failure: at p = 7 the
    # level-1 solve of the arbitrary-point base stage refuses, at p = 13 the
    # residual partition of the special-point route does
    monkeypatch.setenv("MARKOFF_PADIC_MAX_MEM", "1K")
    for p, what in (("7", "level-1 solve"), ("13", "residual partition")):
        assert main(["certify", "--p", p, "--k", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "budget" in captured.err and what in captured.err


def test_census_counts_past_the_lift_budget(capsys, monkeypatch):
    # 208 * 13^6 points mod 13^4 are counted from the 208 mod-13 points, with
    # no budget for lifting them; the level-1 solve keeps its budget
    code, rep = _run(capsys, "census", "--p", "13", "--k", "4")
    assert code == 0
    assert rep["result"]["count"] == 208 * 13**6 == 1_003_976_272
    monkeypatch.setenv("MARKOFF_PADIC_MAX_MEM", "1K")
    assert main(["census", "--p", "7", "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "level-1 solve" in captured.err


def test_mathematical_failure_exit_1(capsys, monkeypatch):
    # the true formulas never fail, so fake one failing check to exercise
    # the exit-code path
    from markoff_padic import cli as cli_mod

    def fake_count(p, k, D, workers=1):
        return {
            "count": 0,
            "formula_applicable": True,
            "formula_expected": p * (p - 3),
            "formula_holds": False,
        }

    monkeypatch.setattr(cli_mod.census, "count_points", fake_count)
    code = main(["census", "--p", "7", "--k", "1", "--d", "0"])
    assert code == 1
    capsys.readouterr()


def test_certificate_stage_failure_exit_1(capsys, monkeypatch):
    from markoff_padic import certify

    def no_move(pt, budget=8):
        raise ValueError("no strict move found")

    monkeypatch.setattr(certify, "strict_move_search", no_move)
    code, rep = _run(capsys, "certify", "--p", "13")
    assert code == 1
    assert rep["result"]["stage_failures"] == ["strict-move: no strict move found"]


def test_report_written_to_file_and_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["certify", "--p", "7", "--k", "3", "--d", "0", "--out", str(out1)]) == 0
    assert main(["certify", "--p", "7", "--k", "3", "--d", "0", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_orbits_csv_export(tmp_path, capsys):
    csv_path = tmp_path / "orbits.csv"
    code, rep = _run(
        capsys,
        "orbits",
        "--p",
        "7",
        "--k",
        "1",
        "--d",
        "0",
        "--gens",
        "gamma",
        "--csv",
        str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "orbit,size,x,y,z"
    assert len(lines) == 1 + len(rep["result"]["orbit_sizes"])
    assert rep["result"]["divisibility"] is True


def test_unwritable_paths_exit_2(tmp_path, capsys, monkeypatch):
    # a report or CSV path that cannot be opened is a usage error, not a
    # mathematical failure
    missing = tmp_path / "missing"
    assert main(["orbits", "--p", "5", "--k", "1", "--csv", str(missing / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["census", "--p", "5", "--k", "1", "--out", str(missing / "x.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not missing.exists()

    # the path is refused before the command runs
    def never(*args, **kwargs):
        raise AssertionError("the command ran before its output path was checked")

    monkeypatch.setattr(certify, "certify_minimal_polydisk", never)
    monkeypatch.setattr(census, "orbits", never)
    assert main(["certify", "--p", "47", "--k", "3", "--out", str(missing / "x.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["orbits", "--p", "47", "--k", "2", "--csv", str(missing / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    monkeypatch.undo()

    # a run that exits 2 leaves an existing report as it was and creates none
    kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
    kept.write_text("earlier report\n")
    for out in (kept, fresh):
        assert main(["certify", "--p", "3", "--k", "3", "--out", str(out)]) == 2
    assert kept.read_text() == "earlier report\n" and not fresh.exists()


def test_catalog_command(capsys):
    code, rep = _run(capsys, "catalog", "--p", "11", "--k", "4", "--case", "golden")
    assert code == 0
    sizes = sorted(o["gamma_size"] for o in rep["result"]["orbits"])
    assert sizes == [40, 40, 72]


def test_xd_command(capsys):
    code, rep = _run(capsys, "xd-check", "--p", "7", "--k", "3", "--d", "0")
    assert code == 0 and rep["result"]["found"]


def test_parse_parameter_forms():
    assert parse_parameter("12", 7, 3).residue == 12
    assert parse_parameter("-1", 7, 3).residue == 343 - 1
    v = parse_parameter("3+sqrt(2)", 7, 3)
    assert ((v - 3) * (v - 3)).residue == 2
    g = parse_parameter("(5+sqrt(5))/2", 11, 3)
    assert ((g * 2 - 5) * (g * 2 - 5)).residue == 5
    w = parse_parameter("1+2*sqrt(2)", 7, 2)
    assert ((w - 1) * (w - 1)).residue == 8
    with pytest.raises(ValueError, match="cannot parse"):
        parse_parameter("sqrt", 7, 3)
    with pytest.raises(ValueError, match="no square root"):
        parse_parameter("3+sqrt(5)", 7, 3)


def test_identities_and_flow_and_expansions(capsys):
    code, rep = _run(capsys, "identities", "--p", "5", "--k", "3")
    assert code == 0 and rep["passed"]
    code, rep = _run(capsys, "flow-check", "--p", "5", "--k", "3")
    assert code == 0 and rep["passed"]
    code, rep = _run(capsys, "expansions", "--p", "5", "--k", "3", "--d", "3")
    assert code == 0 and rep["passed"]
