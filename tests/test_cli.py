import csv
import io
import json
import math

import pytest

from isodist import (bound_report, cube_diagonal_witness, phi_inv,
                     phi_inv_asymptote, scaled_max_distance, BodyFamily)
from isodist.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_bounds_csv_matches_library(capsys):
    code, out = run(capsys, "bounds", "--family", "ball", "--eps", "0.1,0.01")
    assert code == 0
    rows = csv_rows(out)
    assert [r["epsilon"] for r in rows] == ["0.1", "0.01"]
    for r in rows:
        rep = bound_report(BodyFamily.ball(), float(r["epsilon"]))
        assert float(r["lower"]) == pytest.approx(rep.lower, rel=1e-11)
        assert float(r["upper"]) == pytest.approx(rep.upper, rel=1e-11)
        assert float(r["exact_limit"]) == pytest.approx(rep.exact_limit, rel=1e-11)
        assert r["parametric"] == "false"


def test_repeated_main_calls_share_nothing(capsys):
    # main reuses one parser; each call must still parse from scratch
    first = run(capsys, "bounds", "--family", "cube", "--eps", "0.1", "--eps", "0.2")
    second = run(capsys, "bounds", "--family", "cube", "--eps", "0.3")
    third = run(capsys, "asympt", "--which", "phi-inv", "--eps", "1e-4,1e-8")
    fourth = run(capsys, "bounds", "--family", "ball", "--eps", "0.05")
    assert [code for code, _ in (first, second, third, fourth)] == [0, 0, 0, 0]
    assert [r["epsilon"] for r in csv_rows(first[1])] == ["0.1", "0.2"]
    assert [r["epsilon"] for r in csv_rows(second[1])] == ["0.3"]
    assert [r["epsilon"] for r in csv_rows(fourth[1])] == ["0.05"]
    assert {r["family"] for r in csv_rows(fourth[1])} == {"ball"}
    assert run(capsys, "bounds", "--family", "cube", "--eps", "0.1", "--eps", "0.2") == first
    assert build_parser() is not build_parser()


def test_bounds_repeated_eps_flags(capsys):
    code, out = run(capsys, "bounds", "--family", "cube",
                    "--eps", "0.1", "--eps", "0.25")
    assert code == 0
    assert [r["epsilon"] for r in csv_rows(out)] == ["0.1", "0.25"]


def test_bounds_lp_is_parametric_and_json_mode(capsys):
    code, out = run(capsys, "bounds", "--family", "lp", "--p", "1.5",
                    "--eps", "0.1", "--format", "json")
    assert code == 0
    row = json.loads(out.strip())
    assert row["parametric"] is True
    assert row["family"] == "lp(1.5)"
    assert row["upper"] == pytest.approx(3.0 * (-math.log(0.1)) ** (2.0 / 3.0),
                                         rel=1e-11)


def test_bounds_constants_file_rescales_simplex(capsys, tmp_path):
    path = tmp_path / "consts.txt"
    path.write_text("# fatter isoperimetric constant\nc_lambda = 2.0\n")
    _, base = run(capsys, "bounds", "--family", "simplex", "--eps", "0.1")
    _, scaled = run(capsys, "bounds", "--family", "simplex", "--eps", "0.1",
                    "--constants", str(path))
    up0 = float(csv_rows(base)[0]["upper"])
    up1 = float(csv_rows(scaled)[0]["upper"])
    assert up1 == pytest.approx(up0 / 2.0, rel=1e-11)


def test_bounds_bad_constants_file(capsys, tmp_path):
    path = tmp_path / "consts.txt"
    path.write_text("c_bogus = 3.0\n")
    code, _ = run(capsys, "bounds", "--family", "ball", "--eps", "0.1",
                  "--constants", str(path))
    assert code == 2


def test_bounds_constants_file_rejects_removed_field(capsys, tmp_path):
    path = tmp_path / "consts.txt"
    path.write_text("c_s = 2\n")
    code = main(["bounds", "--family", "ball", "--eps", "0.1",
                 "--constants", str(path)])
    assert code == 2
    assert "unknown constants" in capsys.readouterr().err


def test_csv_values_carry_twelve_significant_digits(capsys):
    _, out = run(capsys, "bounds", "--family", "cube", "--eps", "0.1")
    val = csv_rows(out)[0]["lower"]
    assert val == "%.12g" % bound_report(BodyFamily.cube(), 0.1).lower


def test_witness_row_matches_library(capsys):
    code, out = run(capsys, "witness", "--family", "cube", "--n", "10",
                    "--eps", "0.1", "--format", "json")
    assert code == 0
    row = json.loads(out.strip())
    wit = cube_diagonal_witness(10, 0.1)
    assert row["distance"] == pytest.approx(wit.distance, rel=1e-11)
    assert row["limit_value"] == pytest.approx(wit.limit_value, rel=1e-11)
    assert row["region_a"].startswith("diagonal_slab(side=low")


def test_lattice_verify_agrees(capsys):
    code, out = run(capsys, "lattice", "verify", "--k", "3", "--n", "2",
                    "--r", "2", "--s", "2")
    assert code == 0
    row = csv_rows(out)[0]
    assert row["agree"] == "true"
    assert row["brute_max"] == row["segment_distance"] == "2"
    assert int(row["search_space"]) == math.comb(9, 2) ** 2


def test_lattice_verify_budget_exit_code(capsys):
    code, out = run(capsys, "lattice", "verify", "--k", "2", "--n", "4",
                    "--r", "8", "--s", "8", "--budget", "10")
    assert code == 3
    assert out == ""


def test_lattice_scaling_small_exact(capsys):
    code, out = run(capsys, "lattice", "scaling", "--n", "2", "--m", "10",
                    "--eps", "0.1")
    assert code == 0
    row = csv_rows(out)[0]
    assert float(row["scaled_distance"]) == pytest.approx(
        float(scaled_max_distance(2, 10, 0.1)), rel=1e-11)


def test_sections_rows_and_grid(capsys):
    code, out = run(capsys, "sections", "--p", "2", "--n", "25,100",
                    "--grid", "0.1:0.3:0.1")
    assert code == 0
    rows = csv_rows(out)
    assert [(r["n"], r["x"]) for r in rows] == [
        ("25", "0.1"), ("25", "0.2"), ("25", "0.3"),
        ("100", "0.1"), ("100", "0.2"), ("100", "0.3")]
    for r in rows:
        assert float(r["area"]) > float(r["tail"]) > 0.0
    # larger n hugs the limit curve more closely
    gap25 = abs(float(rows[0]["tail"]) - float(rows[0]["tail_limit"]))
    gap100 = abs(float(rows[3]["tail"]) - float(rows[3]["tail_limit"]))
    assert gap100 < gap25


def test_asympt_reports_library_ratio(capsys):
    code, out = run(capsys, "asympt", "--which", "phi-inv", "--eps", "1e-10",
                    "--format", "json")
    assert code == 0
    row = json.loads(out.strip())
    expected = phi_inv_asymptote(1e-10) / phi_inv(1e-10)
    assert row["ratio"] == pytest.approx(expected, rel=1e-11)
    assert row["actual"] < 0.0 and row["asymptote"] < 0.0


def test_asympt_eps_list(capsys):
    code, out = run(capsys, "asympt", "--which", "psi-inv", "--p", "1",
                    "--eps", "1e-4,1e-6,1e-8")
    assert code == 0
    rows = csv_rows(out)
    ratios = [abs(float(r["ratio"]) - 1.0) for r in rows]
    assert ratios == sorted(ratios, reverse=True)


def test_check_avgdist_passes(capsys):
    code, out = run(capsys, "check", "avgdist", "--n", "50",
                    "--samples", "20000", "--seed", "7")
    assert code == 0
    assert out.startswith("PASS")


def test_check_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("check", "tails", "--samples", "0"),
    ("check", "sodin", "--n", "-3"),
    ("check", "avgdist", "--samples", "1"),
])
def test_check_bad_input_is_a_usage_error(capsys, argv):
    # exit 1 means a violated inequality; bad input is exit 2, no traceback
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")


def test_domain_error_exit_code(capsys):
    code, _ = run(capsys, "bounds", "--family", "ball", "--eps", "0.7")
    assert code == 2


def test_out_file_and_manifest_replay(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    argv = ["witness", "--family", "ball", "--n", "25", "--eps", "0.05",
            "--out", str(target)]
    code = main(argv)
    capsys.readouterr()
    assert code == 0
    first = target.read_bytes()
    manifest = json.loads((tmp_path / "rows.csv.manifest.json").read_text())
    assert manifest["command"] == argv
    assert manifest["output_path"] == str(target)
    assert manifest["versions"]["isodist"]
    # replaying the manifest command reproduces the file byte for byte
    code = main(list(manifest["command"]))
    capsys.readouterr()
    assert code == 0
    assert target.read_bytes() == first


def test_check_all_documented_corpus(capsys):
    code, out = run(capsys, "check", "all", "--n", "20", "--samples", "100000",
                    "--seed", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[:5] == [
        "PASS t-map operator norm <= bound at n=2 (max excess 0)",
        "PASS t-map operator norm <= bound at n=5 (max excess 0)",
        "PASS t-map operator norm <= bound at n=20 (max excess 0)",
        "PASS cutoff plateaus and gradient bounds at n=20 (0 plateau, "
        "0 gradient violations, 2 skipped at kinks)",
        "PASS cutoff product gradient inequality at n=20 (0 violations)",
    ]
    assert all(line.startswith("PASS ") for line in lines)
