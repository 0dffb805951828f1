import argparse
import csv
import io
import json
import math
import pathlib
import re
import shlex
import sys
import tracemalloc

import numpy as np
import pytest

import oracles
from isodist import cli, montecarlo
from isodist import (ball_caps_witness, bound_report, cube_diagonal_witness, phi_inv,
                     phi_inv_asymptote, scaled_max_distance, simplex_corner_witness,
                     BodyFamily)
from isodist.cli import _parse_grid, build_parser, main
from isodist.lattice import DEFAULT_PAIR_BUDGET

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
WORKFLOW = README.parent / ".github" / "workflows" / "tier1.yml"


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


@pytest.mark.parametrize("family, n, witness, kind, key", [
    ("ball", 200, ball_caps_witness, "halfspace_cap", "threshold"),
    ("simplex", 10, simplex_corner_witness, "corner_homothety", "alpha"),
], ids=["ball", "simplex"])
def test_witness_regions_carry_twelve_significant_digits(capsys, family, n, witness,
                                                         kind, key):
    code, out = run(capsys, "witness", "--family", family, "--n", str(n), "--eps", "0.1")
    assert code == 0
    region = csv_rows(out)[0]["region_a"]
    assert region.startswith(f"{kind}(")
    value = re.search(rf"\b{key}=([^,)]+)", region).group(1)
    expect = witness(n, 0.1).region_a.params[key]
    assert value == "%.12g" % expect
    assert float(value) == pytest.approx(expect, rel=1e-11)


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


def test_check_tails_and_transfer_pass_at_every_seed(capsys):
    # the Monte Carlo parts are judged at 5 standard errors; at a 95% level
    # per case, tails failed at about half of all seeds on a correct program
    for seed in range(1, 41):
        for suite in ("tails", "transfer"):
            code, out = run(capsys, "check", suite, "--n", "20", "--samples", "2000",
                            "--seed", str(seed))
            assert code == 0, (seed, out)
            assert len(out.splitlines()) == 2


def test_check_names_the_part_that_failed(capsys, monkeypatch):
    # every sum at 0 puts each tail estimate at 1, and a map into (0, 1/2) is
    # not uniform; the exact bound and the contraction still hold, so only
    # the Monte Carlo lines fail
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "generate", lambda seed, name, count, fill: np.zeros(count))
        code, out = run(capsys, "check", "tails", "--n", "3", "--samples", "1000")
    assert code == 1
    bound, sampled = out.splitlines()
    assert bound.startswith("PASS exponential-sum tail below")
    assert sampled.startswith("FAIL Monte Carlo tails") and "off at n=3 alpha=0.1" in sampled
    phi = montecarlo.phi
    monkeypatch.setattr(montecarlo, "phi", lambda x: phi(x) / 2)
    code, out = run(capsys, "check", "transfer", "--n", "3", "--samples", "1000")
    assert code == 1
    uniform, contraction = out.splitlines()
    assert uniform.startswith("FAIL gaussian-to-cube transfer: uniform coordinates")
    assert contraction.startswith("PASS gaussian-to-cube transfer: contraction")


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


class _Drew(Exception):
    pass


def _no_draw(*args, **kwargs):
    raise _Drew


@pytest.mark.parametrize("argv", [
    ("check", "sodin", "--n", "1000000"),
    ("check", "avgdist", "--samples", "200001"),
    ("check", "avgdist", "--n", "10001", "--samples", "1000"),
    ("check", "transfer", "--samples", "1000001"),
    ("check", "tails", "--n", "3", "--samples", "1000001"),
    ("check", "all", "--n", "2001", "--samples", "5000"),
])
def test_check_refuses_a_cloud_past_the_limit_before_drawing(capsys, monkeypatch, argv):
    # sodin at n = 10^6 would draw 10^4 x 10^6 coordinates, 80 GB: every
    # sampler is replaced by one that raises, so a draw would fail the test
    monkeypatch.setattr(cli, "generate", _no_draw)
    monkeypatch.setattr(montecarlo, "generate", _no_draw)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: check ")
    assert "at most 10000000 are allowed" in captured.err


@pytest.mark.parametrize("argv", [
    ("check", "sodin", "--n", "1000", "--samples", "10000"),
    ("check", "avgdist", "--n", "100", "--samples", "100000"),
    ("check", "transfer", "--samples", "1000000"),
])
def test_check_draws_a_cloud_at_the_limit(monkeypatch, argv):
    # 10^7 coordinates exactly pass the count and reach the first draw
    monkeypatch.setattr(cli, "generate", _no_draw)
    monkeypatch.setattr(montecarlo, "generate", _no_draw)
    with pytest.raises(_Drew):
        main(list(argv))


def test_domain_error_exit_code(capsys):
    code, _ = run(capsys, "bounds", "--family", "ball", "--eps", "0.7")
    assert code == 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", [
    ["bounds", "--family", "cube"],
    ["witness", "--family", "cube", "--n", "10"],
    ["asympt", "--which", "phi-inv"],
    ["lattice", "scaling", "--n", "2", "--m", "10"],
], ids=["bounds", "witness", "asympt", "lattice-scaling"])
def test_eps_list_with_no_values_is_a_usage_error(capsys, command, fmt):
    # exit 1 would claim a failed check; an empty list prints no rows either
    with pytest.raises(SystemExit) as exc:
        main([*command, "--eps", ",", "--format", fmt])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "argument --eps: no values in ','" in err


def test_sections_repeated_n_flags(capsys):
    # --n extends as --eps does, and skips empty entries as --eps does
    listed = run(capsys, "sections", "--p", "2", "--n", "25,100", "--grid", "0:1:0.5")
    repeated = run(capsys, "sections", "--p", "2", "--n", "25,", "--n", "100",
                   "--grid", "0:1:0.5")
    assert repeated == listed and listed[0] == 0
    assert [r["n"] for r in csv_rows(listed[1])] == ["25"] * 3 + ["100"] * 3


@pytest.mark.parametrize("argv, message", [
    (["bounds", "--family", "cube", "--eps", "abc"],
     "argument --eps: not a comma-separated list of floats: 'abc'"),
    (["asympt", "--which", "phi-inv", "--eps", "1e-4,x"],
     "argument --eps: not a comma-separated list of floats: '1e-4,x'"),
    (["sections", "--p", "2", "--n", "3,x"],
     "argument --n: not a comma-separated list of ints: '3,x'"),
    (["sections", "--p", "2", "--n", "2.5"],
     "argument --n: not a comma-separated list of ints: '2.5'"),
    (["sections", "--p", "2", "--n", ","], "argument --n: no values in ','"),
], ids=["eps-word", "eps-entry", "n-entry", "n-float", "n-empty"])
def test_bad_list_entry_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.rstrip().endswith(message)


@pytest.mark.parametrize("target", [".", "missing/dir/rows.csv"])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, target):
    # exit 1 would claim a failed check; a path that cannot be opened is bad input
    path = tmp_path / target
    code = main(["bounds", "--family", "cube", "--eps", "0.1", "--out", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("grid", ["0:nan:0.5", "nan:1:0.5", "0:inf:0.5"])
def test_sections_non_finite_grid_is_a_usage_error(capsys, grid):
    code = main(["sections", "--p", "1.5", "--n", "10", "--grid", grid])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("grid", ["0:1", "0:1:0.5:2", "a:1:0.5"])
def test_sections_malformed_grid_is_a_usage_error(capsys, grid):
    code = main(["sections", "--p", "1.5", "--n", "10", "--grid", grid])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: grid must be start:stop:step, got {grid!r}\n"


@pytest.mark.parametrize("dims, grid, rows", [("5", "0:1:1e-6", "1000001"),
                                              ("5,6,7", "0:1:3e-6", "1000003")])
def test_sections_rows_over_the_cap_are_a_usage_error(capsys, dims, grid, rows):
    # just past the 10^6-row cap (heights times dimensions): without it this
    # would print a million rows rather than run out of memory, so the
    # assertion decides
    code = main(["sections", "--p", "2", "--n", dims, "--grid", grid])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error: grid {grid!r} gives {rows} rows over "
                          f"{len(dims.split(','))} dimension(s)")
    assert _parse_grid("0:999999:1", 1).size == 10**6  # the cap itself is allowed


@pytest.mark.parametrize("command", ["bounds", "witness"])
@pytest.mark.parametrize("family", [["--family", "cube", "--p", "1.5"],
                                    ["--family", "lp"]])
def test_p_must_match_the_family(capsys, command, family):
    extra = ["--n", "10"] if command == "witness" else []
    code, out = run(capsys, command, *family, *extra, "--eps", "0.1")
    assert code == 2 and out == ""


@pytest.mark.parametrize("which", [["--which", "phi-inv", "--p", "7"],
                                   ["--which", "psi-inv"]])
def test_p_must_match_the_asymptote(capsys, which):
    code, out = run(capsys, "asympt", *which, "--eps", "0.1")
    assert code == 2 and out == ""


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
        "0 gradient violations, 0 skipped at kinks)",
        "PASS cutoff product gradient inequality at n=20 (0 violations)",
    ]
    assert all(line.startswith("PASS ") for line in lines)


# Every option of every subcommand, as option strings -> (dest, default,
# choices, required).  Shared options are declared once in the parser; this
# table pins what each subcommand ends up with, so a change to an option is
# made here on purpose.
FAMILIES = ("ball", "cube", "simplex", "lp")
FAMILY = {"--family": ("family", None, FAMILIES, True), "--p": ("p", None, None, False)}
EPS = {"--eps": ("eps", None, None, True)}
OUTPUT = {"--format": ("format", "csv", ("csv", "json"), False),
          "--out": ("out", None, None, False)}
OPTIONS = {
    ("bounds",): {**FAMILY, **EPS, **OUTPUT},
    ("witness",): {**FAMILY, "--n": ("n", None, None, True), **EPS, **OUTPUT},
    ("lattice", "verify"): {
        "--k": ("k", None, None, True), "--n": ("n", None, None, True),
        "--r": ("r", None, None, True), "--s": ("s", None, None, True),
        "--budget": ("budget", DEFAULT_PAIR_BUDGET, None, False), **OUTPUT},
    ("lattice", "scaling"): {"--n": ("n", None, None, True),
                             "--m": ("m", None, None, True), **EPS, **OUTPUT},
    ("sections",): {"--p": ("p", None, None, True), "--n": ("n", None, None, True),
                    "--grid": ("grid", "0:3:0.01", None, False), **OUTPUT},
    ("check",): {
        "suite": ("suite", None, ("sodin", "transfer", "tails", "avgdist", "all"), True),
        "--n": ("n", 20, None, False), "--samples": ("samples", 100_000, None, False),
        "--seed": ("seed", 7, None, False)},
    ("asympt",): {"--which": ("which", None, ("phi-inv", "psi-inv"), True),
                  "--p": ("p", None, None, False), **EPS, **OUTPUT},
}


def _subcommands(parser, path=()):
    """(path, parser) for each leaf subcommand below parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _subcommands(sub, path + (name,))


def test_cli_option_surface():
    surface = {}
    for path, parser in _subcommands(build_parser()):
        surface[path] = {
            "/".join(a.option_strings) or a.dest:
                (a.dest, a.default, tuple(a.choices) if a.choices else None, a.required)
            for a in parser._actions if not isinstance(a, argparse._HelpAction)}
    assert surface == OPTIONS


@pytest.mark.parametrize("argv, parameters", [
    (["bounds", "--family", "lp", "--p", "1.5", "--eps", "0.1,0.01"],
     {"command": "bounds", "family": "lp", "p": 1.5, "eps": [0.1, 0.01]}),
    (["witness", "--family", "ball", "--n", "25", "--eps", "0.05", "--eps", "0.1"],
     {"command": "witness", "family": "ball", "p": None, "n": 25, "eps": [0.05, 0.1]}),
    (["lattice", "verify", "--k", "3", "--n", "2", "--r", "2", "--s", "2"],
     {"command": "lattice", "lattice_command": "verify", "k": 3, "n": 2, "r": 2,
      "s": 2, "budget": DEFAULT_PAIR_BUDGET}),
    (["lattice", "scaling", "--n", "2", "--m", "10", "--eps", "0.1"],
     {"command": "lattice", "lattice_command": "scaling", "n": 2, "m": 10,
      "eps": [0.1]}),
    (["sections", "--p", "2", "--n", "25,100"],
     {"command": "sections", "p": 2.0, "n": [25, 100], "grid": "0:3:0.01"}),
    (["asympt", "--which", "phi-inv", "--eps", "1e-4", "--format", "json"],
     {"command": "asympt", "which": "phi-inv", "p": None, "eps": [1e-4]}),
], ids=["bounds", "witness", "lattice-verify", "lattice-scaling", "sections", "asympt"])
def test_manifest_records_the_parsed_options(capsys, tmp_path, argv, parameters):
    # defaults included; --format and --out choose the output, not the rows
    target = tmp_path / "rows.out"
    assert main([*argv, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    manifest = json.loads((tmp_path / "rows.out.manifest.json").read_text())
    assert manifest["parameters"] == parameters
    assert set(manifest) == {"command", "parameters", "versions", "timestamp_utc",
                             "output_path"}


def _readme_lines():
    block = README.read_text().split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


def _readme_commands():
    return [shlex.split(line)[1:] for line in _readme_lines()]


def test_ci_console_script_runs_the_readme_commands():
    # CI runs the installed entry point on the README's commands, listed
    # twice as text; read both so that neither list drifts from the other
    step = WORKFLOW.read_text().split("- name: Console script\n", 1)[1].split("- name:", 1)[0]
    ran = [line.strip() for line in step.splitlines() if line.strip().startswith("isodist ")]
    assert ran == _readme_lines()


def test_readme_covers_every_subcommand():
    paths = {tuple(argv[:2]) if argv[0] == "lattice" else (argv[0],)
             for argv in _readme_commands()}
    assert paths == set(OPTIONS)


@pytest.mark.parametrize("argv", [a for a in _readme_commands() if a[0] != "check"],
                         ids=" ".join)
def test_readme_command_runs(capsys, argv):
    # check all runs in test_check_all_documented_corpus
    code, out = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    if "json" in argv:
        assert len(lines) >= 1 and all(json.loads(line) for line in lines)
    else:
        assert len(csv_rows(out)) >= 1


def _block_rows(blocks):
    """The rows of column blocks as dicts: a list gives one value per row,
    a single value holds for every row of its block."""
    for block in blocks:
        count, = {len(v) for v in block.values() if isinstance(v, list)} or {1}
        for i in range(count):
            yield {k: v[i] if isinstance(v, list) else v for k, v in block.items()}


def _assert_writer_matches_reference(capsys, argv, fmt):
    args = build_parser().parse_args([*argv, "--format", fmt])
    expect = oracles.cli_text(list(_block_rows(args.rows(args))), fmt == "json")
    code, out = run(capsys, *argv, "--format", fmt)
    assert code == 0
    assert out == expect


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [a for a in _readme_commands() if a[0] != "check"],
                         ids=" ".join)
def test_readme_command_text_is_the_row_writers(capsys, argv, fmt):
    _assert_writer_matches_reference(capsys, argv, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ["--p", "2", "--n", "25,100,400"],
    ["--p", "1.5", "--n", "5,7", "--grid", "0:3:0.37"],
    ["--p", "1", "--n", "3", "--grid", "0:40:0.5"],
    ["--p", "2", "--n", "2,1000", "--grid", "0.25:0.5:0.25"],
    ["--p", "1.2", "--n", "25", "--n", "2,25", "--grid", "0:30:1.5"],
    ["--p", "1", "--n", "2,3,4,5,6,7,8,9,10,11", "--grid", "0:1e-3:1e-4"],
], ids=lambda a: " ".join(a))
def test_sections_text_is_the_row_writers(capsys, argv, fmt):
    _assert_writer_matches_reference(capsys, ["sections", *argv], fmt)


SHARED = [0.25, -0.0, 1e16]
CORPUS = [
    {"label": "plain", "none": None, "flag": True, "count": 3, "x": 0.1,
     "wide": np.float64(1.0 / 3.0)},
    {"label": ["a,b", 'say "hi"', "two\nlines", "", "ok"],
     "none": [None, 1.5, None, -2.0, None],
     "flag": [True, False, None, True, False],
     "count": [0, -1, 123456789012, 2**70, 7],
     "x": [math.inf, -math.inf, math.nan, -0.0, 5e-324],
     "wide": [np.float64(1e16), np.float64(-0.0), np.float64(np.nan), 123456789012.0,
              np.float64(0.1)]},
    {"label": "shared", "none": SHARED, "flag": False, "count": SHARED, "x": SHARED,
     "wide": SHARED},
    {"label": SHARED, "none": None, "flag": None, "count": 2**53 + 1, "x": SHARED,
     "wide": [1, 2.5, "3"]},
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("blocks", [
    CORPUS, CORPUS[1:2], CORPUS[::-1],
    [{"only": ["", None, "x", 'q"', 0.5]}, {"only": None}, {"only": ""}],
    [{"a": 1.0, "b": "c"}, {"a": [], "b": []}, {"a": [2.0], "b": ["d"]}],
], ids=["corpus", "one-block", "reversed", "one-column", "empty-block"])
def test_writer_text_is_the_row_writers(capsys, blocks, fmt):
    cli._emit(blocks, argparse.Namespace(format=fmt, out=None))
    assert capsys.readouterr().out == oracles.cli_text(list(_block_rows(blocks)),
                                                      fmt == "json")


def test_sections_formats_shared_columns_once(capsys, monkeypatch):
    # x, area_limit and tail_limit are one list each for every --n
    calls = []
    monkeypatch.setattr(cli, "_FLOAT", lambda v: calls.append(v) or "%.12g" % v)
    code, out = run(capsys, "sections", "--p", "2", "--n", "25,100,400",
                    "--grid", "0:2:0.05")
    assert code == 0 and len(out.splitlines()) == 1 + 3 * 41
    # per --n: p once and area, tail at each height; x and both limits once per call
    assert len(calls) == 3 * (1 + 2 * 41) + 3 * 41


class _Discard:
    """A stdout that consumes the text it is given and keeps none of it."""

    def writelines(self, texts):
        for _ in texts:
            pass


def _emit_peak(monkeypatch, argv):
    args = build_parser().parse_args(argv)
    args._argv = argv
    blocks = args.rows(args)
    monkeypatch.setattr(sys, "stdout", _Discard())
    tracemalloc.start()
    try:
        cli._emit(blocks, args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_holds_one_block_at_a_time(monkeypatch, fmt):
    # the shared columns stay for the whole call; each block's own columns and
    # lines are freed before the next block is rendered
    tail = ["--grid", "0:2:4e-4", "--format", fmt]
    two = _emit_peak(monkeypatch, ["sections", "--p", "1.5", "--n", "5,50", *tail])
    eight = _emit_peak(monkeypatch, ["sections", "--p", "1.5", "--n",
                                     "5,6,7,8,9,10,11,50", *tail])
    assert eight < 1.1 * two
