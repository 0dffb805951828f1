"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

They start short benchmark runs as subprocesses, about two minutes in all.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run(workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def record(workload, seed, trace):
    with open(BENCH / "out" / f"BENCH_{workload}_s{seed}_t{trace}.json",
              encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_run_emits_every_metric_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = run(workload, 5, 0.5, trace)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True
        assert res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec()[key]}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        assert got == want


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in spec()["workloads"]] == list(workloads.WORKLOADS)


def _bound_report_summary(eps):
    import isodist

    rep = isodist.bound_report(isodist.BodyFamily.cube(), eps)
    return {"lower": rep.lower, "upper": rep.upper, "exact": rep.exact_limit,
            "manhattan": rep.manhattan_scaled_limit, "parametric": rep.parametric}


def test_perturbed_result_and_raised_exception_fail():
    op = {"kind": "bound_report", "family": "cube", "p": None, "eps": 1e-6}
    good = _bound_report_summary(op["eps"])
    assert reference.judge(op, "ok", good).ok
    bad = dict(good, upper=good["upper"] * (1 + 1e-7))
    verdict = reference.judge(op, "ok", bad)
    assert not verdict.ok and verdict.known is None
    verdict = reference.judge(op, "DomainError: boom", None)
    assert not verdict.ok and verdict.known is None


def test_failures_count_in_fail_frac():
    import run as bench_run

    ops = {0: {"kind": "bound_report", "family": "cube", "p": None, "eps": 1e-6}}
    good = _bound_report_summary(1e-6)
    records = [{"id": 0, "status": "ok", "summary": good}]
    assert bench_run.fail_counts(bench_run.judge_all(ops, records)) == (0, 0)
    ops[1] = ops[0]
    records += [{"id": 1, "status": "ok", "summary": dict(good, lower=0.0)}]
    ops[2] = ops[0]
    records += [{"id": 2, "status": "RuntimeError: x"}]
    assert bench_run.fail_counts(bench_run.judge_all(ops, records)) == (2, 2)


def test_known_defect_inputs_are_tagged():
    import isodist

    # ROADMAP 4: above n = 40 the slab volume is a normal approximation
    op = {"kind": "cube_diagonal", "n": 41, "eps": 0.01}
    pair = isodist.cube_diagonal_witness(41, 0.01)
    summary = {"distance": pair.distance, "limit": pair.limit_value, "n": 41,
               "threshold": pair.region_a.params["threshold"]}
    verdict = reference.judge(op, "ok", summary)
    assert not verdict.ok and verdict.known == "normal-approximation"
    # ROADMAP 3: the cap height at n = 200, p = 1.5, eps = 1e-15
    op = {"kind": "lp_caps", "n": 200, "p": 1.5, "eps": 1e-15}
    pair = isodist.lp_caps_witness(200, 1.5, 1e-15)
    summary = {"distance": pair.distance, "limit": pair.limit_value, "n": 200,
               "threshold": pair.region_a.params["threshold"]}
    verdict = reference.judge(op, "ok", summary)
    assert not verdict.ok and verdict.known == "tail-cancellation"


def test_same_seed_same_operations_and_verdicts():
    for w in workloads.WORKLOADS:
        assert workloads.first(w, 7, 150) == workloads.first(w, 7, 150)
        assert workloads.first(w, 7, 150) != workloads.first(w, 8, 150)
        count = workloads.block_count(w, 18)
        assert len(workloads.planned(w, 7, count)) == len(workloads.planned(w, 8, count))
    a = run("analytic", 7, 1.5, 0)
    first = record("analytic", 7, 0)
    b = run("analytic", 7, 1.5, 0)
    second = record("analytic", 7, 0)
    assert a["attempted"] == b["attempted"] >= 10
    assert a["failed"] == b["failed"]

    def verdicts(rec):
        return {(f["id"], f["known"]) for f in rec["failures"]}

    assert verdicts(first) == verdicts(second)
