"""isodist benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload analytic --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; isodist is imported from its src/.  The
run times interpreter start plus `import isodist, isodist.cli` in fresh
children (set-up), starts the worker (worker.py) in another fresh
interpreter, lets it call a fixed number of the workload's operation
blocks, sized to take about --seconds of summed latency at the seed commit
(workloads.BLOCK_RATE), then judges every result against the independent
references (reference.py) outside any timed region.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  A fuller record (environment, failed operations, verdict
counts) goes to bench/out/.  Exit code 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SPAWNS = 5           # set-up samples per run
WORKER_TIMEOUT_S = 150.0
IMPORT = "import isodist, isodist.cli; print('ready', flush=True)"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")


def child_env() -> dict:
    """isodist's default of one worker, and one BLAS thread to match it: on a
    small shared machine a second spinning BLAS thread mostly adds noise."""
    env = dict(os.environ)
    env.pop("ISODIST_THREADS", None)
    env.update({k: "1" for k in BLAS_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn_until_ready(cmd: list[str]) -> tuple[subprocess.Popen, float]:
    """Start cmd; return it with the seconds until it printed 'ready'."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{cmd[1]} did not start: {line!r}")
    return proc, elapsed


def setup_sample() -> tuple[float, float]:
    """Seconds from spawn to imported, and the host slowdown around it."""
    import calibrate

    before = calibrate.sample()
    proc, elapsed = spawn_until_ready([sys.executable, "-c", IMPORT])
    proc.communicate(timeout=30)
    after = calibrate.sample()
    return elapsed, (before + after) / 2.0 / calibrate.REFERENCE_MS


def import_profile() -> str:
    res = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT], cwd=ROOT,
                         env=child_env(), capture_output=True, text=True, timeout=60,
                         check=True)
    return res.stderr


def run_worker(args, out_file: Path) -> tuple[dict, float]:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_file)]
    proc, ready = spawn_until_ready(cmd)
    try:
        proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded its time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(out_file, encoding="utf-8") as fh:
        return json.load(fh), ready


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(args, caller_env: dict) -> dict:
    import numpy as np
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "ISODIST_THREADS": {"caller": caller_env["ISODIST_THREADS"],
                            "worker": child_env().get("ISODIST_THREADS")},
        "blas_threads": {"caller": {k: caller_env[k] for k in BLAS_VARS},
                         "worker": {k: child_env()[k] for k in BLAS_VARS}},
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def judge_all(ops: dict[int, dict], records: list[dict]) -> dict[int, object]:
    import reference

    return {rec["id"]: reference.judge(ops[rec["id"]], rec["status"], rec.get("summary"))
            for rec in records}


def fail_counts(verdicts: dict) -> tuple[int, int]:
    """(failed, failed outside the documented defects) over the verdicts."""
    failed = [v for v in verdicts.values() if not v.ok]
    return len(failed), sum(1 for v in failed if v.known is None)


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    import calibrate
    import reference
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "isodist" / "__init__.py").is_file():
        print(f"error: no isodist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}_s{args.seed}_t{args.trace}"
    caller_env = {k: os.environ.get(k) for k in ("ISODIST_THREADS", *BLAS_VARS)}
    os.environ.update({k: "1" for k in BLAS_VARS})   # calibrate as the worker does
    try:
        if not args.trace:
            calibrate.warm_up()
        setup = [] if args.trace else [setup_sample() for _ in range(SETUP_SPAWNS)]
        data, ready = run_worker(args, OUT / f"worker_{tag}.json")
        importtime = import_profile() if args.trace else ""
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    phases = data["phases"]
    records = phases[0]["records"]
    count = workloads.block_count(args.workload, args.seconds)
    planned = workloads.planned(args.workload, args.seed,
                                max(1, count // 2) if args.trace else count)
    if any(len(ph["records"]) != len(planned) for ph in phases):
        print(f"error: the worker finished {len(records)} of {len(planned)} operations "
              "within its wall-clock limit", file=sys.stderr)
        return 1
    ops = dict(enumerate(planned))
    verdicts = judge_all(ops, records)
    failed = [i for i, v in verdicts.items() if not v.ok]
    n_failed, unexpected = fail_counts(verdicts)

    metrics: dict[str, tuple[float, str]] = {}
    raw: dict[str, tuple[float, str]] = {}
    if not args.trace:
        slow = calibrate.slowdowns(data["calibration_ms"], count)
        size = len(records) // count
        raw_lat = [rec["ms"] for rec in records]
        lat = [ms / slow[i // size] for i, ms in enumerate(raw_lat)]
        metrics["setup_s"] = (statistics.median(t / f for t, f in setup), "s")
        raw["setup_s"] = (statistics.median(t for t, _ in setup), "s")
        for out, values in ((metrics, lat), (raw, raw_lat)):
            out["ops_per_s"] = (len(values) / (sum(values) * 1e-3), "1/s")
            out["op_p50_ms"] = (percentile(values, 50), "ms")
            out["op_p90_ms"] = (percentile(values, 90), "ms")
        metrics["peak_rss_mb"] = (data["peak_rss_mb"], "MB")
    else:
        import tracing

        probe_ops = {-1 - i: op for i, op in enumerate(workloads.PROBES)}
        traced = phases[1]["records"] + data["probes"]
        all_ops = {**ops, **probe_ops}
        traced_verdicts = judge_all(all_ops, traced)
        summaries = {rec["id"]: rec.get("summary") for rec in traced if "summary" in rec}
        spans = tracing.load(OUT / f"worker_{tag}.json.spans.npz")
        metrics.update(tracing.layer_metrics(
            spans, {i: all_ops[i] for i in traced_verdicts}, summaries, traced_verdicts))
        metrics.update(tracing.import_times(importtime))
        busy = [sum(rec["ms"] for rec in ph["records"]) for ph in phases]
        metrics["trace.overhead_ratio"] = (busy[1] / busy[0], "ratio")
        unexpected += fail_counts(traced_verdicts)[1]

    attempted = len(records)
    record = {
        "environment": environment(args, caller_env),
        "correct": unexpected == 0 and attempted > 0,
        "attempted": attempted,
        "failed": n_failed,
        "fail_frac": n_failed / attempted if attempted else None,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "setup_samples_s": [t for t, _ in setup],
        "setup_slowdowns": [f for _, f in setup],
        "worker_start_s": ready,
        "calibration_ms": data.get("calibration_ms"),
        "samples": [len(ph["records"]) for ph in phases],
        "ops_by_kind": dict(Counter(_label(ops[i]) for i in ops)),
        "failed_by_kind": dict(Counter(
            f"{_label(ops[i])}: {verdicts[i].known or 'UNEXPECTED'}" for i in failed)),
        "known_defects": {tag: reference.KNOWN_DEFECTS[tag]
                          for tag in {verdicts[i].known for i in failed} - {None}},
        "failures": [{"id": i, "op": ops[i], **verdicts[i].to_dict()}
                     for i in failed[:200]],
    }
    with open(OUT / f"BENCH_{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": n_failed, "metrics": record["metrics"]}))
    return 0


def _label(op: dict) -> str:
    return f"cli {op['argv'][0]}" if op["kind"] == "cli" else op["kind"]


if __name__ == "__main__":
    sys.exit(main())
