"""Runs one workload's operations against isodist, in a fresh interpreter.

run.py starts this script with PYTHONPATH pointing at the checkout's src/.
It imports isodist and isodist.cli first and prints "ready", so the parent
can time interpreter start plus import as one set-up sample.  Then it
calls the run's planned operations (a fixed number of whole blocks, see
workloads.block_count) one after another, a closed loop with one caller,
and writes every operation's latency, status and result summary to a JSON
file.  Before every block and after the last it times the calibration
kernel (calibrate.py), so run.py can put the latencies at the reference
host speed.

Each operation is split in three: inputs are prepared untimed (sample
clouds, lattice handles), the library call alone is timed, and its
result is reduced to a small summary untimed.  The summary keeps what
the reference side needs to judge the result.

With --trace 1 half as many blocks run untraced, then the same
operations run again with spans (see tracing.py), followed by the
fixed probe set; the ratio of the two passes' summed latency is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import sys
import time

import calibrate
import workloads

WALL_LIMIT_S = 120.0   # the whole run must end within 180 s


def _family(isodist, op):
    if op["family"] == "lp":
        return isodist.BodyFamily.lp(op["p"])
    return isodist.BodyFamily(op["family"])


def _run_cli(main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


def prepare(op: dict, api, isodist):
    """Untimed set-up; returns the zero-argument call that is timed."""
    kind = op["kind"]
    if kind == "bound_report":
        fam = _family(isodist, op)
        return lambda: api["witness"].bound_report(fam, op["eps"])
    if kind == "simplex_corner":
        return lambda: api["witness"].simplex_corner_witness(op["n"], op["eps"])
    if kind == "cube_diagonal":
        return lambda: api["witness"].cube_diagonal_witness(op["n"], op["eps"])
    if kind == "lp_caps":
        return lambda: api["witness"].lp_caps_witness(op["n"], op["p"], op["eps"])
    if kind == "ball_caps":
        return lambda: api["witness"].ball_caps_witness(op["n"], op["eps"])
    if kind == "distance_quad":
        fam = _family(isodist, op)
        return lambda: api["enlargement"].distance_upper_bound(
            fam, op["eps"], method="quadrature")
    if kind == "section_curve":
        grid = workloads.grid(op["grid"])
        return lambda: api["sections"].section_curve(op["p"], op["n"], grid)
    if kind == "cli":
        return lambda: _run_cli(api["cli"].main, op["argv"])
    if kind == "sample_uniform":
        fam = _family(isodist, op)
        return lambda: api["montecarlo"].sample_uniform(fam, op["n"], op["count"], op["seed"])
    if kind == "estimate_cap_volume":
        fam = _family(isodist, op)
        return lambda: api["montecarlo"].estimate_cap_volume(
            fam, op["n"], op["a"], op["count"], op["seed"])
    if kind == "exp_tail":
        return lambda: api["montecarlo"].exp_tail_check(
            op["n"], op["alpha"], op["count"], op["seed"])
    if kind == "transfer":
        return lambda: api["montecarlo"].transfer_map_check(op["n"], op["count"], op["seed"])
    if kind == "avgdist":
        return lambda: api["montecarlo"].average_distance_experiment(
            op["n"], op["count"], op["seed"])
    if kind == "tmap_check":
        pts = workloads.cloud(op, spread=False)
        return lambda: api["montecarlo"].t_map_lipschitz_check(pts)
    if kind in ("cutoff_check", "product_check"):
        pts = workloads.cloud(op, spread=True)
        fn = (api["montecarlo"].cutoff_gradient_check if kind == "cutoff_check"
              else api["montecarlo"].cutoff_product_check)
        return lambda: fn(pts, op["c1"], op["c2"])
    if kind == "scaled_max_distance":
        return lambda: api["lattice"].scaled_max_distance(op["n"], op["m"], op["eps"])
    grid = isodist.Grid(op["k"], op["n"]) if "k" in op else None
    if kind == "verify":
        # every call starts cold, as one `isodist lattice verify` run does
        for cached in vars(isodist.lattice).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
        size = grid.size
        budget = math.comb(size, op["r"]) * math.comb(size, op["s"])
        return lambda: api["lattice"].verify_extremal_pairs(grid, op["r"], op["s"],
                                                           budget=budget)
    if kind == "initial_segment":
        return lambda: api["lattice"].initial_segment(grid, op["r"])
    if kind == "final_segment":
        return lambda: api["lattice"].final_segment(grid, op["r"])
    if kind == "t_boundary":
        handle = isodist.initial_segment(grid, op["r"])
        return lambda: api["lattice"].t_boundary(handle, op["t"])
    if kind == "set_distance":
        a = isodist.initial_segment(grid, op["r"])
        b = isodist.final_segment(grid, op["s"])
        return lambda: api["lattice"].set_distance(a, b)
    if kind == "count_cells":
        return lambda: api["lattice"].count_cells_sum_le(op["k"], op["n"], op["s"])
    return _prepare_probe(op, api, isodist)


def _prepare_probe(op, api, isodist):
    import numpy as np

    kind = op["kind"]
    if kind == "phi_inv_vec":
        x = np.linspace(1e-6, 1.0 - 1e-6, op["points"])
        return lambda: api["specfun"].phi_inv(x)
    if kind == "phi_p_vec":
        x = np.linspace(-3.0, 3.0, op["points"])
        return lambda: api["specfun"].phi_p(x, op["p"])
    if kind == "phi_p_inv":
        eps = workloads.probe_eps(op["calls"])
        fn = api["specfun"].phi_p_inv
        return lambda: [fn(e, op["p"]) for e in eps]
    if kind == "time_to_half":
        prof = isodist.make_profile(_family(isodist, op))
        return lambda: api["enlargement"].time_to_half(prof, op["eps"])
    if kind == "closed_form":
        fams = [isodist.BodyFamily.ball(), isodist.BodyFamily.cube(),
                isodist.BodyFamily.simplex(), isodist.BodyFamily.lp(1.5)]
        eps = workloads.probe_eps(op["calls"])
        fn = api["enlargement"].delta_closed_form
        return lambda: [fn(fams[i % 4], e) for i, e in enumerate(eps)]
    if kind == "lp_tail_volume":
        return lambda: api["sections"].lp_tail_volume(op["x"], op["p"], op["n"])
    if kind == "cube_sum_cdf":
        return lambda: api["sections"].cube_sum_cdf(op["n"], op["s"])
    raise ValueError(f"unknown operation kind {kind!r}")


def summarize(op: dict, res) -> dict:
    """Reduce a result to the numbers the reference side judges."""
    import numpy as np

    kind = op["kind"]
    if kind == "bound_report":
        return {"lower": res.lower, "upper": res.upper, "exact": res.exact_limit,
                "manhattan": res.manhattan_scaled_limit, "parametric": res.parametric}
    if kind in ("simplex_corner", "cube_diagonal", "lp_caps", "ball_caps"):
        out = {"distance": res.distance, "limit": res.limit_value, "n": res.n}
        out.update({k: v for k, v in res.region_a.params.items() if isinstance(v, float)})
        return out
    if kind == "distance_quad":
        return {"distance": res.distance_upper}
    if kind == "section_curve":
        return {"areas": res.areas.tolist(), "tails": res.tails.tolist(), "omega": res.omega}
    if kind == "cli":
        rc, text = res
        rows = [ln for ln in text.splitlines() if ln]
        return {"rc": rc, "text": text, "rows": max(0, len(rows) - 1)}
    if kind == "sample_uniform":
        return sample_stats(op, res.points)
    if kind == "estimate_cap_volume":
        return {"estimate": res.estimate, "count": res.count}
    if kind == "exp_tail":
        return {"estimate": res.mc.estimate, "count": res.mc.count, "erlang": res.erlang,
                "bound": res.bound}
    if kind == "transfer":
        return {"min_p": res.min_ks_pvalue, "ratio": res.max_direction_ratio,
                "count": res.count}
    if kind == "avgdist":
        return {"mean": res.mean_distance.estimate,
                "se": res.mean_distance.half_width_95 / 1.96,
                "count": res.mean_distance.count, "lower": res.lower_bound}
    if kind == "tmap_check":
        return {"count": res.count, "max_excess": res.max_excess,
                "max_fd_error": res.max_fd_error}
    if kind in ("cutoff_check", "product_check"):
        return {"count": res.count, "skipped": res.skipped_near_kink,
                "plateau": res.plateau_violations, "gradient": res.gradient_violations}
    if kind == "scaled_max_distance":
        return {"value": res}
    if kind == "verify":
        return {"brute": res.brute_max, "segment": res.segment_distance,
                "agree": res.agree, "space": res.search_space}
    if kind in ("initial_segment", "final_segment", "t_boundary"):
        return {"mask": hex(res.mask)}
    if kind in ("set_distance", "count_cells"):
        return {"value": int(res)}
    if kind in ("phi_inv_vec", "phi_p_vec"):
        res = np.asarray(res)
        return {"sample": res[:: max(1, res.size // 16)].tolist(), "size": int(res.size)}
    if kind in ("phi_p_inv", "closed_form"):
        return {"values": [float(v) for v in res]}
    return {"value": float(res)}


def sample_stats(op: dict, pts) -> dict:
    """Shape, range and one moment per sampled batch.

    ball / l_p: s = sum |x_i|^p; cube: s = sum x_i; simplex: s = x_1,
    plus the largest deviation of sum x_i from the simplex scale."""
    import numpy as np

    fam = op["family"]
    out = {"shape": list(pts.shape), "min": float(pts.min()), "max": float(pts.max())}
    if fam in ("ball", "lp"):
        p = 2.0 if fam == "ball" else op["p"]
        s = (np.abs(pts) ** p).sum(axis=1)
    elif fam == "cube":
        s = pts.sum(axis=1)
    else:
        s = pts[:, 0]
        out["row_sum_min"] = float(pts.sum(axis=1).min())
        out["row_sum_max"] = float(pts.sum(axis=1).max())
    out.update(stat_mean=float(s.mean()), stat_sd=float(s.std(ddof=1)),
               stat_max=float(s.max()), count=int(s.size))
    return out


def run_phase(ops, api, isodist, tracer=None, wall_limit=WALL_LIMIT_S,
              block=0, calibration=None) -> list[dict]:
    """Call the operations in order; stop early only if the wall clock passes
    `wall_limit` seconds, which the parent reports as a failed run.  With a
    `calibration` list, calibrate the host speed (calibrate.sample) before
    every block of `block` operations and after the last, outside the
    operations' timings."""
    records = []
    wall_stop = time.perf_counter() + wall_limit
    for op_id, op in enumerate(ops):
        if time.perf_counter() > wall_stop:
            break
        if calibration is not None and op_id % block == 0:
            calibration.append(calibrate.sample())
        records.append(run_one(op, op_id, api, isodist, tracer))
    if calibration is not None:
        calibration.append(calibrate.sample())
    return records


def run_one(op, op_id, api, isodist, tracer=None) -> dict:
    call = prepare(op, api, isodist)
    if tracer is not None:
        tracer.op = op_id
    t0 = time.perf_counter()
    try:
        res = call()
        status = "ok"
    except Exception as exc:  # a raising operation is a failed operation
        res, status = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    rec = {"id": op_id, "ms": (t1 - t0) * 1e3, "status": status}
    if status == "ok":
        rec["summary"] = summarize(op, res)
    return rec


def main(argv=None) -> int:
    import isodist
    import isodist.cli  # noqa: F401  (part of what every CLI call imports)
    print("ready", flush=True)

    import tracing

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    plain = {m: getattr(isodist, m) for m in tracing.MODULES}
    count = workloads.block_count(args.workload, args.seconds)
    out = {"workload": args.workload, "seed": args.seed, "phases": []}
    if not args.trace:
        ops = workloads.planned(args.workload, args.seed, count)
        calibrate.warm_up()
        out["calibration_ms"] = []
        recs = run_phase(ops, plain, isodist, block=len(ops) // count,
                         calibration=out["calibration_ms"])
        out["phases"].append({"traced": False, "records": recs})
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # Half the blocks untraced, then the very same operations traced,
        # then the probes.
        ops = workloads.planned(args.workload, args.seed, max(1, count // 2))
        recs = run_phase(ops, plain, isodist, wall_limit=WALL_LIMIT_S / 2)
        out["phases"].append({"traced": False, "records": recs})
        tracer = tracing.Tracer()
        api = tracing.install(tracer, isodist)
        traced = run_phase(ops[:len(recs)], api, isodist, tracer, WALL_LIMIT_S / 2)
        out["phases"].append({"traced": True, "records": traced})
        out["probes"] = [run_one(op, -1 - i, api, isodist, tracer)
                         for i, op in enumerate(workloads.PROBES)]
        tracer.save(args.out + ".spans.npz")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
