"""Spans around calls into isodist's modules, recorded from outside.

The traced worker wraps every public function of each module at the layer
boundaries: where the benchmark calls a module, where one module calls a
public function it imported from another, and where the enlargement
quadrature evaluates a profile.  Calls inside one module stay unwrapped.
Spans live in flat in-memory arrays (name, start, end, operation id,
parent span) and are written out once, as .npz, when the run ends; a few
names also record a work count taken from the call's arguments or result.

`layer_metrics` turns the spans, the operations' summaries and the
reference verdicts into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import math
import statistics
import time
import types
from array import array

MODULES = ("specfun", "profiles", "enlargement", "sections", "witness",
           "lattice", "montecarlo", "rng", "cli", "bodies", "errors")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_col = array("i")
        self.parent = array("i")
        self.work: dict[int, dict] = {}
        self.op = -1
        self._stack = [-1]

    def wrap(self, name: str, fn, work=None):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_col.append(nid)
            self.op_col.append(self.op)
            self.parent.append(stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            before = work.before(args, kwargs) if work else None
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if work:
                self.work[idx] = work.after(args, kwargs, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def save(self, path) -> None:
        import json

        import numpy as np

        np.savez(path, name=np.asarray(self.name_col), start=np.asarray(self.start),
                 end=np.asarray(self.end), op=np.asarray(self.op_col),
                 parent=np.asarray(self.parent), names=np.asarray(self.names),
                 work=np.asarray(json.dumps({str(k): v for k, v in self.work.items()})))


def load(path) -> dict:
    """Spans written by Tracer.save, as numpy arrays plus names and work."""
    import json

    import numpy as np

    with np.load(path) as f:
        data = {k: f[k] for k in ("name", "start", "end", "op", "parent")}
        data["names"] = [str(n) for n in f["names"]]
        data["work"] = json.loads(str(f["work"]))
    return data


class Work:
    """Work counters for one traced name: `after` returns a dict of counts."""

    def __init__(self, after, before=None):
        self.after = after
        self.before = before or (lambda args, kwargs: None)


def _work_table(isodist):
    import numpy as np

    sweep = isodist.lattice._sweep_max_by_s

    def generate_work(args, kwargs, res, _):
        count = args[2] if len(args) > 2 else kwargs["count"]
        chunk = kwargs.get("chunk", args[4] if len(args) > 4 else
                           isodist.rng.DEFAULT_CHUNK)
        return {"coords": int(np.size(res)), "chunks": math.ceil(count / chunk)}

    def verify_work(args, kwargs, res, misses):
        enumerated = sweep.cache_info().misses > misses
        return {"subsets": math.comb(res.k**res.n, res.r) if enumerated else 0}

    def cutoff_work(args, kwargs, res, _):
        return {"points": res.count, "skipped": res.skipped_near_kink}

    evals = Work(lambda a, k, r, _: {"evals": int(np.size(a[0]))})
    return {
        "specfun.phi_inv": evals,
        "specfun.phi_p": evals,
        "montecarlo.sample_uniform": Work(
            lambda a, k, r, _: {"coords": int(r.points.size), "family": a[0].kind}),
        "rng.generate": Work(generate_work),
        "montecarlo.t_map_lipschitz_check": Work(lambda a, k, r, _: {"points": r.count}),
        "montecarlo.cutoff_gradient_check": Work(cutoff_work),
        "montecarlo.cutoff_product_check": Work(cutoff_work),
        "lattice.verify_extremal_pairs": Work(
            verify_work, lambda a, k: sweep.cache_info().misses),
        "cli.main": Work(lambda a, k, r, _: {"sub": a[0][0]}),
    }


def install(tracer: Tracer, isodist) -> dict[str, types.SimpleNamespace]:
    """Wrap isodist's public functions; return the traced module namespaces
    the benchmark calls through, keyed by module name."""
    import inspect

    work = _work_table(isodist)
    wrapped: dict[object, object] = {}
    api = {}
    for mod in MODULES:
        module = getattr(isodist, mod)
        funcs = {}
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                full = f"{mod}.{name}"
                wrapped[obj] = tracer.wrap(full, obj, work.get(full))
                funcs[name] = wrapped[obj]
        api[mod] = types.SimpleNamespace(**funcs)
    # cross-module references: module B's global bound to A's public function
    for mod in MODULES:
        module = getattr(isodist, mod)
        for name, obj in list(vars(module).items()):
            if (inspect.isfunction(obj) and obj in wrapped
                    and obj.__module__ != module.__name__):
                setattr(module, name, wrapped[obj])
    profile_call = isodist.profiles.IsoProfile.__call__
    isodist.profiles.IsoProfile.__call__ = tracer.wrap("profiles.eval", profile_call)
    return api


# ---------------------------------------------------------------- metrics

def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else None


class _Spans:
    def __init__(self, data: dict, kinds: dict[int, str]):
        import numpy as np

        self.data = data
        self.kinds = kinds
        self.by_name = {name: np.flatnonzero(data["name"] == nid)
                        for nid, name in enumerate(data["names"])}
        self.duration = data["end"] - data["start"]

    def idx(self, *names, kind=None) -> list[int]:
        out = [int(i) for n in names for i in self.by_name.get(n, ())]
        if kind is not None:
            ops = self.data["op"]
            out = [i for i in out if self.kinds.get(int(ops[i])) == kind]
        return out

    def dur(self, idx) -> list[float]:
        return [float(self.duration[i]) for i in idx]

    def attr(self, i: int, key: str):
        return self.data["work"][str(i)][key]

    def work(self, idx, key):
        w = self.data["work"]
        return sum(w[str(i)][key] for i in idx if str(i) in w)

    def rate(self, idx, key):
        busy = sum(self.dur(idx))
        return self.work(idx, key) / busy if busy > 0 else None


def layer_metrics(spans: dict, ops: dict[int, dict], summaries: dict[int, dict],
                  verdicts: dict[int, object]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced run.

    ops, summaries and verdicts are keyed by operation id and cover the
    traced operations (probes included)."""
    sp = _Spans(spans, {i: op["kind"] for i, op in ops.items()})
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        if value is not None:
            out[name] = (value, unit)

    put("specfun.phi_inv.evals_per_s",
        sp.rate(sp.idx("specfun.phi_inv", kind="phi_inv_vec"), "evals"), "1/s")
    put("specfun.phi_p.evals_per_s",
        sp.rate(sp.idx("specfun.phi_p", kind="phi_p_vec"), "evals"), "1/s")
    put("specfun.phi_p_inv.us", _median(sp.dur(sp.idx("specfun.phi_p_inv")), 1e6), "us")
    put("profiles.eval.us", _median(sp.dur(sp.idx("profiles.eval")), 1e6), "us")
    put("enlargement.time_to_half.ms",
        _median(sp.dur(sp.idx("enlargement.time_to_half")), 1e3), "ms")
    put("enlargement.closed_form.us",
        _median(sp.dur(sp.idx("enlargement.delta_closed_form")), 1e6), "us")
    put("sections.section_curve.ms",
        _median(sp.dur(sp.idx("sections.section_curve")), 1e3), "ms")
    put("sections.lp_tail_volume.ms",
        _median(sp.dur(sp.idx("sections.lp_tail_volume")), 1e3), "ms")
    put("sections.cube_sum_cdf.us",
        _median(sp.dur(sp.idx("sections.cube_sum_cdf")), 1e6), "us")
    put("witness.lp_caps.ms", _median(sp.dur(
        sp.idx("witness.lp_caps_witness", "witness.ball_caps_witness")), 1e3), "ms")
    put("witness.cube_diagonal.ms",
        _median(sp.dur(sp.idx("witness.cube_diagonal_witness")), 1e3), "ms")
    put("witness.bound_report.us",
        _median(sp.dur(sp.idx("witness.bound_report")), 1e6), "us")

    tail_errs = [v.errors["tail_rel"] for v in verdicts.values() if "tail_rel" in v.errors]
    put("sections.tail_rel_err.max", max(tail_errs, default=None), "ratio")
    vol_errs = [v.errors["volume_rel"] for v in verdicts.values()
                if "volume_rel" in v.errors]
    put("witness.volume_rel_err.max", max(vol_errs, default=None), "ratio")
    witness_kinds = {"lp_caps", "ball_caps", "cube_diagonal", "simplex_corner"}
    put("witness.failed", sum(1 for i, v in verdicts.items()
                              if ops[i]["kind"] in witness_kinds and not v.ok), "count")

    cli_idx = sp.idx("cli.main")
    for sub in ("bounds", "witness", "sections", "asympt"):
        sel = [i for i in cli_idx if sp.attr(i, "sub") == sub]
        put(f"cli.main.{sub}.ms", _median(sp.dur(sel), 1e3), "ms")
    top_cli = [i for i in cli_idx if spans["parent"][i] == -1]
    busy = sum(sp.dur(top_cli))
    rows = sum(summaries[int(spans["op"][i])]["rows"] for i in top_cli
               if int(spans["op"][i]) in summaries)
    put("cli.rows_per_s", rows / busy if busy > 0 else None, "1/s")

    samples = sp.idx("montecarlo.sample_uniform")
    for fam in ("ball", "lp", "cube", "simplex"):
        sel = [i for i in samples if sp.attr(i, "family") == fam]
        put(f"montecarlo.sample_{fam}.coords_per_s", sp.rate(sel, "coords"), "1/s")
    gen = sp.idx("rng.generate")
    put("rng.generate.coords_per_s", sp.rate(gen, "coords"), "1/s")
    put("rng.generate.chunks_per_s", sp.rate(gen, "chunks"), "1/s")
    for short, name in (("transfer", "transfer_map_check"),
                        ("avgdist", "average_distance_experiment"),
                        ("exp_tail", "exp_tail_check")):
        put(f"montecarlo.{short}.ms", _median(sp.dur(sp.idx(f"montecarlo.{name}")), 1e3),
            "ms")
    for short, name in (("tmap", "t_map_lipschitz_check"),
                        ("cutoff", "cutoff_gradient_check"),
                        ("product", "cutoff_product_check")):
        put(f"montecarlo.{short}_check.points_per_s",
            sp.rate(sp.idx(f"montecarlo.{name}"), "points"), "1/s")
    cut = sp.idx("montecarlo.cutoff_gradient_check", "montecarlo.cutoff_product_check")
    points = sp.work(cut, "points")
    put("montecarlo.kink_skip_frac", sp.work(cut, "skipped") / points if points else None,
        "ratio")

    put("lattice.count_cells.ms", _median(sp.dur(
        sp.idx("lattice.count_cells_sum_le", kind="count_cells")), 1e3), "ms")
    put("lattice.scaled_max_distance.ms",
        _median(sp.dur(sp.idx("lattice.scaled_max_distance")), 1e3), "ms")
    put("lattice.verify.subsets_per_s",
        sp.rate(sp.idx("lattice.verify_extremal_pairs"), "subsets"), "1/s")
    put("lattice.segment.ms", _median(sp.dur(
        sp.idx("lattice.initial_segment", "lattice.final_segment")), 1e3), "ms")
    put("lattice.t_boundary.ms", _median(sp.dur(sp.idx("lattice.t_boundary")), 1e3), "ms")
    put("lattice.set_distance.ms",
        _median(sp.dur(sp.idx("lattice.set_distance")), 1e3), "ms")
    return out


def import_times(importtime_stderr: str) -> dict[str, tuple[float, str]]:
    """Cumulative import time of isodist and each of its modules, from the
    stderr of `python -X importtime -c "import isodist, isodist.cli"`."""
    out = {}
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        name = parts[2]
        if not parts[1].isdigit():
            continue
        if name == "isodist":
            out["import.isodist_s"] = (int(parts[1]) * 1e-6, "s")
        elif name.startswith("isodist.") and name[8:] in MODULES:
            out[f"import.{name[8:]}_s"] = (int(parts[1]) * 1e-6, "s")
    return out
