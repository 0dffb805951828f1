"""Command line front end.

Subcommands
    bounds    two-sided distance bounds per family and volume fraction
    witness   explicit far-apart region pairs at finite n
    lattice   verify: exhaustive extremal-pair check on a small grid
              scaling: normalized slab distance on the lattice cube
    sections  l_p section area and cap-volume curves with their limits
    check     pass/fail suites: sodin, transfer, tails, avgdist, all
    asympt    inverse-distribution asymptote ratios

Rows print to stdout as CSV (default) or JSON lines, floats at 12
significant digits.  --out FILE writes the same rows to FILE plus a
sidecar FILE.manifest.json recording the argv, parameters, seed,
package versions and a timestamp; replaying the recorded argv
reproduces the data file byte for byte (samplers are deterministic in
seed and parameters).

Exit codes: 0 success; 1 a check suite found a violated inequality;
2 usage or domain error; 3 exhaustive-search budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import sys
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import __version__
from .bodies import BodyFamily
from .errors import BudgetExceededError, DomainError, IsodistError
from .lattice import DEFAULT_PAIR_BUDGET, Grid, scaled_max_distance, verify_extremal_pairs
from .montecarlo import (average_distance_experiment, cutoff_gradient_check,
                         cutoff_product_check, exp_tail_check,
                         t_map_lipschitz_check, transfer_map_check)
from .rng import generate
from .sections import psi_p_density_limit, section_curve
from .specfun import (phi_inv, phi_inv_asymptote, psi_p, psi_p_inv,
                      psi_p_inv_asymptote)
from .witness import (ball_caps_witness, bound_report, cube_diagonal_witness,
                      lp_caps_witness, simplex_corner_witness)


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return ""
    return str(value)


def _emit(rows: list[dict], args, parameters: dict) -> None:
    """Render rows as CSV or JSON lines, to stdout or --out plus manifest."""
    if args.format == "json":
        lines = []
        for row in rows:
            clean = {k: (float(f"{v:.12g}") if isinstance(v, float) else v)
                     for k, v in row.items() if v is not None}
            lines.append(json.dumps(clean))
        text = "\n".join(lines) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow([_fmt(v) for v in row.values()])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        _write_manifest(args, parameters)
    else:
        sys.stdout.write(text)


@dataclass(frozen=True)
class RunManifest:
    command: list
    parameters: dict
    seed: int | None
    versions: dict
    timestamp_utc: str
    output_path: str


def _write_manifest(args, parameters: dict) -> None:
    import scipy

    manifest = RunManifest(
        command=list(args._argv),
        parameters=parameters,
        seed=parameters.get("seed"),
        versions={"isodist": __version__, "numpy": np.__version__,
                  "scipy": scipy.__version__,
                  "python": ".".join(map(str, sys.version_info[:3]))},
        timestamp_utc=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        output_path=args.out,
    )
    with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(asdict(manifest), fh, indent=2)
        fh.write("\n")


def _family(args) -> BodyFamily:
    if args.family == "lp":
        if args.p is None:
            raise DomainError("--family lp needs --p")
        return BodyFamily.lp(args.p)
    return BodyFamily(args.family)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise DomainError(f"grid must be start:stop:step, got {spec!r}") from None
    if step <= 0 or stop <= start:
        raise DomainError(f"empty grid {spec!r}")
    return np.arange(start, stop + 0.5 * step, step)


# ------------------------------------------------------------- commands

def cmd_bounds(args) -> int:
    family = _family(args)
    rows = []
    for eps in args.eps:
        rep = bound_report(family, eps)
        rows.append({
            "family": rep.family,
            "p": family.p,
            "epsilon": float(eps),
            "lower": rep.lower,
            "upper": rep.upper,
            "exact_limit": rep.exact_limit,
            "manhattan_scaled_limit": rep.manhattan_scaled_limit,
            "parametric": rep.parametric,
        })
    _emit(rows, args, {"family": family.label(), "eps": args.eps})
    return 0


def cmd_witness(args) -> int:
    family = _family(args)
    rows = []
    for eps in args.eps:
        if family.kind == "ball":
            pair = ball_caps_witness(args.n, eps)
        elif family.kind == "cube":
            pair = cube_diagonal_witness(args.n, eps)
        elif family.kind == "simplex":
            pair = simplex_corner_witness(args.n, eps)
        else:
            pair = lp_caps_witness(args.n, family.p, eps)
        rows.append({
            "family": pair.family,
            "p": family.p,
            "n": pair.n,
            "epsilon": pair.epsilon,
            "distance": pair.distance,
            "limit_value": pair.limit_value,
            "region_a": str(pair.region_a),
            "region_b": str(pair.region_b),
        })
    _emit(rows, args, {"family": family.label(), "n": args.n, "eps": args.eps})
    return 0


def cmd_lattice_verify(args) -> int:
    check = verify_extremal_pairs(Grid(args.k, args.n), args.r, args.s,
                                  budget=args.budget)
    _emit([{
        "k": check.k, "n": check.n, "r": check.r, "s": check.s,
        "brute_max": check.brute_max,
        "segment_distance": check.segment_distance,
        "agree": check.agree,
        "search_space": check.search_space,
    }], args, {"k": args.k, "n": args.n, "r": args.r, "s": args.s,
               "budget": args.budget})
    return 0


def cmd_lattice_scaling(args) -> int:
    rows = []
    for eps in args.eps:
        scaled = scaled_max_distance(args.n, args.m, eps)
        rows.append({
            "n": args.n, "m": args.m, "epsilon": float(eps),
            "scaled_distance": scaled,
            "limit_value": bound_report(BodyFamily.cube(), eps).manhattan_scaled_limit,
        })
    _emit(rows, args, {"n": args.n, "m": args.m, "eps": args.eps})
    return 0


def cmd_sections(args) -> int:
    grid = _parse_grid(args.grid)
    rows = []
    for n in args.n:
        curve = section_curve(args.p, n, grid)
        tail_limit = psi_p(-grid, args.p)
        area_limit = psi_p_density_limit(grid, args.p)
        for i, x in enumerate(grid):
            rows.append({
                "p": args.p, "n": n, "x": float(x),
                "area": float(curve.areas[i]),
                "tail": float(curve.tails[i]),
                "area_limit": float(area_limit[i]),
                "tail_limit": float(tail_limit[i]),
            })
    _emit(rows, args, {"p": args.p, "n": args.n, "grid": args.grid})
    return 0


def _spread_cloud(seed: int, name: str, count: int, n: int) -> np.ndarray:
    """Positive-orthant points with log-spread radii covering both cutoff
    bands (||x||_2 around 1/sqrt(n) and ||x||_1 around n) and their
    plateaus on either side."""
    lo, hi = math.log10(0.1 / math.sqrt(n)), math.log10(4.0 * math.sqrt(n))

    def fill(g, m):
        u = g.standard_exponential((m, n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = 10.0 ** g.uniform(lo, hi, (m, 1))
        return r * u
    return generate(seed, name, count, fill)


def _check_lines(args) -> list[tuple[bool, str]]:
    out = []
    n, samples, seed = args.n, args.samples, args.seed
    suites = ["sodin", "transfer", "tails", "avgdist"] if args.suite == "all" \
        else [args.suite]
    if "sodin" in suites:
        # the cloud caps fix the documented corpus output; keep them
        for dim in sorted({2, 5, min(n, 20)}):
            pts = generate(seed, f"check-sodin-{dim}", min(samples, 10_000),
                           lambda g, m, d=dim: g.standard_exponential((m, d)))
            lip = t_map_lipschitz_check(pts)
            out.append((lip.ok, f"t-map operator norm <= bound at n={dim} "
                        f"(max excess {lip.max_excess:.3g})"))
        pts = _spread_cloud(seed + 1, f"check-cutoff-{n}", min(samples, 10_000), n)
        cut = cutoff_gradient_check(pts, 1.0, 1.0)
        out.append((cut.ok, f"cutoff plateaus and gradient bounds at n={n} "
                    f"({cut.plateau_violations} plateau, "
                    f"{cut.gradient_violations} gradient violations, "
                    f"{cut.skipped_near_kink} skipped at kinks)"))
        prod = cutoff_product_check(pts[: min(samples, 1000)], 1.0, 1.0)
        out.append((prod.ok, f"cutoff product gradient inequality at n={n} "
                    f"({prod.gradient_violations} violations)"))
    if "tails" in suites:
        worst = None
        ok_all = True
        for dim in sorted({3, 5, 10, min(n, 20)}):
            for alpha in (0.1, 0.2, 0.5, 0.9):
                chk = exp_tail_check(dim, alpha, samples, seed)
                ok_all &= chk.ok
                margin = chk.bound - chk.erlang
                if worst is None or margin < worst:
                    worst = margin
        out.append((ok_all, f"exponential-sum tail below (alpha e)^n/sqrt(2 pi n) "
                    f"(tightest margin {worst:.3g})"))
    if "transfer" in suites:
        chk = transfer_map_check(min(n, 10), samples, seed)
        out.append((chk.ok, f"gaussian-to-cube transfer: uniform coordinates "
                    f"(min KS p={chk.min_ks_pvalue:.3g}) and contraction "
                    f"(max ratio {chk.max_direction_ratio:.9f})"))
    if "avgdist" in suites:
        res = average_distance_experiment(max(n, 50), samples, seed)
        out.append((res.ok, f"mean pair distance {res.mean_distance.estimate:.4f} "
                    f">= sqrt(n/(2 pi e)) = {res.lower_bound:.4f} at n={max(n, 50)}"))
    return out


def cmd_check(args) -> int:
    if args.n < 1:
        raise DomainError(f"--n must be at least 1, got {args.n}")
    lines = _check_lines(args)
    failed = False
    for ok, text in lines:
        print(("PASS " if ok else "FAIL ") + text)
        failed |= not ok
    return 1 if failed else 0


def cmd_asympt(args) -> int:
    rows = []
    for eps in args.eps:
        if args.which == "phi-inv":
            actual = phi_inv(eps)
            asym = phi_inv_asymptote(eps)
            p = None
        else:
            if args.p is None:
                raise DomainError("--which psi-inv needs --p")
            actual = psi_p_inv(eps, args.p)
            asym = psi_p_inv_asymptote(eps, args.p)
            p = args.p
        rows.append({
            "which": args.which, "p": p, "epsilon": float(eps),
            "actual": float(actual), "asymptote": asym,
            "ratio": asym / actual,
        })
    _emit(rows, args, {"which": args.which, "p": args.p, "eps": args.eps})
    return 0


# ------------------------------------------------------------- parser

def _floats(text: str) -> list[float]:
    """Comma-separated float list, so --eps 0.1,0.01 and repeated
    --eps flags both work."""
    return [float(v) for v in text.split(",") if v]


def _add_output_args(sub):
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, metavar="FILE")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isodist",
        description="Dimension-free distance bounds between small subsets "
                    "of unit-volume convex bodies.")
    subs = parser.add_subparsers(dest="command", required=True)

    fam_kw = dict(choices=("ball", "cube", "simplex", "lp"), required=True)

    b = subs.add_parser("bounds", help="two-sided distance bounds")
    b.add_argument("--family", **fam_kw)
    b.add_argument("--p", type=float, default=None)
    b.add_argument("--eps", type=_floats, action="extend", required=True)
    _add_output_args(b)
    b.set_defaults(fn=cmd_bounds)

    w = subs.add_parser("witness", help="explicit far-apart region pairs")
    w.add_argument("--family", **fam_kw)
    w.add_argument("--p", type=float, default=None)
    w.add_argument("--n", type=int, required=True)
    w.add_argument("--eps", type=_floats, action="extend", required=True)
    _add_output_args(w)
    w.set_defaults(fn=cmd_witness)

    lat = subs.add_parser("lattice", help="discrete grid checks")
    lat_subs = lat.add_subparsers(dest="lattice_command", required=True)
    lv = lat_subs.add_parser("verify", help="exhaustive extremal-pair check")
    lv.add_argument("--k", type=int, required=True)
    lv.add_argument("--n", type=int, required=True)
    lv.add_argument("--r", type=int, required=True)
    lv.add_argument("--s", type=int, required=True)
    lv.add_argument("--budget", type=int, default=DEFAULT_PAIR_BUDGET)
    _add_output_args(lv)
    lv.set_defaults(fn=cmd_lattice_verify)
    ls = lat_subs.add_parser("scaling", help="normalized slab distance")
    ls.add_argument("--n", type=int, required=True)
    ls.add_argument("--m", type=int, required=True)
    ls.add_argument("--eps", type=_floats, action="extend", required=True)
    _add_output_args(ls)
    ls.set_defaults(fn=cmd_lattice_scaling)

    sec = subs.add_parser("sections", help="section area and cap volume curves")
    sec.add_argument("--p", type=float, required=True)
    sec.add_argument("--n", type=lambda v: [int(x) for x in v.split(",")],
                     required=True, help="comma-separated dimensions")
    sec.add_argument("--grid", default="0:3:0.01", help="start:stop:step")
    _add_output_args(sec)
    sec.set_defaults(fn=cmd_sections)

    chk = subs.add_parser("check", help="pass/fail inequality suites")
    chk.add_argument("suite", choices=("sodin", "transfer", "tails",
                                       "avgdist", "all"))
    chk.add_argument("--n", type=int, default=20)
    chk.add_argument("--samples", type=int, default=100_000)
    chk.add_argument("--seed", type=int, default=7)
    chk.set_defaults(fn=cmd_check)

    asy = subs.add_parser("asympt", help="inverse-distribution asymptotes")
    asy.add_argument("--which", choices=("phi-inv", "psi-inv"), required=True)
    asy.add_argument("--p", type=float, default=None)
    asy.add_argument("--eps", type=_floats, action="extend", required=True)
    _add_output_args(asy)
    asy.set_defaults(fn=cmd_asympt)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """One parser per process: parse_args never changes it, and building
    it costs more than most commands take to run."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    args._argv = argv
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except IsodistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
