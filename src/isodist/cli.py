"""Command line front end.

Subcommands
    bounds    two-sided distance bounds per family and volume fraction
    witness   explicit far-apart region pairs at finite n
    lattice   verify: exhaustive extremal-pair check on a small grid
              scaling: normalized slab distance on the lattice cube
    sections  l_p section area and cap-volume curves with their limits
    check     pass/fail suites: sodin, transfer, tails, avgdist, all
    asympt    inverse-distribution asymptote ratios

Each command but check builds its rows, and one writer prints them to
stdout as CSV (default) or JSON lines, floats at 12 significant digits.
--out FILE writes the same rows to FILE plus a sidecar
FILE.manifest.json recording the argv, the parsed options (defaults
included, --format and --out left out), package versions and a
timestamp; replaying the recorded argv reproduces the data file byte
for byte.  Options shared by several commands (--family and --p, --eps,
--format and --out) are declared once, in parent parsers.

Exit codes: 0 success; 1 a check suite found a violated inequality, or
Monte Carlo evidence more than 5 standard errors off; 2 usage or domain
error, or an --out FILE that cannot be written; 3 exhaustive-search
budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import sys
from dataclasses import asdict
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
from .witness import (bound_report, cube_diagonal_witness, lp_caps_witness,
                      simplex_corner_witness)


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return ""
    return str(value)


# namespace entries that are not options of the computation: the two
# dispatch functions, the output choice and the recorded argv
_NOT_PARAMETERS = {"fn", "rows", "format", "out", "_argv"}


def _emit(rows: list[dict], args) -> None:
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
    if not args.out:
        sys.stdout.write(text)
        return
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    import scipy

    manifest = {
        "command": list(args._argv),
        "parameters": {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS},
        "versions": {"isodist": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": ".".join(map(str, sys.version_info[:3]))},
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "output_path": args.out,
    }
    with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _write_rows(args) -> int:
    _emit(args.rows(args), args)
    return 0


# sections prints a row per height and dimension, about half a kilobyte
# of Python objects each before they are written
_MAX_SECTION_ROWS = 10**6


# check draws each cloud whole: 10^7 coordinates are 80 MB
_MAX_CHECK_COORDS = 10**7


def _parse_grid(spec: str, dims: int) -> np.ndarray:
    """The heights of --grid; their count times dims is at most _MAX_SECTION_ROWS."""
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise DomainError(f"grid must be start:stop:step, got {spec!r}") from None
    if not (all(map(math.isfinite, (start, stop, step))) and step > 0 and stop > start):
        raise DomainError(f"grid needs finite start < stop and step > 0, got {spec!r}")
    # counted before np.arange allocates them; the quotient may overflow to inf
    points = (stop - start) / step + 1.0
    if not points * dims <= _MAX_SECTION_ROWS:
        raise DomainError(f"grid {spec!r} gives {points * dims:.7g} rows over {dims} "
                          f"dimension(s); at most {_MAX_SECTION_ROWS} are allowed")
    return np.arange(start, stop + 0.5 * step, step)


# ------------------------------------------------------------- commands

def cmd_bounds(args) -> list[dict]:
    family = BodyFamily(args.family, args.p)
    rows = []
    for eps in args.eps:
        rep = bound_report(family, eps)
        rows.append({
            "family": rep.family,
            "p": args.p,
            "epsilon": float(eps),
            "lower": rep.lower,
            "upper": rep.upper,
            "exact_limit": rep.exact_limit,
            "manhattan_scaled_limit": rep.manhattan_scaled_limit,
            "parametric": rep.parametric,
        })
    return rows


def cmd_witness(args) -> list[dict]:
    family = BodyFamily(args.family, args.p)
    rows = []
    for eps in args.eps:
        if family.kind == "cube":
            pair = cube_diagonal_witness(args.n, eps)
        elif family.kind == "simplex":
            pair = simplex_corner_witness(args.n, eps)
        else:
            pair = lp_caps_witness(args.n, family.p or 2.0, eps)
        rows.append({
            "family": pair.family,
            "p": args.p,
            "n": pair.n,
            "epsilon": pair.epsilon,
            "distance": pair.distance,
            "limit_value": pair.limit_value,
            "region_a": str(pair.region_a),
            "region_b": str(pair.region_b),
        })
    return rows


def cmd_lattice_verify(args) -> list[dict]:
    return [asdict(verify_extremal_pairs(Grid(args.k, args.n), args.r, args.s,
                                         budget=args.budget))]


def cmd_lattice_scaling(args) -> list[dict]:
    rows = []
    for eps in args.eps:
        scaled = scaled_max_distance(args.n, args.m, eps)
        rows.append({
            "n": args.n, "m": args.m, "epsilon": float(eps),
            "scaled_distance": scaled,
            "limit_value": bound_report(BodyFamily.cube(), eps).lower,
        })
    return rows


def cmd_sections(args) -> list[dict]:
    grid = _parse_grid(args.grid, len(args.n))
    heights = grid.tolist()
    area_limits = psi_p_density_limit(grid, args.p).tolist()
    tail_limits = psi_p(-grid, args.p).tolist()
    rows = []
    for n in args.n:
        curve = section_curve(args.p, n, grid)
        rows.extend({"p": args.p, "n": n, "x": x, "area": area, "tail": tail,
                     "area_limit": area_limit, "tail_limit": tail_limit}
                    for x, area, tail, area_limit, tail_limit
                    in zip(heights, curve.areas.tolist(), curve.tails.tolist(),
                           area_limits, tail_limits))
    return rows


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


def cmd_check(args) -> int:
    if args.n < 1:
        raise DomainError(f"--n must be at least 1, got {args.n}")
    out = []
    n, samples, seed = args.n, args.samples, args.seed
    suites = ["sodin", "transfer", "tails", "avgdist"] if args.suite == "all" \
        else [args.suite]
    # the largest cloud of each suite, (points, dimension), counted before any is drawn
    clouds = {"sodin": (min(samples, 10_000), max(n, 5)), "tails": (samples, max(min(n, 20), 10)),
              "transfer": (samples, min(n, 10)), "avgdist": (samples, max(n, 50))}
    for suite in suites:
        m, dim = clouds[suite]
        if m * dim > _MAX_CHECK_COORDS:
            raise DomainError(f"check {suite} would draw {m} points of dimension {dim} in "
                              f"one cloud, {m * dim} coordinates; at most "
                              f"{_MAX_CHECK_COORDS} are allowed")
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
        chks = [exp_tail_check(dim, alpha, samples, seed)
                for dim in sorted({3, 5, 10, min(n, 20)})
                for alpha in (0.1, 0.2, 0.5, 0.9)]
        worst = min(chk.bound - chk.erlang for chk in chks)
        out.append((all(chk.bound_ok for chk in chks),
                    f"exponential-sum tail below (alpha e)^n/sqrt(2 pi n) "
                    f"(tightest margin {worst:.3g})"))
        off = [f"n={chk.n} alpha={chk.alpha:g}" for chk in chks if not chk.mc_ok]
        detail = "off at " + ", ".join(off) if off else f"{len(chks)} cases"
        out.append((not off, "Monte Carlo tails within 5 standard errors of the "
                    f"exact Erlang values ({detail})"))
    if "transfer" in suites:
        chk = transfer_map_check(min(n, 10), samples, seed)
        out.append((chk.uniform_ok, "gaussian-to-cube transfer: uniform coordinates "
                    f"at 5 standard errors (min KS p={chk.min_ks_pvalue:.3g})"))
        out.append((chk.contraction_ok, "gaussian-to-cube transfer: contraction "
                    f"(max ratio {chk.max_direction_ratio:.9f})"))
    if "avgdist" in suites:
        res = average_distance_experiment(max(n, 50), samples, seed)
        out.append((res.ok, f"mean pair distance {res.mean_distance.estimate:.4f} "
                    f">= sqrt(n/(2 pi e)) = {res.lower_bound:.4f} at n={max(n, 50)}"))
    # every suite runs before the first line prints, so bad input prints none
    for ok, text in out:
        print(("PASS " if ok else "FAIL ") + text)
    return 0 if all(ok for ok, _ in out) else 1


def cmd_asympt(args) -> list[dict]:
    if args.which == "phi-inv" and args.p is not None:
        raise DomainError("--which phi-inv takes no --p")
    if args.which == "psi-inv" and args.p is None:
        raise DomainError("--which psi-inv needs --p")
    rows = []
    for eps in args.eps:
        if args.which == "phi-inv":
            actual, asym = phi_inv(eps), phi_inv_asymptote(eps)
        else:
            actual, asym = psi_p_inv(eps, args.p), psi_p_inv_asymptote(eps, args.p)
        rows.append({
            "which": args.which, "p": args.p, "epsilon": float(eps),
            "actual": float(actual), "asymptote": asym,
            "ratio": asym / actual,
        })
    return rows


# ------------------------------------------------------------- parser

def _comma_list(kind):
    """Parser of a comma-separated list of kind, for an option with
    action="extend", so --eps 0.1,0.01 and repeated --eps flags both work.
    Empty entries are skipped; a bad entry or a list with no values is a
    usage error, which argparse reports with the option's name."""
    def parse(text: str) -> list:
        try:
            values = [kind(v) for v in text.split(",") if v]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated list of {kind.__name__}s: {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError(f"no values in {text!r}")
        return values
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isodist",
        description="Dimension-free distance bounds between small subsets "
                    "of unit-volume convex bodies.")
    subs = parser.add_subparsers(dest="command", required=True)

    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", choices=("ball", "cube", "simplex", "lp"),
                        required=True)
    family.add_argument("--p", type=float, default=None)
    eps = argparse.ArgumentParser(add_help=False)
    eps.add_argument("--eps", type=_comma_list(float), action="extend", required=True)
    # a child parser inherits the defaults too: every command that takes
    # --out runs through _write_rows, which calls its own args.rows
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    output.add_argument("--out", default=None, metavar="FILE")
    output.set_defaults(fn=_write_rows)

    b = subs.add_parser("bounds", help="two-sided distance bounds",
                        parents=[family, eps, output])
    b.set_defaults(rows=cmd_bounds)

    w = subs.add_parser("witness", help="explicit far-apart region pairs",
                        parents=[family, eps, output])
    w.add_argument("--n", type=int, required=True)
    w.set_defaults(rows=cmd_witness)

    lat = subs.add_parser("lattice", help="discrete grid checks")
    lat_subs = lat.add_subparsers(dest="lattice_command", required=True)
    lv = lat_subs.add_parser("verify", help="exhaustive extremal-pair check",
                             parents=[output])
    lv.add_argument("--k", type=int, required=True)
    lv.add_argument("--n", type=int, required=True)
    lv.add_argument("--r", type=int, required=True)
    lv.add_argument("--s", type=int, required=True)
    lv.add_argument("--budget", type=int, default=DEFAULT_PAIR_BUDGET)
    lv.set_defaults(rows=cmd_lattice_verify)
    ls = lat_subs.add_parser("scaling", help="normalized slab distance",
                             parents=[eps, output])
    ls.add_argument("--n", type=int, required=True)
    ls.add_argument("--m", type=int, required=True)
    ls.set_defaults(rows=cmd_lattice_scaling)

    sec = subs.add_parser("sections", help="section area and cap volume curves",
                          parents=[output])
    sec.add_argument("--p", type=float, required=True)
    sec.add_argument("--n", type=_comma_list(int), action="extend", required=True,
                     help="comma-separated dimensions")
    sec.add_argument("--grid", default="0:3:0.01",
                     help="start:stop:step; points times dimensions at most 10^6")
    sec.set_defaults(rows=cmd_sections)

    chk = subs.add_parser("check", help="pass/fail inequality suites")
    chk.add_argument("suite", choices=("sodin", "transfer", "tails",
                                       "avgdist", "all"))
    chk.add_argument("--n", type=int, default=20)
    chk.add_argument("--samples", type=int, default=100_000)
    chk.add_argument("--seed", type=int, default=7)
    chk.set_defaults(fn=cmd_check)

    asy = subs.add_parser("asympt", help="inverse-distribution asymptotes",
                          parents=[eps, output])
    asy.add_argument("--which", choices=("phi-inv", "psi-inv"), required=True)
    asy.add_argument("--p", type=float, default=None)
    asy.set_defaults(rows=cmd_asympt)

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
    except (IsodistError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
