"""Command line front end.

Subcommands
    bounds    two-sided distance bounds per family and volume fraction
    witness   explicit far-apart region pairs at finite n
    lattice   verify: extremal-pair check on a small grid, exact over down-sets
              scaling: normalized slab distance on the lattice cube
    sections  l_p section area and cap-volume curves with their limits
    check     pass/fail suites: sodin, transfer, tails, avgdist, all
    asympt    inverse-distribution asymptote ratios

Each command but check returns its rows as column blocks: a block maps
each column name to a list with one value per row, or to a single value
that holds for every row of the block.  One writer prints the blocks to
stdout as CSV (default) or JSON lines, floats at 12 significant digits,
formatting a column at a time and writing one block after another.
--out FILE writes the same rows to FILE plus a sidecar
FILE.manifest.json recording the argv, the parsed options (defaults
included, --format and --out left out), package versions and a
timestamp; replaying the recorded argv reproduces the data file byte
for byte.  Options shared by several commands (--family and --p, --eps,
--format and --out) are declared once, in parent parsers.

Exit codes: 0 success; 1 a check suite found a violated inequality, or
Monte Carlo evidence more than 5 standard errors off; 2 usage or domain
error, or an --out FILE that cannot be written; 3 extremal-search
budget exceeded (lattice verify --budget caps the C(k^n, r) * C(k^n, s)
subset pairs, not the down-sets swept).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from collections import Counter
from dataclasses import asdict
from functools import lru_cache
from itertools import repeat

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


# the text of f"{v:.12g}", inf, nan and -0.0 included, without a Python call per value
_FLOAT = "%.12g".__mod__

# JSON's names for the floats that _FLOAT writes as inf and nan
_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FLOAT(value)
    if value is None:
        return ""
    return str(value)


def _csv_field(text: str) -> str:
    """csv.writer's minimal quoting, for lineterminator "\n"."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cell(key: str, value) -> str:
    """One value's text: a CSV field when key is "", else the JSON member
    key + value, with key ', "name": ', or "" for None, which JSON lines
    leave out.  JSON reads a float back from its CSV text."""
    text = _fmt(value)
    if not key:
        return _csv_field(text)
    if value is None:
        return ""
    if isinstance(value, float):
        return key + (_JSON_NONFINITE.get(text) or repr(float(text)))
    return key + json.dumps(value)


def _column(key: str, values: list) -> list[str]:
    """_cell of each value; a column of Python floats in one pass."""
    if set(map(type, values)) == {float}:
        texts = list(map(_FLOAT, values))
        if not key:
            return texts
        return [key + (_JSON_NONFINITE.get(t) or repr(float(t))) for t in texts]
    return [_cell(key, v) for v in values]


def _block_text(block: dict, json_lines: bool, header: bool, shared: dict) -> str:
    """The lines of one block.  shared maps (name, id) of each list that
    several blocks hold to its column, None until it is formatted."""
    # the lists of a block have one length; a block of single values is one row
    rows, = {len(v) for v in block.values() if isinstance(v, list)} or {1}
    cols = []
    for name, value in block.items():
        key = f", {json.dumps(name)}: " if json_lines else ""
        ident = name, id(value)
        if not isinstance(value, list):
            cols.append(repeat(_cell(key, value), rows))
        elif ident not in shared:
            cols.append(_column(key, value))
        else:
            if shared[ident] is None:
                shared[ident] = _column(key, value)
            cols.append(shared[ident])
    if json_lines:
        lines = ["{%s}" % "".join(members)[2:] for members in zip(*cols)]
    else:
        lines = list(map(",".join, zip(*cols)))
        if header:
            lines.insert(0, ",".join(map(_csv_field, block)))
        if len(block) == 1:
            # csv quotes a lone empty field, so that its line is not blank
            lines = [line or '""' for line in lines]
    lines.append("")
    return "\n".join(lines)


def _render(blocks: list[dict], json_lines: bool):
    """The text of each block in turn, the CSV header before the first; a
    block's own columns are freed before the next is rendered.  A list that
    several blocks hold is looked for only when there are several."""
    shared = {}
    if len(blocks) > 1:
        uses = Counter((name, id(value)) for block in blocks
                       for name, value in block.items() if isinstance(value, list))
        shared = {key: None for key, count in uses.items() if count > 1}
    for i, block in enumerate(blocks):
        yield _block_text(block, json_lines, i == 0 and not json_lines, shared)


# namespace entries that are not options of the computation: the two
# dispatch functions, the output choice and the recorded argv
_NOT_PARAMETERS = {"fn", "rows", "format", "out", "_argv"}


def _emit(blocks: list[dict], args) -> None:
    """Write the blocks' rows as CSV or JSON lines, to stdout or to --out
    plus its manifest."""
    texts = _render(blocks, args.format == "json")
    if not args.out:
        sys.stdout.writelines(texts)
        return
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(texts)
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


# sections prints a row per height and dimension.  At the cap (--p 1.5 --n
# 5,50,500,5000 --grid 0:2.4:1e-5, 960,005 rows) a CSV run peaks 250 MiB
# above the 81 MiB of the imports, about 270 bytes a row; JSON lines about 330
_MAX_SECTION_ROWS = 10**6


# check draws each cloud whole: 10^7 coordinates are 76 MiB.  At the cap,
# check avgdist --n 50 --samples 200000 peaks 159 MiB above the imports,
# its two clouds and a chunk (308 MiB with x - y and its square formed
# apart), and check transfer --n 10 --samples 1000000 at 258 MiB (495 with
# every cloud kept and the mapped one sorted in a copy)
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

def _fields(items: list, *names: str) -> dict:
    """A column per attribute name, one value per item."""
    return {name: [getattr(item, name) for item in items] for name in names}


def cmd_bounds(args) -> list[dict]:
    family = BodyFamily(args.family, args.p)
    reps = [bound_report(family, eps) for eps in args.eps]
    return [{**_fields(reps, "family"), "p": args.p, "epsilon": args.eps,
             **_fields(reps, "lower", "upper", "exact_limit", "manhattan_scaled_limit",
                       "parametric")}]


def cmd_witness(args) -> list[dict]:
    family = BodyFamily(args.family, args.p)
    if family.kind == "cube":
        pairs = [cube_diagonal_witness(args.n, eps) for eps in args.eps]
    elif family.kind == "simplex":
        pairs = [simplex_corner_witness(args.n, eps) for eps in args.eps]
    else:
        pairs = [lp_caps_witness(args.n, family.p or 2.0, eps) for eps in args.eps]
    return [{**_fields(pairs, "family"), "p": args.p,
             **_fields(pairs, "n", "epsilon", "distance", "limit_value"),
             "region_a": [str(pair.region_a) for pair in pairs],
             "region_b": [str(pair.region_b) for pair in pairs]}]


def cmd_lattice_verify(args) -> list[dict]:
    return [asdict(verify_extremal_pairs(Grid(args.k, args.n), args.r, args.s,
                                         budget=args.budget))]


def cmd_lattice_scaling(args) -> list[dict]:
    return [{"n": args.n, "m": args.m, "epsilon": args.eps,
             "scaled_distance": [scaled_max_distance(args.n, args.m, eps)
                                 for eps in args.eps],
             "limit_value": [bound_report(BodyFamily.cube(), eps).lower
                             for eps in args.eps]}]


def cmd_sections(args) -> list[dict]:
    grid = _parse_grid(args.grid, len(args.n))
    # one list each for every dimension, so the writer formats them once
    shared = {"x": grid.tolist()}
    limits = {"area_limit": psi_p_density_limit(grid, args.p).tolist(),
              "tail_limit": psi_p(-grid, args.p).tolist()}
    blocks = []
    for n in args.n:
        curve = section_curve(args.p, n, grid)
        blocks.append({"p": args.p, "n": n, **shared, "area": curve.areas.tolist(),
                       "tail": curve.tails.tolist(), **limits})
    return blocks


def _spread_cloud(seed: int, name: str, count: int, n: int) -> np.ndarray:
    """Positive-orthant points with log-spread radii covering both cutoff
    bands (||x||_2 around 1/sqrt(n) and ||x||_1 around n) and their
    plateaus on either side."""
    lo, hi = math.log10(0.1 / math.sqrt(n)), math.log10(4.0 * math.sqrt(n))

    def fill(g, m):
        u = g.standard_exponential((m, n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        u *= 10.0 ** g.uniform(lo, hi, (m, 1))
        return u
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
                    f"at 5 standard errors (min KS p <= {chk.min_ks_pvalue:.3g}, Massart's bound)"))
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
    if args.which == "phi-inv":
        actual = [float(phi_inv(eps)) for eps in args.eps]
        asym = [phi_inv_asymptote(eps) for eps in args.eps]
    else:
        actual = [float(psi_p_inv(eps, args.p)) for eps in args.eps]
        asym = [psi_p_inv_asymptote(eps, args.p) for eps in args.eps]
    return [{"which": args.which, "p": args.p, "epsilon": args.eps, "actual": actual,
             "asymptote": asym, "ratio": [b / a for a, b in zip(actual, asym)]}]


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
    lv = lat_subs.add_parser("verify", help="exact extremal-pair check over down-sets",
                             parents=[output])
    lv.add_argument("--k", type=int, required=True)
    lv.add_argument("--n", type=int, required=True)
    lv.add_argument("--r", type=int, required=True)
    lv.add_argument("--s", type=int, required=True)
    lv.add_argument("--budget", type=int, default=DEFAULT_PAIR_BUDGET,
                    help="cap on C(k^n, r) * C(k^n, s), the subset pairs of a sweep over "
                         "every pair (not the down-sets swept); exit 3 past it")
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
