"""Seeded operation schedules for the benchmark workloads.

A workload is an endless sequence of blocks.  Every block holds the same
operation slots in the same order; the seed only moves the continuous
parameters inside fixed strata (dimension, eps, sample size, ...).  Each
slot walks its strata from block to block, so a few consecutive blocks
cover every stratum, and two seeds put the same mix of work in the same
place on the time line.  That keeps throughput and latency percentiles
comparable across seeds while every input still comes from the seed.

Nothing here imports isodist: the worker and the reference side both
rebuild the same operations from (workload, seed).
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator

WORKLOADS = ("analytic", "sampling", "lemma_checks", "lattice")

EPS_RANGE = (1e-15, 0.4)
README_GRID = "0:3:0.01"      # the 301-point grid of the sections command
CLI_SECTIONS_GRID = "0:2:0.05"
SAMPLER_NS = (20, 100, 400)
SAMPLER_FAMILIES = ("ball", "lp", "cube", "simplex")
SAMPLER_P = 1.5
VERIFY_SUBSETS = (300, 4000)  # C(k^n, r) range of the exhaustive checks


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


class _Slots:
    """Stratified draws.  A parameter at `offset` that advances `step`
    strata per block sits in stratum (step * block + offset) mod STRATA of
    its range, at a seeded position inside that stratum."""

    STRATA = 64

    def __init__(self, rng: random.Random, block: int):
        self.rng = rng
        self.block = block

    def u(self, offset: int, step: int = 27) -> float:
        k = (step * self.block + offset) % self.STRATA
        return (k + self.rng.random()) / self.STRATA

    def eps(self, offset: int, step: int = 27) -> float:
        return _log_uniform(self.u(offset, step), *EPS_RANGE)

    def int_log(self, offset: int, lo: int, hi: int, step: int = 27) -> int:
        return min(hi, int(_log_uniform(self.u(offset, step), lo, hi + 1)))

    def p(self, offset: int) -> float:
        return 1.0 + self.u(offset, 53)

    def seed(self) -> int:
        return self.rng.randrange(1, 2**31)


_FAMILIES = ("ball", "cube", "simplex", "lp")


def _analytic_block(s: _Slots) -> list[dict]:
    b = s.block
    ops = []
    for j, fam in enumerate(_FAMILIES):
        ops.append({"kind": "bound_report", "family": fam,
                    "p": s.p(j) if fam == "lp" else None, "eps": s.eps(j)})
    ops.append({"kind": "simplex_corner", "n": s.int_log(4, 2, 1000), "eps": s.eps(4, 41)})
    for j in (5, 6):
        ops.append({"kind": "cube_diagonal", "n": 1 + int(100 * s.u(2 * j)),
                    "eps": s.eps(j, 41)})
    fam = _FAMILIES[b % 4]
    ops.append({"kind": "distance_quad", "family": fam,
                "p": s.p(7) if fam == "lp" else None, "eps": s.eps(7)})
    ops.append({"kind": "lp_caps", "n": s.int_log(8, 2, 1000), "p": s.p(8),
                "eps": s.eps(8, 41)})
    ops.append({"kind": "ball_caps", "n": s.int_log(9, 2, 1000), "eps": s.eps(9, 41)})
    ops.append({"kind": "section_curve", "p": s.p(10), "n": s.int_log(10, 2, 1000),
                "grid": README_GRID})
    ops.extend(_cli_slots(s))
    return ops


def _cli_slots(s: _Slots) -> list[dict]:
    """The README's bounds, witness, sections and asympt commands."""
    b = s.block
    fam = _FAMILIES[(b + 1) % 4]
    argv = ["bounds", "--family", fam]
    if fam == "lp":
        argv += ["--p", repr(round(s.p(11), 3))]
    argv += ["--eps", f"{s.eps(11)!r},{s.eps(12, 41)!r}"]
    out = [{"kind": "cli", "argv": argv}]
    argv = ["witness", "--family", "ball" if b % 2 else "lp"]
    if b % 2 == 0:
        argv += ["--p", repr(round(s.p(13), 3))]
    argv += ["--n", str(s.int_log(13, 2, 1000)), "--eps", repr(s.eps(13, 41))]
    out.append({"kind": "cli", "argv": argv})
    ns = sorted(s.int_log(14 + 5 * i, 2, 1000) for i in range(3))
    out.append({"kind": "cli", "argv": [
        "sections", "--p", repr(round(s.p(14), 3)),
        "--n", ",".join(map(str, ns)), "--grid", CLI_SECTIONS_GRID]})
    argv = ["asympt"]
    if b % 2:
        argv += ["--which", "phi-inv"]
    else:
        argv += ["--which", "psi-inv", "--p", repr(round(s.p(17), 3))]
    argv += ["--eps", ",".join(repr(s.eps(17 + 5 * i)) for i in range(3))]
    out.append({"kind": "cli", "argv": argv})
    return out


def _sampling_block(s: _Slots) -> list[dict]:
    b = s.block
    ops = []
    for j, (fam, n) in enumerate(itertools.product(SAMPLER_FAMILIES, SAMPLER_NS)):
        coords = _log_uniform(s.u(j), 1e5, 5e5)
        ops.append({"kind": "sample_uniform", "family": fam,
                    "p": SAMPLER_P if fam == "lp" else None, "n": n,
                    "count": max(2, round(coords / n)), "seed": s.seed()})
    fam = SAMPLER_FAMILIES[b % 4]
    n = SAMPLER_NS[(b // 4) % 3]
    p = SAMPLER_P if fam == "lp" else None
    ops.append({"kind": "estimate_cap_volume", "family": fam, "p": p, "n": n,
                "a": cap_height(fam, p, n, _log_uniform(s.u(12), 0.02, 0.4)),
                "count": max(2, round(_log_uniform(s.u(13, 41), 1e5, 5e5) / n)),
                "seed": s.seed()})
    ops.append({"kind": "exp_tail", "n": 3 + int(18 * s.u(14)),
                "alpha": 0.1 + 0.8 * s.u(15, 41),
                "count": round(_log_uniform(s.u(16, 53), 2e4, 1e5)), "seed": s.seed()})
    ops.append({"kind": "transfer", "n": 2 + int(9 * s.u(17)),
                "count": round(_log_uniform(s.u(18, 41), 5e3, 2e4)), "seed": s.seed()})
    n = s.int_log(19, 1, 200)
    ops.append({"kind": "avgdist", "n": n, "seed": s.seed(),
                "count": max(2, round(_log_uniform(s.u(20, 41), 1e5, 5e5) / n))})
    return ops


def cloud(op: dict, spread: bool):
    """Positive-orthant points for the lemma checks: exponential
    coordinates, or unit directions with log-uniform radii spanning both
    cutoff bands and their plateaus (the `check sodin` shape)."""
    import numpy as np

    g = np.random.Generator(np.random.PCG64(op["seed"]))
    n, m = op["n"], op["points"]
    u = g.standard_exponential((m, n))
    if not spread:
        return u
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    lo, hi = math.log10(0.1 / math.sqrt(n)), math.log10(4.0 * math.sqrt(n))
    return 10.0 ** g.uniform(lo, hi, (m, 1)) * u


def unit_radius(family: str, n: int, p: float | None = None) -> float:
    """Scale that gives the family's body volume one (cube side 1)."""
    if family == "cube":
        return 1.0
    if family == "simplex":
        return math.exp((math.lgamma(n + 1.0) - 1.5 * math.log(n)) / (n - 1.0))
    p = 2.0 if family == "ball" else p
    return math.exp(math.lgamma(1.0 + n / p) / n) / (2.0 * math.gamma(1.0 + 1.0 / p))


def cap_height(family: str, p: float | None, n: int, volume: float) -> float:
    """Height a with P(x_1 >= a) = volume for a uniform point of the body."""
    omega = unit_radius(family, n, p)
    if family == "cube":
        return 1.0 - volume
    if family == "simplex":   # x_1 / omega ~ Beta(1, n - 1)
        return omega * (1.0 - volume ** (1.0 / (n - 1.0)))
    from scipy import special

    p = 2.0 if family == "ball" else p
    z = special.betaincinv(1.0 / p, (n - 1.0) / p + 1.0, 1.0 - 2.0 * volume)
    return omega * z ** (1.0 / p)


LEMMA_KINDS = ("tmap_check", "cutoff_check", "product_check")
LEMMA_POINTS = (20, 200)


def _lemma_block(s: _Slots) -> list[dict]:
    ops = []
    for j, kind in enumerate(LEMMA_KINDS):
        for i in range(2):
            ops.append({"kind": kind, "n": s.int_log(5 * j + 8 * i, 2, 50),
                        "points": round(_log_uniform(s.u(3 * j + i, 41), *LEMMA_POINTS)),
                        "c1": 1.0, "c2": 1.0, "seed": s.seed()})
    return ops


def verify_pool() -> list[tuple[int, int, int]]:
    """Every (k, n, r) with k^n <= 32 whose C(k^n, r) lies in VERIFY_SUBSETS,
    sorted by the enumeration cost C(k^n, r) * k^n."""
    lo, hi = VERIFY_SUBSETS
    pool = []
    for k in range(2, 33):
        for n in itertools.count(1):
            size = k**n
            if size > 32:
                break
            pool += [(math.comb(size, r) * size, k, n, r) for r in range(1, size + 1)
                     if lo <= math.comb(size, r) <= hi]
    return [t[1:] for t in sorted(pool)]


def _lattice_block(s: _Slots, pool: list[tuple[int, int, int]]) -> list[dict]:
    b, rng = s.block, s.rng
    # m = 64 stops at n = 100 (about 1 s a call); n = 200 at m = 64 would take
    # 4 s, a quarter of a run, and the throughput would hinge on where the
    # run's end falls inside that one call.
    m = (16, 64)[b % 2]
    ops = [{"kind": "scaled_max_distance", "n": s.int_log(0, 30, 200 if m == 16 else 100),
            "m": m, "eps": _log_uniform(s.u(5, 41), 1e-3, 0.4)}]
    for j in range(4):
        k, n, r = pool[int(s.u(30 + 16 * j) * len(pool))]
        size = k**n
        ops.append({"kind": "verify", "k": k, "n": n, "r": r,
                    "s": rng.randint(1, size)})
    for j, n in enumerate((4, 5)):
        size = 5**n
        r = max(1, round(size * (0.05 + 0.3 * s.u(10 + j))))
        t = 1 + (b + j) % 3
        ops += [
            {"kind": "initial_segment", "k": 5, "n": n, "r": r},
            {"kind": "final_segment", "k": 5, "n": n, "r": r},
            {"kind": "t_boundary", "k": 5, "n": n, "r": r, "t": t},
            {"kind": "set_distance", "k": 5, "n": n, "r": r,
             "s": max(1, round(size * (0.05 + 0.3 * s.u(12 + j, 41))))},
        ]
    return ops


def blocks(workload: str, seed: int) -> Iterator[list[dict]]:
    """Endless, deterministic block stream of one workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}-{int(seed)}")
    pool = verify_pool()
    for block in itertools.count():
        s = _Slots(rng, block)
        if workload == "analytic":
            yield _analytic_block(s)
        elif workload == "sampling":
            yield _sampling_block(s)
        elif workload == "lemma_checks":
            yield _lemma_block(s)
        else:
            yield _lattice_block(s, pool)


def operations(workload: str, seed: int) -> Iterator[dict]:
    """Endless, deterministic operation stream of one workload."""
    return itertools.chain.from_iterable(blocks(workload, seed))


def first(workload: str, seed: int, count: int) -> list[dict]:
    return list(itertools.islice(operations(workload, seed), count))


# Blocks per second of summed latency at the seed commit on a 2-vCPU Xeon
# VM (medians of seeds 301-310).  A run does a fixed number of whole blocks,
# sized to take about --seconds there, rather than stopping on the clock:
# then every seed runs the same slots over the same strata, and a run's
# attempted and failed counts depend on the seed alone, not on how fast the
# host happened to be.  A faster change simply finishes sooner.
BLOCK_RATE = {"analytic": 1.55, "sampling": 3.7, "lemma_checks": 1.75, "lattice": 2.1}


def block_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds * BLOCK_RATE[workload]))


def planned(workload: str, seed: int, count: int) -> list[dict]:
    """The first `count` whole blocks of the workload, as one list."""
    return list(itertools.chain.from_iterable(
        itertools.islice(blocks(workload, seed), count)))


def grid(spec: str):
    """Heights start:stop:step, parsed the way the sections command does."""
    import numpy as np

    start, stop, step = (float(v) for v in spec.split(":"))
    return np.arange(start, stop + 0.5 * step, step)


def probe_eps(calls: int) -> list[float]:
    """Log-spaced eps across EPS_RANGE for the scalar probe loops."""
    lo, hi = EPS_RANGE
    return [lo * (hi / lo) ** (i / (calls - 1)) for i in range(calls)]


# Fixed calls run at the start of every traced run, so each per-layer metric
# has samples whichever workload is traced.  Sizes follow the layer metrics'
# definitions (1e5-point specfun vectors, k = 65 and n = 200 cell counting).
PROBES = [
    {"kind": "phi_inv_vec", "points": 100_000},
    {"kind": "phi_p_vec", "points": 100_000, "p": 1.5},
    {"kind": "phi_p_inv", "calls": 200, "p": 1.5},
    *({"kind": "time_to_half", "family": fam, "p": 1.5 if fam == "lp" else None,
       "eps": 1e-6} for fam in _FAMILIES),
    {"kind": "closed_form", "calls": 200},
    {"kind": "bound_report", "family": "cube", "p": None, "eps": 1e-3},
    {"kind": "section_curve", "p": 1.5, "n": 100, "grid": README_GRID},
    {"kind": "lp_tail_volume", "p": 1.5, "n": 200, "x": 2.0},
    {"kind": "cube_sum_cdf", "n": 30, "s": 9.5},
    {"kind": "lp_caps", "n": 200, "p": 1.5, "eps": 1e-3},
    {"kind": "cube_diagonal", "n": 30, "eps": 1e-3},
    {"kind": "cli", "argv": ["bounds", "--family", "cube", "--eps", "0.1,0.01"]},
    {"kind": "cli", "argv": ["witness", "--family", "ball", "--n", "200", "--eps", "0.1"]},
    {"kind": "cli", "argv": ["sections", "--p", "2", "--n", "25,100,400",
                             "--grid", CLI_SECTIONS_GRID]},
    {"kind": "cli", "argv": ["asympt", "--which", "phi-inv", "--eps", "1e-4,1e-8,1e-12"]},
    *({"kind": "sample_uniform", "family": fam, "p": SAMPLER_P if fam == "lp" else None,
       "n": 100, "count": 5000, "seed": 11} for fam in SAMPLER_FAMILIES),
    {"kind": "exp_tail", "n": 10, "alpha": 0.5, "count": 50_000, "seed": 12},
    {"kind": "transfer", "n": 5, "count": 10_000, "seed": 13},
    {"kind": "avgdist", "n": 50, "count": 10_000, "seed": 14},
    *({"kind": kind, "n": 10, "points": 100, "c1": 1.0, "c2": 1.0, "seed": 15}
      for kind in LEMMA_KINDS),
    {"kind": "count_cells", "k": 65, "n": 200, "s": 6400},
    {"kind": "scaled_max_distance", "n": 60, "m": 16, "eps": 0.1},
    {"kind": "verify", "k": 2, "n": 4, "r": 3, "s": 5},
    {"kind": "initial_segment", "k": 5, "n": 4, "r": 100},
    {"kind": "final_segment", "k": 5, "n": 4, "r": 100},
    {"kind": "t_boundary", "k": 5, "n": 4, "r": 100, "t": 2},
    {"kind": "set_distance", "k": 5, "n": 4, "r": 100, "s": 100},
]
