"""Monte Carlo samplers and the numerical lemma checks they feed.

Samplers produce uniform points in each unit-volume body:

    cube     coordinates straight from the generator
    simplex  normalized exponentials: E/||E||_1 is uniform on the
             standard simplex when the E_i are iid Exp(1)
    l_p/ball exponent-p direction plus radial correction: with G_i^p
             iid Gamma(1/p) and random signs, (sign G)/||G||_p follows
             the cone measure on the l_p sphere and U^{1/n} fixes the
             radial law, so the product is uniform in the ball

All batches go through the chunked Philox streams in rng.py, whose chunk
size is fixed, so a batch is a deterministic function of (seed,
parameters).

The check functions make the analytic machinery falsifiable at finite
samples: the normalization map T(x) = x/||x||_1 with its explicit
Jacobian and operator-norm bound, the two radial cutoffs with exact
plateau characterizations and gradient bounds, the product-rule gradient
inequality, the Erlang small-sum tail against its closed bound, the
coordinatewise gaussian-to-cube transfer (1-Lipschitz, uniform output),
and the mean-distance lower bound sqrt(n/(2 pi e)) in high dimension.

Finite differences use central steps of h = 1e-6 over a whole cloud at
once, looping over coordinates only, and skip points within 1e-4 of a
cutoff kink, where one-sided slopes would lie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .bodies import BodyFamily, validate_n
from .errors import DomainError
from .rng import generate
from .specfun import phi, unit_volume_radius

FD_STEP = 1e-6
KINK_RADIUS = 1e-4


@dataclass(frozen=True)
class SampleBatch:
    family: str
    n: int
    count: int
    seed: int
    points: np.ndarray


@dataclass(frozen=True)
class EstimateWithCI:
    estimate: float
    half_width_95: float
    count: int

    @classmethod
    def from_proportion(cls, hits: int, count: int) -> "EstimateWithCI":
        # normal-approximation interval: 1.96 sqrt(p(1-p)/count)
        p = hits / count
        return cls(p, 1.96 * math.sqrt(p * (1.0 - p) / count), count)

    @classmethod
    def from_samples(cls, values: np.ndarray) -> "EstimateWithCI":
        values = np.asarray(values, dtype=float)
        m = values.size
        if m < 2:
            raise DomainError(f"a sample interval needs at least 2 values, got {m}")
        return cls(float(values.mean()),
                   1.96 * float(values.std(ddof=1)) / math.sqrt(m), m)


def _fill_for(family: BodyFamily, n: int):
    if family.kind == "cube":
        return lambda g, m: g.random((m, n))
    if family.kind == "simplex":
        omega = unit_volume_radius("simplex", n)

        def fill(g, m):
            e = g.standard_exponential((m, n))
            return omega * e / e.sum(axis=1, keepdims=True)
        return fill
    p = 2.0 if family.kind == "ball" else family.p
    omega = unit_volume_radius("lp", n, p)

    def fill(g, m):
        # draw order is part of the determinism contract: gamma, signs, radius
        gp = g.standard_gamma(1.0 / p, (m, n)) ** (1.0 / p)
        signs = np.where(g.random((m, n)) < 0.5, -1.0, 1.0)
        u = g.random((m, 1))
        norm = (gp**p).sum(axis=1, keepdims=True) ** (1.0 / p)
        return omega * u ** (1.0 / n) * signs * gp / norm
    return fill


def sample_uniform(family: BodyFamily, n: int, count: int, seed: int) -> SampleBatch:
    """Uniform points in the unit-volume body of the family."""
    n = validate_n(n, 2 if family.kind == "simplex" else 1)
    pts = generate(seed, f"uniform-{family.label()}-{n}", count,
                   _fill_for(family, n))
    return SampleBatch(family.label(), n, int(count), int(seed), pts)


def estimate_cap_volume(family: BodyFamily, n: int, a: float, count: int,
                        seed: int) -> EstimateWithCI:
    """Fraction of sampled points with first coordinate >= a."""
    batch = sample_uniform(family, n, count, seed)
    hits = int(np.count_nonzero(batch.points[:, 0] >= a))
    return EstimateWithCI.from_proportion(hits, batch.count)


# ---------------------------------------------------------------- T map

def t_map(points: np.ndarray) -> np.ndarray:
    """Row-wise normalization x -> x/||x||_1 on the positive orthant."""
    points = np.asarray(points, dtype=float)
    x = np.atleast_2d(points)
    if np.any(x < 0.0):
        raise DomainError("t_map takes points in the positive orthant")
    s = x.sum(axis=1, keepdims=True)
    if np.any(s <= 0.0):
        raise DomainError("t_map undefined at the origin")
    out = x / s
    return out[0] if points.ndim == 1 else out


def t_map_jacobian(x: np.ndarray) -> np.ndarray:
    """Exact Jacobian (d T_j / d x_i) = (delta_ij - T_j(x)) / ||x||_1,
    stacked to (m, n, n) for an (m, n) array of points."""
    x = np.asarray(x, dtype=float)
    s = x.sum(axis=-1, keepdims=True)
    t = x / s
    return (np.eye(x.shape[-1]) - t[..., None, :]) / s[..., None]


def t_map_opnorm_bound(x: np.ndarray):
    """Operator-norm bound (1 + sqrt(n) ||T(x)||_2) / ||x||_1: a float
    for a point, an array of m bounds for an (m, n) array of points."""
    x = np.asarray(x, dtype=float)
    s = x.sum(axis=-1)
    t = x / s[..., None]
    bound = (1.0 + math.sqrt(x.shape[-1]) * np.linalg.norm(t, axis=-1)) / s
    return float(bound) if x.ndim == 1 else bound


def _central_diff(f, x: np.ndarray) -> np.ndarray:
    """Central differences of step FD_STEP for every row of x at once,
    stacked on axis 1; f maps an (m, n) array row by row to a new array."""
    y, cols = x.copy(), []
    for i in range(x.shape[1]):
        y[:, i] = x[:, i] + FD_STEP
        up = f(y)
        y[:, i] = x[:, i] - FD_STEP
        cols.append((up - f(y)) / (2.0 * FD_STEP))
        y[:, i] = x[:, i]
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class TMapCheck:
    count: int
    max_excess: float   # max over points of fd_opnorm/bound - 1, floored at 0
    max_fd_error: float  # max |fd - exact| operator-norm discrepancy
    ok: bool


def t_map_lipschitz_check(points: np.ndarray) -> TMapCheck:
    """Operator norms of finite-difference Jacobians against the bound.

    For each point: central-difference Jacobian, cross-checked against
    the exact one, its 2-norm compared with t_map_opnorm_bound; ok means
    no norm exceeds the bound by more than 1e-6 relative.  Points must
    lie in t_map's domain; the differences are taken of x / sum(x), which
    is smooth wherever the sum is positive, so coordinates below FD_STEP
    are fine.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    t_map(points)
    m, n = points.shape
    rows = max(1, 2**16 // (n * n))  # blocks of about 2^16 Jacobian entries
    worst, fd_err = 0.0, 0.0
    for lo in range(0, m, rows):
        x = points[lo:lo + rows]
        jfd = _central_diff(lambda y: y / y.sum(axis=1, keepdims=True), x)
        fd_err = max(fd_err, float(np.max(
            np.linalg.norm(jfd - t_map_jacobian(x), 2, axis=(1, 2)))))
        ratio = np.linalg.norm(jfd, 2, axis=(1, 2)) / t_map_opnorm_bound(x)
        worst = max(worst, float(np.max(ratio)) - 1.0)
    return TMapCheck(m, worst, fd_err, worst <= 1e-6)


# ---------------------------------------------------------------- cutoffs

def cutoff_h1(points: np.ndarray, c1: float):
    """Radial cutoff clip(2 - c1 sqrt(n) ||x||_2, 0, 1)."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    n = x.shape[1]
    vals = np.clip(2.0 - c1 * math.sqrt(n) * np.linalg.norm(x, axis=1), 0.0, 1.0)
    return float(vals[0]) if np.asarray(points).ndim == 1 else vals


def cutoff_h2(points: np.ndarray, c2: float):
    """Mass cutoff clip(c2 ||x||_1 / n - 1, 0, 1) on the positive orthant."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    n = x.shape[1]
    vals = np.clip(c2 * np.abs(x).sum(axis=1) / n - 1.0, 0.0, 1.0)
    return float(vals[0]) if np.asarray(points).ndim == 1 else vals


def _cutoff_gradients(x: np.ndarray, c1: float, c2: float):
    """Rows within KINK_RADIUS of a kink sphere of h1 or h2 and, off them,
    the gradient norms of h1, h2 and h1 h2 from one pass over all three."""
    n = x.shape[1]
    a = c1 * math.sqrt(n) * np.linalg.norm(x, axis=1)
    b = c2 * np.abs(x).sum(axis=1) / n
    near = ((np.minimum(np.abs(a - 1.0), np.abs(a - 2.0)) < KINK_RADIUS)
            | (np.minimum(np.abs(b - 1.0), np.abs(b - 2.0)) < KINK_RADIUS))

    def stacked(y):
        v1, v2 = cutoff_h1(y, c1), cutoff_h2(y, c2)
        return np.stack([v1, v2, v1 * v2], axis=1)

    grads = _central_diff(stacked, x[~near])
    # each norm over a contiguous (m, n) copy keeps the summation order
    return (near, *(np.linalg.norm(np.ascontiguousarray(grads[:, :, k]), axis=1)
                    for k in range(3)))


@dataclass(frozen=True)
class CutoffCheck:
    count: int
    skipped_near_kink: int
    plateau_violations: int
    gradient_violations: int
    ok: bool


def cutoff_gradient_check(points: np.ndarray, c1: float, c2: float) -> CutoffCheck:
    """Plateau characterizations and gradient bounds of both cutoffs.

    Exact statements checked at every point:
      h1 = 1 iff ||x||_2 <= 1/(c1 sqrt(n));  h1 = 0 iff ||x||_2 >= 2/(c1 sqrt(n))
      h2 = 1 iff ||x||_1 >= 2n/c2;           h2 = 0 iff ||x||_1 <= n/c2
    and, away from the four kink spheres, ||grad h1|| <= c1 sqrt(n) and
    ||grad h2|| <= c2/sqrt(n) by central differences.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    sq = math.sqrt(n)
    r2 = np.linalg.norm(pts, axis=1)
    r1 = np.abs(pts).sum(axis=1)
    v1 = cutoff_h1(pts, c1)
    v2 = cutoff_h2(pts, c2)
    plateau_bad = int(np.count_nonzero((v1 == 1.0) != (r2 <= 1.0 / (c1 * sq)))
                      + np.count_nonzero((v1 == 0.0) != (r2 >= 2.0 / (c1 * sq)))
                      + np.count_nonzero((v2 == 1.0) != (r1 >= 2.0 * n / c2))
                      + np.count_nonzero((v2 == 0.0) != (r1 <= n / c2)))
    near, g1, g2, _ = _cutoff_gradients(pts, c1, c2)
    grad_bad = int(np.count_nonzero(g1 > c1 * sq * (1.0 + 1e-5))
                   + np.count_nonzero(g2 > c2 / sq * (1.0 + 1e-5)))
    return CutoffCheck(pts.shape[0], int(np.count_nonzero(near)), plateau_bad,
                       grad_bad, plateau_bad == 0 and grad_bad == 0)


def cutoff_product_check(points: np.ndarray, c1: float, c2: float) -> CutoffCheck:
    """Product-rule inequality ||grad(h1 h2)|| <= ||grad h1|| + ||grad h2||.

    Both factors take values in [0, 1], so the product of cutoffs cannot
    steepen; checked by central differences away from kinks, to 1e-5.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    near, g1, g2, gp = _cutoff_gradients(pts, c1, c2)
    bad = int(np.count_nonzero(gp > g1 + g2 + 1e-5))
    return CutoffCheck(pts.shape[0], int(np.count_nonzero(near)), 0, bad, bad == 0)


# ---------------------------------------------------------------- tails

@dataclass(frozen=True)
class ExpTailCheck:
    n: int
    alpha: float
    mc: EstimateWithCI
    erlang: float
    bound: float
    ok: bool


def exp_tail_check(n: int, alpha: float, count: int, seed: int) -> ExpTailCheck:
    """P(E_1 + ... + E_n <= alpha n) for iid Exp(1), three ways.

    Monte Carlo proportion, the exact Erlang distribution function
    P(n, alpha n), and the closed bound (alpha e)^n / sqrt(2 pi n); ok
    means the exact value respects the bound and the MC estimate lands
    within its own 95% interval of the exact value (rule-of-three floor
    3/count when the tail sees no hits).
    """
    n = validate_n(n, 1)
    if not alpha > 0.0:
        raise DomainError(f"need alpha > 0, got {alpha}")
    sums = generate(seed, f"exp-sum-{n}", count,
                    lambda g, m: g.standard_exponential((m, n)).sum(axis=1))
    hits = int(np.count_nonzero(sums <= alpha * n))
    mc = EstimateWithCI.from_proportion(hits, int(count))
    erlang = float(sp.gammainc(n, alpha * n))
    bound = (alpha * math.e) ** n / math.sqrt(2.0 * math.pi * n)
    ok = erlang <= bound * (1.0 + 1e-12) and \
        abs(mc.estimate - erlang) <= max(mc.half_width_95, 3.0 / count)
    return ExpTailCheck(n, float(alpha), mc, erlang, bound, ok)


# ---------------------------------------------------------------- transfer

def sample_gaussian(n: int, count: int, seed: int) -> np.ndarray:
    """Points with density exp(-pi ||x||^2): normals scaled by 1/sqrt(2 pi)."""
    n = validate_n(n, 1)
    return generate(seed, f"gaussian-{n}", count,
                    lambda g, m: g.standard_normal((m, n)) / math.sqrt(2.0 * math.pi))


def gaussian_to_cube_map(points: np.ndarray) -> np.ndarray:
    """Coordinatewise phi: pushes the exp(-pi ||x||^2) law to uniform (0,1)^n.

    Each coordinate map has derivative exp(-pi x^2) <= 1, so the whole
    map is 1-Lipschitz in the euclidean metric.
    """
    return phi(np.asarray(points, dtype=float))


@dataclass(frozen=True)
class TransferCheck:
    count: int
    min_ks_pvalue: float
    max_direction_ratio: float
    ok: bool


def transfer_map_check(n: int, count: int, seed: int) -> TransferCheck:
    """Uniformity and contraction of the gaussian-to-cube transfer.

    Kolmogorov-Smirnov per coordinate on the mapped sample against
    uniform(0,1), each p-value above 0.01, plus difference quotients
    ||phi(x)-phi(y)|| / ||x-y|| over sampled pairs, below 1 + 1e-6.
    """
    from scipy import stats  # the only user; kept off `import isodist`

    n = validate_n(n, 1)
    pts = sample_gaussian(n, count, seed)
    mapped = gaussian_to_cube_map(pts)
    min_p = min(float(stats.kstest(mapped[:, i], "uniform").pvalue)
                for i in range(n))
    other = sample_gaussian(n, count, seed + 1)
    num = np.linalg.norm(gaussian_to_cube_map(other) - mapped, axis=1)
    den = np.linalg.norm(other - pts, axis=1)
    ratio = float(np.max(num / den))
    return TransferCheck(int(count), min_p, ratio,
                         min_p > 0.01 and ratio <= 1.0 + 1e-6)


# ---------------------------------------------------------------- distance

@dataclass(frozen=True)
class AvgDistanceResult:
    n: int
    pairs: int
    mean_distance: EstimateWithCI
    lower_bound: float
    ok: bool


def average_distance_experiment(n: int, count: int, seed: int) -> AvgDistanceResult:
    """Mean distance of independent uniform pairs in the cube (0,1)^n.

    In high dimension the mean exceeds sqrt(n/(2 pi e)), the limiting
    radius scale of the optimal (ball) family; at n = 1 the exact mean
    is 1/3 and E||X-Y||^2 = n/6 in every dimension.
    """
    n = validate_n(n, 1)
    x = generate(seed, f"avgdist-x-{n}", count, lambda g, m: g.random((m, n)))
    y = generate(seed, f"avgdist-y-{n}", count, lambda g, m: g.random((m, n)))
    dist = np.linalg.norm(x - y, axis=1)
    est = EstimateWithCI.from_samples(dist)
    lower = math.sqrt(n / (2.0 * math.pi * math.e))
    return AvgDistanceResult(n, int(count), est, lower,
                             est.estimate - est.half_width_95 >= lower)
