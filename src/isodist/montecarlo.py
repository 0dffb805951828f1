"""Monte Carlo samplers and the numerical lemma checks they feed.

Samplers produce uniform points in each unit-volume body:

    cube     coordinates straight from the generator
    simplex  normalized exponentials: E/||E||_1 is uniform on the
             standard simplex when the E_i are iid Exp(1)
    l_p/ball one extra exponential: with Y_i iid of density proportional
             to exp(-|y|^p) and Z ~ Exp(1) independent of them,
             Y / (||Y||_p^p + Z)^{1/p} is uniform in the l_p ball of
             radius 1, which omega then scales to volume one (Barthe,
             Guedon, Mendelson and Naor, "A probabilistic approach to
             the geometry of the l_p^n-ball", Ann. Probab. 33, 2005,
             Thm 1).  The Y_i are normals over sqrt(2) at p = 2, and
             Gamma(1 + 1/p)^{1/p} V with V uniform on [-1, 1) otherwise,
             since Gamma(1/p) equals Gamma(1 + 1/p) U^p in law.  Each
             chunk draws the m x n coordinates first, then the m
             exponentials

All batches go through the chunked SFC64 streams in rng.py, whose chunk
size is fixed, so a batch is a deterministic function of (seed,
parameters).  They replaced Philox streams, whose per-draw cost was a
large share of a sampler's time and bought a jump-ahead that nothing
here uses.  A batch is allocated once and its chunks are copied in, so
a sampler peaks at the batch plus one chunk.  The fills and the
experiments work in place, in arrays they own, with the same
floating-point operations as the out-of-place expressions that
tests/oracles.py keeps, so their values are those bit for bit.

The check functions make the analytic machinery falsifiable at finite
samples: the normalization map T(x) = x/||x||_1 against the bound
(1 + sqrt(n) ||T(x)||_2)/||x||_1 on its Jacobian's operator norm, the
two radial cutoffs with exact plateau characterizations and gradient
bounds, the product-rule gradient inequality, the Erlang small-sum tail
against its closed bound, the coordinatewise gaussian-to-cube transfer
phi (1-Lipschitz, uniform output) on a Gaussian cloud that the check
draws and maps itself, and the mean-distance lower bound sqrt(n/(2 pi e))
in high dimension.
The tail and transfer checks report their exact part and their Monte
Carlo part apart; the latter is judged at 5 standard errors.

Every check that takes points reads them through one intake, _cloud:
an (n,) point or an (m, n) cloud of finite coordinates, n >= 1, and for
T also coordinates >= 0 with row sums finite and positive, for the
cutoffs row norms whose squares are finite, so a NaN, an infinite
coordinate or an overflowing sum raises DomainError, and so does a complex
one.  Each check validates its cloud once and its constants c1, c2 once
each, as two floats; T, its Jacobian's norm and bound, its finite
differences, and the cutoffs h1 and h2 with the row norms they read are
each written once as array kernels, which check nothing but an
overflowing squared norm.  The intake hands T's check the row sums
it takes for T's domain, and T, the norms and the differences take them
from there, so a call sums each row once.

The cutoffs see a point only through ||x||_2 and ||x||_1, and their
gradients have closed forms: on a slope, ||grad h1|| = c1 sqrt(n) and
||grad h2|| = (c2/n) sqrt(#{x_i != 0}), and the product's norm follows
from <x, sign x> = ||x||_1.  The cutoff checks take these from the norms
of one pass over the cloud, O(n) per point with no step, and drop the
points within 1e-4 of a kink, where the gradients jump: such points are
rare (about 2e-4 of the benchmark's).  Each computes only the norms its
verdict reads: the gradient check those of h1 and h2, counting the
nonzero coordinates only where some point lies on h2's slope; the
product check those and the product's.  The finite-difference evidence
for the closed forms is in the tests, against an oracle that differences
every shifted row.

T's check takes central differences of step h = 1e-6 without forming a
shifted row: x + h e_i differs from x in coordinate i alone, so its row
sum is ||x||_1 + ((x_i + h) - x_i), and row i of the differences follows
from that sum and x.  The check is O(n) per point, like the cutoffs'.
It runs on blocks of at most 2^14 entries, so memory stays flat in the
cloud size apart from T(x) in _t_norms, one array the size of the cloud.
The differences run on the unchecked formulas, since a shifted row may
leave the domain (a coordinate below h).
T's check takes no eigenvalue: its Jacobian's exact operator
norm has a closed form, taken with the bound once for the whole cloud,
and the differences enter through the Frobenius norm of their distance
to the exact Jacobian, which has the same rank-one-plus-diagonal shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .bodies import BodyFamily, _real, _validate_n, _validate_open_interval
from .errors import DomainError
from .profiles import _FAMILIES
from .rng import generate
from .specfun import phi

FD_STEP = 1e-6
KINK_RADIUS = 1e-4
# Monte Carlo verdicts are taken at 5 standard errors, a two-sided normal
# tail of 5.7e-7 per comparison, so a correct program fails a check suite
# about once in 10^5 runs, not at a fixed share of seeds
_MC_SIGMAS = 5.0
_MC_TAIL = 5.7e-7
_FD_ENTRIES = 2**14  # entries of each (b, n) array of T's differences


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
    omega = _FAMILIES[family.kind].radius(n, family.p)
    if family.kind == "simplex":
        def fill(g, m):
            e = g.standard_exponential((m, n))
            s = e.sum(axis=1, keepdims=True)
            e *= omega
            e /= s
            return e
        return fill
    p = family.p or 2.0

    def fill(g, m):
        # draw order is part of the determinism contract: the m x n
        # coordinates (magnitudes, then the uniforms that sign them, apart
        # from the normals at p = 2), then one exponential per point
        if p == 2.0:
            y = g.standard_normal((m, n))
            y *= math.sqrt(0.5)
            s = np.einsum("ij,ij->i", y, y)
        else:
            y = g.standard_gamma(1.0 + 1.0 / p, (m, n))
            y **= 1.0 / p
            v = g.random((m, n))
            v *= 2.0
            v -= 1.0
            y *= v
            np.abs(y, out=v)
            v **= p
            s = v.sum(axis=1)
        s += g.standard_exponential(m)
        s **= -1.0 / p
        s *= omega
        y *= s[:, None]
        return y
    return fill


def sample_uniform(family: BodyFamily, n: int, count: int, seed: int) -> SampleBatch:
    """Uniform points in the unit-volume body of the family."""
    n = _validate_n(n, _FAMILIES[family.kind].least_n)
    pts = generate(seed, f"uniform-{family.label()}-{n}", count,
                   _fill_for(family, n))
    return SampleBatch(family.label(), n, int(count), int(seed), pts)


def estimate_cap_volume(family: BodyFamily, n: int, a: float, count: int,
                        seed: int) -> EstimateWithCI:
    """Fraction of sampled points with first coordinate >= a."""
    a = _validate_open_interval(a, -math.inf, math.inf, "cap height a")
    batch = sample_uniform(family, n, count, seed)
    hits = int(np.count_nonzero(batch.points[:, 0] >= a))
    return EstimateWithCI.from_proportion(hits, batch.count)


# ---------------------------------------------------------------- clouds

def _cloud(points, orthant=False):
    """points as an (m, n) float array, one (n,) point as one row; with
    orthant, that array and its row sums.

    The one intake of every check here that takes points: real values, at
    most two axes, n >= 1 and finite coordinates; with orthant, T's domain
    too, every coordinate >= 0 and every row sum finite and > 0.  Complex
    points raise DomainError rather than lose their imaginary parts.  An
    empty cloud of m = 0 points passes.  The rows come back C-contiguous,
    since numpy sums the rows of a column-major block of two or more rows
    in another order than those of one row, and a result would otherwise
    depend on the cloud's layout and on where the blocks of the finite
    differences fall.  So the row sums are those T's kernels would take of
    any block of rows, bit for bit, and T's check hands them these; it
    calls the intake under np.errstate(over="ignore"), since a sum that
    overflows is rejected here.
    """
    x = np.atleast_2d(np.ascontiguousarray(_real(points, "points")))
    if x.ndim > 2 or x.shape[1] == 0 or not np.isfinite(x).all():
        raise DomainError("points need shape (n,) or (m, n) with n >= 1, all finite")
    if orthant:
        s = x.sum(axis=1)
        if not ((x >= 0.0).all() and ((s > 0.0) & (s < math.inf)).all()):
            raise DomainError("T takes points of the positive orthant, row sums in (0, inf)")
        return x, s
    return x


# ---------------------------------------------------------------- T map

def _t(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """T(x) = x/||x||_1 for each row of an (m, n) array, from its row sums s."""
    return np.divide(x, s[:, None])


def _t_norms(x: np.ndarray, s: np.ndarray):
    """The exact operator norm sqrt(n) ||T(x)||_2 / ||x||_1 of the Jacobian
    (0 at n = 1) and the bound (1 + sqrt(n) ||T(x)||_2) / ||x||_1 of each row,
    from the row sums s."""
    t = _t(x, s)
    t *= t  # squared in place, as np.linalg.norm squares
    r = math.sqrt(x.shape[1]) * np.sqrt(t.sum(axis=1))
    return (r / s if x.shape[1] > 1 else np.zeros(x.shape[0])), (1.0 + r) / s


def _t_differences(x: np.ndarray, s: np.ndarray):
    """T's central differences of step h = FD_STEP at each row x of an
    (m, n) array, as their distance to the exact Jacobian J, from x and its
    row sums s.

    x + h e_i differs from x in coordinate i only, so its row sum is
    s_i = ||x||_1 + ((x_i + h) - x_i), and T there is x_j / s_i off the
    diagonal and (x_i + h) / s_i on it.  Row i of J_fd - J is therefore
    alpha_i x_j off the diagonal, with

        alpha_i = (1/s_i^+ - 1/s_i^-) / 2h + 1/||x||_1^2,

    and one diagonal entry beta_i.  Returns e with ||x||_1 = f 2^e, f in
    [1/2, 1), as an (m, 1) array, and 2^2e alpha and 2^e beta, each (m, n):
    in units of 2^-e, J_fd - J is 2^2e alpha_i (2^-e x_j) off the diagonal
    and 2^e beta_i on it.  Scaling by a power of 2 rounds nothing short of
    subnormal values, so these are the unscaled quotients times 2^2e and
    2^e bit for bit, with no overflow or underflow from the scale of x.
    """
    s = s[:, None]
    e = np.frexp(s)[1]
    f, step = np.ldexp(s, -e), np.ldexp(2.0 * FD_STEP, -e)  # 2h in units of 2^e
    up, down = x + FD_STEP, x - FD_STEP
    s_up, s_down = up - x, down - x
    s_up += s
    s_down += s
    # beta: the diagonal's difference quotient less J_ii = (s - x_i)/s^2, in
    # units of 2^e (s - x_i)/(s f)
    beta = np.divide(up, s_up, out=up)
    beta -= np.divide(down, s_down, out=down)
    beta /= step
    beta -= np.divide(np.subtract(s, x, out=down), s * f, out=down)
    # alpha, from the reciprocal row sums in units of 2^e
    alpha = np.divide(1.0, np.ldexp(s_up, -e, out=s_up), out=s_up)
    alpha -= np.divide(1.0, np.ldexp(s_down, -e, out=s_down), out=s_down)
    alpha /= step
    alpha += 1.0 / (f * f)
    return e, alpha, beta


@dataclass(frozen=True)
class TMapCheck:
    count: int
    max_excess: float    # max over points of (exact norm + fd_error)/bound - 1, floored at 0;
                         # inf where some point's ratio is NaN; 0.0 wherever the
                         # fd_error gate holds, for n below about 1e10 (see the check)
    max_fd_error: float  # max Frobenius norm of fd - exact Jacobian: at least their
                         # operator-norm distance and at most sqrt(n) times it;
                         # inf where some point's norm is NaN
    ok: bool


def t_map_lipschitz_check(points: np.ndarray) -> TMapCheck:
    """T's exact operator norm, with its finite-difference evidence, against the bound.

    For each point x, with J the exact Jacobian and J_fd the central-difference
    one, three numbers: E = ||J_fd - J||_F, the exact norm N = ||J||_2 and the
    bound B = (1 + sqrt(n) ||T(x)||_2)/||x||_1.  J = (I - 1 T^T)/||x||_1, and
    I - 1 T^T is an oblique projection (T^T 1 = 1), whose 2-norm equals that of
    1 T^T for n >= 2; so N = sqrt(n) ||T(x)||_2 / ||x||_1, and N = 0 at n = 1.
    By the triangle inequality ||J_fd||_2 <= N + E, and a point passes when
    (N + E)/B <= 1 + 1e-6 and E <= 1e-5 B, that is, when the differences match J
    and confirm the bound.  E is formed in units of 2^-e, where ||x||_1 = f 2^e
    with f in [1/2, 1), so its squares neither overflow nor underflow.

    N/B = r/(1 + r) with r = sqrt(n) ||T(x)||_2 <= sqrt(n), so once E <= 1e-5 B
    holds, (N + E)/B < 1 for every n below about 1e10, and max_excess reads 0.0:
    the excess is reported, but only the second condition can fail a point.

    Points must lie in T's domain, the positive orthant with row sums in (0, inf);
    the differences are taken of the unchecked x / sum(x), which is smooth
    wherever the sum is positive.  They carry evidence only while every row sum
    stays well above FD_STEP, a coordinate below it being fine: where a shifted
    row's sum drops to or below 0 ([1e-9, 1e-9], [1e-6, 0]) E is large, infinite
    or NaN, and the point fails with no warning.

    N and B are taken once for the whole cloud, E from _t_differences on
    blocks of rows, in O(n) per point: J_fd - J is alpha x^T off the
    diagonal and beta on it, so E^2 = sum_i alpha_i^2 (||x||_2^2 - x_i^2) +
    beta_i^2.  Every step acts on one row at a time, so each point's E is
    the one it has in a cloud of its own.
    """
    def residual(x, s):
        # E of each row; sum_{j != i} x_j^2 is never negative, since a sum
        # of nonnegative terms rounds to at least each of them
        e, alpha, beta = _t_differences(x, s)
        sq = np.ldexp(x, -e)
        sq *= sq
        alpha *= alpha
        alpha *= np.subtract(sq.sum(axis=1, keepdims=True), sq, out=sq)
        beta *= beta
        beta += alpha
        return np.ldexp(np.sqrt(beta.sum(axis=1)), -e[:, 0])

    # a shifted row's sum of 0 makes T infinite or NaN, and N, E and B overflow
    # when ||x||_1 is subnormal; such points fail on the comparisons below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        points, sums = _cloud(points, orthant=True)
        m, n = points.shape
        rows = max(1, _FD_ENTRIES // n)
        # a cloud of one block, an empty one among them, is differenced whole
        err = residual(points, sums) if m <= rows else np.concatenate(
            [residual(points[lo:lo + rows], sums[lo:lo + rows]) for lo in range(0, m, rows)])
        exact, bound = _t_norms(points, sums)
        # the initial values floor the excess at 0 and answer an empty cloud
        worst = float(((exact + err) / bound).max(initial=1.0)) - 1.0
        fd_err = float(err.max(initial=0.0))
        ok = worst <= 1e-6 and bool((err / bound <= 1e-5).all())
    # a NaN ratio or error reads inf
    worst, fd_err = (math.inf if math.isnan(v) else v for v in (worst, fd_err))
    return TMapCheck(m, worst, fd_err, ok)


# ---------------------------------------------------------------- cutoffs

def _cloud_cutoffs(x: np.ndarray, c1: float, c2: float):
    """r2 = ||x||_2 and r1 = ||x||_1 of each row of a cloud the cutoff
    checks take in, the cutoffs h1 = clip(2 - a, 0, 1) and
    h2 = clip(b - 1, 0, 1), and their levels a = c1 sqrt(n) r2 and
    b = c2 r1 / n.

    The norms come from one array |x|, squared in place for r2 (|x| |x|
    is bitwise x x).  A squared row norm past the float range (a
    coordinate past about 1.3e154) raises DomainError: it would read
    ||x||_2 = inf and put h1 on the wrong plateau.  A level that overflows
    for finite norms reads inf, on the same plateau (h1 = 0, h2 = 1) as its
    exact value.
    """
    with np.errstate(over="ignore"):
        sq = np.abs(x)
        r1 = sq.sum(axis=1)
        r2 = np.sqrt(np.multiply(sq, sq, out=sq).sum(axis=1))
        if not (r2 < math.inf).all():
            raise DomainError("the cutoff checks take points whose squared norm is finite")
        # sqrt(n) r2 first: c1 sqrt(n) may overflow, and inf * 0 at the origin is NaN
        a = c1 * (math.sqrt(x.shape[1]) * r2)
        b = c2 * r1 / x.shape[1]
    return (r2, r1, *(np.minimum(np.maximum(h, 0.0), 1.0) for h in (2.0 - a, b - 1.0)), a, b)


def _cutoff_gradients(x: np.ndarray, a, b, c1: float, c2: float):
    """Rows within KINK_RADIUS of a kink sphere of h1 or h2, from their
    levels a and b; the exact gradient norms of h1 and h2 at every row;
    the rows on h1's slope and those on h2's; and sqrt(k), k = #{x_i != 0}.

    On h1's slope (1 < a < 2) grad h1 = -c1 sqrt(n) x/||x||_2, and on h2's
    (1 < b < 2) grad h2 = (c2/n) sign x; off its slope each is 0.  So
    ||grad h1|| = c1 sqrt(n) and ||grad h2|| = (c2/n) sqrt(k).  k is read
    from x only where some row lies on h2's slope; sqrt(k) is 1 otherwise,
    where nothing uses it.
    """
    near = (np.abs(a - 1.0) < KINK_RADIUS) | (np.abs(a - 2.0) < KINK_RADIUS)
    near |= (np.abs(b - 1.0) < KINK_RADIUS) | (np.abs(b - 2.0) < KINK_RADIUS)
    on1, on2 = (1.0 < a) & (a < 2.0), (1.0 < b) & (b < 2.0)
    rk = np.sqrt(np.not_equal(x, 0.0).sum(axis=1)) if on2.any() else 1.0
    g1 = np.where(on1, c1 * math.sqrt(x.shape[1]), 0.0)
    return near, g1, np.where(on2, c2 / x.shape[1] * rk, 0.0), on1, on2, rk


def _product_gradient(x: np.ndarray, r2, r1, h1, h2, a, b, c1: float, c2: float):
    """The rows near a kink from _cutoff_gradients and, off them, the exact
    gradient norms of h1, h2 and h1 h2, from the values _cloud_cutoffs
    returns for the cloud x.

    Since <x, sign x> = ||x||_1, with p = h2 ||grad h1|| and
    q = h1 ||grad h2||,

        ||grad(h1 h2)||^2 = p^2 + q^2 - 2 p q cos = (p - q)^2 + 2 p q (1 - cos)

    with cos = ||x||_1 / (||x||_2 sqrt(k)), taken on both slopes at once,
    where ||x||_2 > 0 and k >= 1.  The second form, through hypot and a
    square root of each factor, does not overflow: on a slope the squared
    norm is at least the smallest subnormal, so p stays below 1e162.
    """
    near, g1, g2, on1, on2, rk = _cutoff_gradients(x, a, b, c1, c2)
    p, q = h2 * g1, h1 * g2
    cos = np.divide(r1, r2 * rk, out=np.ones_like(r1), where=on1 & on2)
    gp = np.hypot(p - q, np.sqrt(2.0 * np.maximum(1.0 - cos, 0.0) * p) * np.sqrt(q))
    return near, g1[~near], g2[~near], gp[~near]


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
    ||grad h2|| <= c2/sqrt(n), with the gradient norms in closed form: on
    h1's slope ||grad h1|| = c1 sqrt(n), on h2's ||grad h2|| =
    (c2/n) sqrt(#{x_i != 0}), and each is 0 off its slope.
    """
    pts = _cloud(points)
    c1, c2 = (float(_validate_open_interval(c, 0.0, math.inf, "c1 and c2")) for c in (c1, c2))
    n = pts.shape[1]
    sq = math.sqrt(n)
    r2, r1, v1, v2, a, b = _cloud_cutoffs(pts, c1, c2)
    # 1/c1/sq, not 1/(c1 sq): an overflowing product puts both thresholds at 0
    plateau_bad = int(np.count_nonzero((v1 == 1.0) != (r2 <= 1.0 / c1 / sq))
                      + np.count_nonzero((v1 == 0.0) != (r2 >= 2.0 / c1 / sq))
                      + np.count_nonzero((v2 == 1.0) != (r1 >= 2.0 * n / c2))
                      + np.count_nonzero((v2 == 0.0) != (r1 <= n / c2)))
    near, g1, g2 = _cutoff_gradients(pts, a, b, c1, c2)[:3]
    grad_bad = int(np.count_nonzero(g1[~near] > c1 * sq * (1.0 + 1e-5))
                   + np.count_nonzero(g2[~near] > c2 / sq * (1.0 + 1e-5)))
    return CutoffCheck(pts.shape[0], int(np.count_nonzero(near)), plateau_bad,
                       grad_bad, plateau_bad == 0 and grad_bad == 0)


def cutoff_product_check(points: np.ndarray, c1: float, c2: float) -> CutoffCheck:
    """Product-rule inequality ||grad(h1 h2)|| <= ||grad h1|| + ||grad h2||.

    Both factors take values in [0, 1], so the product of cutoffs cannot
    steepen; checked away from kinks, to 1e-5, on the closed form
    ||grad(h1 h2)||^2 = (h2 A)^2 + (h1 B)^2 k - 2 h1 h2 A B ||x||_1/||x||_2,
    with A = ||grad h1||, B = c2/n on h2's slope (0 off it) and
    k = #{x_i != 0}.
    """
    pts = _cloud(points)
    c1, c2 = (float(_validate_open_interval(c, 0.0, math.inf, "c1 and c2")) for c in (c1, c2))
    near, g1, g2, gp = _product_gradient(pts, *_cloud_cutoffs(pts, c1, c2), c1, c2)
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
    bound_ok: bool  # the exact part: erlang <= bound
    mc_ok: bool     # the Monte Carlo part, at 5 standard errors
    ok: bool


def exp_tail_check(n: int, alpha: float, count: int, seed: int) -> ExpTailCheck:
    """P(E_1 + ... + E_n <= alpha n) for iid Exp(1), three ways.

    Monte Carlo proportion, the exact Erlang distribution function
    P(n, alpha n), and the closed bound (alpha e)^n / sqrt(2 pi n), inf
    where (alpha e)^n leaves the float range.
    bound_ok says the exact value respects the bound (up to 1e-12
    relative, the rounding of gammainc); mc_ok says the estimate lies
    within 5 standard errors sqrt(max(p(1-p), 1/count)/count) of the
    exact value p; ok says both.
    """
    n = _validate_n(n, 1)
    alpha = _validate_open_interval(alpha, 0.0, math.inf, "alpha")
    sums = generate(seed, f"exp-sum-{n}", count,
                    lambda g, m: g.standard_exponential((m, n)).sum(axis=1))
    hits = int(np.count_nonzero(sums <= alpha * n))
    mc = EstimateWithCI.from_proportion(hits, int(count))
    erlang = float(sp.gammainc(n, alpha * n))
    try:
        bound = (alpha * math.e) ** n / math.sqrt(2.0 * math.pi * n)
    except OverflowError:  # (alpha e)^n past the float range: trivially respected
        bound = math.inf
    bound_ok = erlang <= bound * (1.0 + 1e-12)
    se = math.sqrt(max(erlang * (1.0 - erlang), 1.0 / count) / count)
    mc_ok = abs(mc.estimate - erlang) <= _MC_SIGMAS * se
    return ExpTailCheck(n, alpha, mc, erlang, bound, bound_ok, mc_ok, bound_ok and mc_ok)


# ---------------------------------------------------------------- transfer

def _gaussian_fill(n: int):
    """A fill of points with density exp(-pi ||x||^2): normals over
    sqrt(2 pi)."""
    def fill(g, m):
        x = g.standard_normal((m, n))
        x /= math.sqrt(2.0 * math.pi)
        return x
    return fill


@dataclass(frozen=True)
class TransferCheck:
    count: int
    min_ks_pvalue: float
    max_direction_ratio: float
    uniform_ok: bool      # the Monte Carlo part, at 5 standard errors
    contraction_ok: bool  # every sampled difference quotient <= 1 + 1e-6
    ok: bool


def transfer_map_check(n: int, count: int, seed: int) -> TransferCheck:
    """Uniformity and contraction of the gaussian-to-cube transfer.

    The transfer is phi taken coordinatewise: it pushes the law of
    density exp(-pi ||x||^2) to uniform (0,1)^n, and since each
    coordinate map has derivative exp(-pi x^2) <= 1 it is 1-Lipschitz.
    The check draws its own two Gaussian clouds x and y of count points,
    from the streams gaussian-{n} at seed and seed + 1, and maps them:
    Kolmogorov-Smirnov per coordinate on phi(x) against uniform(0,1),
    plus the difference quotients ||phi(x)-phi(y)|| / ||x-y|| of the
    pairs of rows.  uniform_ok says the smallest of the n p-values is at
    least 1 - (1 - P)^{1/n}, where P = 5.7e-7 is the two-sided normal
    tail beyond 5 standard errors, so a uniform sample fails with chance P;
    contraction_ok says every quotient is at most 1 + 1e-6; ok says both.

    One sort gives every column's two-sided statistic D, written as
    scipy's kstest writes it (the mapped values lie in [0, 1], where the
    uniform distribution function is the identity).  The exact p-value
    kstwo.sf(D, count) falls as D grows, so its value at the largest D
    is the smallest p-value of the columns.
    """
    from scipy import stats  # the only user; kept off `import isodist`

    n = _validate_n(n, 1)
    fill = _gaussian_fill(n)
    x = generate(seed, f"gaussian-{n}", count, fill)
    y = generate(seed + 1, f"gaussian-{n}", count, fill)
    # ||phi(y) - phi(x)|| / ||y - x|| by subtract, square and row sum in the
    # arrays drawn here, the operations of np.linalg.norm(a - b, axis=1);
    # each batch is dropped once read, so at most three are alive
    num = phi(y)
    y -= x
    y *= y
    den = np.sqrt(y.sum(axis=1))
    del y
    mapped = phi(x)
    del x
    num -= mapped
    num *= num
    ratio = float(np.max(np.sqrt(num.sum(axis=1)) / den))
    del num
    # each coordinate's mapped values sorted along a contiguous row of an
    # (n, m) copy, which sorts faster than a strided column, and both
    # one-sided statistics through one buffer, D+ read before D- fills it
    cdf = np.ascontiguousarray(mapped.T)
    del mapped
    cdf.sort(axis=1)
    m = cdf.shape[1]
    gap = np.subtract(np.arange(1.0, m + 1) / m, cdf)
    d = max(float(gap.max()), float(np.subtract(cdf, np.arange(0.0, m) / m, out=gap).max()))
    min_p = float(np.clip(stats.kstwo.sf(d, m), 0.0, 1.0))
    uniform_ok = min_p >= 1.0 - (1.0 - _MC_TAIL) ** (1.0 / n)
    contraction_ok = ratio <= 1.0 + 1e-6
    return TransferCheck(int(count), min_p, ratio, uniform_ok, contraction_ok,
                         uniform_ok and contraction_ok)


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
    n = _validate_n(n, 1)
    x = generate(seed, f"avgdist-x-{n}", count, lambda g, m: g.random((m, n)))
    y = generate(seed, f"avgdist-y-{n}", count, lambda g, m: g.random((m, n)))
    # ||x - y|| in x's own memory, by the operations of np.linalg.norm
    x -= y
    x *= x
    est = EstimateWithCI.from_samples(np.sqrt(x.sum(axis=1)))
    lower = math.sqrt(n / (2.0 * math.pi * math.e))
    return AvgDistanceResult(n, int(count), est, lower,
                             est.estimate - est.half_width_95 >= lower)
