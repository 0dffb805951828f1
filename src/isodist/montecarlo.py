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

All batches go through the chunked Philox streams in rng.py, whose chunk
size is fixed, so a batch is a deterministic function of (seed,
parameters).

The check functions make the analytic machinery falsifiable at finite
samples: the normalization map T(x) = x/||x||_1 against the bound
(1 + sqrt(n) ||T(x)||_2)/||x||_1 on its Jacobian's operator norm, the
two radial cutoffs with exact plateau characterizations and gradient
bounds, the product-rule gradient inequality, the Erlang small-sum tail
against its closed bound, the coordinatewise gaussian-to-cube transfer
(1-Lipschitz, uniform output), and the mean-distance lower bound
sqrt(n/(2 pi e)) in high dimension.
The tail and transfer checks report their exact part and their Monte
Carlo part apart; the latter is judged at 5 standard errors.

Every check that takes points reads them through one intake, _cloud:
an (n,) point or an (m, n) cloud of finite coordinates, n >= 1, and for
T also coordinates >= 0 with row sums finite and positive, for the
cutoffs row norms whose squares are finite, so a NaN, an infinite
coordinate or an overflowing sum raises DomainError.  Each
check validates its cloud and its constants c1, c2 once; T, its
Jacobian, norm and bound, the row norms and the cutoffs h1 and h2 are
each written once as unchecked array kernels, which the plateau check
and T's finite differences call.

The cutoffs see a point only through ||x||_2 and ||x||_1, and their
gradients have closed forms: on a slope, ||grad h1|| = c1 sqrt(n) and
||grad h2|| = (c2/n) sqrt(#{x_i != 0}), and the product's norm follows
from <x, sign x> = ||x||_1.  The cutoff checks take these from the norms
of one pass over the cloud, O(n) per point with no step, and drop the
points within 1e-4 of a kink, where the gradients jump: such points are
rare (about 2e-4 of the benchmark's).  The finite-difference evidence
for the closed forms is in the tests, against an oracle that differences
every shifted row.

T's check takes central differences of step h = 1e-6.  T needs the rows
themselves: for each block of points every shifted row goes into one
(b n, n) stack, and T is written in place, up into one output and down
over the stack, with no loop over coordinates.  No block's stack holds
more than 2^14 entries, 128 KiB, glibc's default mmap threshold, so it
comes from memory the process already holds.  Blocks of 2^16 entries got
fresh pages every time: replaying the benchmark's lemma_checks operations
in one process took 104 to 117 minor page faults per operation at 2^16
and under 0.1 at 2^14, and at n = 32 the faults came back from 2^15 on.
Past n = 128 one point's stack exceeds the bound, and T keeps one stack
and one output for the whole call: a fresh pair per point took 40,400
minor faults per call on a 200-point cloud at n = 200, against about 160
on a fresh interpreter's first call and none after.  Memory stays flat
in the cloud size, apart from one array the size of the cloud: |x| in
_radii for the cutoffs, T(x) in _t_norms for T.  The differences run on
the unchecked kernels, since a shifted row may leave the domain (a
coordinate below h).
T's check takes no eigenvalue: its Jacobian's exact operator
norm has a closed form, taken with the bound once for the whole cloud,
and the differences enter, block by block, through the Frobenius norm of
their distance to the exact Jacobian, formed in place on the differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .bodies import BodyFamily, validate_n, validate_open_interval
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
_FD_ENTRIES = 2**14  # entries of T's (b n, n) stack


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
            return omega * e / e.sum(axis=1, keepdims=True)
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
    n = validate_n(n, _FAMILIES[family.kind].least_n)
    pts = generate(seed, f"uniform-{family.label()}-{n}", count,
                   _fill_for(family, n))
    return SampleBatch(family.label(), n, int(count), int(seed), pts)


def estimate_cap_volume(family: BodyFamily, n: int, a: float, count: int,
                        seed: int) -> EstimateWithCI:
    """Fraction of sampled points with first coordinate >= a."""
    a = validate_open_interval(a, -math.inf, math.inf, "cap height a").tolist()
    batch = sample_uniform(family, n, count, seed)
    hits = int(np.count_nonzero(batch.points[:, 0] >= a))
    return EstimateWithCI.from_proportion(hits, batch.count)


# ---------------------------------------------------------------- clouds

def _cloud(points, orthant=False):
    """points as an (m, n) float array, one (n,) point as one row.

    The one intake of every check here that takes points: at most two
    axes, n >= 1 and finite coordinates; with orthant, T's domain too,
    every coordinate >= 0 and every row sum finite and > 0.  An empty
    cloud of m = 0 points passes.  The rows come back C-contiguous, since
    numpy sums the rows of a column-major block of two or more rows in
    another order than those of one row, and a result would otherwise
    depend on the cloud's layout and on where the blocks of the finite
    differences fall.
    """
    x = np.atleast_2d(np.ascontiguousarray(points, dtype=float))
    if x.ndim > 2 or x.shape[1] == 0 or not np.all(np.isfinite(x)):
        raise DomainError("points need shape (n,) or (m, n) with n >= 1, all finite")
    if orthant:
        with np.errstate(over="ignore"):
            s = x.sum(axis=1)
        if not (np.all(x >= 0.0) and np.all((s > 0.0) & (s < math.inf))):
            raise DomainError("T takes points of the positive orthant, row sums in (0, inf)")
    return x


# ---------------------------------------------------------------- T map

def _t(x: np.ndarray, out=None) -> np.ndarray:
    """T(x) = x/||x||_1 for each row of an (m, n) array, into out if given
    (which may be x)."""
    return np.divide(x, x.sum(axis=1, keepdims=True), out=out)


def _t_jacobian(x: np.ndarray):
    """Exact Jacobian (d T_j / d x_i) = (delta_ij - T_j(x)) / ||x||_1 of each
    row, as its diagonal (1 - T_j)/||x||_1 and the vector T_j/||x||_1 whose
    negative fills the rest of column j, each (m, n): J has rank one plus
    a diagonal, so no (m, n, n) array is formed."""
    s = x.sum(axis=1, keepdims=True)
    t = x / s
    return (1.0 - t) / s, t / s


def _t_norms(x: np.ndarray):
    """The exact operator norm sqrt(n) ||T(x)||_2 / ||x||_1 of the Jacobian
    (0 at n = 1) and the bound (1 + sqrt(n) ||T(x)||_2) / ||x||_1 of each row."""
    t = _t(x)
    t *= t  # squared in place, as np.linalg.norm squares
    r = math.sqrt(x.shape[1]) * np.sqrt(t.sum(axis=1))
    s = x.sum(axis=1)
    return (r / s if x.shape[1] > 1 else np.zeros(x.shape[0])), (1.0 + r) / s


def _central_diff(x: np.ndarray, reduce) -> np.ndarray:
    """reduce(xb, d) for consecutive blocks xb of the rows of x, joined on
    axis 0, where d holds T's central differences of step FD_STEP,

        d[p, i] = (T(xb_p + h e_i) - T(xb_p - h e_i)) / 2h,

    of shape (b, n, n); reduce returns one row per point of xb and may
    overwrite d, which the next block writes over, so its result must not
    be a view of d.  Each block is one (b n, n) stack of shifted rows, and
    T is written in place, up into d and down over the stack: one stack
    and one d serve the whole call.  _FD_ENTRIES bounds the stack at 2^14
    entries, 128 KiB, glibc's default mmap threshold: the stack, d and the
    temporaries of reduce on them then come from memory the process
    already holds, where blocks of 2^16 entries took fresh pages, about
    110 minor faults per lemma_checks operation against under 0.1 now (see
    the module docstring).  Past n = 128 a block holds one point and its
    stack exceeds the bound; the stack and d are then mapped once per
    call, where a fresh pair per point took 40,400 minor faults per call on
    a 200-point cloud at n = 200.  Per-point work that needs no
    differences stays out of the loop: T's check takes its exact norm and
    bound once per cloud.  An empty x makes one empty block, so the result
    keeps reduce's trailing shape.
    """
    m, n = x.shape
    rows = max(1, _FD_ENTRIES // (n * n))
    stack = np.empty((min(rows, m) * n, n))
    out = np.empty_like(stack)
    res = []
    for lo in range(0, max(m, 1), rows):
        xb = x[lo:lo + rows]
        b = xb.shape[0]
        y, d = stack[:b * n], out[:b * n]
        y.reshape(b, n, n)[...] = xb[:, None, :]
        diag = y.reshape(b, n * n)[:, ::n + 1]  # the shifted coordinates
        diag[...] = xb + FD_STEP
        _t(y, out=d)
        diag[...] = xb - FD_STEP
        d -= _t(y, out=y)
        d /= 2.0 * FD_STEP
        res.append(reduce(xb, d.reshape(b, n, n)))
    return np.concatenate(res)


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

    N and B are taken once for the whole cloud, E block by block: J_fd - J
    is formed in place on the differences, whose diagonal is set apart while
    T_j/||x||_1 is added to every other entry.  From n = 91 on, where einsum
    sums a point's n^2 > 8192 squares in another order when its block holds
    more than one point, every block holds one point, so each point's E is
    the one it has in a cloud of its own.
    """
    points = _cloud(points, orthant=True)
    n = points.shape[1]

    def residual(x, d):
        # E of each point, with d = 2^e J_fd turned into 2^e (J_fd - J) in
        # place: off the diagonal J_ij = -T_j/||x||_1, so there d - J is
        # d + T_j/||x||_1 bit for bit; the diagonal is set apart first
        e = np.frexp(x.sum(axis=1))[1]
        np.ldexp(d, e[:, None, None], out=d)
        jdiag, jcol = _t_jacobian(np.ldexp(x, -e[:, None]))
        diag = d.reshape(len(x), n * n)[:, ::n + 1]
        on_diag = diag - jdiag
        d += jcol[:, None, :]
        diag[...] = on_diag
        return np.ldexp(np.sqrt(np.einsum("pij,pij->p", d, d)), -e)

    # a shifted row's sum of 0 makes T infinite or NaN, and N, E and B overflow
    # when ||x||_1 is subnormal; such points fail on the comparisons below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        err = _central_diff(points, residual)
        exact, bound = _t_norms(points)
        # the initial values floor the excess at 0 and answer an empty cloud
        worst = float(np.max((exact + err) / bound, initial=1.0)) - 1.0
        fd_err = float(np.max(err, initial=0.0))
        ok = worst <= 1e-6 and bool(np.all(err / bound <= 1e-5))
    # a NaN ratio or error reads inf
    worst, fd_err = (math.inf if math.isnan(v) else v for v in (worst, fd_err))
    return TMapCheck(points.shape[0], worst, fd_err, ok)


# ---------------------------------------------------------------- cutoffs

def _radii(x: np.ndarray):
    """||x||_2, ||x||_1 and k = #{x_i != 0} of each row, from one array |x|
    that is squared in place for the first (|x| |x| is bitwise x x) and
    then holds the indicator of x_i != 0 for k, a float."""
    a = np.abs(x)
    r1 = a.sum(axis=1)
    a *= a
    r2 = np.sqrt(a.sum(axis=1))
    return r2, r1, np.not_equal(x, 0.0, out=a).sum(axis=1)


def _cloud_cutoffs(x: np.ndarray, c1: float, c2: float):
    """r2, r1, k from _radii and h1, h2, a, b from _cutoffs, for a cloud the
    cutoff checks take in.  A squared row norm past the float range (a
    coordinate past about 1.3e154) raises DomainError: it would read
    ||x||_2 = inf and put h1 on the wrong plateau.  A level that overflows
    for finite norms reads inf, on the same plateau (h1 = 0, h2 = 1) as its
    exact value."""
    with np.errstate(over="ignore"):
        r2, r1, k = _radii(x)
        if not np.all(r2 < math.inf):
            raise DomainError("the cutoff checks take points whose squared norm is finite")
        return (r2, r1, k, *_cutoffs(r2, r1, x.shape[1], c1, c2))


def _cutoffs(r2, r1, n: int, c1: float, c2: float):
    """h1 = clip(2 - a, 0, 1) and h2 = clip(b - 1, 0, 1) of points of R^n
    with norms r2 = ||x||_2 and r1 = ||x||_1, and their levels
    a = c1 sqrt(n) r2 and b = c2 r1 / n."""
    # sqrt(n) r2 first: c1 sqrt(n) may overflow, and inf * 0 at the origin is NaN
    a = c1 * (math.sqrt(n) * r2)
    b = c2 * r1 / n
    return np.clip(2.0 - a, 0.0, 1.0), np.clip(b - 1.0, 0.0, 1.0), a, b


def _cutoff_gradients(r2, r1, k, h1, h2, a, b, n: int, c1: float, c2: float):
    """Rows within KINK_RADIUS of a kink sphere of h1 or h2, from their
    levels a and b, and, off them, the exact gradient norms of h1, h2 and
    h1 h2, from the values _cloud_cutoffs returns.

    On h1's slope (1 < a < 2) grad h1 = -c1 sqrt(n) x/||x||_2, and on h2's
    (1 < b < 2) grad h2 = (c2/n) sign x; off its slope each is 0.  So
    ||grad h1|| = c1 sqrt(n), ||grad h2|| = (c2/n) sqrt(k), and, since
    <x, sign x> = ||x||_1, with p = h2 ||grad h1|| and q = h1 ||grad h2||,

        ||grad(h1 h2)||^2 = p^2 + q^2 - 2 p q cos = (p - q)^2 + 2 p q (1 - cos)

    with cos = ||x||_1 / (||x||_2 sqrt(k)), taken on both slopes at once,
    where ||x||_2 > 0 and k >= 1.  The second form, through hypot and a
    square root of each factor, does not overflow: on a slope the squared
    norm is at least the smallest subnormal, so p stays below 1e162.
    """
    lv = np.stack([a, b])
    near = np.any(np.minimum(np.abs(lv - 1.0), np.abs(lv - 2.0)) < KINK_RADIUS, axis=0)
    on1, on2 = (1.0 < a) & (a < 2.0), (1.0 < b) & (b < 2.0)
    g1 = np.where(on1, c1 * math.sqrt(n), 0.0)
    g2 = np.where(on2, c2 / n * np.sqrt(k), 0.0)
    p, q = h2 * g1, h1 * g2
    cos = np.divide(r1, r2 * np.sqrt(k), out=np.ones_like(r1), where=on1 & on2)
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
    c1, c2 = validate_open_interval([c1, c2], 0.0, math.inf, "c1 and c2").tolist()
    n = pts.shape[1]
    sq = math.sqrt(n)
    cut = _cloud_cutoffs(pts, c1, c2)
    r2, r1, _, v1, v2 = cut[:5]
    # 1/c1/sq, not 1/(c1 sq): an overflowing product puts both thresholds at 0
    plateau_bad = int(np.count_nonzero((v1 == 1.0) != (r2 <= 1.0 / c1 / sq))
                      + np.count_nonzero((v1 == 0.0) != (r2 >= 2.0 / c1 / sq))
                      + np.count_nonzero((v2 == 1.0) != (r1 >= 2.0 * n / c2))
                      + np.count_nonzero((v2 == 0.0) != (r1 <= n / c2)))
    near, g1, g2, _ = _cutoff_gradients(*cut, n, c1, c2)
    grad_bad = int(np.count_nonzero(g1 > c1 * sq * (1.0 + 1e-5))
                   + np.count_nonzero(g2 > c2 / sq * (1.0 + 1e-5)))
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
    c1, c2 = validate_open_interval([c1, c2], 0.0, math.inf, "c1 and c2").tolist()
    near, g1, g2, gp = _cutoff_gradients(*_cloud_cutoffs(pts, c1, c2), pts.shape[1], c1, c2)
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
    n = validate_n(n, 1)
    alpha = validate_open_interval(alpha, 0.0, math.inf, "alpha").tolist()
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
    uniform_ok: bool      # the Monte Carlo part, at 5 standard errors
    contraction_ok: bool  # every sampled difference quotient <= 1 + 1e-6
    ok: bool


def transfer_map_check(n: int, count: int, seed: int) -> TransferCheck:
    """Uniformity and contraction of the gaussian-to-cube transfer.

    Kolmogorov-Smirnov per coordinate on the mapped sample against
    uniform(0,1), plus difference quotients ||phi(x)-phi(y)|| / ||x-y||
    over sampled pairs.  uniform_ok says the smallest of the n p-values is
    at least 1 - (1 - P)^{1/n}, where P = 5.7e-7 is the two-sided normal
    tail beyond 5 standard errors, so a uniform sample fails with chance P;
    contraction_ok says every quotient is at most 1 + 1e-6; ok says both.

    One sort gives every column's two-sided statistic D, written as
    scipy's kstest writes it (the mapped values lie in [0, 1], where the
    uniform distribution function is the identity).  The exact p-value
    kstwo.sf(D, count) falls as D grows, so its value at the largest D
    is the smallest p-value of the columns.
    """
    from scipy import stats  # the only user; kept off `import isodist`

    n = validate_n(n, 1)
    pts = sample_gaussian(n, count, seed)
    mapped = gaussian_to_cube_map(pts)
    cdf = np.sort(mapped.T, axis=1)
    m = cdf.shape[1]
    d = max(float(np.max(np.arange(1.0, m + 1) / m - cdf)),
            float(np.max(cdf - np.arange(0.0, m) / m)))
    min_p = float(np.clip(stats.kstwo.sf(d, m), 0.0, 1.0))
    other = sample_gaussian(n, count, seed + 1)
    num = np.linalg.norm(gaussian_to_cube_map(other) - mapped, axis=1)
    den = np.linalg.norm(other - pts, axis=1)
    ratio = float(np.max(num / den))
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
    n = validate_n(n, 1)
    x = generate(seed, f"avgdist-x-{n}", count, lambda g, m: g.random((m, n)))
    y = generate(seed, f"avgdist-y-{n}", count, lambda g, m: g.random((m, n)))
    dist = np.linalg.norm(x - y, axis=1)
    est = EstimateWithCI.from_samples(dist)
    lower = math.sqrt(n / (2.0 * math.pi * math.e))
    return AvgDistanceResult(n, int(count), est, lower,
                             est.estimate - est.half_width_95 >= lower)
