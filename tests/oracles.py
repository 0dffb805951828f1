"""Independent slow-path recomputations the test suite trusts.

Everything here rebuilds package quantities from first principles:
direct quadrature of the densities, bracketed Brent inverses, plain
gamma-function volume formulas, exact rational Irwin-Hall sums, an
explicit-Euler integrator for the enlargement ODE, and tail-expansion
brackets for the inverse asymptotes.  None of it imports isodist, so
agreement between the two is evidence rather than tautology.

The package computes l_p cap volumes with scipy's upper incomplete beta
function.  lp_tail_betainc uses the same formula, so the cap volumes are
checked against two other routes: lp_tail_quad integrates the section
area over the cap itself, and lp_tail_mp evaluates the incomplete beta
in 50-digit mpmath, in its lower form so that tiny caps keep their
relative accuracy.

The lemma checks difference whole clouds at once; t_map_check_pointwise,
cutoff_check_pointwise and cutoff_product_pointwise redo them one point
and one coordinate at a time, with the cutoffs and the T-map Jacobian
written out.

The lattice counts cells by inclusion-exclusion and measures distances
with an axis-sweep distance transform; count_cells_recurrence convolves
the coordinate-sum counts one dimension at a time, and t_boundary_bfs
grows a neighborhood by breadth-first search over cell tuples.  The
extremal-pair search runs over blocks of r-subsets and the segments come
from one lexsort; sweep_max_by_s_loop walks the r-subsets one at a time
and simplicial_segment_sorted sorts cell tuples by (sum, -c).
"""

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
from scipy import integrate, optimize
from scipy import special as sp


def phi_quad(a: float) -> float:
    """Distribution function of the density e^{-pi x^2} by quadrature."""
    if a <= 0.0:
        val, _ = integrate.quad(lambda x: math.exp(-math.pi * x * x),
                                -math.inf, a, epsabs=1e-14)
        return val
    return 1.0 - phi_quad(-a)


def kappa_direct(p: float) -> float:
    return (2.0 * math.gamma(1.0 + 1.0 / p)) ** p


def phi_p_quad(a: float, p: float) -> float:
    """Distribution function of e^{-kappa_p |x|^p} by quadrature."""
    kap = kappa_direct(p)
    if a <= 0.0:
        val, _ = integrate.quad(lambda x: math.exp(-kap * (-x) ** p),
                                -math.inf, a, epsabs=1e-14)
        return val
    return 1.0 - phi_p_quad(-a, p)


def phi_inv_bisect(eps: float) -> float:
    return optimize.brentq(lambda a: phi_quad(a) - eps, -12.0, 12.0,
                           xtol=1e-13)


def phi_p_inv_bisect(eps: float, p: float) -> float:
    return optimize.brentq(lambda a: phi_p_quad(a, p) - eps, -60.0, 60.0,
                           xtol=1e-13)


def gaussian_asymptote_ratio_bracket(eps: float) -> tuple[float, float]:
    """Interval holding sqrt(L/pi) / a, L = -ln eps, a = -phi_inv(eps).

    Gordon's Mills-ratio bounds (Ann. Math. Statist. 12, 1941), written
    for the density e^{-pi x^2}, squeeze the tail at a > 0:

        e^{-pi a^2}/(2 pi a) / (1 + 1/(2 pi a^2)) <= eps <= e^{-pi a^2}/(2 pi a).

    Both sides decrease in a on [1/2, inf), so solving each for a by Brent
    gives a_L <= a <= a_U and the ratio lies in [sqrt(L/pi)/a_U,
    sqrt(L/pi)/a_L].  Any root lies below sqrt(L/pi), where the upper
    side is already under eps.  Valid for eps in (0, 0.05].
    """
    if not 0.0 < eps <= 0.05:
        raise ValueError(f"bracket needs eps in (0, 0.05], got {eps}")
    big_l = -math.log(eps)
    lead = math.sqrt(big_l / math.pi)

    def log_upper(a):
        return -math.pi * a * a - math.log(2.0 * math.pi * a)

    def log_lower(a):
        return log_upper(a) - math.log1p(1.0 / (2.0 * math.pi * a * a))

    a_u = optimize.brentq(lambda a: log_upper(a) + big_l, 0.5, lead,
                          xtol=1e-15)
    a_l = optimize.brentq(lambda a: log_lower(a) + big_l, 0.5, lead,
                          xtol=1e-15)
    return lead / a_u, lead / a_l


def psi1_asymptote_ratio(eps: float) -> float:
    """Exact ratio L / (L - ln 2) of the p = 1 asymptote to psi_1^{-1}(eps).

    The tail of psi_1 is e^{-2e|a|}/2, so |a| = (L - ln 2)/(2e) against
    the leading-order L/(2e), with L = -ln eps.
    """
    big_l = -math.log(eps)
    return big_l / (big_l - math.log(2.0))


def lp_radius_direct(p: float, n: int) -> float:
    """Radius making vol((2 Gamma(1+1/p) r)^n / Gamma(1+n/p)) = 1.

    Plain gamma calls, so only good for n small enough not to overflow.
    """
    return math.gamma(1.0 + n / p) ** (1.0 / n) / (2.0 * math.gamma(1.0 + 1.0 / p))


def lp_section_direct(x: float, p: float, n: int) -> float:
    """Section area as the volume of an (n-1)-dimensional lp ball."""
    om = lp_radius_direct(p, n)
    if x >= om:
        return 0.0
    rho = (om ** p - x ** p) ** (1.0 / p)
    return (2.0 * math.gamma(1.0 + 1.0 / p) * rho) ** (n - 1) \
        / math.gamma(1.0 + (n - 1) / p)


def lp_tail_betainc(x: float, p: float, n: int) -> float:
    """Cap volume past x as half a regularized incomplete beta.

    Substituting u = (t/omega)^p in the section integral gives
    int_0^x S_n = (1/2) I_z(1/p, (n-1)/p + 1) with z = (x/omega)^p.
    """
    om = lp_radius_direct(p, n)
    if x >= om:
        return 0.0
    z = (x / om) ** p
    return 0.5 * (1.0 - sp.betainc(1.0 / p, (n - 1.0) / p + 1.0, z))


def lp_tail_quad(x: float, p: float, n: int) -> float:
    """Cap volume past x by adaptive quadrature of the section area over
    [x, omega], to a relative 1e-12.

    Integrating the cap itself, rather than taking 1/2 minus the integral
    over [0, x], keeps tiny caps free of cancellation.
    """
    om = lp_radius_direct(p, n)
    if x >= om:
        return 0.0
    val, _ = integrate.quad(lambda t: lp_section_direct(t, p, n), x, om,
                            epsabs=0.0, epsrel=1e-12, limit=200)
    return val


def lp_tail_mp(x: float, p: float, n: int) -> float:
    """Cap volume past x from mpmath's regularized incomplete beta at 50
    digits, in the swapped lower form I^c_z(a, b) = I_{1-z}(b, a).

    mpmath's upper form 1 - I_z(a, b) keeps only about 1e-50 absolute,
    which loses every cap below that; the lower form keeps the relative
    accuracy of tiny caps too.
    """
    with mpmath.workdps(50):
        p_mp = mpmath.mpf(p)
        om = (mpmath.gamma(1 + n / p_mp) ** (mpmath.mpf(1) / n)
              / (2 * mpmath.gamma(1 + 1 / p_mp)))
        if x >= om:
            return 0.0
        z = (mpmath.mpf(x) / om) ** p_mp
        return float(mpmath.betainc((n - 1) / p_mp + 1, 1 / p_mp, 0, 1 - z,
                                    regularized=True) / 2)


def lp_delta_mp(eps: float, p: float) -> float:
    """The l_p enlargement closed form p((-ln eps)^{1/p} - (ln 2)^{1/p})
    at 50 digits, with c_iso = 1; at p = 1 it is the simplex's ln(1/(2 eps))."""
    with mpmath.workdps(50):
        inv = 1 / mpmath.mpf(p)
        return float(p * ((-mpmath.log(mpmath.mpf(eps))) ** inv - mpmath.log(2) ** inv))


def simplex_corner_distance_mp(n: int, eps: float) -> float:
    """sqrt(2) omega_n (1 - (2 eps)^{1/(n-1)}) at 50 digits, with the
    simplex radius omega_n = (n! / (n sqrt(n)))^{1/(n-1)}."""
    with mpmath.workdps(50):
        omega = mpmath.exp((mpmath.loggamma(n + 1) - 1.5 * mpmath.log(n)) / (n - 1))
        alpha = (2 * mpmath.mpf(eps)) ** (mpmath.mpf(1) / (n - 1))
        return float(mpmath.sqrt(2) * omega * (1 - alpha))


def irwin_hall_exact(n: int, s: float) -> float:
    """P(U_1 + ... + U_n <= s) with the alternating sum done in exact
    rational arithmetic (the float s becomes an exact binary rational),
    rounded once at the end."""
    sF = Fraction(float(s))
    if sF <= 0:
        return 0.0
    if sF >= n:
        return 1.0
    tot = Fraction(0)
    for j in range(int(sF) + 1):
        tot += (-1) ** j * math.comb(n, j) * (sF - j) ** n
    return float(tot / math.factorial(n))


@lru_cache(maxsize=None)
def _sum_counts(k: int, n: int) -> tuple:
    """counts[j] = number of cells of [k]^n with coordinate sum j, by a
    prefix-sum recurrence over dimensions."""
    counts = [1]
    for _ in range(n):
        # one more coordinate: new[j] sums old[j - k + 1 .. j], a difference
        # of prefix sums padded with k zeros in front
        prefix = [0] * k + list(itertools.accumulate(counts + [0] * (k - 1)))
        counts = list(map(operator.sub, prefix[k:], prefix))
    return tuple(counts)


def count_cells_recurrence(k: int, n: int, s: int) -> int:
    """Cells of [k]^n with coordinate sum <= s, summed from the
    dimension-by-dimension count table."""
    if s < 0:
        return 0
    return sum(_sum_counts(k, n)[: s + 1])


def t_boundary_bfs(cells, k: int, t: int) -> set:
    """Cells of [k]^n within Manhattan distance t of the given cell tuples,
    by breadth-first search over the 2n-neighbor adjacency."""
    seen = set(map(tuple, cells))
    frontier = set(seen)
    for _ in range(t):
        nxt = set()
        for cell in frontier:
            for i, c in enumerate(cell):
                for nb in (c - 1, c + 1):
                    if 0 <= nb < k:
                        nxt.add(cell[:i] + (nb,) + cell[i + 1:])
        frontier = nxt - seen
        seen |= frontier
    return seen


def sweep_max_by_s_loop(k: int, n: int, r: int) -> tuple:
    """For each s, the max over all r-subsets A of [k]^n of the s-th largest
    distance from a cell to A, one subset at a time."""
    cells = list(itertools.product(range(k), repeat=n))
    D = np.array([[sum(abs(a - b) for a, b in zip(x, y)) for y in cells]
                  for x in cells])
    best = np.zeros(len(cells), dtype=np.int64)
    for A in itertools.combinations(range(len(cells)), r):
        d = D[:, A].min(axis=1)
        d[::-1].sort()
        np.maximum(best, d, out=best)
    return tuple(int(v) for v in best)


@lru_cache(maxsize=None)
def _simplicial_order(k: int, n: int) -> list:
    return sorted(itertools.product(range(k), repeat=n),
                  key=lambda c: (sum(c), tuple(-v for v in c)))


def simplicial_segment_sorted(k: int, n: int, count: int, final: bool) -> list:
    """The first (or, with final, the last) count cells of [k]^n in the
    simplicial order: coordinate sum, then the larger first differing
    coordinate first."""
    order = _simplicial_order(k, n)
    return order[len(order) - count:] if final else order[:count]


def erlang_cdf_series(n: int, x: float) -> float:
    """P(Gamma(n, 1) <= x) = e^{-x} sum_{k>=n} x^k / k!.

    The complement form 1 - e^{-x} sum_{k<n} cancels badly when the CDF is
    tiny, so sum the upper tail directly; all terms are positive.
    """
    if x <= 0.0:
        return 0.0
    term = math.exp(n * math.log(x) - math.lgamma(n + 1) - x)
    acc, k = term, n
    while term > acc * 1e-18:
        k += 1
        term *= x / k
        acc += term
    return acc


def euler_delta_to_half(profile, eps: float, step: float = 1e-5) -> float:
    """Explicit Euler on dv/ds = I(v), v(0) = eps, run until v crosses
    1/2; returns the crossing s with the final step linearly split."""
    v, s = float(eps), 0.0
    max_steps = int(2e7)
    for _ in range(max_steps):
        dv = step * float(profile(v))
        if dv <= 0.0:
            raise RuntimeError(f"profile not positive at t={v}")
        if v + dv >= 0.5:
            return s + step * (0.5 - v) / dv
        v += dv
        s += step
    raise RuntimeError("no crossing within step budget")


def _fd_rows(f, x, h):
    """Central differences (f(x + h e_i) - f(x - h e_i)) / 2h, row i for
    coordinate i; f may be scalar or vector valued."""
    rows = []
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        rows.append((f(up) - f(down)) / (2.0 * h))
    return np.array(rows)


def t_map_check_pointwise(points, h=1e-6):
    """(count, max_excess, max_fd_error) of the T-map Lipschitz check.

    Per point: the central-difference Jacobian of x / sum(x), its 2-norm
    distance to the exact (delta_ij - T_j) / ||x||_1, and its 2-norm over
    the bound (1 + sqrt(n) ||T||_2) / ||x||_1, minus 1; the excess is
    floored at 0.
    """
    worst = fd_err = 0.0
    for x in points:
        n, s = x.size, x.sum()
        t = x / s
        jfd = _fd_rows(lambda y: y / y.sum(), x, h)
        jex = (np.eye(n) - t[None, :]) / s
        bound = (1.0 + math.sqrt(n) * float(np.linalg.norm(t))) / s
        fd_err = max(fd_err, float(np.linalg.norm(jfd - jex, 2)))
        worst = max(worst, float(np.linalg.norm(jfd, 2)) / bound - 1.0)
    return len(points), worst, fd_err


def _cutoffs(x, c1, c2):
    """clip(2 - c1 sqrt(n) ||x||_2, 0, 1) and clip(c2 ||x||_1 / n - 1, 0, 1)."""
    n = x.size
    h1 = min(max(2.0 - c1 * math.sqrt(n) * float(np.linalg.norm(x)), 0.0), 1.0)
    h2 = min(max(c2 * float(np.abs(x).sum()) / n - 1.0, 0.0), 1.0)
    return h1, h2


def _near_kink(x, c1, c2):
    n = x.size
    a = c1 * math.sqrt(n) * float(np.linalg.norm(x))
    b = c2 * float(np.abs(x).sum()) / n
    return min(abs(a - 1.0), abs(a - 2.0)) < 1e-4 or min(abs(b - 1.0), abs(b - 2.0)) < 1e-4


def _gradient_norms(x, c1, c2, h):
    """Finite-difference gradient norms of h1, h2 and h1 h2 at x."""
    g1 = _fd_rows(lambda y: _cutoffs(y, c1, c2)[0], x, h)
    g2 = _fd_rows(lambda y: _cutoffs(y, c1, c2)[1], x, h)
    gp = _fd_rows(lambda y: _cutoffs(y, c1, c2)[0] * _cutoffs(y, c1, c2)[1], x, h)
    return (float(np.linalg.norm(g1)), float(np.linalg.norm(g2)),
            float(np.linalg.norm(gp)))


def cutoff_check_pointwise(points, c1, c2, h=1e-6):
    """(count, skipped, plateau, gradient) of the cutoff check.

    Per point: the four plateau statements, then, unless the point lies
    within 1e-4 of a kink sphere, ||grad h1|| <= c1 sqrt(n) and
    ||grad h2|| <= c2 / sqrt(n) up to 1e-5 relative.
    """
    skipped = plateau = gradient = 0
    for x in points:
        n = x.size
        sq = math.sqrt(n)
        r2, r1 = float(np.linalg.norm(x)), float(np.abs(x).sum())
        v1, v2 = _cutoffs(x, c1, c2)
        plateau += ((v1 == 1.0) != (r2 <= 1.0 / (c1 * sq))) \
            + ((v1 == 0.0) != (r2 >= 2.0 / (c1 * sq))) \
            + ((v2 == 1.0) != (r1 >= 2.0 * n / c2)) \
            + ((v2 == 0.0) != (r1 <= n / c2))
        if _near_kink(x, c1, c2):
            skipped += 1
            continue
        g1, g2, _ = _gradient_norms(x, c1, c2, h)
        gradient += (g1 > c1 * sq * (1.0 + 1e-5)) + (g2 > c2 / sq * (1.0 + 1e-5))
    return len(points), skipped, plateau, gradient


def cutoff_product_pointwise(points, c1, c2, h=1e-6, tol=1e-5):
    """(count, skipped, violations) of ||grad(h1 h2)|| <= ||grad h1||
    + ||grad h2|| + tol, skipping points within 1e-4 of a kink sphere."""
    skipped = bad = 0
    for x in points:
        if _near_kink(x, c1, c2):
            skipped += 1
            continue
        g1, g2, gp = _gradient_norms(x, c1, c2, h)
        bad += gp > g1 + g2 + tol
    return len(points), skipped, bad
