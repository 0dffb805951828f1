"""Independent slow-path recomputations the test suite trusts.

Everything here rebuilds package quantities from first principles:
direct quadrature of the densities, bracketed Brent inverses, plain
gamma-function volume formulas, exact rational Irwin-Hall sums, an
explicit-Euler integrator for the enlargement ODE, and tail-expansion
brackets for the inverse asymptotes.  None of it imports isodist, so
agreement between the two is evidence rather than tautology.

The package computes l_p cap volumes from scipy's double-precision
incomplete beta, as 1 - I_z(a, b) where I_z <= 1/2 and as the swapped
lower form I_{1-z}(b, a) elsewhere.  lp_tail_betainc is 1 - I_z(a, b),
the package's own formula in that region, so the cap volumes are checked
against two other routes: lp_tail_quad integrates the section area over
the cap itself, and lp_tail_mp evaluates the incomplete beta in 50-digit
mpmath, in its lower form so that tiny caps keep their relative
accuracy.  lp_cap_beta_mp is that lower form at 40 digits for a given
float z, so the incomplete-beta step is judged apart from the radius.
lp_cap_two_form evaluates both betainc forms at every height, the
expression the package's cheaper evaluation order must reproduce.
Likewise phi_p_inv_mp inverts the distribution functions through
mpmath's incomplete gamma functions at 50 digits, not through the scipy
inverses the package calls, and cube_profile_mp forms the cube's
isoperimetric profile from a 50-digit root of phi.  xlog_power_derivative
is the l_p profile's derivative written out, against which the profile's
finite differences are held.

The lemma checks work on whole clouds at once; t_map_check_pointwise,
cutoff_check_pointwise and cutoff_product_pointwise redo them one point
and one coordinate at a time, with the cutoffs and the T-map Jacobian
written out and every shifted row differenced.  t_map_fd_radial writes
out T's differences the way the package takes them, from each shifted
row's sum alone, one entry at a time.

The lattice counts cells by inclusion-exclusion and measures distances
by dilating bit masks; count_cells_recurrence convolves the
coordinate-sum counts one dimension at a time, and t_boundary_bfs grows
a neighborhood by breadth-first search over cell tuples.  The
extremal-pair search dilates only the down-sets, which it builds cell by
cell, and the segments come from one stable sort; sweep_max_by_s_loop
walks all the r-subsets one at a time and sorts distances,
down_sets_filtered keeps the r-subsets that is_down_set accepts,
compress moves cell tuples down their lines (the compression step that
justifies sweeping down-sets alone), and simplicial_segment_sorted sorts
cell tuples by (sum, -c).

The CLI formats whole columns and joins their text; cli_text writes the
same rows one at a time, each value through csv.writer or each row
through json.dumps.

The samplers copy each chunk into a batch allocated once and then work in
place; generate_concat keys the same SFC64 streams by hand and joins the
chunks with np.concatenate, and simplex_fill, gaussian_fill, phi_erfc,
row_distances, avgdist_distances, transfer_ratio and exp_tail_sums are
the out-of-place expressions the in-place code must match bit for bit.
"""

import csv
import io
import itertools
import json
import math
import operator
import zlib
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


def phi_p_inv_mp(eps: float, p: float) -> float:
    """Inverse of the distribution function of exp(-kappa_p |x|^p) at 50
    digits; at p = 2 it is the inverse of exp(-pi x^2)'s.

    Below 0 the distribution function is Q(1/p, kappa_p |a|^p)/2 and above
    it 1/2 + P(1/p, kappa_p a^p)/2, with P, Q mpmath's regularized
    incomplete gamma functions and kappa_p = 2^p Gamma(1+1/p)^p.  The
    root z of Q = 2 eps, or of P = 2 eps - 1, is sought in w = ln z on
    the log of the function, so tails down to 1e-300 and arguments next
    to 1/2 keep their digits: bisection over w in [-200, 8], then Newton
    steps with the exact slope.
    """
    with mpmath.workdps(50):
        e, p_mp = mpmath.mpf(eps), mpmath.mpf(p)
        s = 1 / p_mp
        if e == 0.5:
            return 0.0
        low = e < 0.5
        log_target = mpmath.log(2 * e if low else 2 * e - 1)

        def gap(w):
            z = mpmath.exp(w)
            f = mpmath.gammainc(s, z, mpmath.inf, regularized=True) if low \
                else mpmath.gammainc(s, 0, z, regularized=True)
            slope = z**s * mpmath.exp(-z) / (mpmath.gamma(s) * f)
            return mpmath.log(f) - log_target, -slope if low else slope

        lo, hi = mpmath.mpf(-200), mpmath.mpf(8)
        for _ in range(40):
            mid = (lo + hi) / 2
            if (gap(mid)[0] > 0) == low:
                lo = mid
            else:
                hi = mid
        w = (lo + hi) / 2
        for _ in range(20):
            g, slope = gap(w)
            w -= g / slope
            if abs(g / slope) < mpmath.mpf(10) ** -40:
                break
        kap = 2**p_mp * mpmath.gamma(1 + s) ** p_mp
        return float((-1 if low else 1) * (mpmath.exp(w) / kap) ** s)


def cube_profile_mp(t: float) -> float:
    """exp(-pi z^2) at the 50-digit root z of phi(z) = t, for 0 < t < 1/2.

    phi(z) = erfc(u)/2 with u = -sqrt(pi) z > 0.  The root is sought in u
    on the log of erfc, so tails down to 1e-300 keep their digits:
    bisection over u in [0, 40], then Newton steps with the exact slope.
    The profile is formed from the 50-digit z; rounding z to a double
    first would cost up to about 1.4e-13 relative at t = 1e-300.
    """
    with mpmath.workdps(50):
        log_target = mpmath.log(2 * mpmath.mpf(t))

        def gap(u):
            f = mpmath.erfc(u)
            slope = -2 * mpmath.exp(-u * u) / (mpmath.sqrt(mpmath.pi) * f)
            return mpmath.log(f) - log_target, slope

        lo, hi = mpmath.mpf(0), mpmath.mpf(40)
        for _ in range(40):
            mid = (lo + hi) / 2
            if gap(mid)[0] > 0:
                lo = mid
            else:
                hi = mid
        u = (lo + hi) / 2
        for _ in range(20):
            g, slope = gap(u)
            u -= g / slope
            if abs(g / slope) < mpmath.mpf(10) ** -40:
                break
        z = -u / mpmath.sqrt(mpmath.pi)
        return float(mpmath.exp(-mpmath.pi * z * z))


def xlog_power_derivative(x: float, p: float) -> float:
    """Derivative of the l_p profile x (-ln x)^{1-1/p}, in the factored
    form (-ln x)^{-1/p} ((-ln x) - (1 - 1/p)), for 0 < x < 1."""
    L = -math.log(x)
    return L ** (-1.0 / p) * (L - (1.0 - 1.0 / p))


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

    Plain gamma calls; past 1 + n/p = 171, where math.gamma overflows,
    the n-th root of Gamma(1 + n/p) comes from math.lgamma instead.
    """
    x = 1.0 + n / p
    root = math.gamma(x) ** (1.0 / n) if x < 171.0 else math.exp(math.lgamma(x) / n)
    return root / (2.0 * math.gamma(1.0 + 1.0 / p))


def ball_marton_upper(n: int, eps: float) -> float:
    """2 sqrt(2 ln(1/eps) R^2 / (n + 1)), with R = Gamma(n/2 + 1)^{1/n} / sqrt(pi)
    the unit-volume ball's radius, taken through math.lgamma.

    An upper bound on the distance between two subsets of volume eps of
    B^n(R), looser than the caps': the uniform law on S^{n+1}(R) has
    log-Sobolev constant (n + 1)/R^2 (Mueller and Weissler 1982), so by
    Marton's argument two of its subsets of measure eps lie at most
    2 sqrt(2 ln(1/eps) R^2/(n + 1)) apart, and the 1-Lipschitz projection
    onto n coordinates carries them to any two such subsets of the ball.
    """
    r2 = math.exp(2.0 * math.lgamma(n / 2.0 + 1.0) / n) / math.pi
    return 2.0 * math.sqrt(2.0 * -math.log(eps) * r2 / (n + 1.0))


def lp_section_direct(x: float, p: float, n: int) -> float:
    """Section area as the volume of an (n-1)-dimensional lp ball of
    radius rho = (omega^p - x^p)^{1/p}, formed in logs through math.lgamma
    so that large n does not overflow."""
    om = lp_radius_direct(p, n)
    if x >= om:
        return 0.0
    log_rho = math.log(om ** p - x ** p) / p
    return math.exp((n - 1) * (math.log(2.0) + math.lgamma(1.0 + 1.0 / p) + log_rho)
                    - math.lgamma(1.0 + (n - 1) / p))


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


def lp_cap_two_form(x, p: float, n: int, omega: float):
    """Cap volume past x on a body of radius omega, with both betainc forms
    evaluated at every height: 1 - I_z(a, b) where I_z <= 1/2, the swapped
    lower form I_{1-z}(b, a) elsewhere.  The package evaluates the first
    form only where the second is at least 1/4, and must match this bit
    for bit."""
    a, b = 1.0 / p, (n - 1.0) / p + 1.0
    z = np.minimum((x / omega) ** p, 1.0)
    lower = sp.betainc(a, b, z)
    return 0.5 * np.where(lower <= 0.5, 1.0 - lower, sp.betainc(b, a, 1.0 - z))


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


def lp_cap_beta_mp(z: float, p: float, n: int) -> float:
    """(1/2) I^c_z(1/p, (n-1)/p + 1) at 40 digits for a float z in [0, 1],
    in the swapped lower form I_{1-z}((n-1)/p + 1, 1/p) with 1 - z exact.

    This is the cap volume at relative height (z)^{1/p}, with no radius
    in it, so it judges the incomplete-beta step alone."""
    with mpmath.workdps(40):
        p_mp = mpmath.mpf(p)
        return float(mpmath.betainc((n - 1) / p_mp + 1, 1 / p_mp, 0, 1 - mpmath.mpf(z),
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


def is_down_set(cells) -> bool:
    """Whether every cell one step below a cell of the set, along any axis,
    is in the set too."""
    cells = set(map(tuple, cells))
    return all(c[:i] + (v - 1,) + c[i + 1:] in cells
               for c in cells for i, v in enumerate(c) if v)


def compress(cells, axis: int) -> set:
    """The compression along an axis: the cells of each line along it moved
    to the bottom of that line, as many as there were."""
    lines = {}
    for c in map(tuple, cells):
        rest = c[:axis] + c[axis + 1:]
        lines[rest] = lines.get(rest, 0) + 1
    return {rest[:axis] + (v,) + rest[axis:]
            for rest, count in lines.items() for v in range(count)}


def down_sets_filtered(k: int, n: int, r: int) -> list:
    """The masks of the r-subsets of [k]^n that are down-sets, sorted, from
    all C(k^n, r) subsets; cell c is bit sum_i c_i k^(n-1-i)."""
    cells = list(itertools.product(range(k), repeat=n))
    return sorted(sum(1 << i for i in A)
                  for A in itertools.combinations(range(len(cells)), r)
                  if is_down_set(cells[i] for i in A))


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
    """(count, max_excess, max_fd_error, max_fd_spectral, fd_ok) of the
    T-map Lipschitz check.

    Per point: the central-difference Jacobian of x / sum(x) and its
    distance to the exact (delta_ij - T_j) / ||x||_1, in the Frobenius
    norm E (max_fd_error) and in the 2-norm (max_fd_spectral); the exact
    Jacobian's 2-norm N from an SVD; and the excess (N + E) over the bound
    (1 + sqrt(n) ||T||_2) / ||x||_1, minus 1, floored at 0.  fd_ok says
    whether every point has E <= 1e-5 times its bound.
    """
    worst = fd_err = fd_spectral = 0.0
    fd_ok = True
    for x in points:
        n, s = x.size, x.sum()
        t = x / s
        jfd = _fd_rows(lambda y: y / y.sum(), x, h)
        jex = (np.eye(n) - t[None, :]) / s
        bound = (1.0 + math.sqrt(n) * float(np.linalg.norm(t))) / s
        err = float(np.linalg.norm(jfd - jex, "fro"))
        fd_err = max(fd_err, err)
        fd_spectral = max(fd_spectral, float(np.linalg.norm(jfd - jex, 2)))
        worst = max(worst, (float(np.linalg.norm(jex, 2)) + err) / bound - 1.0)
        fd_ok = fd_ok and err <= 1e-5 * bound
    return len(points), worst, fd_err, fd_spectral, fd_ok


def t_map_fd_radial(points, h=1e-6):
    """(max_fd_error, max_fd_spectral) of T's central differences taken from
    the shifted rows' sums.

    x + h e_i differs from x in coordinate i only, so its sum is
    s + ((x_i + h) - x_i) with s = sum(x), and T there is x_j over that sum
    off the diagonal and (x_i + h) over it on the diagonal.  Per point, the
    matrix J_fd - J is built entry by entry from these quotients and the
    exact J, -x_j/s^2 off the diagonal and (s - x_i)/s^2 on it, and its
    Frobenius and 2-norms are taken.
    For points whose squared entries neither overflow nor underflow.
    """
    fd_err = fd_spectral = 0.0
    for x in points:
        n, s = x.size, float(x.sum())
        r = np.empty((n, n))
        for i in range(n):
            xi = float(x[i])
            up, down = xi + h, xi - h
            s_up, s_down = s + (up - xi), s + (down - xi)
            alpha = (1.0 / s_up - 1.0 / s_down) / (2.0 * h) + 1.0 / (s * s)
            for j in range(n):
                r[i, j] = alpha * float(x[j])
            r[i, i] = (up / s_up - down / s_down) / (2.0 * h) - (s - xi) / (s * s)
        fd_err = max(fd_err, float(np.linalg.norm(r, "fro")))
        fd_spectral = max(fd_spectral, float(np.linalg.norm(r, 2)))
    return fd_err, fd_spectral


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


def _cli_fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return ""
    return str(value)


def cli_text(rows: list, json_lines: bool) -> str:
    """The CLI's output for rows (dicts with one key order), row by row: CSV
    with a header and values at 12 significant digits through csv.writer,
    or JSON lines with None left out and each float read back from that
    text."""
    if json_lines:
        lines = []
        for row in rows:
            clean = {k: (float(f"{v:.12g}") if isinstance(v, float) else v)
                     for k, v in row.items() if v is not None}
            lines.append(json.dumps(clean))
        return "\n".join(lines) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow([_cli_fmt(v) for v in row.values()])
    return buf.getvalue()


# ---------------------------------------------------------------- batches

def generate_concat(seed: int, name: str, count: int, fill, chunk: int) -> np.ndarray:
    """fill(g, m) over chunks of `chunk` points, chunk i drawn from SFC64
    keyed by SeedSequence(seed, spawn_key=(crc32(name), i)), the parts kept
    in a list and joined by np.concatenate."""
    tag = zlib.crc32(name.encode("ascii"))
    parts = []
    for i, lo in enumerate(range(0, count, chunk)):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, i))
        parts.append(np.asarray(fill(np.random.Generator(np.random.SFC64(ss)),
                                     min(chunk, count - lo))))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


def simplex_fill(omega: float, n: int):
    """Uniform points of the simplex of scale omega, omega E / ||E||_1."""
    def fill(g, m):
        e = g.standard_exponential((m, n))
        return omega * e / e.sum(axis=1, keepdims=True)
    return fill


def gaussian_fill(n: int):
    """Points of density exp(-pi ||x||^2), normals over sqrt(2 pi)."""
    return lambda g, m: g.standard_normal((m, n)) / math.sqrt(2.0 * math.pi)


def phi_erfc(a):
    """phi(a) = erfc(-sqrt(pi) a)/2 of an array."""
    return 0.5 * sp.erfc(-math.sqrt(math.pi) * np.asarray(a, dtype=float))


def row_distances(x, y) -> np.ndarray:
    return np.linalg.norm(x - y, axis=1)


def avgdist_distances(n: int, count: int, seed: int, chunk: int) -> np.ndarray:
    """The pair distances of the average-distance experiment."""
    x = generate_concat(seed, f"avgdist-x-{n}", count, lambda g, m: g.random((m, n)), chunk)
    y = generate_concat(seed, f"avgdist-y-{n}", count, lambda g, m: g.random((m, n)), chunk)
    return row_distances(x, y)


def transfer_ratio(n: int, count: int, seed: int, chunk: int) -> float:
    """The largest ||phi(x) - phi(y)|| / ||x - y|| of the transfer check."""
    x = generate_concat(seed, f"gaussian-{n}", count, gaussian_fill(n), chunk)
    y = generate_concat(seed + 1, f"gaussian-{n}", count, gaussian_fill(n), chunk)
    return float(np.max(row_distances(phi_erfc(y), phi_erfc(x)) / row_distances(y, x)))


def exp_tail_sums(n: int, count: int, seed: int, chunk: int) -> np.ndarray:
    """The sums E_1 + ... + E_n of the exponential-tail check."""
    return generate_concat(seed, f"exp-sum-{n}", count,
                           lambda g, m: g.standard_exponential((m, n)).sum(axis=1), chunk)
