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
in 50-digit mpmath.
"""

import math
from fractions import Fraction

import mpmath
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
    digits; its absolute error is near 1e-50, so it serves for caps well
    above that."""
    with mpmath.workdps(50):
        p_mp = mpmath.mpf(p)
        om = (mpmath.gamma(1 + n / p_mp) ** (mpmath.mpf(1) / n)
              / (2 * mpmath.gamma(1 + 1 / p_mp)))
        if x >= om:
            return 0.0
        z = (mpmath.mpf(x) / om) ** p_mp
        return float(mpmath.betainc(1 / p_mp, (n - 1) / p_mp + 1, z, 1,
                                    regularized=True) / 2)


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
