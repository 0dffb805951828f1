"""Hyperplane sections of unit-volume bodies and their n -> inf limits.

For the unit-volume l_p ball omega_n B_p^n in R^n, the (n-1)-volume of
the section {x_1 = x} is

    S_n(x) = (1 - x^p/omega_n^p)^{(n-1)/p}
             * Gamma(1+n/p) / (2 omega_n Gamma(1+1/p) Gamma(1+(n-1)/p)),

for 0 <= x <= omega_n and 0 beyond.  Substituting u = (t/omega_n)^p,
the cap volume past x is V_n(x) = (1/2) I^c_z(1/p, (n-1)/p + 1) with
z = (x/omega_n)^p and I^c = 1 - I the regularized upper incomplete beta
(DLMF 8.17); evaluating I^c directly keeps tiny caps accurate relative
to their size.  As n grows, S_n converges uniformly to the density

    psi_p(x) = e^{1/p} exp(-(2 Gamma(1+1/p) e^{1/p} x)^p)

and V_n(x) to psi_p's upper tail, which is Psi_p(-x) = phi_p(-e^{1/p} x)
by symmetry.  These limits are what make the cap bounds dimension-free.

The module also carries two cube-side section tools: the distribution
function of a sum of n independent uniforms (diagonal slabs of the cube
cut by sum(x) = s), evaluated at every n through the cancellation-free
Cox-de Boor recurrence of the Irwin-Hall law as a cardinal B-spline, and
the distribution of a scaled coordinate of a random point on the sphere
S^{n-1}, plus the plane geometry of the orthogonal-ball construction
used to push cap bounds between bodies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special as sp
from scipy.interpolate import BSpline

from .bodies import BodyFamily, validate_n, validate_p
from .errors import DomainError
from .specfun import psi_p, unit_volume_radius


def _section_log_prefactor(p: float, n: int, omega: float) -> float:
    return (sp.gammaln(1.0 + n / p) - sp.gammaln(1.0 + 1.0 / p)
            - sp.gammaln(1.0 + (n - 1.0) / p) - math.log(2.0 * omega))


def lp_section_area(x, p: float, n: int):
    """Section volume S_n(x) of the unit-volume l_p ball at height x >= 0.

    Evaluated in log space so large n neither overflows nor loses the
    (1 - (x/omega)^p)^{(n-1)/p} decay.  Zero for x beyond omega_n.
    """
    p = validate_p(p)
    n = validate_n(n, 2)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("section height must be >= 0")
    omega = unit_volume_radius("lp", n, p)
    logpref = _section_log_prefactor(p, n, omega)
    ratio = np.minimum((x / omega) ** p, 1.0)
    with np.errstate(divide="ignore"):
        out = np.where(x < omega,
                       np.exp(logpref + ((n - 1.0) / p) * np.log1p(-ratio)),
                       0.0)
    return float(out) if out.ndim == 0 else out


def _lp_cap_volume(x, p: float, n: int, omega: float):
    return 0.5 * sp.betaincc(1.0 / p, (n - 1.0) / p + 1.0,
                             np.minimum((x / omega) ** p, 1.0))


def lp_tail_volume(x: float, p: float, n: int) -> float:
    """Cap volume V_n(x) past height x, in [0, 1/2].

    Closed form (1/2) I^c_z(1/p, (n-1)/p + 1), z = (x/omega_n)^p, zero
    for x >= omega_n.  Away from the tip omega_n it is within about 3e-12
    relative of 50-digit mpmath values for caps down to 1e-300 at
    n <= 2000.  Near the tip the rounding of the float omega_n (up to
    about 7 + 3 |ln omega_n| half-ulps) moves the cap, and the volume
    amplifies that by x S_n(x) / V_n(x): the error grows by about

        r = (x S_n(x) / V_n(x)) 2^-53 (7 + 3 |ln omega_n|)

    while r is small, for instance r = 1.6e-3 at n = 20, p = 1.5 and the
    height of the 1e-150 cap, which is 3.3e-4 off.  Within a few ulps of
    omega_n the value has no relative accuracy at all, and a float height
    can lie past the true tip, where the true volume is 0.  The value is
    returned all the same; lp_caps_witness checks its caps against this
    allowance and raises where it does not hold.
    """
    p = validate_p(p)
    n = validate_n(n, 2)
    x = float(x)
    if x < 0.0:
        raise DomainError("cap height must be >= 0")
    return float(_lp_cap_volume(x, p, n, unit_volume_radius("lp", n, p)))


def psi_p_density_limit(x, p: float):
    """Limit density e^{1/p} exp(-(2 Gamma(1+1/p) e^{1/p} x)^p).

    Integrates to 1/2 over [0, inf); at p = 2 this is sqrt(e) e^{-pi e x^2}.
    """
    p = validate_p(p)
    x = np.asarray(x, dtype=float)
    scale = 2.0 * math.gamma(1.0 + 1.0 / p) * math.exp(1.0 / p)
    out = math.exp(1.0 / p) * np.exp(-np.abs(scale * x) ** p)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SectionCurve:
    p: float
    n: int
    grid: np.ndarray
    areas: np.ndarray
    tails: np.ndarray
    omega: float


def section_curve(p: float, n: int, grid: Sequence[float]) -> SectionCurve:
    """S_n and V_n sampled on an increasing grid of heights.

    The tails are the closed-form cap volumes, in one vectorised call.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0) or grid[0] < 0:
        raise DomainError("grid must be increasing and nonnegative")
    p = validate_p(p)
    n = validate_n(n, 2)
    omega = unit_volume_radius("lp", n, p)
    areas = lp_section_area(grid, p, n)
    tails = _lp_cap_volume(grid, p, n, omega)
    return SectionCurve(p, n, grid, areas, tails, omega)


@dataclass(frozen=True)
class ConvergenceReport:
    p: float
    n_list: tuple
    sup_gap_tail: tuple   # sup_x |V_n(x) - Psi_p(-x)| per n
    sup_gap_area: tuple   # sup_x |S_n(x) - psi_p(x)| per n
    decreasing: bool


def convergence_report(p: float, n_list: Sequence[int],
                       grid: Sequence[float]) -> ConvergenceReport:
    """Uniform gaps between finite-n sections and their limit laws.

    Both gap sequences should decrease along an increasing n_list; the
    report records whether they do.
    """
    p = validate_p(p)
    n_list = tuple(validate_n(n, 2) for n in n_list)
    grid = np.asarray(grid, dtype=float)
    tail_limit = psi_p(-grid, p)
    area_limit = psi_p_density_limit(grid, p)
    gaps_v, gaps_s = [], []
    for n in n_list:
        curve = section_curve(p, n, grid)
        gaps_v.append(float(np.max(np.abs(curve.tails - tail_limit))))
        gaps_s.append(float(np.max(np.abs(curve.areas - area_limit))))
    dec = all(a > b for a, b in zip(gaps_v, gaps_v[1:])) and \
        all(a > b for a, b in zip(gaps_s, gaps_s[1:]))
    return ConvergenceReport(p, n_list, tuple(gaps_v), tuple(gaps_s), dec)


@dataclass(frozen=True)
class OrthogonalBallGeometry:
    """Plane data of the ball orthogonal to a cap of width d.

    A ball of radius r centered at O such that its boundary passes
    orthogonally through the rim of the slice at depth d of a ball of
    radius omega.  r = omega^2/d - d/4 needs 0 < d < 2 omega; then
    OA = sqrt(omega^2 + r^2) = r + d/2 and the foot of O on the slice
    axis sits at OH = d/(1 + d^2/(4 omega^2)) <= d.
    """

    d: float
    omega: float
    r: float
    oa: float
    oh: float


def orthogonal_ball_geometry(d: float, omega: float) -> OrthogonalBallGeometry:
    d, omega = float(d), float(omega)
    if omega <= 0.0:
        raise DomainError("omega must be positive")
    if not 0.0 < d < 2.0 * omega:
        raise DomainError(f"need 0 < d < 2*omega for a positive radius, got d={d}")
    r = omega * omega / d - d / 4.0
    oa = math.hypot(omega, r)
    oh = d / (1.0 + d * d / (4.0 * omega * omega))
    return OrthogonalBallGeometry(d, omega, r, oa, oh)


# Repeated k, 1 and k times, these rows are the coefficients of
# _irwin_hall_lower: one column steps at index k, the other at k + 1.
_STEP_BLOCK = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])


def _irwin_hall_lower(n: int, s: float) -> tuple[float, float]:
    """F_n(s) and the density f_n(s) of a sum of n uniforms, 0 < s <= n/2.

    On [0, n] the degree-k cardinal B-spline (k = n - 1, knots -k..2k+1)
    whose coefficients step from 0 to 1 at index k is F_k(s), and the
    step at k + 1 is F_k(s - 1).  The Cox-de Boor evaluation combines
    its inputs with nonnegative weights only, and so does

        F_n(s) = (s F_k(s) + (n - s) F_k(s - 1)) / n,

    so nothing cancels however small F_n(s) is.
    """
    k = n - 1
    spline = BSpline.construct_fast(np.arange(-k, 2.0 * k + 2.0),
                                    np.repeat(_STEP_BLOCK, (k, 1, k), axis=0), k)
    here, before = spline(s).tolist()
    return (s * here + (n - s) * before) / n, here - before


def cube_sum_cdf(n: int, s: float) -> float:
    """P(U_1 + ... + U_n <= s) for independent uniforms on (0, 1).

    The alternating sum (1/n!) sum_j (-1)^j C(n, j) (s - j)^n cancels
    catastrophically in floats, so the value comes instead from the
    Cox-de Boor recurrence of the Irwin-Hall distribution as a cardinal
    B-spline, whose terms are all nonnegative (de Boor 1972).  Below the
    mean it is evaluated directly and above it as 1 - F_n(n - s), so
    both tails keep their relative accuracy: about 3e-15 against the
    exact rational sum, at every n.  Each call costs O(n^2) floating
    point operations: about 2 ms at n = 1000 and 9 ms at n = 2000 on a
    2-vCPU x86 VM.
    """
    n = validate_n(n, 1)
    s = float(s)
    if s <= 0.0:
        return 0.0
    if s >= n:
        return 1.0
    if s > 0.5 * n:
        return 1.0 - _irwin_hall_lower(n, n - s)[0]
    return _irwin_hall_lower(n, s)[0]


def sphere_projection_cdf(n: int, x: float) -> float:
    """P(sqrt(n) <u, e> <= x) for u uniform on the sphere S^{n-1}.

    The coordinate t = <u, e> has density proportional to
    (1 - t^2)^{(n-3)/2}, so the distribution function reduces to a
    regularized incomplete beta in t^2.  At n = 3 the coordinate is
    uniform on [-1, 1] and the formula collapses to (1 + x/sqrt(3))/2.
    """
    n = validate_n(n, 2)
    y = float(x) / math.sqrt(n)
    if y <= -1.0:
        return 0.0
    if y >= 1.0:
        return 1.0
    half_mass = 0.5 * sp.betainc(0.5, (n - 1.0) / 2.0, y * y)
    return 0.5 + math.copysign(half_mass, y)
