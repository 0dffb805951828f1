"""Explicit pairs of far-apart subsets and two-sided bound reports.

Each witness builds two regions of volume eps inside a unit-volume body
and reports the exact euclidean distance between them, together with the
n -> inf limit of that distance:

    ball / l_p   opposite caps  +-{x_1 >= a}  with cap volume eps;
                 distance 2a, limit -2 psi_p_inv(eps)
    cube         diagonal slabs sum(x) <= n/2 - a sqrt(n) and
                 sum(x) >= n/2 + a sqrt(n); the hyperplanes sum(x) = c1,
                 sum(x) = c2 are |c2 - c1|/sqrt(n) apart, so the distance
                 is exactly 2a; limit -2 sqrt(pi/6) phi_inv(eps)
    simplex      the two halves cut by an edge's perpendicular bisector,
                 each scaled by alpha = (2 eps)^{1/(n-1)} toward its
                 vertex; distance sqrt(2) omega_n (1 - alpha), limit
                 -(sqrt(2)/e) ln(2 eps)

bound_report collects, per family, the best lower bound a witness gives
in the limit and the enlargement upper bound in its theorem-statement
form.  For the ball the two coincide: the distance is exactly
-2 phi_inv(eps)/sqrt(e) in the limit.  Rows whose upper bound rests on a
placeholder constant are flagged parametric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from scipy import special as sp

from .bodies import BodyFamily, validate_epsilon, validate_p
from .errors import DomainError
from .profiles import DEFAULT_CONSTANTS, ConstantsConfig
from .sections import _irwin_hall_lower, lp_section_area, lp_tail_volume
from .specfun import SQRT_E, phi_inv, psi_p_inv, unit_volume_radius

_SQRT_PI_6 = math.sqrt(math.pi / 6.0)
_VOLUME_REL_TOL = 1e-6
_NEWTON_STEPS = 30


@dataclass(frozen=True)
class RegionDescriptor:
    """Tagged description of one witness region.

    kind is halfspace_cap, diagonal_slab or corner_homothety; params
    holds the defining numbers (axis/threshold/side, or vertex/alpha).
    """

    kind: str
    params: Mapping

    def __str__(self):
        inner = ",".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in self.params.items())
        return f"{self.kind}({inner})"


@dataclass(frozen=True)
class RegionPair:
    family: str
    n: int
    epsilon: float
    region_a: RegionDescriptor
    region_b: RegionDescriptor
    distance: float
    limit_value: float


@dataclass(frozen=True)
class BoundReport:
    family: str
    epsilon: float
    lower: float
    upper: float
    exact_limit: float | None
    parametric: bool
    manhattan_scaled_limit: float | None = None


def lp_caps_witness(n: int, p: float, eps: float) -> RegionPair:
    """Opposite caps of volume eps in the unit-volume l_p ball.

    The cap height a inverts the closed-form cap volume of sections
    (betainccinv), and the caps +-{x_1 >= a} are then exactly 2a apart.
    DomainError is raised unless the cap at a holds eps to 1e-6
    relative even with a moved by the rounding of omega_n and a: for eps
    below about 3.5e-14 at n = 2 and 1e-45 at n = 10 (p = 2), and 2e-11
    at n = 1, the unit segment for every p, where a = 1/2 - eps directly.
    """
    p = validate_p(p)
    eps = validate_epsilon(eps)
    n = int(n)
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if n == 1:
        a = 0.5 - eps
        miss = abs((0.5 - a) - eps)  # exact: the cap's true volume error
    else:
        omega = unit_volume_radius("lp", n, p)
        z = float(sp.betainccinv(1.0 / p, (n - 1.0) / p + 1.0, 2.0 * eps))
        a = omega * z ** (1.0 / p)
        # measured float error of omega_n: <= 6.3 + 3 |ln omega_n| half-ulps; of a: 0.5
        miss = abs(lp_tail_volume(a, p, n) - eps) + a * lp_section_area(a, p, n) \
            * 2.0**-53 * (7.0 + 3.0 * abs(math.log(omega)))
    if not miss <= _VOLUME_REL_TOL * eps:
        raise DomainError("cap volume solve missed its tolerance")
    fam = "ball" if p == 2.0 else f"lp({p:g})"
    return RegionPair(
        fam, n, eps,
        RegionDescriptor("halfspace_cap", {"axis": 0, "threshold": a, "side": "+"}),
        RegionDescriptor("halfspace_cap", {"axis": 0, "threshold": -a, "side": "-"}),
        2.0 * a,
        -2.0 * psi_p_inv(eps, p),
    )


def ball_caps_witness(n: int, eps: float) -> RegionPair:
    """Opposite spherical caps; the p = 2 instance of lp_caps_witness."""
    return lp_caps_witness(n, 2.0, eps)


def _slab_threshold(n: int, eps: float) -> float:
    """The s in [0, n/2] with F_n(s) = eps, F_n the Irwin-Hall cdf.

    Newton steps on log F_n, which is concave because the Irwin-Hall
    density is log-concave, so after the first step every iterate sits
    at or below the root and climbs to it.  The start is the
    Cornish-Fisher guess with the excess kurtosis -6/(5n); iterates are
    clamped to [(eps n!)^{1/n}, n/2], whose lower end never passes the
    root because F_n(s) <= s^n/n!.
    """
    z = float(sp.ndtri(eps))
    z -= (z ** 3 - 3.0 * z) / (20.0 * n)
    lo = math.exp((math.log(eps) + math.lgamma(n + 1.0)) / n)
    half = 0.5 * n
    s = min(max(half + z * math.sqrt(n / 12.0), lo), half)
    for _ in range(_NEWTON_STEPS):
        vol, dens = _irwin_hall_lower(n, s)
        if not (vol > 0.0 and dens > 0.0):
            break
        gap = math.log(vol / eps)
        step = min(max(s - gap * vol / dens, lo), half)
        if abs(gap) <= 1e-13 or abs(step - s) <= 1e-15 * s:
            if abs(vol - eps) <= _VOLUME_REL_TOL * eps:
                return s
            break
        s = step
    raise DomainError("slab volume solve missed its tolerance")


def cube_diagonal_witness(n: int, eps: float) -> RegionPair:
    """Diagonal slabs of volume eps at the two corners of (0, 1)^n.

    The slab threshold s solves cube_sum_cdf(n, s) = eps by Newton steps
    on the log of the exact Irwin-Hall volume; writing
    s = n/2 - a sqrt(n), the opposing slabs are exactly 2a apart.
    DomainError is raised unless the slab at s holds eps to 1e-6
    relative, as for the caps, or when the volume underflows or the
    solve does not settle; that happens only for subnormal eps at large
    n (eps <= 1e-315 at n = 500, 1e-310 at n = 2000).
    """
    eps = validate_epsilon(eps)
    n = int(n)
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    s = _slab_threshold(n, eps)
    a = (0.5 * n - s) / math.sqrt(n)
    return RegionPair(
        "cube", n, eps,
        RegionDescriptor("diagonal_slab", {"side": "low", "threshold": s}),
        RegionDescriptor("diagonal_slab", {"side": "high", "threshold": n - s}),
        2.0 * a,
        -2.0 * _SQRT_PI_6 * phi_inv(eps),
    )


def simplex_corner_witness(n: int, eps: float) -> RegionPair:
    """Vertex-side copies of the two halves of the regular simplex.

    Split the simplex by the hyperplane through the midpoint of an edge
    PQ, orthogonal to it; each half has volume 1/2.  Scaling the P-half
    toward P by alpha = (2 eps)^{1/(n-1)} gives volume alpha^{n-1}/2 =
    eps, likewise at Q, and the two copies end up exactly
    sqrt(2) omega_n (1 - alpha) apart (through expm1, as alpha nears 1).
    """
    eps = validate_epsilon(eps)
    n = int(n)
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    alpha = (2.0 * eps) ** (1.0 / (n - 1.0))
    omega = unit_volume_radius("simplex", n)
    distance = -math.sqrt(2.0) * omega * math.expm1(math.log(2.0 * eps) / (n - 1.0))
    return RegionPair(
        "simplex", n, eps,
        RegionDescriptor("corner_homothety", {"vertex": 0, "alpha": alpha}),
        RegionDescriptor("corner_homothety", {"vertex": 1, "alpha": alpha}),
        distance,
        -(math.sqrt(2.0) / math.e) * math.log(2.0 * eps),
    )


def general_symmetric_lower(eps: float) -> float:
    """Lower bound -2 phi_inv(eps)/sqrt(e) valid for every symmetric
    log-concave direction law; the ball attains it."""
    eps = validate_epsilon(eps)
    return -2.0 * phi_inv(eps) / SQRT_E


def bound_report(family: BodyFamily, eps: float,
                 constants: ConstantsConfig = DEFAULT_CONSTANTS) -> BoundReport:
    """Two-sided dimension-free bounds for one family at volume eps.

    ball     lower = upper = exact limit = -2 phi_inv(eps)/sqrt(e)
    cube     lower = -2 sqrt(pi/6) phi_inv(eps), upper = -2 phi_inv(eps);
             the scaled-Manhattan limit -2 sqrt(pi/6) phi_inv(eps) rides
             along for the lattice comparison
    simplex  lower = -(sqrt(2)/e) ln(2 eps), upper = -(2/c_lambda) ln eps
    l_p      lower = -2 psi_p_inv(eps), upper = (2p/c_iso)(-ln eps)^{1/p}

    p = 2 is the euclidean ball, so that member returns the exact ball
    row rather than the loose parametric form.
    """
    eps = validate_epsilon(eps)
    if family.kind == "ball" or (family.kind == "lp" and family.p == 2.0):
        exact = -2.0 * phi_inv(eps) / SQRT_E
        return BoundReport("ball", eps, exact, exact, exact, False)
    if family.kind == "cube":
        manhattan = -2.0 * _SQRT_PI_6 * phi_inv(eps)
        return BoundReport("cube", eps, manhattan, -2.0 * phi_inv(eps),
                           None, False, manhattan_scaled_limit=manhattan)
    if family.kind == "simplex":
        return BoundReport("simplex", eps,
                           -(math.sqrt(2.0) / math.e) * math.log(2.0 * eps),
                           -(2.0 / constants.c_lambda) * math.log(eps),
                           None, True)
    if family.kind == "lp":
        p = family.p
        return BoundReport(family.label(), eps,
                           -2.0 * psi_p_inv(eps, p),
                           (2.0 * p / constants.c_iso) * (-math.log(eps)) ** (1.0 / p),
                           None, True)
    raise DomainError(f"no bound report for family {family.kind!r}")
