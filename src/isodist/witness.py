"""Explicit pairs of far-apart subsets and two-sided bound reports.

Each witness builds two regions of volume eps inside a unit-volume body
and reports the exact euclidean distance between them, together with the
n -> inf limit of that distance:

    ball / l_p   opposite caps  +-{x_1 >= a}  with cap volume eps;
                 distance 2a
    cube         diagonal slabs sum(x) <= n/2 - a sqrt(n) and
                 sum(x) >= n/2 + a sqrt(n); the hyperplanes sum(x) = c1,
                 sum(x) = c2 are |c2 - c1|/sqrt(n) apart, so the distance
                 is exactly 2a
    simplex      the two halves cut by an edge's perpendicular bisector,
                 each scaled by alpha = (2 eps)^{1/(n-1)} toward its
                 vertex; distance sqrt(2) omega_n (1 - alpha)

The limits, and the upper bounds bound_report sets beside them, are
written once, in the family table profiles._Family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from scipy import special as sp

from .bodies import BodyFamily, _validate_epsilon, _validate_n
from .errors import DomainError
from .profiles import _FAMILIES
from .sections import _irwin_hall_lower, _lp_cap_volume, _section_area
from .specfun import _lp_radius, _simplex_radius

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
        inner = ",".join(f"{k}={v:.12g}" if isinstance(v, float) else f"{k}={v}"
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
    manhattan_scaled_limit: float | None


def _cap_miss(a: float, p: float, n: int, omega: float, eps: float):
    """|V(a) - eps| plus the volume the rounding of omega_n and a can move,
    then V(a) - eps and the section area S(a) = -V'(a)."""
    gap = float(_lp_cap_volume(a, p, n, omega)) - eps
    area = float(_section_area(a, p, n, omega))
    # measured float error of omega_n: <= 6.3 + 3 |ln omega_n| half-ulps; of a: 0.5
    return abs(gap) + a * area * 2.0**-53 * (7.0 + 3.0 * abs(math.log(omega))), gap, area


def lp_caps_witness(n: int, p: float, eps: float) -> RegionPair:
    """Opposite caps of volume eps in the unit-volume l_p ball.

    The cap height a inverts the closed-form cap volume of sections
    (betainccinv), with one Newton step on that volume where the first
    height misses, and the caps +-{x_1 >= a} are then exactly 2a apart.
    DomainError is raised unless the cap at a holds eps to 1e-6
    relative even with a moved by the rounding of omega_n and a: for eps
    below about 3.9e-14 at n = 2 and 1.5e-45 at n = 10 (p = 2, the
    largest misses on a 20000-point log grid), and 2e-11 at n = 1, the
    unit segment for every p, where a = 1/2 - eps directly.
    """
    family = BodyFamily.lp(p)  # checks p; lp(2) is the ball, with p None
    p = family.p or 2.0
    eps = _validate_epsilon(eps)
    n = _validate_n(n, 1)
    if n == 1:
        a = 0.5 - eps
        miss = abs((0.5 - a) - eps)  # exact: the cap's true volume error
    else:
        omega = _lp_radius(n, p)
        z = float(sp.betainccinv(1.0 / p, (n - 1.0) / p + 1.0, 2.0 * eps))
        a = omega * z ** (1.0 / p)
        miss, gap, area = _cap_miss(a, p, n, omega, eps)
        if not miss <= _VOLUME_REL_TOL * eps and area > 0.0:
            # betainccinv's own residual (about 1.5e-7 relative at the tip)
            # can use up the tolerance; one Newton step on V(a) = eps removes
            # it.  Where V underflows the step is meaningless and leaves
            # [0, omega_n]; clamped, it fails the check below.
            a = min(max(a + gap / area, 0.0), omega)
            miss = _cap_miss(a, p, n, omega, eps)[0]
    if not miss <= _VOLUME_REL_TOL * eps:
        raise DomainError("cap volume solve missed its tolerance")
    return RegionPair(
        family.label(), n, eps,
        RegionDescriptor("halfspace_cap", {"axis": 0, "threshold": a, "side": "+"}),
        RegionDescriptor("halfspace_cap", {"axis": 0, "threshold": -a, "side": "-"}),
        2.0 * a,
        _FAMILIES[family.kind].limit(eps, family.p),
    )


def ball_caps_witness(n: int, eps: float) -> RegionPair:
    """Opposite spherical caps; the p = 2 instance of lp_caps_witness.

    The caps are exactly extremal at every n: no two subsets of volume
    eps of the unit-volume ball B^n(R), R = omega_n, lie farther apart,
    so the ball's largest eps-distance D_n(eps) is this distance
    2a = 2R cos theta_eps, with theta_eps the angular radius of a cap of
    normalised measure eps on S^{n+1}.  The argument:

      - Archimedes' projection: the uniform law on S^{n+1}(R) in R^{n+2},
        projected onto its first n coordinates, is the uniform law on
        B^n(R) (Barthe, Guedon, Mendelson and Naor, Ann. Probab. 33,
        2005, the result behind montecarlo's ball sampler).  Sets A, B
        of volume eps in the ball lift to sets of measure eps on the
        sphere.
      - Levy's isoperimetric inequality on the sphere (Levy 1951;
        Schmidt 1948; a short proof in Figiel, Lindenstrauss and Milman,
        Acta Math. 139, 1977): caps have the smallest geodesic
        neighbourhoods, so the lifts are at most R(pi - 2 theta_eps)
        apart along the sphere, 2R cos theta_eps as a chord.
      - The projection is 1-Lipschitz and maps each lift into its set,
        so d(A, B) <= 2R cos theta_eps.
      - The caps +-{x_1 >= a} lift to the sphere caps {+-y_1 >= a} of
        measure eps, whose height is a = R cos theta_eps; they attain it.

    At n = 1 this is 1 - 2 eps, the unit segment's answer.  The float
    distance carries the cap solve's error only (volume held to 1e-6
    relative).  limit_value is the n -> inf distance, which the caps at
    a finite n may exceed: it is not a bound at each n.
    """
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
    eps = _validate_epsilon(eps)
    n = _validate_n(n, 1)
    s = _slab_threshold(n, eps)
    a = (0.5 * n - s) / math.sqrt(n)
    return RegionPair(
        "cube", n, eps,
        RegionDescriptor("diagonal_slab", {"side": "low", "threshold": s}),
        RegionDescriptor("diagonal_slab", {"side": "high", "threshold": n - s}),
        2.0 * a,
        _FAMILIES["cube"].limit(eps, None),
    )


def simplex_corner_witness(n: int, eps: float) -> RegionPair:
    """Vertex-side copies of the two halves of the regular simplex.

    Split the simplex by the hyperplane through the midpoint of an edge
    PQ, orthogonal to it; each half has volume 1/2.  Scaling the P-half
    toward P by alpha = (2 eps)^{1/(n-1)} gives volume alpha^{n-1}/2 =
    eps, likewise at Q, and the two copies end up exactly
    sqrt(2) omega_n (1 - alpha) apart (through expm1, as alpha nears 1).
    """
    eps = _validate_epsilon(eps)
    n = _validate_n(n, 2)
    alpha = (2.0 * eps) ** (1.0 / (n - 1.0))
    omega = _simplex_radius(n)
    distance = -math.sqrt(2.0) * omega * math.expm1(math.log(2.0 * eps) / (n - 1.0))
    return RegionPair(
        "simplex", n, eps,
        RegionDescriptor("corner_homothety", {"vertex": 0, "alpha": alpha}),
        RegionDescriptor("corner_homothety", {"vertex": 1, "alpha": alpha}),
        distance,
        _FAMILIES["simplex"].limit(eps, None),
    )


def bound_report(family: BodyFamily, eps: float) -> BoundReport:
    """Two-sided dimension-free bounds for one family at volume eps.

    lower is the family witness's limit_value, its n -> inf distance, and
    upper the theorem-statement bound, both read from profiles._Family.
    The ball's limit is exact and stands as lower, upper and exact_limit
    alike; lp(2) is the ball.  The cube's lower rides along as the
    scaled-Manhattan limit for the lattice comparison.  The simplex and
    l_p rows use the placeholder constants c_lambda = c_iso = 1 and are
    flagged parametric.
    """
    eps = _validate_epsilon(eps)
    rec = _FAMILIES[family.kind]
    lower = rec.limit(eps, family.p)
    if rec.upper is None:
        return BoundReport(family.label(), eps, lower, lower, lower, rec.parametric, None)
    return BoundReport(family.label(), eps, lower, rec.upper(eps, family.p), None,
                       rec.parametric, lower if family.kind == "cube" else None)
