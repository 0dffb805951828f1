"""Enlargement bound: how far a set of volume eps must grow to reach 1/2.

If a unit-volume body has isoperimetric profile I, the volume y(d) of the
d-enlargement of a set of volume eps satisfies y' >= I(y) while y < 1/2,
so y reaches 1/2 no later than

    delta_M = int_eps^{1/2} dt / I(t).

Two sets of volume eps therefore meet after each grows by delta_M, which
bounds their distance by 2 delta_M.  For the profiles in this package the
integral has closed forms (obtained by the substitution t = phi(u) and
its relatives):

    cube     delta_M = -phi_inv(eps)
    ball     delta_M = -phi_inv(eps) / sqrt(e)
    simplex  delta_M = -(ln eps + ln 2) / c_lambda
    l_p      delta_M = (p / c_iso(p)) ((-ln eps)^{1/p} - (ln 2)^{1/p})

The simplex/l_p closed forms keep the (ln 2)-type terms the integral
produces; the looser theorem-statement forms that drop them live in the
witness module's bound reports, so both displays are available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate

from .bodies import BodyFamily, validate_epsilon
from .errors import DomainError, NonConvergenceError
from .profiles import DEFAULT_CONSTANTS, ConstantsConfig, IsoProfile, make_profile
from .specfun import SQRT_E, phi_inv

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class EnlargementResult:
    family: str
    epsilon: float
    delta_m: float
    distance_upper: float
    method: str


def time_to_half(profile: IsoProfile, eps: float, *, epsrel: float = 1e-11,
                 limit: int = 200) -> float:
    """Quadrature of 1/I(t) over [eps, 1/2].

    Substituting t = e^{-u} integrates e^{-u} / I(e^{-u}) over
    [ln 2, -ln eps], which keeps tiny eps (down to about 1e-300) within
    reach of adaptive Gauss-Kronrod via scipy.integrate.quad; raises
    NonConvergenceError if the refinement gives up before the requested
    relative tolerance.
    """
    eps = validate_epsilon(eps)
    out = integrate.quad(lambda u: math.exp(-u) / profile(math.exp(-u)),
                         _LN2, -math.log(eps),
                         epsabs=0.0, epsrel=epsrel, limit=limit, full_output=1)
    if len(out) > 3:
        raise NonConvergenceError(f"enlargement quadrature did not converge: {out[3]}")
    val, abserr = out[0], out[1]
    if abserr > 1e-8 * abs(val):
        raise NonConvergenceError(
            f"enlargement quadrature error estimate {abserr:g} too large for value {val:g}")
    return float(val)


def delta_closed_form(family: BodyFamily, eps: float,
                      constants: ConstantsConfig = DEFAULT_CONSTANTS) -> float:
    """Closed form of the enlargement integral for one family."""
    eps = validate_epsilon(eps)
    if family.kind == "cube":
        return -phi_inv(eps)
    if family.kind == "ball":
        return -phi_inv(eps) / SQRT_E
    if family.kind == "simplex":
        return -(math.log(eps) + _LN2) / constants.c_lambda
    if family.kind == "lp":
        p = family.p
        c = constants.iso(p)
        return (p / c) * ((-math.log(eps)) ** (1.0 / p) - _LN2 ** (1.0 / p))
    raise DomainError(f"no closed form for family {family.kind!r}")


def distance_upper_bound(family: BodyFamily, eps: float,
                         constants: ConstantsConfig = DEFAULT_CONSTANTS,
                         method: str = "closed_form") -> EnlargementResult:
    """Upper bound 2 delta_M on the distance between two eps-volume sets.

    method selects the closed form or the direct quadrature of the
    profile; the two agree to at least 1e-8 relative.
    """
    eps = validate_epsilon(eps)
    if method == "closed_form":
        delta = delta_closed_form(family, eps, constants)
    elif method == "quadrature":
        delta = time_to_half(make_profile(family, constants), eps)
    else:
        raise DomainError(f"unknown method {method!r}")
    return EnlargementResult(family.label(), eps, delta, 2.0 * delta, method)
