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
    l_p      delta_M = (p / c_iso) ((-ln eps)^{1/p} - (ln 2)^{1/p})

The simplex/l_p closed forms keep the (ln 2)-type terms the integral
produces; the looser theorem-statement forms that drop them live in the
witness module's bound reports, so both displays are available.

time_to_half evaluates the integral directly for any profile, by an
adaptive Gauss-Legendre rule in numpy; it checks the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import BodyFamily, validate_epsilon
from .errors import DomainError, NonConvergenceError
from .profiles import DEFAULT_CONSTANTS, ConstantsConfig, IsoProfile, make_profile
from .specfun import SQRT_E, phi_inv

_LN2 = math.log(2.0)
# 15-point Gauss-Legendre rule on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
# nodes within an ulp of u = ln 2 would round to t = 1/2, outside the profiles' domain
_T_BELOW_HALF = math.nextafter(0.5, 0.0)
_MAX_SUBINTERVALS = 200


@dataclass(frozen=True)
class EnlargementResult:
    family: str
    epsilon: float
    delta_m: float
    distance_upper: float
    method: str


def time_to_half(profile: IsoProfile, eps: float) -> float:
    """Quadrature of 1/I(t) over [eps, 1/2].

    Substituting t = e^{-u} integrates e^{-u} / I(e^{-u}) over
    [ln 2, -ln eps], which keeps tiny eps (down to about 1e-300) within
    reach.  The quadrature is adaptive 15-point Gauss-Legendre: each
    subinterval's error is estimated by comparing its rule with the sum
    over its two halves, and only the subintervals that miss their share
    of the relative tolerance 1e-11 are bisected again.  Each refinement
    pass evaluates the profile once, on an array of every pending node,
    so the profile must accept numpy arrays (every built-in IsoProfile
    does).  Raises NonConvergenceError if more than 200 subintervals
    would be needed or the integrand is not finite.
    """
    eps = validate_epsilon(eps)
    a, b = _LN2, -math.log(eps)

    def rule(lo, hi):
        half = 0.5 * (hi - lo)
        u = (0.5 * (hi + lo))[:, None] + half[:, None] * _GL_NODES
        t = np.minimum(np.exp(-u), _T_BELOW_HALF)
        f = t / np.asarray(profile(t.ravel()), dtype=float).reshape(t.shape)
        return half * (f @ _GL_WEIGHTS)

    def split(lo, hi):
        mid = 0.5 * (lo + hi)
        return np.concatenate([lo, mid]), np.concatenate([mid, hi])

    lo, hi = np.array([a]), np.array([b])
    # the whole interval and its two halves share the first profile call
    sub_lo, sub_hi = split(lo, hi)
    est = rule(np.concatenate([lo, sub_lo]), np.concatenate([hi, sub_hi]))
    whole, halves = est[:1], est[1:]
    done_val = done_err = 0.0
    count = 1
    while True:
        if not np.all(np.isfinite(halves)):
            raise NonConvergenceError("enlargement integrand is not finite")
        left, right = np.split(halves, 2)
        pair = left + right
        err = np.abs(whole - pair)
        val = done_val + float(np.sum(pair))
        tol = 1e-11 * abs(val)
        abserr = done_err + float(np.sum(err))
        refine = err > tol * (hi - lo) / (b - a)
        if abserr <= tol or not refine.any():
            break
        done_val += float(np.sum(pair[~refine]))
        done_err += float(np.sum(err[~refine]))
        count += int(np.count_nonzero(refine))
        if count > _MAX_SUBINTERVALS:
            raise NonConvergenceError(
                f"enlargement quadrature needs more than {_MAX_SUBINTERVALS} "
                f"subintervals (error estimate {abserr:g} for value {val:g})")
        lo, hi = split(lo[refine], hi[refine])
        whole = np.concatenate([left[refine], right[refine]])
        halves = rule(*split(lo, hi))
    if abserr > 1e-8 * abs(val):
        raise NonConvergenceError(
            f"enlargement quadrature error estimate {abserr:g} too large for value {val:g}")
    return val


def delta_closed_form(family: BodyFamily, eps: float,
                      constants: ConstantsConfig = DEFAULT_CONSTANTS) -> float:
    """Closed form of the enlargement integral for one family."""
    eps = validate_epsilon(eps)
    if family.kind == "cube":
        return -phi_inv(eps)
    if family.kind == "ball":
        return -phi_inv(eps) / SQRT_E
    d = -math.log(2.0 * eps)
    if family.kind == "simplex":
        return d / constants.c_lambda
    if family.kind == "lp":
        p, c = family.p, constants.c_iso
        return (p / c) * _LN2 ** (1.0 / p) * math.expm1(math.log1p(d / _LN2) / p)
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
