"""Isoperimetric profiles of the normalized body families, and the table
of every per-family formula.

For a unit-volume body with uniform measure mu, the profile I(t) is the
smallest boundary measure a subset of volume t in (0, 1/2) can have.  The
closed forms here are the lower envelopes used by the enlargement bound;
the _Family table below lists each family's profile next to the closed
form, witness limit, upper bound and radius built from it.

The profile values are treated directly as the isoperimetric lower
envelope fed into the enlargement integral; no separate boundary-content
object is kept.  Every profile increases on (0, 1/2]: the cube and ball
ones as erfcinv(2t) falls to 0 at t = 1/2, the linear one plainly, and
the l_p one by the derivative in _lp_profile's docstring.

The linear and l_p profiles hold up to dimension-free constants c_lambda
and c_iso that the underlying estimates do not pin down.  Both are fixed
at the placeholder 1, so the profiles are evaluated with the constant
dropped; every profile and bound built from them is flagged parametric,
so no output presents a placeholder as a proved constant.

Public functions check each input once; the table's formulas are
unchecked kernels and call only unchecked kernels: specfun's
_gauss_tail_inv, _psi_p_inv, _lp_radius and _simplex_radius.  t is
checked on (0, 1/2) in one place, the profile make_profile builds,
which also returns a float for a scalar t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special as sp

from .bodies import BodyFamily, _validate_n, _validate_open_interval
from .specfun import (SQRT_E, _gauss_tail_inv, _lp_radius, _psi_p_inv,
                      _simplex_radius)

_LN2 = math.log(2.0)
_SQRT_PI_6 = math.sqrt(math.pi / 6.0)


def _cube_profile(t, p):
    """exp(-pi phi_inv(t)^2) = exp(-erfcinv(2t)^2) on (0, 1/2), as
    phi_inv(t) = -erfcinv(2t)/sqrt(pi) there."""
    return np.exp(-sp.erfcinv(2.0 * t) ** 2)


def _ball_profile(t, p):
    """sqrt(e) exp(-pi e psi_inv(t)^2), |psi_inv| = erfcinv(2t)/sqrt(pi)/sqrt(e).

    Identically sqrt(e) times the cube profile; kept in the rescaled form
    the derivation produces so the identity stays a testable fact.
    """
    psi_inv = _gauss_tail_inv(t) / SQRT_E
    return SQRT_E * np.exp(-math.pi * math.e * psi_inv**2)


def _simplex_profile(t, p):
    """Linear profile c_lambda * t, at the placeholder c_lambda = 1; a new
    array, never the caller's."""
    return t.copy()


def _lp_profile(t, p):
    """c_iso * t * (-ln t)^{1-1/p}, at the placeholder c_iso = 1; reduces
    to linear at p = 1.

    It increases on (0, 1/2] for every p in [1, 2]: its derivative is
    (-ln t)^{-1/p} ((-ln t) - (1 - 1/p)), and -ln t >= ln 2 > 1 - 1/p
    there.  That is what lets the enlargement integral of dt / I(t) up
    to the half-volume mark bound the distance.
    """
    return t * (-np.log(t)) ** (1.0 - 1.0 / p)


@dataclass(frozen=True)
class IsoProfile:
    """A profile bundled with its provenance tag.

    tag is one of cube / ball_limit / simplex_linear / lp_loglinear;
    fn evaluates the profile and checks t itself (make_profile's on
    (0, 1/2)), since a call passes t straight through; parametric marks
    profiles built from placeholder constants.
    """

    label: str
    tag: str
    fn: Callable = field(repr=False)
    parametric: bool

    def __call__(self, t):
        return self.fn(t)


@dataclass(frozen=True)
class _Family:
    """One body family's formulas, at volume eps, dimension n and exponent p.

    profile  I(t) on (0, 1/2), the isoperimetric lower envelope
    delta    delta_M = int_eps^{1/2} dt / I(t) in closed form (enlargement)
    limit    the n -> inf distance of the family's witness (witness)
    upper    the theorem-statement upper bound, None where limit is exact
    radius   omega_n, the scale that gives the body volume one, n >= least_n

    cube     I(t) = exp(-pi phi_inv(t)^2) = exp(-erfcinv(2t)^2)
             delta = -phi_inv(eps), upper = 2 delta
             limit = -2 sqrt(pi/6) phi_inv(eps), of the diagonal slabs
             omega_n = 1, the side of (0,1)^n
    ball     I(t) = sqrt(e) exp(-pi e (phi_inv(t)/sqrt(e))^2), the n -> inf
             limit, identically sqrt(e) times the cube profile
             delta = -phi_inv(eps)/sqrt(e)
             limit = 2 delta = -2 psi_2_inv(eps), of the opposite caps; it
             is also the upper, so upper is None
             omega_n = Gamma(n/2+1)^{1/n}/sqrt(pi) ~ sqrt(n/(2 pi e))
    simplex  I(t) = c_lambda t
             delta = -(ln eps + ln 2)/c_lambda
             limit = -(sqrt(2)/e) ln(2 eps), of the corner homotheties
             upper = -(2/c_lambda) ln eps
             omega_n = (n!/(n sqrt(n)))^{1/(n-1)} ~ n/e, n >= 2; the
             regular simplex omega_n Delta_n has side sqrt(2) omega_n
    l_p      I(t) = c_iso t (-ln t)^{1-1/p}
             delta = (p/c_iso)((-ln eps)^{1/p} - (ln 2)^{1/p})
             limit = -2 psi_p_inv(eps), of the opposite caps
             upper = (2p/c_iso)(-ln eps)^{1/p}
             omega_n = Gamma(1+n/p)^{1/n}/(2 Gamma(1+1/p))

    The ball's limit is the n -> inf value, not a bound at each n: at
    eps = 1e-3 the caps are 1.49951 apart at n = 100, against 1.49549.
    The finite-n caps are exact: by Levy's isoperimetry on S^{n+1},
    carried to the ball by Archimedes' projection, no two eps-sets of
    the ball are farther apart at any n (see witness.ball_caps_witness).
    The limit is a lower bound for every symmetric log-concave direction
    law, and the ball attains it.  c_lambda and c_iso sit at the
    placeholder 1 (parametric rows).  The simplex and l_p deltas keep the
    (ln 2)-type terms the integral produces; their uppers are the looser
    theorem-statement forms that drop them.  Every callable takes p,
    None outside l_p.
    """

    tag: str
    profile: Callable
    parametric: bool
    delta: Callable
    limit: Callable
    upper: Callable | None
    radius: Callable
    least_n: int


def _cube_delta(eps, p):
    return float(_gauss_tail_inv(eps))


def _ball_delta(eps, p):
    return _cube_delta(eps, p) / SQRT_E


def _lp_delta(eps, p):
    # (-ln eps)^{1/p} - (ln 2)^{1/p} through expm1/log1p: the difference
    # of powers cancels next to eps = 1/2
    d = -math.log(2.0 * eps)
    return p * _LN2 ** (1.0 / p) * math.expm1(math.log1p(d / _LN2) / p)


_FAMILIES = {
    "cube": _Family("cube", _cube_profile, False, _cube_delta,
                    lambda eps, p: 2.0 * _SQRT_PI_6 * _cube_delta(eps, p),
                    lambda eps, p: 2.0 * _cube_delta(eps, p), lambda n, p: 1.0, 1),
    "ball": _Family("ball_limit", _ball_profile, False, _ball_delta,
                    lambda eps, p: 2.0 * _ball_delta(eps, p), None,
                    lambda n, p: _lp_radius(n, 2.0), 1),
    "simplex": _Family("simplex_linear", _simplex_profile, True,
                       lambda eps, p: -math.log(2.0 * eps),
                       lambda eps, p: -(math.sqrt(2.0) / math.e) * math.log(2.0 * eps),
                       lambda eps, p: -2.0 * math.log(eps),
                       lambda n, p: _simplex_radius(n), 2),
    "lp": _Family("lp_loglinear", _lp_profile, True, _lp_delta,
                  lambda eps, p: -2.0 * _psi_p_inv(eps, p),
                  lambda eps, p: 2.0 * p * (-math.log(eps)) ** (1.0 / p), _lp_radius, 1),
}


def make_profile(family: BodyFamily) -> IsoProfile:
    """Profile for a body family; the simplex and l_p ones are parametric.

    It takes t in (0, 1/2), a scalar or an array, and raises DomainError
    outside, NaN included; a scalar t gives a float.
    """
    rec, p = _FAMILIES[family.kind], family.p

    def profile(t):
        out = rec.profile(_validate_open_interval(t, 0.0, 0.5, "profile argument"), p)
        return float(out) if out.ndim == 0 else out
    return IsoProfile(family.label(), rec.tag, profile, rec.parametric)


def unit_volume_radius(family: BodyFamily, n: int) -> float:
    """Scaling factor omega_n that gives the family's body volume one (see
    _Family), through log-gamma so large n does not overflow."""
    rec = _FAMILIES[family.kind]
    return rec.radius(_validate_n(n, rec.least_n), family.p)
