"""Isoperimetric profiles of the normalized body families.

For a unit-volume body with uniform measure mu, the profile I(t) is the
smallest boundary measure a subset of volume t in (0, 1/2) can have.  The
closed forms collected here are the lower envelopes used by the
enlargement bound:

    cube     I(t) =  exp(-pi phi_inv(t)^2)  =  exp(-erfcinv(2t)^2)
    ball     I(t) =  sqrt(e) exp(-pi e (phi_inv(t)/sqrt(e))^2)   (n -> inf limit)
    simplex  I(t) =  c_lambda * t
    l_p      I(t) =  c_iso * t * (-ln t)^{1-1/p}
    exp law  I(t) =  min(t, 1-t)   on (0, 1), the one-sided exponential measure

The ball limit equals sqrt(e) times the cube profile identically.  The
profile values are treated directly as the isoperimetric lower envelope
fed into the enlargement integral; no separate boundary-content object
is kept.

The linear and l_p profiles hold up to dimension-free constants c_lambda
and c_iso that the underlying estimates do not pin down.  Both are fixed
at the placeholder 1, so the profiles above are evaluated with the
constant dropped; every profile and bound built from them is flagged
parametric, so no output presents a placeholder as a proved constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special as sp

from .bodies import BodyFamily, validate_open_interval, validate_p
from .errors import DomainError
from .specfun import SQRT_E, SQRT_PI


def cube_profile(t):
    """exp(-pi phi_inv(t)^2) = exp(-erfcinv(2t)^2) on (0, 1/2), as
    phi_inv(t) = -erfcinv(2t)/sqrt(pi) there."""
    t = validate_open_interval(t, 0.0, 0.5, "profile argument")
    out = np.exp(-sp.erfcinv(2.0 * t) ** 2)
    return float(out) if out.ndim == 0 else out


def ball_profile_limit(t):
    """sqrt(e) exp(-pi e psi_inv(t)^2), |psi_inv| = erfcinv(2t)/sqrt(pi)/sqrt(e).

    Identically sqrt(e) * cube_profile(t); kept in the rescaled form the
    derivation produces so the identity stays a testable fact.
    """
    t = validate_open_interval(t, 0.0, 0.5, "profile argument")
    psi_inv = sp.erfcinv(2.0 * t) / SQRT_PI / SQRT_E
    out = SQRT_E * np.exp(-math.pi * math.e * psi_inv**2)
    return float(out) if out.ndim == 0 else out


def simplex_profile(t):
    """Linear profile c_lambda * t on (0, 1/2), at the placeholder c_lambda = 1."""
    t = validate_open_interval(t, 0.0, 0.5, "profile argument")
    out = t.copy()
    return float(out) if out.ndim == 0 else out


def lp_profile(t, p: float):
    """c_iso * t * (-ln t)^{1-1/p} on (0, 1/2), at the placeholder c_iso = 1;
    reduces to linear at p = 1."""
    p = validate_p(p)
    t = validate_open_interval(t, 0.0, 0.5, "profile argument")
    out = t * (-np.log(t)) ** (1.0 - 1.0 / p)
    return float(out) if out.ndim == 0 else out


def exp_measure_profile(t):
    """min(t, 1-t) on (0, 1): the profile of the exponential law on [0, inf)."""
    t = validate_open_interval(t, 0.0, 1.0, "profile argument")
    out = np.minimum(t, 1.0 - t)
    return float(out) if out.ndim == 0 else out


def xlog_power_derivative(x, p: float):
    """Derivative of x (-ln x)^{1-1/p}, in the factored form

        (-ln x)^{-1/p} * ((-ln x) - (1 - 1/p)).

    Strictly positive on (0, 1/2] for every p in [1, 2] since
    -ln x >= ln 2 > 1 - 1/p there, so the l_p profile is increasing up
    to the half-volume mark.
    """
    p = validate_p(p)
    x = validate_open_interval(x, 0.0, 1.0, "x")
    L = -np.log(x)
    out = L ** (-1.0 / p) * (L - (1.0 - 1.0 / p))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class IsoProfile:
    """A profile bundled with its provenance tag.

    tag is one of cube / ball_limit / simplex_linear / lp_loglinear /
    exp_measure; fn evaluates the profile; parametric marks profiles
    built from placeholder constants.
    """

    label: str
    tag: str
    fn: Callable = field(repr=False)
    parametric: bool = False

    def __call__(self, t):
        return self.fn(t)


def make_profile(family: BodyFamily) -> IsoProfile:
    """Profile for a body family; the simplex and l_p ones are parametric."""
    if family.kind == "cube":
        return IsoProfile("cube", "cube", cube_profile)
    if family.kind == "ball":
        return IsoProfile("ball", "ball_limit", ball_profile_limit)
    if family.kind == "simplex":
        return IsoProfile("simplex", "simplex_linear", simplex_profile, True)
    if family.kind == "lp":
        return IsoProfile(family.label(), "lp_loglinear",
                          lambda t, p=family.p: lp_profile(t, p), True)
    raise DomainError(f"no profile for family {family.kind!r}")


def make_exp_measure_profile() -> IsoProfile:
    return IsoProfile("exp_measure", "exp_measure", exp_measure_profile)
