"""Gaussian-type distribution functions and the gamma-function radii.

The bounds in this package are phrased through the one-dimensional
distribution function of the density exp(-pi x^2),

    phi(a) = int_{-inf}^{a} exp(-pi x^2) dx,

and its generalization to exponents p in [1, 2],

    phi_p(a) = int_{-inf}^{a} exp(-kappa_p |x|^p) dx,
    kappa_p  = 2^p Gamma(1 + 1/p)^p,

where kappa_p is chosen so the density has total mass one (kappa_1 = 2,
kappa_2 = pi).  psi_p(a) = phi_p(e^{1/p} a) is the rescaled variant that
appears as the limit law of hyperplane sections of l_p balls.

Evaluation goes through erfc and the regularized incomplete gamma
functions, which stay accurate deep in the tails; the inverses use the
corresponding inverse special functions.  A quadrature-plus-bisection
route lives in the test suite as an independent cross-check.

Each public function checks each of its inputs once and then calls
unchecked private kernels, which the family table profiles._Family and
the witnesses call directly: _gauss_tail_inv(e) = -phi_inv(e) for
e <= 1/2, _kappa, _phi_p, _phi_p_inv and _psi_p_inv.  _lp_radius and
_simplex_radius are the unit-volume scales omega_n of the l_p ball and
of the regular simplex (see profiles._Family), through log-gamma so
large n does not overflow.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from .bodies import _validate_epsilon, _validate_open_interval, _validate_p

SQRT_PI = math.sqrt(math.pi)
SQRT_E = math.sqrt(math.e)


def phi(a):
    """Distribution function of exp(-pi x^2); accepts scalars or arrays.

    Computed as erfc(-sqrt(pi) a)/2, which is stable in both tails and
    maps -inf/+inf to 0/1.  An array comes back in one new array; a's
    own is never written.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        return float(0.5 * sp.erfc(-SQRT_PI * a))
    out = np.multiply(a, -SQRT_PI)
    sp.erfc(out, out=out)
    out *= 0.5
    return out


def phi_inv(eps):
    """Inverse of phi on (0, 1); accepts scalars or arrays.

    Uses erfcinv on whichever tail is small: small eps goes through
    erfcinv(2 eps) directly, eps > 1/2 reflects through 1 - eps (exact
    in floating point on [1/2, 1)), so both tails keep full relative
    accuracy and phi_inv(1 - eps) = -phi_inv(eps) by construction.
    """
    eps = _validate_open_interval(eps, 0.0, 1.0, "phi_inv's eps")
    out = np.where(eps <= 0.5, -1.0, 1.0) * _gauss_tail_inv(np.minimum(eps, 1.0 - eps))
    return float(out) if out.ndim == 0 else out


def _gauss_tail_inv(e):
    # -phi_inv(e) for 0 < e <= 1/2, unchecked; a sign flip is exact
    return sp.erfcinv(2.0 * e) / SQRT_PI


def kappa(p: float) -> float:
    """Normalizing constant 2^p Gamma(1+1/p)^p of the exponent-p density."""
    return _kappa(_validate_p(p))


def _kappa(p):
    return 2.0**p * math.gamma(1.0 + 1.0 / p) ** p


def phi_p(a, p: float):
    """Distribution function of exp(-kappa_p |x|^p) for p in [1, 2].

    Reduces to the incomplete gamma functions on each half line:
    for a < 0 the value is Q(1/p, kappa_p |a|^p)/2, for a >= 0 it is
    1/2 + P(1/p, kappa_p a^p)/2, with P, Q the regularized pair.
    phi_p(0, p) = 1/2 exactly and phi_2 coincides with phi.
    """
    return _phi_p(a, _validate_p(p))


def _phi_p(a, p):
    a = np.asarray(a, dtype=float)
    z = _kappa(p) * np.abs(a) ** p
    with np.errstate(invalid="ignore"):
        out = np.where(a < 0.0, 0.5 * sp.gammaincc(1.0 / p, z),
                       0.5 + 0.5 * sp.gammainc(1.0 / p, z))
    return float(out) if out.ndim == 0 else out


def phi_p_inv(eps: float, p: float) -> float:
    """Inverse of phi_p(., p) on (0, 1)."""
    p = _validate_p(p)
    return _phi_p_inv(_validate_open_interval(eps, 0.0, 1.0, "phi_p_inv's eps"), p)


def _phi_p_inv(eps, p):
    # one branch, reflected as in phi_inv, so that phi_p_inv(1 - e) = -phi_p_inv(e)
    z = sp.gammainccinv(1.0 / p, 2.0 * min(eps, 1.0 - eps))
    return math.copysign((z / _kappa(p)) ** (1.0 / p), eps - 0.5)


def psi_p(a, p: float):
    """Section-limit distribution function phi_p(e^{1/p} a)."""
    p = _validate_p(p)
    return _phi_p(math.exp(1.0 / p) * np.asarray(a, dtype=float), p)


def psi_p_inv(eps: float, p: float) -> float:
    """Inverse of psi_p(., p); equals phi_p_inv(eps, p) / e^{1/p}."""
    p = _validate_p(p)
    return _psi_p_inv(_validate_open_interval(eps, 0.0, 1.0, "psi_p_inv's eps"), p)


def _psi_p_inv(eps, p):
    return _phi_p_inv(eps, p) / math.exp(1.0 / p)


def phi_inv_asymptote(eps: float) -> float:
    """Leading-order form -sqrt(-ln eps)/sqrt(pi) of phi_inv as eps -> 0.

    The ratio asymptote/actual tends to 1; the approach is slow because
    the neglected log-correction decays like ln(-ln eps)/(-ln eps).
    """
    eps = _validate_epsilon(eps)
    return -math.sqrt(-math.log(eps)) / SQRT_PI


def psi_p_inv_asymptote(eps: float, p: float) -> float:
    """Leading-order form -(-ln eps)^{1/p} / (2 e^{1/p} Gamma(1+1/p)).

    With L = -ln eps, the ratio asymptote/actual exceeds 1 by about
    ln(2 sqrt(pi L))/(2L) at p = 2 and by exactly ln 2/(L - ln 2) at p = 1.
    """
    p = _validate_p(p)
    eps = _validate_epsilon(eps)
    return -((-math.log(eps)) ** (1.0 / p)) / (
        2.0 * math.exp(1.0 / p) * math.gamma(1.0 + 1.0 / p)
    )


def _lp_radius(n: int, p: float) -> float:
    return math.exp(sp.gammaln(1.0 + n / p) / n) / (2.0 * math.gamma(1.0 + 1.0 / p))


def _simplex_radius(n: int) -> float:
    # the exponent 1/(n-1) needs n >= 2
    return math.exp((sp.gammaln(n + 1.0) - 1.5 * math.log(n)) / (n - 1.0))
