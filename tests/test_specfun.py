import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from isodist import (BodyFamily, DomainError, cube_sum_cdf, kappa, phi, phi_inv,
                     phi_inv_asymptote, phi_p, phi_p_inv, psi_p, psi_p_inv,
                     psi_p_inv_asymptote, sphere_projection_cdf,
                     unit_volume_radius)

# quadrature + Brent reference values, frozen from oracles.py
PHI_INV_01 = -0.511265104010389
PHI_AT_M051131 = 0.0999802512707


def test_phi_trivial_points():
    assert phi(0.0) == pytest.approx(0.5, abs=1e-15)
    assert phi(math.inf) == 1.0
    assert phi(-math.inf) == 0.0


def test_phi_matches_quadrature_oracle():
    for a in np.linspace(-4.0, 4.0, 33):
        assert phi(float(a)) == pytest.approx(oracles.phi_quad(float(a)),
                                              abs=1e-12)


def test_phi_frozen_example():
    assert phi(-0.51131) == pytest.approx(PHI_AT_M051131, abs=1e-12)


def test_phi_complement_identity():
    a = np.linspace(-6.0, 6.0, 241)
    assert np.all(np.abs(phi(a) + phi(-a) - 1.0) <= 1e-12)


def test_phi_strictly_increasing_on_grid():
    # [-3, 3] keeps successive increments above one ulp of the values;
    # farther out phi saturates at 1.0 and ties are unavoidable
    a = np.linspace(-3.0, 3.0, 1000)
    v = phi(a)
    assert np.all(np.diff(v) > 0.0)


def test_phi_inv_round_trip_and_antisymmetry():
    for eps in (1e-6, 1e-3, 0.05, 0.1, 0.25, 0.499):
        assert phi(phi_inv(eps)) == pytest.approx(eps, abs=1e-12)
    # below ~1e-3 the rounding of the literal 1 - eps already moves the
    # inverse by more than 1e-12, so the identity is checked from there up
    for eps in (1e-3, 0.05, 0.1, 0.25, 0.499):
        assert phi_inv(1.0 - eps) == pytest.approx(-phi_inv(eps), abs=1e-12)
    assert phi_inv(0.5) == 0.0


def test_phi_inv_frozen_value_and_oracle():
    assert phi_inv(0.1) == pytest.approx(PHI_INV_01, abs=1e-13)
    assert phi_inv(0.1) == pytest.approx(oracles.phi_inv_bisect(0.1), abs=1e-12)
    assert phi_inv(0.01) == pytest.approx(oracles.phi_inv_bisect(0.01), abs=1e-12)


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.2, 1.7, math.nan, [0.3, math.nan]])
def test_phi_inv_domain(eps):
    with pytest.raises(DomainError):
        phi_inv(eps)


TAKES_P = {
    "kappa": kappa,
    "phi_p": lambda p: phi_p(0.1, p),
    "psi_p": lambda p: psi_p(0.1, p),
    "phi_p_inv": lambda p: phi_p_inv(0.1, p),
    "psi_p_inv": lambda p: psi_p_inv(0.1, p),
}


@pytest.mark.parametrize("p", [0.0, 1e-3, 2.5, math.nan])
@pytest.mark.parametrize("name", sorted(TAKES_P))
def test_exponent_domain(name, p):
    # p is checked before any formula divides by it or raises e to 1/p
    with pytest.raises(DomainError):
        TAKES_P[name](p)


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.2, 1.5, math.nan])
@pytest.mark.parametrize("inverse", [phi_p_inv, psi_p_inv])
def test_inverse_eps_domain(inverse, eps):
    with pytest.raises(DomainError):
        inverse(eps, 1.5)


@pytest.mark.parametrize("kind, p", [("torus", None), ("lp", None), ("cube", 1.5)])
def test_body_family_rejects_bad_specs(kind, p):
    with pytest.raises(DomainError):
        BodyFamily(kind, p)


def test_whole_line_distribution_functions_return_nan_for_nan():
    assert math.isnan(phi(math.nan))
    assert math.isnan(phi_p(math.nan, 1.5))
    assert math.isnan(psi_p(math.nan, 1.5))
    assert math.isnan(cube_sum_cdf(10, math.nan))
    assert math.isnan(sphere_projection_cdf(10, math.nan))


def test_kappa_closed_values():
    assert kappa(1.0) == pytest.approx(2.0, abs=1e-15)
    assert kappa(2.0) == pytest.approx(math.pi, abs=1e-14)


def test_phi_2_equals_phi():
    a = np.linspace(-5.0, 5.0, 201)
    assert np.max(np.abs(phi_p(a, 2.0) - phi(a))) <= 1e-10


def test_phi_1_closed_form():
    # density e^{-2|x|}: left tail is e^{2a}/2
    for a in (-3.0, -1.0, -0.25):
        assert phi_p(a, 1.0) == pytest.approx(0.5 * math.exp(2.0 * a), rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.3, 1.7, 2.0])
def test_phi_p_matches_quadrature_oracle(p):
    for a in np.linspace(-3.0, 3.0, 13):
        assert phi_p(float(a), p) == pytest.approx(
            oracles.phi_p_quad(float(a), p), abs=1e-10)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_phi_p_inv_round_trip(p):
    for eps in (1e-6, 1e-4, 0.01, 0.1, 0.3, 0.499):
        assert phi_p(phi_p_inv(eps, p), p) == pytest.approx(eps, abs=1e-10)
    assert phi_p_inv(0.5, p) == 0.0
    # exact antisymmetry: 1 - u is exact for u in [1/2, 1], and so is 1 - (1 - u)
    for u in np.linspace(0.5, 1.0, 401)[1:-1].tolist():
        assert phi_p_inv(u, p) == -phi_p_inv(1.0 - u, p)


def test_phi_p_inv_against_bisection(rng):
    for _ in range(40):
        p = float(rng.uniform(1.0, 2.0))
        eps = float(rng.uniform(1e-4, 0.999))
        assert phi_p_inv(eps, p) == pytest.approx(
            oracles.phi_p_inv_bisect(eps, p), abs=1e-10)


# eps below 1/2 down to 1e-300, then 1/2 + 2^x and 1 - 2^x up to 1 - 2^-53
_EPS_BOTH_HALVES = st.one_of(
    st.floats(-300.0, math.log10(0.5), exclude_max=True).map(lambda x: 10.0**x),
    st.floats(-53.0, -2.0).map(lambda x: 0.5 + 2.0**x),
    st.floats(-53.0, -2.0).map(lambda x: 1.0 - 2.0**x))


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(st.floats(1.0, 2.0), _EPS_BOTH_HALVES)
@example(1.5, 0.5 + 2.0**-53)
@example(1.0, 1.0 - 2.0**-53)
def test_inverses_against_mp_root_property(p, eps):
    assert phi_p_inv(eps, p) == pytest.approx(
        oracles.phi_p_inv_mp(eps, p), rel=1e-13, abs=0.0)
    assert phi_inv(eps) == pytest.approx(
        oracles.phi_p_inv_mp(eps, 2.0), rel=1e-13, abs=0.0)


def test_psi_p_is_rescaled_phi_p():
    a = np.linspace(-2.0, 2.0, 41)
    for p in (1.0, 1.4, 2.0):
        shift = math.exp(1.0 / p)
        assert np.max(np.abs(psi_p(a, p) - phi_p(shift * a, p))) <= 1e-13


def test_psi_p_inv_round_trip():
    for p in (1.0, 1.5, 2.0):
        for eps in (1e-5, 0.05, 0.2, 0.45):
            assert psi_p(psi_p_inv(eps, p), p) == pytest.approx(eps, abs=1e-10)


def test_unit_volume_radius_small_cases():
    assert unit_volume_radius(BodyFamily.ball(), 2) == pytest.approx(
        1.0 / math.sqrt(math.pi), rel=1e-12)
    assert unit_volume_radius(BodyFamily.simplex(), 2) == pytest.approx(
        1.0 / math.sqrt(2.0), rel=1e-12)
    assert unit_volume_radius(BodyFamily.lp(1.0), 2) == pytest.approx(
        math.sqrt(2.0) / 2.0, rel=1e-12)
    assert unit_volume_radius(BodyFamily.cube(), 7) == 1.0


def test_unit_volume_radius_lp2_is_ball():
    for n in (1, 2, 3, 10, 50):
        assert unit_volume_radius(BodyFamily.lp(2.0), n) == pytest.approx(
            unit_volume_radius(BodyFamily.ball(), n), rel=1e-12)


def test_unit_volume_radius_matches_direct_formula():
    for p in (1.0, 1.5, 2.0):
        for n in (2, 5, 20, 80):
            assert unit_volume_radius(BodyFamily.lp(p), n) == pytest.approx(
                oracles.lp_radius_direct(p, n), rel=1e-11)


def test_unit_volume_radius_large_n_finite():
    # log-gamma path: way past where factorials overflow
    for n in (500, 2000):
        for fam in (BodyFamily.ball(), BodyFamily.simplex()):
            r = unit_volume_radius(fam, n)
            assert math.isfinite(r) and r > 0.0


def test_unit_volume_radius_simplex_needs_n2():
    with pytest.raises(DomainError):
        unit_volume_radius(BodyFamily.simplex(), 1)


def test_simplex_radius_volume_identity():
    # vol of the regular simplex with edge omega*sqrt(2): omega^n sqrt(n+1)/n! ... checked
    # directly: n-volume of omega * standard corner simplex embedded form is
    # omega^{n-1} sqrt(n) / (n-1)! for the face {sum x = omega} piece.
    for n in (3, 6, 11):
        om = unit_volume_radius(BodyFamily.simplex(), n)
        vol = om ** (n - 1) * math.sqrt(n) / math.factorial(n - 1)
        assert vol == pytest.approx(1.0, rel=1e-10)


def test_asymptote_values_and_signs():
    eps = 0.25
    assert phi_inv_asymptote(eps) == pytest.approx(
        -math.sqrt(-math.log(eps)) / math.sqrt(math.pi), rel=1e-14)
    assert phi_inv_asymptote(eps) < 0.0 and phi_inv(eps) < 0.0
    for p in (1.0, 1.5, 2.0):
        expect = -(-math.log(eps)) ** (1.0 / p) / (
            2.0 * math.exp(1.0 / p) * math.gamma(1.0 + 1.0 / p))
        assert psi_p_inv_asymptote(eps, p) == pytest.approx(expect, rel=1e-14)


def test_asymptote_p2_reduces_to_phi_case():
    for eps in (1e-8, 1e-3, 0.3):
        assert psi_p_inv_asymptote(eps, 2.0) == pytest.approx(
            phi_inv_asymptote(eps) / math.sqrt(math.e), rel=1e-12)


@pytest.mark.parametrize("fn,args", [
    (phi_inv_asymptote, ()),
    (psi_p_inv_asymptote, (1.5,)),
])
def test_asymptote_domain(fn, args):
    for eps in (0.0, 0.5, 0.7):
        with pytest.raises(DomainError):
            fn(eps, *args)


def test_asymptote_ratio_sequence_monotone():
    # |asymptote/actual - 1| must shrink as eps -> 0
    for which in ("phi", "psi1", "psi2"):
        devs = []
        for k in range(4, 13):
            eps = 10.0 ** -k
            if which == "phi":
                r = phi_inv_asymptote(eps) / phi_inv(eps)
            elif which == "psi1":
                r = psi_p_inv_asymptote(eps, 1.0) / psi_p_inv(eps, 1.0)
            else:
                r = psi_p_inv_asymptote(eps, 2.0) / psi_p_inv(eps, 2.0)
            devs.append(abs(r - 1.0))
        assert all(a > b for a, b in zip(devs, devs[1:])), (which, devs)
