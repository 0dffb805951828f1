import math

import pytest
from scipy import integrate

import oracles
from isodist import enlargement
from isodist import (BodyFamily, DomainError, IsoProfile,
                     NonConvergenceError, delta_closed_form,
                     distance_upper_bound, make_profile, time_to_half)

FAMILIES = [
    BodyFamily.cube(),
    BodyFamily.ball(),
    BodyFamily.simplex(),
    BodyFamily.lp(1.0),
    BodyFamily.lp(1.5),
    BodyFamily.lp(1.99),
]
# lp(2) is built as the ball; the parametrized checks keep it under its own
# spelling, so a caller's BodyFamily.lp(2.0) meets the same checks
SPELLED = {f.label(): f for f in FAMILIES} | {"lp(2)": BodyFamily.lp(2.0)}

EPS_GRID = (0.01, 0.05, 0.1, 0.25, 0.45)


@pytest.mark.parametrize("family", SPELLED.values(), ids=SPELLED)
@pytest.mark.parametrize("eps", EPS_GRID + (1e-100, 1e-300))
def test_quadrature_matches_closed_form(family, eps):
    profile = make_profile(family)
    closed = delta_closed_form(family, eps)
    quad = time_to_half(profile, eps)
    assert quad == pytest.approx(closed, rel=1e-8)
    # and QUADPACK's adaptive Gauss-Kronrod on the same integrand in u = -ln t
    ref, _ = integrate.quad(lambda u: math.exp(-u) / profile(math.exp(-u)),
                            math.log(2.0), -math.log(eps),
                            epsabs=0.0, epsrel=1e-13, limit=500)
    assert quad == pytest.approx(ref, rel=1e-12)


def test_quadrature_subinterval_limit(monkeypatch):
    cube = make_profile(BodyFamily.cube())
    assert time_to_half(cube, 1e-300) == pytest.approx(
        delta_closed_form(BodyFamily.cube(), 1e-300), rel=1e-12)
    for limit in (1, 3):
        monkeypatch.setattr(enlargement, "_MAX_SUBINTERVALS", limit)
        with pytest.raises(NonConvergenceError):
            time_to_half(cube, 1e-300)
    # the linear profile's integrand is constant: one interval suffices
    monkeypatch.setattr(enlargement, "_MAX_SUBINTERVALS", 1)
    assert time_to_half(make_profile(BodyFamily.simplex()), 1e-300) == (
        pytest.approx(delta_closed_form(BodyFamily.simplex(), 1e-300), rel=1e-14))


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_quadrature_rejects_a_non_finite_integrand():
    zero = IsoProfile("zero", "zero", lambda t: 0.0 * t, False)
    with pytest.raises(NonConvergenceError):
        time_to_half(zero, 0.1)


@pytest.mark.parametrize("eps", [math.nextafter(0.5, 0.0), 0.4999999999999999,
                                 0.4999999999999998, 0.5 - 1e-13])
def test_quadrature_next_to_one_half(eps):
    # nodes within an ulp of u = ln 2 must not round to t = 1/2
    for family in (BodyFamily.cube(), BodyFamily.simplex()):
        delta = time_to_half(make_profile(family), eps)
        assert delta == pytest.approx(delta_closed_form(family, eps), rel=1e-6)


def test_closed_form_values_eps_01():
    # cube: -phi_inv(0.1); ball divides by sqrt(e); simplex: ln 5
    assert delta_closed_form(BodyFamily.cube(), 0.1) == pytest.approx(
        0.511265104010389, abs=1e-13)
    assert delta_closed_form(BodyFamily.ball(), 0.1) == pytest.approx(
        0.3100979608234694, abs=1e-13)
    assert delta_closed_form(BodyFamily.simplex(), 0.1) == pytest.approx(
        math.log(5.0), rel=1e-14)
    assert delta_closed_form(BodyFamily.lp(1.0), 0.1) == pytest.approx(
        math.log(5.0), rel=1e-14)
    expect = 1.5 * ((-math.log(0.1)) ** (2 / 3) - math.log(2.0) ** (2 / 3))
    assert delta_closed_form(BodyFamily.lp(1.5), 0.1) == pytest.approx(expect, rel=1e-14)


@pytest.mark.parametrize("eps", [0.4999999999999999, 0.4999999999999998, 0.5 - 1e-11,
                                 0.4999, 0.3, 0.1, 1e-10, 1e-300])
def test_closed_form_next_to_one_half_against_mpmath(eps):
    # the difference of logs cancelled here: 34% off at p = 1.5, 67% at p = 2;
    # lp(2) is the ball, so p = 1.99 is the near-2 case of the l_p form
    for p in (1.0, 1.25, 1.5, 1.75, 1.99):
        assert delta_closed_form(BodyFamily.lp(p), eps) == pytest.approx(
            oracles.lp_delta_mp(eps, p), rel=1e-13, abs=0.0)
    assert delta_closed_form(BodyFamily.simplex(), eps) == pytest.approx(
        oracles.lp_delta_mp(eps, 1.0), rel=1e-13, abs=0.0)


def test_delta_decreases_in_eps():
    for family in FAMILIES:
        vals = [delta_closed_form(family, e) for e in EPS_GRID]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_delta_vanishes_at_half():
    for family in FAMILIES:
        assert delta_closed_form(family, 0.5 - 1e-13) == pytest.approx(0.0, abs=1e-5)


def test_distance_upper_bound_result():
    res = distance_upper_bound(BodyFamily.ball(), 0.1)
    assert res.family == "ball" and res.method == "closed_form"
    assert res.distance_upper == pytest.approx(2.0 * res.delta_m, rel=1e-15)
    assert res.distance_upper == pytest.approx(0.6201959216469388, abs=1e-12)

    res_q = distance_upper_bound(BodyFamily.ball(), 0.1, method="quadrature")
    assert res_q.distance_upper == pytest.approx(res.distance_upper, rel=1e-9)


@pytest.mark.parametrize("method", ["closed_form", "quadrature"])
def test_distance_upper_bound_parametric_flag(method):
    for family in FAMILIES:
        res = distance_upper_bound(family, 0.1, method=method)
        assert res.parametric is (family.kind in ("simplex", "lp")), family


def test_distance_upper_bound_bad_method():
    with pytest.raises(DomainError):
        distance_upper_bound(BodyFamily.ball(), 0.1, method="midpoint")


@pytest.mark.parametrize("eps", [0.0, 0.5, 0.9, -1.0])
def test_epsilon_domain(eps):
    with pytest.raises(DomainError):
        delta_closed_form(BodyFamily.cube(), eps)


@pytest.mark.parametrize("family", SPELLED.values(), ids=SPELLED)
def test_euler_integration_reaches_half_at_delta(family):
    # the comparison ODE v' = I(v), v(0) = eps, must hit 1/2 at delta_M
    profile = make_profile(family)
    for eps in (0.1, 0.25):
        delta = delta_closed_form(family, eps)
        crossing = oracles.euler_delta_to_half(profile, eps, step=1e-4)
        assert crossing == pytest.approx(delta, abs=2e-3)


def test_euler_fine_step_cube():
    # step 1e-5 brings the crossing within 1e-4 of the closed form
    profile = make_profile(BodyFamily.cube())
    delta = delta_closed_form(BodyFamily.cube(), 0.1)
    crossing = oracles.euler_delta_to_half(profile, 0.1, step=1e-5)
    assert crossing == pytest.approx(delta, abs=1e-4)
