import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from isodist import (BodyFamily, DomainError,
                     ball_caps_witness, bound_report, cube_diagonal_witness,
                     cube_sum_cdf, lp_caps_witness,
                     lp_tail_volume, phi_inv, psi_p_inv, simplex_corner_witness,
                     unit_volume_radius)

BALL_EXACT_01 = 0.6201959216469388       # -2 phi_inv(0.1)/sqrt(e)
CUBE_MANHATTAN_01 = 0.7399041413475614   # -2 sqrt(pi/6) phi_inv(0.1)
SIMPLEX_LIMIT_01 = 0.837326321256405     # (sqrt(2)/e) ln 5


def test_ball_caps_volume_and_distance():
    for n in (2, 3, 8, 25):
        w = ball_caps_witness(n, 0.1)
        a = w.distance / 2.0
        assert abs(lp_tail_volume(a, 2.0, n) - 0.1) <= 1e-10
        assert w.family == "ball" and w.n == n
        assert w.limit_value == pytest.approx(BALL_EXACT_01, abs=1e-12)
        assert w.region_a.params["threshold"] == pytest.approx(a)
        assert w.region_b.params["threshold"] == pytest.approx(-a)


def test_ball_caps_converge_to_limit():
    # the gap closes like 1/n: 7.2e-2 at n=10, 2.1e-3 at n=1000
    dists = [ball_caps_witness(n, 0.1).distance for n in (10, 100, 1000)]
    gaps = [abs(d - BALL_EXACT_01) for d in dists]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 3e-3


def test_lp_caps_betainc_oracle():
    for p in (1.0, 1.5):
        for n in (2, 6, 15):
            w = lp_caps_witness(n, p, 0.07)
            a = w.distance / 2.0
            assert oracles.lp_tail_betainc(a, p, n) == pytest.approx(0.07, abs=1e-9)
            assert w.limit_value == pytest.approx(-2.0 * psi_p_inv(0.07, p), rel=1e-13)


@pytest.mark.parametrize("eps", [1e-12, 1e-15])
def test_lp_caps_tiny_eps_against_mpmath(eps):
    a = lp_caps_witness(200, 1.5, eps).distance / 2.0
    assert oracles.lp_tail_mp(a, 1.5, 200) == pytest.approx(eps, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("eps", [4.18e-14, 4.1832021205158474e-14, 4.184176142154806e-14])
def test_ball_caps_near_the_n2_limit_hold_eps(eps):
    # at these eps betainccinv's residual alone exceeds the tolerance, and
    # the Newton step on the cap volume corrects it
    a = ball_caps_witness(2, eps).distance / 2.0
    assert oracles.lp_tail_mp(a, 2.0, 2) == pytest.approx(eps, rel=1e-6, abs=0.0)


def test_lp_caps_unresolvable_volume_raises():
    # at n = 10 no double-precision cap height has volume within 1e-6 of
    # 1e-200 relative, so the witness refuses rather than return one
    with pytest.raises(DomainError):
        lp_caps_witness(10, 1.5, 1e-200)
    # at n = 22 the height lies 4 ulps below omega_n, where lp_tail_volume
    # gives 3.6 times the 50-digit volume
    with pytest.raises(DomainError):
        lp_caps_witness(22, 1.741, 3e-197)
    # at the tip the cap volume underflows to 0 and a Newton step would
    # leave [0, omega_n]
    with pytest.raises(DomainError):
        lp_caps_witness(38, 1.5322629870959146, 9.740250684504883e-277)
    # at n = 2 and 1e-14 the rounding of omega_n and a alone may move the
    # cap by 2.2e-6 of its volume, so no Newton step can help
    with pytest.raises(DomainError):
        ball_caps_witness(2, 1e-14)


def test_caps_n1_degenerates_to_segment():
    # every unit-volume 1-d body is the segment; caps are its two ends
    for p in (1.0, 1.7, 2.0):
        w = lp_caps_witness(1, p, 0.1)
        assert w.distance == pytest.approx(0.8, abs=1e-15)


def test_ball_caps_below_martons_upper():
    # the caps are the ball's exact answer, so no looser upper bound may
    # fall below them; skipped where the cap solve raises (tiny eps, small n)
    ratios = []
    for n in sorted({round(v) for v in np.logspace(0.0, 4.0, 20)}):
        for eps in np.logspace(-300.0, math.log10(0.49), 29).tolist():
            try:
                w = ball_caps_witness(n, eps)
            except DomainError:
                continue
            ratios.append(w.distance / oracles.ball_marton_upper(n, eps))
    assert len(ratios) > 300
    assert max(ratios) <= 1.0


@pytest.mark.parametrize("n", [1, 3, 10])
@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_ball_caps_are_projected_sphere_caps(n, eps):
    # Archimedes: R g/|g| on S^{n+1}(R), g gaussian in R^{n+2}, has its
    # first n coordinates uniform on the unit-volume ball B^n(R), so each
    # cap +-{x_1 >= a} holds eps of the projected sphere points
    m = 400_000
    r = math.exp(math.lgamma(n / 2.0 + 1.0) / n) / math.sqrt(math.pi)
    g = np.random.default_rng(77 + n).standard_normal((m, n + 2))
    x1 = r * g[:, 0] / np.linalg.norm(g, axis=1)
    a = ball_caps_witness(n, eps).region_a.params["threshold"]
    se = math.sqrt(eps * (1.0 - eps) / m)
    for side in (x1, -x1):
        assert abs(np.count_nonzero(side >= a) / m - eps) <= 5.0 * se


def test_cube_witness_volume_distance_and_regions():
    for n in (1, 2, 10, 30):
        w = cube_diagonal_witness(n, 0.1)
        s = w.region_a.params["threshold"]
        assert abs(cube_sum_cdf(n, s) - 0.1) <= 1e-10
        assert w.region_b.params["threshold"] == pytest.approx(n - s, rel=1e-12)
        assert w.distance == pytest.approx(2.0 * (0.5 * n - s) / math.sqrt(n), rel=1e-12)
        assert w.limit_value == pytest.approx(CUBE_MANHATTAN_01, abs=1e-12)


@pytest.mark.parametrize("n,eps", [(1, 1e-15), (41, 1e-2), (100, 1e-15),
                                   (300, 1e-300)])
def test_cube_witness_slab_volume_relative_to_exact_sum(n, eps):
    s = cube_diagonal_witness(n, eps).region_a.params["threshold"]
    assert oracles.irwin_hall_exact(n, s) == pytest.approx(eps, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("n,eps", [(500, 1e-316), (2000, 1e-310)])
def test_cube_witness_refuses_subnormal_eps(n, eps):
    # the slab volume underflows, so no threshold holds eps to 1e-6
    with pytest.raises(DomainError):
        cube_diagonal_witness(n, eps)


def test_cube_witness_converges_to_scaled_limit():
    gaps = [abs(cube_diagonal_witness(n, 0.1).distance - CUBE_MANHATTAN_01)
            for n in (5, 20, 40)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 2e-3


def test_simplex_witness_geometry():
    w = simplex_corner_witness(5, 0.1)
    alpha = (0.2) ** 0.25
    omega = unit_volume_radius(BodyFamily.simplex(), 5)
    assert w.region_a.params["alpha"] == pytest.approx(alpha, rel=1e-14)
    assert w.distance == pytest.approx(math.sqrt(2.0) * omega * (1.0 - alpha), rel=1e-14)
    assert w.limit_value == pytest.approx(SIMPLEX_LIMIT_01, abs=1e-12)
    # each homothety keeps volume alpha^{n-1} * 1/2 = eps
    assert 0.5 * alpha ** 4 == pytest.approx(0.1, rel=1e-14)


def test_simplex_witness_converges_to_limit():
    gaps = [abs(simplex_corner_witness(n, 0.1).distance - SIMPLEX_LIMIT_01)
            for n in (10, 100, 1000)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 5e-3


@pytest.mark.parametrize("n", [2, 5, 100, 1000, 10**6])
@pytest.mark.parametrize("eps", [1e-300, 1e-10, 0.1, 0.4999, 0.4999999999999999])
def test_simplex_witness_distance_against_mpmath(n, eps):
    # 1 - alpha cancelled: distance 0 at (1000, 0.4999999999999999)
    assert simplex_corner_witness(n, eps).distance == pytest.approx(
        oracles.simplex_corner_distance_mp(n, eps), rel=1e-13, abs=0.0)


def test_simplex_witness_needs_n2():
    with pytest.raises(DomainError):
        simplex_corner_witness(1, 0.1)


def test_witness_distances_close_to_limits_at_moderate_n():
    # the 1/n correction still leaves the caps ~6% high at n = 30
    for w in (ball_caps_witness(30, 0.1), cube_diagonal_witness(30, 0.1),
              simplex_corner_witness(30, 0.1), lp_caps_witness(30, 1.5, 0.1)):
        assert w.distance == pytest.approx(w.limit_value, rel=0.08)


def test_bound_report_ball():
    rep = bound_report(BodyFamily.ball(), 0.1)
    assert rep.lower == rep.upper == rep.exact_limit
    assert rep.lower == pytest.approx(BALL_EXACT_01, abs=1e-12)
    assert not rep.parametric
    for eps in (0.01, 0.1, 0.25, 0.45):
        assert bound_report(BodyFamily.ball(), eps).lower == pytest.approx(
            -2.0 * phi_inv(eps) / math.sqrt(math.e), rel=1e-14)
    assert bound_report(BodyFamily.ball(), 0.5 - 1e-12).lower == pytest.approx(0.0, abs=1e-5)


@pytest.mark.parametrize("eps", [0.4, 0.1, 1e-3, 1e-8, 1e-20, 1e-50, 1e-100,
                                 1e-200, 1e-300])
def test_ball_limit_against_mpmath(eps):
    want = -2.0 * oracles.phi_p_inv_mp(eps, 2.0) / math.sqrt(math.e)
    assert bound_report(BodyFamily.ball(), eps).lower == pytest.approx(
        want, rel=2e-15, abs=0.0)
    for n in (2, 50, 1000):
        try:
            limit = ball_caps_witness(n, eps).limit_value
        except DomainError:
            continue
        assert limit == pytest.approx(want, rel=2e-15, abs=0.0)


def test_bound_report_cube():
    rep = bound_report(BodyFamily.cube(), 0.1)
    assert rep.lower == pytest.approx(CUBE_MANHATTAN_01, abs=1e-12)
    assert rep.upper == pytest.approx(-2.0 * phi_inv(0.1), rel=1e-14)
    assert rep.manhattan_scaled_limit == rep.lower
    assert rep.exact_limit is None and not rep.parametric
    assert rep.lower < rep.upper


def test_bound_report_simplex():
    rep = bound_report(BodyFamily.simplex(), 0.1)
    assert rep.lower == pytest.approx(SIMPLEX_LIMIT_01, abs=1e-12)
    assert rep.upper == pytest.approx(2.0 * math.log(10.0), rel=1e-14)
    assert rep.parametric


def test_bound_report_lp():
    rep = bound_report(BodyFamily.lp(1.5), 0.1)
    assert rep.lower == pytest.approx(-2.0 * psi_p_inv(0.1, 1.5), rel=1e-13)
    assert rep.upper == pytest.approx(3.0 * (-math.log(0.1)) ** (2 / 3), rel=1e-14)
    assert rep.parametric


def test_bound_report_lp2_is_the_ball_row():
    ball = bound_report(BodyFamily.ball(), 0.07)
    lp2 = bound_report(BodyFamily.lp(2.0), 0.07)
    assert lp2 == ball


def test_lower_bounds_stay_below_uppers():
    for eps in (0.01, 0.1, 0.3, 0.45):
        for fam in (BodyFamily.cube(), BodyFamily.simplex(),
                    BodyFamily.lp(1.0), BodyFamily.lp(1.5)):
            rep = bound_report(fam, eps)
            assert rep.lower <= rep.upper + 1e-12


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(st.integers(1, 1000), st.floats(1.0, 2.0),
       st.floats(-300.0, math.log10(0.5), exclude_max=True))
# the rounding of a next to 1/2 (n = 1) and of omega_n moved these caps by
# 2.2e-5 and 3.3e-4 of their volume
@example(1, 1.0, -12.0)
@example(20, 1.5, -150.0)
def test_lp_caps_against_mp_tail_property(n, p, log_eps):
    eps = 10.0 ** log_eps
    try:
        a = lp_caps_witness(n, p, eps).region_a.params["threshold"]
    except DomainError:
        # only where float rounding cannot place a cap of volume eps: tiny
        # eps, and at n = 1 below the spacing of floats next to 1/2
        assert eps < (1e-10 if n == 1 else 1e-13)
        return
    assert oracles.lp_tail_mp(a, p, n) == pytest.approx(eps, rel=1e-6, abs=0.0)
