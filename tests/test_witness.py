import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from isodist import (BodyFamily, ConstantsConfig, DomainError,
                     ball_caps_witness, bound_report, cube_diagonal_witness,
                     cube_sum_cdf, general_symmetric_lower, lp_caps_witness,
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


def test_lp_caps_unresolvable_volume_raises():
    # at n = 10 no double-precision cap height has volume within 1e-6 of
    # 1e-200 relative, so the witness refuses rather than return one
    with pytest.raises(DomainError):
        lp_caps_witness(10, 1.5, 1e-200)


def test_caps_n1_degenerates_to_segment():
    # every unit-volume 1-d body is the segment; caps are its two ends
    for p in (1.0, 1.7, 2.0):
        w = lp_caps_witness(1, p, 0.1)
        assert w.distance == pytest.approx(0.8, abs=1e-15)


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


def test_cube_witness_converges_to_scaled_limit():
    gaps = [abs(cube_diagonal_witness(n, 0.1).distance - CUBE_MANHATTAN_01)
            for n in (5, 20, 40)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 2e-3


def test_simplex_witness_geometry():
    w = simplex_corner_witness(5, 0.1)
    alpha = (0.2) ** 0.25
    omega = unit_volume_radius("simplex", 5)
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


def test_general_symmetric_lower_matches_ball_exact():
    for eps in (0.01, 0.1, 0.25, 0.45):
        assert general_symmetric_lower(eps) == pytest.approx(
            -2.0 * phi_inv(eps) / math.sqrt(math.e), rel=1e-14)
    assert general_symmetric_lower(0.1) == pytest.approx(BALL_EXACT_01, abs=1e-12)
    assert general_symmetric_lower(0.5 - 1e-12) == pytest.approx(0.0, abs=1e-5)


def test_bound_report_ball():
    rep = bound_report(BodyFamily.ball(), 0.1)
    assert rep.lower == rep.upper == rep.exact_limit
    assert rep.lower == pytest.approx(BALL_EXACT_01, abs=1e-12)
    assert not rep.parametric


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
    # doubling the placeholder constant halves the upper bound only
    cfg = ConstantsConfig(c_lambda=2.0)
    rep2 = bound_report(BodyFamily.simplex(), 0.1, cfg)
    assert rep2.upper == pytest.approx(rep.upper / 2.0, rel=1e-14)
    assert rep2.lower == rep.lower


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
