import math

import numpy as np
import pytest

import oracles
from isodist import (BodyFamily, DomainError, ball_caps_witness, bound_report,
                     delta_closed_form, distance_upper_bound,
                     estimate_cap_volume, lp_caps_witness, make_profile,
                     sample_uniform, unit_volume_radius)

CUBE_PROFILE_01 = 0.439909080972548  # exp(-pi phi_inv(0.1)^2), quadrature oracle

cube_profile = make_profile(BodyFamily.cube())
ball_profile = make_profile(BodyFamily.ball())
simplex_profile = make_profile(BodyFamily.simplex())


def test_cube_profile_frozen_value():
    assert cube_profile(0.1) == pytest.approx(CUBE_PROFILE_01, rel=1e-12)


def test_cube_profile_below_one_approaches_one():
    t = np.linspace(1e-4, 0.4999, 500)
    v = cube_profile(t)
    assert np.all(v < 1.0)
    assert cube_profile(0.5 - 1e-12) == pytest.approx(1.0, abs=1e-8)


def test_ball_is_sqrt_e_times_cube():
    t = np.linspace(1e-6, 0.499, 400)
    ratio = ball_profile(t) / cube_profile(t)
    assert np.max(np.abs(ratio - math.sqrt(math.e))) <= 1e-10


def test_simplex_profile_linear():
    t = np.linspace(0.01, 0.49, 25)
    out = simplex_profile(t)
    assert np.array_equal(out, t)
    assert out is not t  # a new array, never the caller's


def test_lp_profile_values():
    t = np.linspace(0.01, 0.49, 25)
    # p = 1 collapses to the linear profile
    assert np.allclose(make_profile(BodyFamily.lp(1))(t), t, rtol=1e-15)
    expect = t * np.cbrt(-np.log(t))
    assert np.allclose(make_profile(BodyFamily.lp(1.5))(t), expect, rtol=1e-14)


@pytest.mark.parametrize("t", [0.0, 0.5, 0.6, -0.1, math.nan, [0.1, math.nan]])
def test_profile_domain(t):
    for fam in (BodyFamily.cube(), BodyFamily.ball(), BodyFamily.simplex(),
                BodyFamily.lp(1.5)):
        with pytest.raises(DomainError):
            make_profile(fam)(t)


# 45 tails from 1e-300 on, then four points closing in on 1/2
_T_TO_HALF = [*np.geomspace(1e-300, 0.45, 45).tolist(), 0.49, 0.499999,
              0.5 - 2.0**-30, math.nextafter(0.5, 0.0)]


@pytest.mark.parametrize("t", _T_TO_HALF)
def test_cube_and_ball_profiles_against_mpmath(t):
    # exp(-x^2) with x = erfcinv(2t) amplifies a relative error in x^2 by
    # x^2, so allow 8 (1 + x^2) ulps, x^2 read off the oracle's value
    cube = oracles.cube_profile_mp(t)
    tol = 8.0 * (1.0 - math.log(cube)) * 2.0**-53
    assert cube_profile(t) == pytest.approx(cube, rel=tol, abs=0.0)
    assert ball_profile(t) == pytest.approx(math.sqrt(math.e) * cube,
                                                  rel=tol, abs=0.0)


def test_lp_profile_increasing_pairwise(rng):
    for p in (1.0, 1.5, 2.0):
        x = np.sort(rng.uniform(1e-6, 0.4999, 500))
        v = make_profile(BodyFamily.lp(p))(x)
        assert np.all(np.diff(v) > 0.0)


def test_make_profile_dispatch():
    cube = make_profile(BodyFamily.cube())
    assert cube.tag == "cube" and not cube.parametric
    assert cube(0.1) == pytest.approx(CUBE_PROFILE_01, rel=1e-12)

    ball = make_profile(BodyFamily.ball())
    assert ball.tag == "ball_limit" and not ball.parametric

    simplex = make_profile(BodyFamily.simplex())
    assert simplex.parametric
    assert simplex(0.2) == 0.2

    lp = make_profile(BodyFamily.lp(1.5))
    assert lp.parametric and lp.label == "lp(1.5)"
    assert lp(0.2) == pytest.approx(0.2 * (-math.log(0.2)) ** (1.0 / 3.0), rel=1e-15)


def test_lp2_is_the_ball_everywhere():
    ball, lp2 = BodyFamily.ball(), BodyFamily.lp(2.0)
    assert lp2 == ball
    t = np.linspace(1e-6, 0.4999, 101)
    prof_ball, prof_lp2 = make_profile(ball), make_profile(lp2)
    assert (prof_lp2.label, prof_lp2.tag, prof_lp2.parametric) == ("ball", "ball_limit", False)
    assert (prof_ball.label, prof_ball.tag, prof_ball.parametric) == ("ball", "ball_limit", False)
    assert np.array_equal(prof_lp2(t), prof_ball(t))
    for eps in (1e-9, 0.1, 0.3):
        assert delta_closed_form(lp2, eps) == delta_closed_form(ball, eps)
        for method in ("closed_form", "quadrature"):
            assert distance_upper_bound(lp2, eps, method) == \
                distance_upper_bound(ball, eps, method)
        assert bound_report(lp2, eps) == bound_report(ball, eps)
        for n in (1, 2, 10, 200):
            assert lp_caps_witness(n, 2.0, eps) == ball_caps_witness(n, eps)
    for n in (1, 7, 400):
        assert unit_volume_radius(lp2, n) == unit_volume_radius(ball, n)
    a, b = sample_uniform(lp2, 3, 500, 4), sample_uniform(ball, 3, 500, 4)
    assert a.family == b.family == "ball" and np.array_equal(a.points, b.points)
    assert estimate_cap_volume(lp2, 5, 0.1, 2000, 3) == \
        estimate_cap_volume(ball, 5, 0.1, 2000, 3)


def test_profiles_accept_arrays():
    t = np.array([0.1, 0.2, 0.3])
    for fam in (BodyFamily.cube(), BodyFamily.ball(), BodyFamily.simplex(),
                BodyFamily.lp(1.5)):
        prof = make_profile(fam)
        assert prof(t).shape == (3,)
        assert type(prof(0.1)) is float
        assert np.array_equal(prof(t), [prof(v) for v in t.tolist()])
