import math

import numpy as np
import pytest

from isodist import (BodyFamily, DomainError,
                     ball_profile_limit, cube_profile, exp_measure_profile,
                     lp_profile, make_exp_measure_profile, make_profile,
                     simplex_profile, xlog_power_derivative)

CUBE_PROFILE_01 = 0.439909080972548  # exp(-pi phi_inv(0.1)^2), quadrature oracle


def test_cube_profile_frozen_value():
    assert cube_profile(0.1) == pytest.approx(CUBE_PROFILE_01, rel=1e-12)


def test_cube_profile_below_one_approaches_one():
    t = np.linspace(1e-4, 0.4999, 500)
    v = cube_profile(t)
    assert np.all(v < 1.0)
    assert cube_profile(0.5 - 1e-12) == pytest.approx(1.0, abs=1e-8)


def test_ball_is_sqrt_e_times_cube():
    t = np.linspace(1e-6, 0.499, 400)
    ratio = ball_profile_limit(t) / cube_profile(t)
    assert np.max(np.abs(ratio - math.sqrt(math.e))) <= 1e-10


def test_simplex_profile_linear():
    t = np.linspace(0.01, 0.49, 25)
    out = simplex_profile(t)
    assert np.array_equal(out, t)
    assert out is not t  # a new array, never the caller's


def test_lp_profile_values():
    t = np.linspace(0.01, 0.49, 25)
    # p = 1 collapses to the linear profile
    assert np.allclose(lp_profile(t, 1.0), t, rtol=1e-15)
    expect = t * np.sqrt(-np.log(t))
    assert np.allclose(lp_profile(t, 2.0), expect, rtol=1e-14)


def test_exp_measure_profile_tent():
    assert exp_measure_profile(0.25) == 0.25
    assert exp_measure_profile(0.75) == pytest.approx(0.25, abs=1e-15)
    assert exp_measure_profile(0.5) == 0.5
    with pytest.raises(DomainError):
        exp_measure_profile(1.0)


@pytest.mark.parametrize("t", [0.0, 0.5, 0.6, -0.1])
def test_profile_domain(t):
    for fn in (cube_profile, ball_profile_limit, simplex_profile):
        with pytest.raises(DomainError):
            fn(t)
    with pytest.raises(DomainError):
        lp_profile(t, 1.5)


def test_xlog_derivative_positive_up_to_half():
    x = np.linspace(1e-9, 0.5, 2000)
    for p in (1.0, 1.2, 1.5, 1.8, 2.0):
        assert np.all(xlog_power_derivative(x, p) > 0.0)


def test_xlog_derivative_finite_differences(rng):
    # f(x) = x(-ln x)^{1-1/p}; centered difference at h = 1e-6
    h = 1e-6
    for _ in range(300):
        p = float(rng.uniform(1.0, 2.0))
        x = float(rng.uniform(0.01, 0.49))
        f = lambda u: u * (-math.log(u)) ** (1.0 - 1.0 / p)
        fd = (f(x + h) - f(x - h)) / (2.0 * h)
        assert xlog_power_derivative(x, p) == pytest.approx(fd, rel=1e-5)


def test_lp_profile_increasing_pairwise(rng):
    for p in (1.0, 1.5, 2.0):
        x = np.sort(rng.uniform(1e-6, 0.4999, 500))
        v = lp_profile(x, p)
        assert np.all(np.diff(v) > 0.0)


def test_make_profile_dispatch():
    cube = make_profile(BodyFamily.cube())
    assert cube.tag == "cube" and not cube.parametric
    assert cube(0.1) == cube_profile(0.1)

    ball = make_profile(BodyFamily.ball())
    assert ball.tag == "ball_limit" and not ball.parametric

    simplex = make_profile(BodyFamily.simplex())
    assert simplex.parametric
    assert simplex(0.2) == 0.2

    lp = make_profile(BodyFamily.lp(1.5))
    assert lp.parametric and lp.label == "lp(1.5)"
    assert lp(0.2) == pytest.approx(lp_profile(0.2, 1.5), rel=1e-15)

    tent = make_exp_measure_profile()
    assert tent.tag == "exp_measure" and tent(0.7) == pytest.approx(0.3)


def test_profiles_accept_arrays():
    t = np.array([0.1, 0.2, 0.3])
    assert cube_profile(t).shape == (3,)
    assert isinstance(cube_profile(0.1), float)
