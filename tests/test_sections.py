import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

import oracles
from isodist import (BodyFamily, DomainError, convergence_report, cube_diagonal_witness,
                     cube_sum_cdf, lp_section_area, lp_tail_volume, phi_p, psi_p,
                     psi_p_density_limit, section_curve, sphere_projection_cdf,
                     unit_volume_radius)
from isodist import sections, specfun
from isodist.sections import _lp_cap_volume


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_section_area_matches_direct_formula(p, n):
    om = unit_volume_radius(BodyFamily.lp(p), n)
    for x in np.linspace(0.0, 1.2 * om, 15):
        assert lp_section_area(float(x), p, n) == pytest.approx(
            oracles.lp_section_direct(float(x), p, n), rel=1e-11, abs=1e-13)


def test_section_area_zero_past_radius():
    om = unit_volume_radius(BodyFamily.lp(1.5), 5)
    assert lp_section_area(om, 1.5, 5) == 0.0
    assert lp_section_area(om + 1.0, 1.5, 5) == 0.0


def test_section_area_large_n_stays_finite():
    # log-space evaluation: no overflow at n = 2000
    v = lp_section_area(0.1, 2.0, 2000)
    assert math.isfinite(v) and v > 0.0
    assert v == pytest.approx(psi_p_density_limit(0.1, 2.0), rel=0.01)


def test_section_area_domain():
    with pytest.raises(DomainError):
        lp_section_area(-0.1, 2.0, 5)
    with pytest.raises(DomainError):
        lp_section_area(0.1, 2.0, 1)


def test_section_height_nan_raises():
    for x in (math.nan, [0.0, 0.5, math.nan]):
        with pytest.raises(DomainError):
            lp_section_area(x, 1.5, 10)
    with pytest.raises(DomainError):
        lp_tail_volume(math.nan, 1.5, 10)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("n", [2, 5, 12, 40])
def test_tail_volume_against_betainc(p, n):
    om = unit_volume_radius(BodyFamily.lp(p), n)
    for x in np.linspace(0.0, 0.999 * om, 12):
        assert lp_tail_volume(float(x), p, n) == pytest.approx(
            oracles.lp_tail_betainc(float(x), p, n), abs=1e-10)


def test_tail_volume_endpoints_and_monotone():
    om = unit_volume_radius(BodyFamily.lp(1.3), 7)
    assert lp_tail_volume(0.0, 1.3, 7) == pytest.approx(0.5, abs=1e-12)
    assert lp_tail_volume(om, 1.3, 7) == 0.0
    xs = np.linspace(0.0, om, 30)
    vals = [lp_tail_volume(float(x), 1.3, 7) for x in xs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_tiny_cap_against_mpmath_lower_form():
    # 250-digit mpmath value; the 50-digit upper form 1 - I gave 0.0 here
    want = 1.0171239135544519e-143
    assert oracles.lp_tail_mp(12.68, 1.455, 977) == pytest.approx(
        want, rel=1e-12, abs=0.0)
    assert lp_tail_volume(12.68, 1.455, 977) == pytest.approx(
        want, rel=1e-12, abs=0.0)


def test_cap_volume_formula_against_mpmath_sweep():
    # 300 seeded (p, n, x/omega) with caps >= 1e-300, judged at the float z
    # the package forms (omega = 1 here).  Below z = 1/2 the rounding of
    # 1 - z moves the swapped form by about b 2^-53 / (1 - z) relative,
    # b = (n-1)/p + 1, which reaches 2e-13 at n = 2000; 3.2e-13 is the
    # largest error seen over 3000 such cases
    rng = np.random.default_rng(34)
    errs, rounds_to_one = [], 0
    while len(errs) < 300:
        p, n = rng.uniform(1.0, 2.0), int(rng.integers(2, 2001))
        r = (10.0 ** rng.uniform(-12.0, math.log10(0.999)) if rng.random() < 0.5
             else rng.uniform(1e-12, 0.999))
        z = min(r ** p, 1.0)
        want = oracles.lp_cap_beta_mp(z, p, n)
        if want < 1e-300:
            continue
        errs.append(abs(float(_lp_cap_volume(r, p, n, 1.0)) / want - 1.0))
        # 1 - z rounds to 1 here, and the swapped form alone drops I_z(a, b),
        # up to about 4e-7 relative at p = 2, n = 2000
        rounds_to_one += z < 2.0**-53
    assert rounds_to_one >= 10
    assert max(errs) <= 5e-13


def test_cap_volume_matches_both_forms_bit_for_bit():
    # the lower form runs only where the swapped one is at least 1/4; the
    # values must be those of evaluating both at every height, for arrays
    # and scalars, at 0, z < 2^-53, the tip, past it, NaN and inf
    rng = np.random.default_rng(46)
    for _ in range(200):
        p, n = rng.uniform(1.0, 2.0), int(rng.integers(2, 2001))
        omega = specfun._lp_radius(n, p)
        x = np.concatenate([
            [0.0, 1e-300, omega * 2.0**-60, np.nextafter(omega, 0.0), omega,
             1.5 * omega, math.nan, math.inf],
            omega * 10.0 ** rng.uniform(-6.0, 0.0, 25), rng.uniform(0.0, omega, 20)])
        want = oracles.lp_cap_two_form(x, p, n, omega)
        assert _lp_cap_volume(x, p, n, omega).tobytes() == want.tobytes()
        for xi, one in zip(x.tolist(), want):
            assert np.float64(_lp_cap_volume(xi, p, n, omega)).tobytes() == \
                one.tobytes()


def test_slab_solve_builds_its_spline_once(monkeypatch):
    for cached in vars(sections).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    builds = []
    build = BSpline.construct_fast

    def counting(cls, *args, **kwargs):
        builds.append(args[-1])
        return build(*args, **kwargs)

    monkeypatch.setattr(BSpline, "construct_fast", classmethod(counting))
    w = cube_diagonal_witness(30, 1e-3)
    assert builds == [29]
    assert oracles.irwin_hall_exact(30, w.region_a.params["threshold"]) == \
        pytest.approx(1e-3, rel=1e-9, abs=0.0)


# the heights lp_caps_witness finds for the caps of volume 1e-150 and
# 5.7e-221; their volumes are 3.3e-4 and 3.9e-7 off, against r = 1.6e-3
# and 1.3e-5
@pytest.mark.parametrize("x, p, n", [(1.786684754206195, 1.5, 20),
                                     (1.9058983652537584, 1.92, 49)])
def test_tail_volume_near_tip_within_omega_rounding(x, p, n):
    # next to the tip the rounding of omega_n, amplified by x S_n(x) / V_n(x),
    # adds r to the 3e-12 that holds away from it
    om = unit_volume_radius(BodyFamily.lp(p), n)
    vol = lp_tail_volume(x, p, n)
    r = x * lp_section_area(x, p, n) / vol * 2.0**-53 * (7.0 + 3.0 * abs(math.log(om)))
    assert abs(vol / oracles.lp_tail_mp(x, p, n) - 1.0) <= 3e-12 + r


def test_section_curve_matches_pointwise():
    grid = np.linspace(0.0, 1.5, 40)
    curve = section_curve(1.5, 9, grid)
    assert curve.omega == pytest.approx(unit_volume_radius(BodyFamily.lp(1.5), 9), rel=1e-14)
    for i in (0, 7, 20, 39):
        assert curve.tails[i] == pytest.approx(
            lp_tail_volume(float(grid[i]), 1.5, 9), abs=1e-9)
        assert curve.areas[i] == pytest.approx(
            lp_section_area(float(grid[i]), 1.5, 9), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("p,n", [(1.5, 100), (1.2, 7), (1.0, 40),
                                 (1.0, 400), (1.5, 400)])
def test_section_curve_tails_relative_to_cap_quadrature(p, n):
    # the README grid 0:3:0.01 reaches far into the tail; every cap above
    # 1e-300 must keep its relative accuracy
    grid = np.arange(0.0, 3.005, 0.01)
    curve = section_curve(p, n, grid)
    want = np.array([oracles.lp_tail_quad(float(x), p, n) for x in grid])
    live = want > 1e-300
    rel = np.abs(curve.tails[live] - want[live]) / want[live]
    assert float(rel.max()) <= 1e-9


def test_section_curve_rejects_bad_grid():
    for grid in ([0.3], [0.1, 0.1], [0.2, 0.1], [-0.1, 0.2], [0.0, 1.0, math.nan],
                 [math.nan, 1.0]):
        with pytest.raises(DomainError):
            section_curve(2.0, 5, grid)


def test_psi_density_normalization_and_p2_form():
    # integrates to 1/2 on [0, inf); p = 2 is sqrt(e) exp(-pi e x^2)
    from scipy import integrate
    for p in (1.0, 1.5, 2.0):
        val, _ = integrate.quad(lambda x: psi_p_density_limit(x, p), 0.0, np.inf)
        assert val == pytest.approx(0.5, abs=1e-10)
    x = np.linspace(0.0, 2.0, 50)
    expect = math.sqrt(math.e) * np.exp(-math.pi * math.e * x * x)
    assert np.allclose(psi_p_density_limit(x, 2.0), expect, rtol=1e-13)


def test_psi_density_is_minus_derivative_of_tail_limit():
    h = 1e-6
    for p in (1.0, 1.4, 2.0):
        for x in (0.1, 0.4, 0.9):
            fd = -(psi_p(-(x + h), p) - psi_p(-(x - h), p)) / (2.0 * h)
            assert psi_p_density_limit(x, p) == pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_convergence_to_limit_laws(p):
    grid = np.arange(0.0, 2.0001, 0.05)
    rep = convergence_report(p, [25, 100, 400], grid)
    assert rep.decreasing
    assert rep.sup_gap_tail[-1] <= 0.02
    assert rep.sup_gap_area[-1] <= 0.05
    # the tail gap matches a direct comparison at the last n
    curve = section_curve(p, 400, grid)
    limit = phi_p(-math.exp(1.0 / p) * grid, p)
    assert rep.sup_gap_tail[-1] == pytest.approx(
        float(np.max(np.abs(curve.tails - limit))), rel=1e-9)


def test_cube_sum_cdf_small_closed_forms():
    # n = 1: uniform; n = 2: triangular
    for s in (0.1, 0.5, 0.9):
        assert cube_sum_cdf(1, s) == pytest.approx(s, abs=1e-15)
    assert cube_sum_cdf(2, 0.5) == pytest.approx(0.125, abs=1e-14)
    assert cube_sum_cdf(2, 1.5) == pytest.approx(0.875, abs=1e-14)
    assert cube_sum_cdf(3, 1.5) == pytest.approx(0.5, abs=1e-14)


def test_cube_sum_cdf_bounds_and_symmetry():
    assert cube_sum_cdf(4, -1.0) == 0.0
    assert cube_sum_cdf(4, 0.0) == 0.0
    assert cube_sum_cdf(4, 4.0) == 1.0
    assert cube_sum_cdf(4, 9.9) == 1.0
    for n in (5, 17, 30):
        for s in (0.7, n / 3.0, n / 2.0):
            assert cube_sum_cdf(n, s) + cube_sum_cdf(n, n - s) == pytest.approx(
                1.0, abs=1e-14)


@pytest.mark.parametrize("n", [6, 12, 25, 40])
def test_cube_sum_cdf_exact_rational_oracle(n, rng):
    # both sides are exact rationals rounded once, so they agree to an ulp
    for _ in range(12):
        s = float(rng.uniform(0.0, n))
        assert cube_sum_cdf(n, s) == pytest.approx(
            oracles.irwin_hall_exact(n, s), abs=1e-15)


@pytest.mark.parametrize("n", [41, 100, 300])
def test_cube_sum_cdf_relative_to_exact_sum_beyond_40(n):
    # deep in the lower tail the volume is tiny; it must keep its digits
    sigma = math.sqrt(n / 12.0)
    for s in (0.5, 1.0, n / 2 - 9 * sigma, n / 2 - 3 * sigma, n / 2, n - 1):
        assert cube_sum_cdf(n, s) == pytest.approx(
            oracles.irwin_hall_exact(n, s), rel=1e-13, abs=0.0)


def test_cube_sum_cdf_first_piece_is_a_power():
    # on (0, 1] the volume is s^n/n!; the spline must not extrapolate there
    for n in range(1, 51):
        for s in (1e-3, 0.25, 0.7, 1.0):
            want = float(Fraction(s) ** n / math.factorial(n))
            assert cube_sum_cdf(n, s) == pytest.approx(want, rel=1e-14, abs=0.0)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(st.integers(1, 120),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.floats(-300.0, math.log10(0.5), exclude_max=True))
def test_cube_slabs_against_exact_sum_property(n, frac, log_eps):
    s = frac * n
    assert cube_sum_cdf(n, s) == pytest.approx(
        oracles.irwin_hall_exact(n, s), rel=1e-13, abs=1e-300)
    eps = 10.0 ** log_eps
    low = cube_diagonal_witness(n, eps).region_a.params["threshold"]
    assert oracles.irwin_hall_exact(n, low) == pytest.approx(eps, rel=1e-9, abs=0.0)


def test_sphere_projection_special_cases():
    # n = 3: the scaled coordinate is uniform on [-sqrt(3), sqrt(3)]
    for x in (-1.0, 0.0, 0.5, 1.5):
        assert sphere_projection_cdf(3, x) == pytest.approx(
            (1.0 + x / math.sqrt(3.0)) / 2.0, abs=1e-13)
    assert sphere_projection_cdf(9, 0.0) == pytest.approx(0.5, abs=1e-14)
    assert sphere_projection_cdf(5, -math.sqrt(5.0)) == 0.0
    assert sphere_projection_cdf(5, math.sqrt(5.0)) == 1.0
    with pytest.raises(DomainError):
        sphere_projection_cdf(1, 0.0)


def test_sphere_projection_tends_to_gaussian():
    # scaled coordinate converges to the N(0,1) law as n grows
    from scipy.stats import norm
    for x in (-1.5, -0.5, 0.5, 2.0):
        assert sphere_projection_cdf(4000, x) == pytest.approx(
            float(norm.cdf(x)), abs=2e-3)
