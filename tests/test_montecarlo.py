import math

import numpy as np
import pytest

import oracles
from isodist import (BodyFamily, DomainError, EstimateWithCI, average_distance_experiment,
                     cutoff_gradient_check, cutoff_h1, cutoff_h2,
                     cutoff_product_check, estimate_cap_volume, exp_tail_check,
                     gaussian_to_cube_map, sample_gaussian, sample_uniform,
                     t_map, t_map_jacobian, t_map_lipschitz_check,
                     t_map_opnorm_bound, transfer_map_check,
                     unit_volume_radius)

ERLANG_3_AT_06 = 0.023115287752633   # 1 - e^{-0.6}(1 + 0.6 + 0.18)
BOUND_3_02 = 0.03701032264507643     # (0.2 e)^3 / sqrt(6 pi)


def test_cube_sample_moments():
    batch = sample_uniform(BodyFamily.cube(), 4, 60_000, seed=5)
    pts = batch.points
    assert pts.shape == (60_000, 4)
    assert np.all((pts >= 0.0) & (pts <= 1.0))
    assert np.allclose(pts.mean(axis=0), 0.5, atol=0.01)
    assert np.allclose(pts.var(axis=0), 1.0 / 12.0, atol=0.005)


def test_simplex_sample_support():
    omega = unit_volume_radius("simplex", 5)
    pts = sample_uniform(BodyFamily.simplex(), 5, 20_000, seed=5).points
    assert np.all(pts >= 0.0)
    assert np.allclose(pts.sum(axis=1), omega, atol=1e-9)
    # coordinates are exchangeable: each mean is omega/5
    assert np.allclose(pts.mean(axis=0), omega / 5.0, atol=0.01)


@pytest.mark.parametrize("family,p", [(BodyFamily.ball(), 2.0),
                                      (BodyFamily.lp(1.0), 1.0),
                                      (BodyFamily.lp(1.5), 1.5)])
def test_lp_sample_support_and_radial_law(family, p):
    n = 4
    omega = unit_volume_radius("lp", n, p)
    pts = sample_uniform(family, n, 40_000, seed=9).points
    norms = np.sum(np.abs(pts) ** p, axis=1) ** (1.0 / p)
    assert np.all(norms <= omega * (1.0 + 1e-12))
    # uniformity in the body means P(||x||_p <= r omega) = r^n
    for r in (0.5, 0.8):
        frac = np.mean(norms <= r * omega)
        assert frac == pytest.approx(r ** n, abs=0.01)
    # sign symmetry coordinatewise
    assert np.abs(pts.mean(axis=0)).max() < 0.01


def test_sampling_is_deterministic_and_seed_sensitive():
    a = sample_uniform(BodyFamily.ball(), 3, 5000, seed=1).points
    b = sample_uniform(BodyFamily.ball(), 3, 5000, seed=1).points
    c = sample_uniform(BodyFamily.ball(), 3, 5000, seed=2).points
    assert np.array_equal(a, b) and not np.array_equal(a, c)


def test_estimate_cap_volume_matches_betainc():
    exact = oracles.lp_tail_betainc(0.2, 2.0, 3)
    est = estimate_cap_volume(BodyFamily.ball(), 3, 0.2, 60_000, seed=21)
    assert abs(est.estimate - exact) <= est.half_width_95 + 1e-3


def test_t_map_basics():
    x = np.array([1.0, 3.0])
    assert np.allclose(t_map(x), [0.25, 0.75])
    pts = np.array([[2.0, 2.0], [1.0, 0.0]])
    assert np.allclose(t_map(pts).sum(axis=1), 1.0)
    with pytest.raises(DomainError):
        t_map(np.array([-1.0, 2.0]))
    with pytest.raises(DomainError):
        t_map(np.array([0.0, 0.0]))


def test_t_map_jacobian_against_finite_differences(rng):
    h = 1e-6
    for _ in range(50):
        x = rng.uniform(0.1, 3.0, 5)
        jex = t_map_jacobian(x)
        jfd = np.empty((5, 5))
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            jfd[i] = (t_map(x + e) - t_map(x - e)) / (2.0 * h)
        assert np.max(np.abs(jfd - jex)) < 1e-7
        assert np.linalg.norm(jex, 2) <= t_map_opnorm_bound(x) * (1.0 + 1e-12)


def test_t_map_lipschitz_check_passes(rng):
    pts = rng.exponential(1.0, (300, 6))
    chk = t_map_lipschitz_check(pts)
    assert chk.ok and chk.count == 300
    assert chk.max_excess <= 1e-6
    assert chk.max_fd_error < 1e-6


def test_t_map_lipschitz_check_coordinate_below_step():
    # the first coordinate is below the 1e-6 difference step
    chk = t_map_lipschitz_check(np.array([1e-9, 0.7, 1.3, 0.2]))
    assert chk.ok and chk.count == 1
    assert chk.max_fd_error < 1e-9


def test_t_map_lipschitz_check_rejects_points_off_the_orthant():
    with pytest.raises(DomainError):
        t_map_lipschitz_check(np.array([-0.1, 0.7, 1.3]))
    with pytest.raises(DomainError):
        t_map_lipschitz_check(np.zeros(3))


def test_cutoff_plateau_values():
    # c1 = 1, n = 4: h1 = clip(2 - 2 ||x||_2, 0, 1)
    inside = np.full(4, 0.2)     # norm 0.4 < 1/2
    mid = np.full(4, 0.375)      # norm 0.75
    outside = np.full(4, 0.6)    # norm 1.2 > 1
    assert cutoff_h1(inside, 1.0) == 1.0
    assert cutoff_h1(mid, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert cutoff_h1(outside, 1.0) == 0.0
    # c2 = 1, n = 4: h2 = clip(||x||_1/4 - 1, 0, 1)
    assert cutoff_h2(np.full(4, 2.5), 1.0) == 1.0
    assert cutoff_h2(np.full(4, 1.5), 1.0) == pytest.approx(0.5, abs=1e-12)
    assert cutoff_h2(np.full(4, 0.5), 1.0) == 0.0


def test_cutoff_gradient_check_clean_cloud(rng):
    # radii spread across both active bands and the plateaus
    n = 8
    u = rng.exponential(1.0, (400, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = 10.0 ** rng.uniform(math.log10(0.05 / math.sqrt(n)),
                            math.log10(4.0 * math.sqrt(n)), (400, 1))
    pts = r * u
    chk = cutoff_gradient_check(pts, 1.0, 1.0)
    assert chk.ok
    assert chk.plateau_violations == 0 and chk.gradient_violations == 0

    prod = cutoff_product_check(pts[:100], 1.0, 1.0)
    assert prod.ok and prod.gradient_violations == 0


def test_cutoff_near_kink_points_are_skipped():
    n = 4
    x = np.full(n, (1.0 / math.sqrt(n)) / 2.0)  # ||x||_2 = 1/2 exactly: h1 kink
    chk = cutoff_gradient_check(x[None, :], 1.0, 1.0)
    assert chk.skipped_near_kink == 1
    assert chk.ok


def _spread(rng, m, n):
    """Unit directions in the orthant times log-uniform radii that span
    both cutoff bands and their plateaus."""
    u = rng.exponential(1.0, (m, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    lo, hi = math.log10(0.1 / math.sqrt(n)), math.log10(4.0 * math.sqrt(n))
    return 10.0 ** rng.uniform(lo, hi, (m, 1)) * u


def _assert_tmap_matches_pointwise(pts):
    chk = t_map_lipschitz_check(pts)
    count, excess, fd_err = oracles.t_map_check_pointwise(np.atleast_2d(pts))
    assert chk.count == count
    assert chk.max_excess == pytest.approx(excess, rel=1e-12, abs=0.0)
    assert chk.max_fd_error == pytest.approx(fd_err, rel=1e-12, abs=0.0)
    assert chk.ok == (excess <= 1e-6)


def _assert_cutoffs_match_pointwise(pts, c1, c2):
    rows = np.atleast_2d(pts)
    cut = cutoff_gradient_check(pts, c1, c2)
    assert (cut.count, cut.skipped_near_kink, cut.plateau_violations,
            cut.gradient_violations) == oracles.cutoff_check_pointwise(rows, c1, c2)
    prod = cutoff_product_check(pts, c1, c2)
    assert (prod.count, prod.skipped_near_kink, prod.gradient_violations) \
        == oracles.cutoff_product_pointwise(rows, c1, c2)
    return cut, prod


@pytest.mark.parametrize("n", range(2, 31))
def test_lemma_checks_match_pointwise_oracles(n):
    rng = np.random.default_rng(1000 + n)
    _assert_tmap_matches_pointwise(rng.exponential(1.0, (25, n)))
    pts = _spread(rng, 25, n)
    for c1, c2 in ((1.0, 1.0), (0.8, 1.25)):
        _assert_cutoffs_match_pointwise(pts, c1, c2)


def test_lemma_checks_single_point_and_coordinate_below_step(rng):
    x = _spread(rng, 1, 7)[0]
    _assert_tmap_matches_pointwise(x)
    _assert_cutoffs_match_pointwise(x, 1.0, 1.0)
    tiny = np.array([1e-9, 0.7, 1.3, 0.2])   # first coordinate below h = 1e-6
    _assert_tmap_matches_pointwise(tiny)
    _assert_tmap_matches_pointwise(np.vstack([tiny, x[:4]]))
    _assert_cutoffs_match_pointwise(np.vstack([tiny, 2.0 * tiny]), 1.0, 1.0)


def test_cutoff_checks_skip_every_kink_sphere():
    # n = 4, c1 = c2 = 1: the unit vector u has ||u||_1 = 2, so 0.5u and u
    # sit on the h1 kinks (||x||_2 = 1/2, 1) and 2u, 4u on the h2 kinks
    # (||x||_1 = 4, 8), all exactly
    u = np.full(4, 0.5)
    pts = np.array([0.5, 1.0, 2.0, 4.0])[:, None] * u
    cut, prod = _assert_cutoffs_match_pointwise(pts, 1.0, 1.0)
    assert cut.skipped_near_kink == prod.skipped_near_kink == 4
    assert cut.ok and prod.ok


def test_cutoff_checks_on_both_plateaus(rng):
    n = 9
    u = rng.exponential(1.0, (40, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    # ||x||_2 <= 0.3/3 gives h1 = 1 and h2 = 0; ||x||_2 >= 2n gives h1 = 0, h2 = 1
    pts = np.vstack([0.1 * rng.uniform(0.1, 1.0, (20, 1)) * u[:20],
                     2.0 * n * rng.uniform(1.0, 3.0, (20, 1)) * u[20:]])
    assert set(cutoff_h1(pts[:20], 1.0)) == {1.0} and set(cutoff_h2(pts[:20], 1.0)) == {0.0}
    assert set(cutoff_h1(pts[20:], 1.0)) == {0.0} and set(cutoff_h2(pts[20:], 1.0)) == {1.0}
    cut, prod = _assert_cutoffs_match_pointwise(pts, 1.0, 1.0)
    assert cut.skipped_near_kink == 0 and cut.ok and prod.ok


def test_cutoff_checks_skip_a_cloud_all_near_kinks(rng):
    n = 6
    u = rng.exponential(1.0, (30, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    # ||x||_2 within 5e-5 relative of the inner h1 kink 1/sqrt(n)
    pts = (1.0 + rng.uniform(-5e-5, 5e-5, (30, 1))) / math.sqrt(n) * u
    cut, prod = _assert_cutoffs_match_pointwise(pts, 1.0, 1.0)
    assert cut.skipped_near_kink == prod.skipped_near_kink == 30
    assert cut.gradient_violations == prod.gradient_violations == 0
    assert cut.ok and prod.ok


def test_t_map_jacobian_and_bound_stack_row_by_row(rng):
    pts = rng.exponential(1.0, (12, 5))
    jac, bound = t_map_jacobian(pts), t_map_opnorm_bound(pts)
    assert jac.shape == (12, 5, 5) and bound.shape == (12,)
    for x, j, b in zip(pts, jac, bound):
        one = t_map_jacobian(x)
        assert isinstance(one, np.ndarray) and one.shape == (5, 5)
        assert np.array_equal(one, j)
        assert type(t_map_opnorm_bound(x)) is float
        assert t_map_opnorm_bound(x) == b


def test_exp_tail_frozen_numbers():
    chk = exp_tail_check(3, 0.2, 50_000, seed=13)
    assert chk.erlang == pytest.approx(ERLANG_3_AT_06, abs=1e-12)
    assert chk.bound == pytest.approx(BOUND_3_02, abs=1e-12)
    assert chk.erlang == pytest.approx(oracles.erlang_cdf_series(3, 0.6), abs=1e-12)
    assert chk.erlang < chk.bound
    assert chk.ok


def test_exp_tail_erlang_below_bound_wide_sweep():
    for n in range(1, 21):
        for alpha in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35):
            chk = exp_tail_check(n, alpha, 100, seed=1)
            assert chk.erlang <= chk.bound * (1.0 + 1e-12), (n, alpha)
            assert chk.erlang == pytest.approx(
                oracles.erlang_cdf_series(n, alpha * n), rel=1e-10, abs=1e-300)


def test_exp_tail_mc_tracks_erlang():
    for n, alpha in ((1, 0.5), (5, 0.8), (10, 0.9)):
        chk = exp_tail_check(n, alpha, 100_000, seed=3)
        assert chk.ok, (n, alpha, chk)


def test_sample_gaussian_density_scale():
    pts = sample_gaussian(3, 80_000, seed=4)
    # density exp(-pi ||x||^2) has coordinate variance 1/(2 pi)
    assert np.allclose(pts.var(axis=0), 1.0 / (2.0 * math.pi), atol=0.005)


def test_gaussian_to_cube_map_range_and_lipschitz(rng):
    pts = rng.normal(0.0, 0.5, (2000, 6))
    mapped = gaussian_to_cube_map(pts)
    assert np.all((mapped > 0.0) & (mapped < 1.0))
    other = rng.normal(0.0, 0.5, (2000, 6))
    num = np.linalg.norm(gaussian_to_cube_map(other) - mapped, axis=1)
    den = np.linalg.norm(other - pts, axis=1)
    assert np.max(num / den) <= 1.0 + 1e-12


def test_transfer_map_check_passes():
    chk = transfer_map_check(8, 20_000, seed=6)
    assert chk.ok
    assert chk.min_ks_pvalue > 0.01
    assert chk.max_direction_ratio <= 1.0 + 1e-6


def test_average_distance_n1_and_second_moment():
    res = average_distance_experiment(1, 200_000, seed=8)
    assert abs(res.mean_distance.estimate - 1.0 / 3.0) <= res.mean_distance.half_width_95
    x = sample_uniform(BodyFamily.cube(), 5, 100_000, seed=14).points
    y = sample_uniform(BodyFamily.cube(), 5, 100_000, seed=15).points
    sq = np.sum((x - y) ** 2, axis=1)
    assert sq.mean() == pytest.approx(5.0 / 6.0, abs=0.01)


def test_sample_interval_needs_two_values():
    # one value has no sample deviation: std(ddof=1) would be NaN
    for values in ([], [0.5]):
        with pytest.raises(DomainError):
            EstimateWithCI.from_samples(np.array(values))
    est = EstimateWithCI.from_samples(np.array([1.0, 3.0]))
    assert (est.estimate, est.count) == (2.0, 2)
    assert est.half_width_95 == pytest.approx(1.96)


def test_average_distance_bound_high_dimension():
    res = average_distance_experiment(50, 50_000, seed=9)
    assert res.lower_bound == pytest.approx(math.sqrt(50.0 / (2 * math.pi * math.e)), rel=1e-14)
    assert res.ok
    assert res.mean_distance.estimate > res.lower_bound
