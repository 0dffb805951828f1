import ast
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

import oracles
import isodist.montecarlo
from isodist import (BodyFamily, DomainError, EstimateWithCI, average_distance_experiment,
                     cutoff_gradient_check, cutoff_product_check,
                     estimate_cap_volume, exp_tail_check, phi, sample_uniform,
                     t_map_lipschitz_check, transfer_map_check, unit_volume_radius)
from isodist.montecarlo import (FD_STEP, _cloud_cutoffs, _fill_for, _gaussian_fill, _t,
                                _t_differences, _t_norms)
from isodist.rng import DEFAULT_CHUNK, generate


def _h(x, c1, c2):
    """h1, h2 and their levels a, b for each row of x."""
    return _cloud_cutoffs(x, c1, c2)[2:]


def _full_jacobian(x):
    """The (m, n, n) exact Jacobians (delta_ij - T_j(x)) / ||x||_1 of the rows."""
    s = x.sum(axis=1)[:, None, None]
    return (np.eye(x.shape[1]) - x[:, None, :] / s) / s

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
    omega = unit_volume_radius(BodyFamily.simplex(), 5)
    pts = sample_uniform(BodyFamily.simplex(), 5, 20_000, seed=5).points
    assert np.all(pts >= 0.0)
    assert np.allclose(pts.sum(axis=1), omega, atol=1e-9)
    # coordinates are exchangeable: each mean is omega/5
    assert np.allclose(pts.mean(axis=0), omega / 5.0, atol=0.01)


@pytest.mark.parametrize("family,p", [(BodyFamily.ball(), 2.0),
                                      (BodyFamily.lp(1.0), 1.0),
                                      (BodyFamily.lp(1.5), 1.5),
                                      (BodyFamily.lp(1.9), 1.9)])
def test_lp_sample_support_and_radial_law(family, p):
    for n in (1, 3, 4, 50, 400):
        count = 40_000 if n < 400 else 10_000
        omega = unit_volume_radius(BodyFamily.lp(p), n)
        pts = sample_uniform(family, n, count, seed=9).points
        norms = np.sum(np.abs(pts) ** p, axis=1) ** (1.0 / p)
        assert np.all(norms <= omega * (1.0 + 1e-12)), n
        # uniformity in the body means P(||x||_p <= r omega) = r^n
        for r in (0.5, 0.8):
            frac = np.mean(norms <= r * omega)
            assert frac == pytest.approx(r ** n, abs=0.01), n

        def within_5se(frac, want):
            assert abs(frac - want) <= 5.0 * math.sqrt(want * (1.0 - want) / count), n

        # the same law at radii where r^n is not near 0 or 1
        for q in (0.25, 0.75):
            within_5se(np.mean(norms <= q ** (1.0 / n) * omega), q)
        # caps at heights on the scale omega n^{-1/p} of one coordinate
        for c in (0.1, 0.3, 0.6):
            a = c * omega * n ** (-1.0 / p)
            within_5se(np.mean(pts[:, 0] >= a), oracles.lp_tail_betainc(a, p, n))
        # sign symmetry coordinatewise
        assert np.abs(pts.mean(axis=0)).max() < 0.01, n
        if n == 1:
            assert omega == pytest.approx(0.5, rel=1e-15)
            assert stats.kstest(pts[:, 0], "uniform", args=(-0.5, 1.0)).pvalue >= 1e-3


def test_estimate_cap_volume_rejects_non_finite_height():
    for a in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(DomainError):
            estimate_cap_volume(BodyFamily.ball(), 3, a, 100, seed=1)


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
    assert np.allclose(_t(np.array([[1.0, 3.0]]), np.array([4.0])), [[0.25, 0.75]])
    pts = np.array([[2.0, 2.0], [1.0, 0.0]])
    assert np.allclose(_t(pts, pts.sum(axis=1)).sum(axis=1), 1.0)
    with pytest.raises(DomainError):
        t_map_lipschitz_check(np.array([-1.0, 2.0]))
    with pytest.raises(DomainError):
        t_map_lipschitz_check(np.array([0.0, 0.0]))


def test_t_map_jacobian_against_finite_differences(rng):
    h = 1e-6
    for _ in range(50):
        x = rng.uniform(0.1, 3.0, (1, 5))
        jex = _full_jacobian(x)[0]
        jfd = np.empty((5, 5))
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            up, down = x + e, x - e
            jfd[i] = (_t(up, up.sum(axis=1)) - _t(down, down.sum(axis=1)))[0] / (2.0 * h)
        assert np.max(np.abs(jfd - jex)) < 1e-7
        assert np.linalg.norm(jex, 2) <= _t_norms(x, x.sum(axis=1))[1][0] * (1.0 + 1e-12)
    # DT(x) = (I - 1 T^T)/||x||_1 is an oblique projection over ||x||_1, so its
    # 2-norm is sqrt(n) ||T||_2 / ||x||_1 for n >= 2, and exactly 0 at n = 1
    for n in (1, 2, 7, 50):
        for k in (-1000, 0, 1000):
            x = np.ldexp(rng.exponential(1.0, (1, n)), k)
            svd = np.linalg.norm(_full_jacobian(x)[0], 2)
            closed = _t_norms(x, x.sum(axis=1))[0][0]
            if n == 1:
                assert svd == closed == 0.0
            else:
                assert closed == math.sqrt(n) * np.linalg.norm(_t(x, x.sum(axis=1))) / x.sum()
                assert svd == pytest.approx(closed, rel=1e-14, abs=0.0)


def test_t_map_lipschitz_check_passes(rng):
    pts = rng.exponential(1.0, (300, 6))
    chk = t_map_lipschitz_check(pts)
    assert chk.ok and chk.count == 300
    assert chk.max_excess <= 1e-6
    assert chk.max_fd_error < 1e-6


@pytest.mark.parametrize("n", [1, 2, 7, 50, 400])
def test_t_map_excess_is_zero_wherever_the_check_passes(n):
    # the exact norm over the bound is r/(1 + r) < 1 with r = sqrt(n) ||T||_2,
    # so once the differences match J the excess is floored at 0, for every
    # n below about 1e10.  At scales like 2^60 and 1e-300 the differences are
    # lost and the check fails, with a positive excess from n = 2 on
    rng = np.random.default_rng(n)
    clouds = [np.ldexp(rng.exponential(1.0, (8, n)), k) for k in (-60, -10, 0, 10, 60)]
    clouds += [np.eye(n)[:1], np.ones((1, n)), np.full((1, n), 1e-300)]
    passed = 0
    for pts in clouds:
        chk = t_map_lipschitz_check(pts)
        if chk.ok:
            passed += 1
            assert chk.max_excess == 0.0
    assert passed >= 4


def test_t_map_lipschitz_check_coordinate_below_step():
    # the first coordinate is below the 1e-6 difference step
    chk = t_map_lipschitz_check(np.array([1e-9, 0.7, 1.3, 0.2]))
    assert chk.ok and chk.count == 1
    assert chk.max_fd_error < 1e-9


def test_t_map_lipschitz_check_fails_where_differences_are_meaningless():
    # a shifted row's sum drops to or below 0, so the differences are far
    # from the exact Jacobian, infinite or NaN: FAIL, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in ([1e-9, 1e-9], [3e-7, 0.0], [1e-300, 1e-300], [5e-7, 5e-7, 0.0],
                  [1e-6, 0.0], [1e-310, 1e-310]):
            assert not t_map_lipschitz_check(np.array(x)).ok
        # at a subnormal row sum N and B overflow together: an infinite excess, not NaN
        assert t_map_lipschitz_check(np.array([1e-310, 1e-310])).max_excess == math.inf
        # a shifted row's sum of 0 makes E NaN: both fields read inf, not NaN
        for x in ([1e-6, 0.0], [5e-7, 5e-7, 0.0]):
            chk = t_map_lipschitz_check(np.array(x))
            assert chk.max_excess == chk.max_fd_error == math.inf
        # the step is lost against 1e300 and swamps 1e-300, so E is the exact
        # Jacobian's Frobenius norm 1/||x||_1, whose squares would under- and
        # overflow unscaled
        for x, fd_err in (([1e300, 1e300], 5e-301), ([1e-300, 1e-300], 5e299)):
            chk = t_map_lipschitz_check(np.array(x))
            assert not chk.ok
            assert chk.max_fd_error == pytest.approx(fd_err, rel=1e-12, abs=0.0)
    # at [3e-7, 0] the excess, about 0.23, carries the exact norm as well as E
    _assert_tmap_matches_pointwise(np.array([3e-7, 0.0]))


def test_t_map_lipschitz_check_rejects_points_off_the_orthant():
    with pytest.raises(DomainError):
        t_map_lipschitz_check(np.array([-0.1, 0.7, 1.3]))
    with pytest.raises(DomainError):
        t_map_lipschitz_check(np.zeros(3))


def test_t_map_rejects_nan_negative_and_zero_sum_rows():
    # a NaN compares false both ways, so only the positive-form checks catch
    # it; the last row's sum overflows to inf although each coordinate is finite
    good = [1.0, 2.0, 3.0]
    for bad in ([math.nan, 1.0, 2.0], [math.inf, 1.0, 2.0], [-math.inf, 1.0, 2.0],
                [-1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [1e308, 1e308, 1.0]):
        for points in (np.array(bad), np.array([good, bad])):
            with pytest.raises(DomainError):
                t_map_lipschitz_check(points)


# every function that takes a point cloud, with valid constants where it takes any
CLOUD_FUNCTIONS = {
    "t_map_lipschitz_check": t_map_lipschitz_check,
    "cutoff_gradient_check": lambda x: cutoff_gradient_check(x, 1.0, 1.0),
    "cutoff_product_check": lambda x: cutoff_product_check(x, 1.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(CLOUD_FUNCTIONS))
def test_cloud_functions_reject_non_finite_and_misshapen_clouds(name):
    fn = CLOUD_FUNCTIONS[name]
    good = np.array([[1.0, 2.0, 3.0], [0.5, 0.25, 0.125]])
    fn(good)
    for v in (math.nan, math.inf, -math.inf):
        bad = good.copy()
        bad[1, 2] = v
        for points in (bad, bad[1]):
            with pytest.raises(DomainError):
                fn(points)
    for points in (np.ones((2, 2, 3)), np.ones((3, 0)), np.ones(0)):
        with pytest.raises(DomainError):
            fn(points)


# each constant in every form the validator's scalar path reads as a float
# (Python int, numpy scalar, bool) or its array path reads as one (0-d
# array, numeric string)
@pytest.mark.parametrize("c", [math.nan, math.inf, 0.0, -1.0] + [
    pytest.param(c, id=f"{type(c).__name__}-{c}")
    for c in (0, -2, np.float64(math.nan), np.int64(0), np.float32(-1.0), np.array(0.0),
              np.array(math.inf), False, "0", "-1.5", "nan")])
def test_cutoffs_reject_bad_constants(c):
    pts = np.array([[0.1, 0.2], [1.0, 2.0]])
    for call in (lambda: cutoff_gradient_check(pts, c, 1.0),
                 lambda: cutoff_gradient_check(pts, 1.0, c),
                 lambda: cutoff_product_check(pts, c, 1.0),
                 lambda: cutoff_product_check(pts, 1.0, c)):
        with pytest.raises(DomainError, match="c1 and c2 must lie in"):
            call()


@pytest.mark.parametrize("c", [1, np.int64(1), np.float64(1.0), np.float32(1.0),
                               np.array(1.0), True, "1.0", " 1e0 "],
                         ids=lambda c: f"{type(c).__name__}-{c}")
def test_cutoffs_read_every_real_form_of_a_constant(c):
    pts = _spread(np.random.default_rng(4), 40, 5)
    for check in (cutoff_gradient_check, cutoff_product_check):
        want = check(pts, 1.0, 1.0)
        assert check(pts, c, 1.0) == check(pts, 1.0, c) == want
    for fn in (isodist.montecarlo._validate_open_interval, isodist.bodies._validate_open_interval):
        assert type(fn(c, 0.0, math.inf, "c")) is float


def test_cutoff_constants_are_scalars():
    # one constant per row would broadcast against the cloud's norms
    pts = _spread(np.random.default_rng(5), 2, 3)
    for check in (cutoff_gradient_check, cutoff_product_check):
        for c in (np.array([1.0, 2.0]), [1.0, 2.0], np.array([1.0])):
            with pytest.raises(TypeError):
                check(pts, c, 1.0)
            with pytest.raises(TypeError):
                check(pts, 1.0, c)


def test_clouds_are_read_in_one_place():
    """montecarlo._cloud is the only code that shapes a cloud (the only
    np.atleast_2d), and every function of CLOUD_FUNCTIONS calls it."""
    path = pathlib.Path(isodist.montecarlo.__file__)
    shaping, intake = [], []
    for top in ast.parse(path.read_text(), str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                owner = getattr(top, "name", "<module>")
                if name == "np.atleast_2d":
                    shaping.append(owner)
                elif name == "_cloud":
                    intake.append(owner)
    assert shaping == ["_cloud"]
    assert sorted(intake) == sorted(CLOUD_FUNCTIONS)


def test_cutoff_plateau_values():
    # c1 = 1, n = 4: h1 = clip(2 - 2 ||x||_2, 0, 1), at norms 0.4 < 1/2, 0.75
    # and 1.2 > 1
    h1 = _h(np.array([[0.2], [0.375], [0.6]]) * np.ones(4), 1.0, 1.0)[0]
    assert h1[0] == 1.0 and h1[1] == pytest.approx(0.5, abs=1e-12) and h1[2] == 0.0
    # c2 = 1, n = 4: h2 = clip(||x||_1/4 - 1, 0, 1)
    h2 = _h(np.array([[2.5], [1.5], [0.5]]) * np.ones(4), 1.0, 1.0)[1]
    assert h2[0] == 1.0 and h2[1] == pytest.approx(0.5, abs=1e-12) and h2[2] == 0.0


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


def _fd_allowance(x):
    """The rounding allowance 16 2^-52 (||x||_1/h) (x_j + h delta_ij)/||x||_1^2
    on entry (i, j) of T's central differences at x, for n <= 50 and
    ||x||_1 well above h: the package's differences and the oracle's shifted
    rows round apart by at most that much.

    Entry (i, j) is a difference of two T values over 2h, each T value a
    quotient by the sum of a shifted row, about x_j/||x||_1 off the diagonal
    and (x_i +- h)/||x||_1 on it.  numpy sums a row of n <= 50 coordinates in
    at most 8 partial sums, so that sum is off by at most about 8 2^-53 of
    ||x||_1 and the quotient by 9 2^-53 of its value; the radial sum
    ||x||_1 + ((x_i + h) - x_i) adds one more rounding.  Both values of both
    sides, over 2h, give at most about 20 2^-53 (x_j + h delta_ij)/(||x||_1 h),
    that is 10 2^-52 (||x||_1/h) times the entry scale (x_j + h delta_ij)/
    ||x||_1^2 of J; 16 leaves a margin.  Measured: at most 2.1 on exponential,
    rescaled and spread points at n = 2 to 50.
    """
    n, s = x.size, x.sum()
    return 16.0 * 2.0**-52 * (s / FD_STEP) * (x[None, :] + FD_STEP * np.eye(n)) / s**2


def _assert_tmap_matches_pointwise(pts):
    chk = t_map_lipschitz_check(pts)
    rows = np.atleast_2d(pts)
    count, excess, fd_err, _, fd_ok = oracles.t_map_check_pointwise(rows)
    assert chk.count == count
    assert chk.max_excess == pytest.approx(excess, rel=1e-12, abs=0.0)
    assert chk.ok == (excess <= 1e-6 and fd_ok)
    # E against the same differences written out entry by entry, and within
    # the rounding allowance of the differences of every shifted row
    radial, spectral = oracles.t_map_fd_radial(rows)
    assert chk.max_fd_error == pytest.approx(radial, rel=1e-12, abs=0.0)
    allow = max((np.linalg.norm(_fd_allowance(x)) for x in rows), default=0.0)
    assert abs(chk.max_fd_error - fd_err) <= allow
    # the Frobenius norm lies between the 2-norm and sqrt(n) times it; the
    # 1e-12 allows for rounding where the error matrix has rank one
    n = rows.shape[1]
    assert spectral * (1.0 - 1e-12) <= chk.max_fd_error
    assert chk.max_fd_error <= math.sqrt(n) * spectral * (1.0 + 1e-12)


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


def _edge_clouds():
    """Clouds at the edges of the checks' lean paths, each with the cutoff
    constants (c1, c2) it is checked at."""
    rng = np.random.default_rng(77)
    n = 50
    rows = isodist.montecarlo._FD_ENTRIES // n
    spread = _spread(rng, 30, 6)
    # both slopes at once need n < 2 c2/c1: at n = 6, c2 = 9 and
    # c1 sqrt(n) = 3, h2's levels 1.1-1.9 put most of h1's in (1, 2) too
    u = rng.uniform(0.5, 1.5, (30, 6))
    both = u / u.sum(axis=1, keepdims=True) * 6.0 * rng.uniform(1.1, 1.9, (30, 1)) / 9.0
    return {
        "empty": (np.empty((0, 4)), [(0.8, 1.25)]),
        "one 1-D point": (np.abs(spread[0]), [(1.0, 1.0), (0.8, 1.25)]),
        "n = 1": (rng.exponential(1.0, (25, 1)), [(1.0, 1.0), (0.8, 1.25)]),
        "column-major": (np.asfortranarray(np.abs(spread)), [(1.0, 1.0), (0.8, 1.25)]),
        "two of T's blocks": (rng.exponential(1.0, (rows + 7, n)), [(1.0, 1.0)]),
        "off h2's slope": (0.05 * spread, [(1.0, 1.0), (0.8, 1.25)]),
        "on both slopes": (both, [(3.0 / math.sqrt(6.0), 9.0)]),
    }


@pytest.mark.parametrize("name", sorted(_edge_clouds()))
def test_lemma_checks_match_pointwise_oracles_on_edge_clouds(name):
    pts, constants = _edge_clouds()[name]
    _assert_tmap_matches_pointwise(pts)
    rows = np.atleast_2d(pts)
    for c1, c2 in constants:
        a, b = _h(np.ascontiguousarray(rows), c1, c2)[2:]
        on2 = (1.0 < b) & (b < 2.0)
        if name == "off h2's slope":
            assert not on2.any()
        elif name == "on both slopes":
            assert np.count_nonzero((1.0 < a) & (a < 2.0) & on2) >= 10
        _assert_cutoffs_match_pointwise(pts, c1, c2)
    if name == "two of T's blocks":
        assert len(rows) > isodist.montecarlo._FD_ENTRIES // rows.shape[1]


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
    # no gradient norm is kept, and the three still come out empty
    _, *grads = _gradients(pts, 1.0, 1.0)
    assert [g.shape for g in grads] == [(0,)] * 3


def test_cutoff_checks_reject_overflowing_norms():
    # |x|^2 overflows past about 1.3e154: ||x||_2 would read inf, and with
    # c1 = 1e-170 the level 3e-10 would read inf, h1 0 in place of 1
    for pts in (np.full((1, 3), 1e160), np.array([[1.0, 2.0], [2e154, 0.0]])):
        for check in (cutoff_gradient_check, cutoff_product_check):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="squared norm"):
                    check(pts, 1e-170, 1.0)
    # just inside the float range the norm is finite and h1 is 1
    ok = np.full((1, 3), 1e153)
    assert _h(ok, 1e-170, 1.0)[0][0] == 1.0
    assert cutoff_gradient_check(ok, 1e-170, 1.0).ok


def test_cutoff_levels_past_the_float_range():
    # c1 sqrt(n) ||x||_2 and c2 ||x||_1 / n overflow for finite norms; inf is
    # on the plateau of the exact level, h1 = 0 and h2 = 1
    for pts, c1, c2 in ((np.ones((3, 4)), 1e308, 1e308),
                        (np.full((2, 4), 1e10), 1e300, 1e300)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v1, v2, a, b = _cloud_cutoffs(pts, c1, c2)[2:]
            cut = cutoff_gradient_check(pts, c1, c2)
            prod = cutoff_product_check(pts, c1, c2)
        assert np.all(a == math.inf) and np.all(b == math.inf)
        assert np.all(v1 == 0.0) and np.all(v2 == 1.0)
        assert cut.ok and cut.plateau_violations == 0 and prod.ok


def test_cutoff_checks_hold_at_the_origin_past_the_float_range():
    # c1 sqrt(n) = inf: the origin's level must read 0, not inf * 0 = NaN,
    # and the h1 thresholds 1/(c1 sqrt(n)), 2/(c1 sqrt(n)) must stay above 0
    pts = np.vstack([np.ones((3, 4)), np.zeros(4)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v1, a = _cloud_cutoffs(pts, 1e308, 1e308)[2:5:2]
        cut = cutoff_gradient_check(pts, 1e308, 1e308)
        prod = cutoff_product_check(pts, 1e308, 1e308)
    assert a.tolist() == [math.inf] * 3 + [0.0] and v1.tolist() == [0.0] * 3 + [1.0]
    assert cut.ok and cut.plateau_violations == 0 and cut.gradient_violations == 0
    assert prod.ok and prod.gradient_violations == 0


def test_cutoff_checks_on_both_plateaus(rng):
    n = 9
    u = rng.exponential(1.0, (40, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    # ||x||_2 <= 0.3/3 gives h1 = 1 and h2 = 0; ||x||_2 >= 2n gives h1 = 0, h2 = 1
    pts = np.vstack([0.1 * rng.uniform(0.1, 1.0, (20, 1)) * u[:20],
                     2.0 * n * rng.uniform(1.0, 3.0, (20, 1)) * u[20:]])
    for part, want in ((pts[:20], [1.0, 0.0]), (pts[20:], [0.0, 1.0])):
        v1, v2 = _h(part, 1.0, 1.0)[:2]
        assert [set(v1), set(v2)] == [{want[0]}, {want[1]}]
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
    # the norm, the bound and the differences of each row are those it has alone
    pts = rng.exponential(1.0, (12, 5))
    parts = _t_norms(pts, pts.sum(axis=1)) + _t_differences(pts, pts.sum(axis=1))
    assert [p.shape for p in parts] == [(12,)] * 2 + [(12, 1)] + [(12, 5)] * 2
    for i, x in enumerate(pts):
        y = x[None]
        single = _t_norms(y, y.sum(axis=1)) + _t_differences(y, y.sum(axis=1))
        for whole, alone in zip(parts, single):
            assert np.array_equal(alone, whole[i:i + 1])


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


@pytest.mark.parametrize("alpha", [math.inf, math.nan, 0.0, -1.0])
def test_exp_tail_rejects_bad_alpha(alpha):
    with pytest.raises(DomainError):
        exp_tail_check(3, alpha, 100, 1)


def test_exp_tail_bound_past_the_float_range():
    # (3e)^300 is about 1e273; (3e)^400 overflows, and the bound reads inf
    for n, finite in ((300, True), (400, False)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chk = exp_tail_check(n, 3.0, 10, 0)
        assert math.isfinite(chk.bound) == finite
        assert chk.bound_ok and chk.ok
    assert chk.bound == math.inf and chk.erlang == pytest.approx(1.0)


def test_exp_tail_mc_tracks_erlang():
    for n, alpha in ((1, 0.5), (5, 0.8), (10, 0.9)):
        chk = exp_tail_check(n, alpha, 100_000, seed=3)
        assert chk.ok, (n, alpha, chk)


def test_sample_gaussian_density_scale():
    # the transfer check's cloud
    pts = generate(4, "gaussian-3", 80_000, _gaussian_fill(3))
    # density exp(-pi ||x||^2) has coordinate variance 1/(2 pi)
    assert np.allclose(pts.var(axis=0), 1.0 / (2.0 * math.pi), atol=0.005)


def test_gaussian_to_cube_map_range_and_lipschitz(rng):
    # the transfer is phi taken coordinatewise
    pts = rng.normal(0.0, 0.5, (2000, 6))
    mapped = phi(pts)
    assert np.all((mapped > 0.0) & (mapped < 1.0))
    other = rng.normal(0.0, 0.5, (2000, 6))
    num = np.linalg.norm(phi(other) - mapped, axis=1)
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


# ---------------------------------------------------------------- batched kernels

@pytest.mark.parametrize("n", [1, 2, 7, 50])
def test_central_diff_is_the_pointwise_loop(n):
    # J_fd rebuilt entry by entry from _t_differences' alpha and beta against
    # the oracle's differences of every shifted row, within _fd_allowance:
    # exponential points at scales 2^-10, 1 and 2^30, and a coordinate below
    # the step.  At n = 1, T is 1 and both sides are exactly 0
    rng = np.random.default_rng(n)
    x = np.vstack([np.ldexp(rng.exponential(1.0, (4, n)), k) for k in (-10, 0, 30)])
    x[1, 0] = 1e-9
    e, alpha, beta = _t_differences(x, x.sum(axis=1))
    assert e.shape == (len(x), 1) and alpha.shape == beta.shape == x.shape
    for p, xp in enumerate(x):
        s, k = xp.sum(), int(e[p, 0])
        jfd = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                # 2^e (J_fd - J) is alpha_i 2^-e x_j off the diagonal, beta_i on it
                r = beta[p, i] if i == j else alpha[p, i] * math.ldexp(xp[j], -k)
                jfd[i, j] = ((i == j) - xp[j] / s) / s + math.ldexp(r, -k)
        want = oracles._fd_rows(lambda y: y / y.sum(), xp, FD_STEP)
        assert np.all(np.abs(jfd - want) <= _fd_allowance(xp)), p


def _gradients(pts, c1, c2):
    """The near-kink mask and the gradient norms of h1, h2 and h1 h2 off it."""
    mc = isodist.montecarlo
    return mc._product_gradient(pts, *mc._cloud_cutoffs(pts, c1, c2), c1, c2)


@pytest.mark.parametrize("n", [1, 2, 7, 50, 150])
def test_cutoff_gradients_match_the_shifted_rows(n):
    # the closed forms against the oracle, which differences the cutoffs of
    # every shifted row x +- h e_i: signed points, exact zeros (+0.0 and
    # -0.0, where both sides see a partial derivative of 0) and the origin.
    # Both slopes at once need n < 2 c2/c1, so the last pair of constants
    # puts some points on both, where the product's cross term is taken
    rng = np.random.default_rng(80 + n)
    pts = _spread(rng, 40, n) * rng.choice([-1.0, 1.0], (40, n))
    pts[::4, 0], pts[1::4, -1], pts[2] = 0.0, -0.0, 0.0
    sq = math.sqrt(n)
    for c1, c2 in ((1.0, 1.0), (0.8, 1.25), (1.0, 1.5 * n)):
        near, *grads = _gradients(pts, c1, c2)
        assert not near[2]
        a, b = _h(pts, c1, c2)[2:]
        if c2 > 1.25:
            assert np.any((1.0 < a) & (a < 2.0) & (1.0 < b) & (b < 2.0) & ~near)
        want = np.array([oracles._gradient_norms(x, c1, c2, 1e-6)
                         for x in pts[~near]]).reshape(-1, 3).T
        for got, ref, bound in zip(grads, want, (c1 * sq, c2 / sq, c1 * sq + c2 / sq)):
            assert np.all(np.abs(got - ref) <= 1e-7 * bound)


@pytest.mark.parametrize("n", [3, 7, 50, 150])
def test_cutoff_gradients_count_coordinates_below_the_step(n):
    # a coordinate in (0, h) counts in full in grad h2 = (c2/n) sign x, so on
    # h2's slope ||grad h2|| is (c2/n) sqrt(k) exactly, k the nonzero
    # coordinates.  The oracle's quotient sees only |x_i|/h of such a
    # coordinate and lands 0.3-24% of c2/sqrt(n) off at these points: the
    # error of the step, not of the closed form
    rng = np.random.default_rng(70 + n)
    u = rng.uniform(0.5, 1.5, (40, n)) * rng.choice([-1.0, 1.0], (40, n))
    u[::2, 0], u[1::2, -1], u[::3, n // 2] = 3e-8, -4e-8, 0.0
    for c1, c2 in ((1.0, 1.0), (0.8, 1.25)):
        level = rng.uniform(1.001, 1.999, (40, 1))
        pts = u / np.abs(u).sum(axis=1, keepdims=True) * level * n / c2
        assert np.all(np.any((pts != 0.0) & (np.abs(pts) < 1e-6), axis=1))
        near, _, g2, _ = _gradients(pts, c1, c2)
        assert not near.any()
        want = [c2 / n * math.sqrt(np.count_nonzero(x)) for x in pts]
        assert g2.tolist() == want


@pytest.mark.parametrize("n", [1, 2, 7, 50, 150, 10**5])
def test_cutoff_gradients_are_exact_on_the_slopes(n):
    # where h1 is not clipped its gradient is -c1 sqrt(n) x/||x||_2, and where
    # h2 is not clipped it is (c2/n) sign(x): with no zero coordinate both
    # norms are c1 sqrt(n) and c2/sqrt(n) to rounding, at every n
    m = min(50, 10**6 // n)
    rng = np.random.default_rng(90 + n)
    u = rng.uniform(0.5, 1.5, (m, n)) * rng.choice([-1.0, 1.0], (m, n))
    level = rng.uniform(1.001, 1.999, (m, 1))
    for c1, c2 in ((1.0, 1.0), (0.8, 1.25)):
        sq = math.sqrt(n)
        on_h1 = u / np.linalg.norm(u, axis=1, keepdims=True) * level / (c1 * sq)
        on_h2 = u / np.abs(u).sum(axis=1, keepdims=True) * level * n / c2
        for pts, k, exact in ((on_h1, 0, c1 * sq), (on_h2, 1, c2 / sq)):
            near, *grads = _gradients(pts, c1, c2)
            assert not near.any()
            assert np.max(np.abs(grads[k] / exact - 1.0)) <= 1e-12


def test_cutoff_product_norm_where_gradient_squares_overflow():
    # one point at levels a, b near 1.5, both slopes, taken at scale 1e-158:
    # there ||grad h1|| = c1 sqrt(n) is about 7e157 and its square overflows,
    # yet every norm is the scale-1 norm over the scale, and both checks pass
    u = np.array([0.7, -1.2, 0.9, 1.1, -0.6])
    n = u.size
    grads = []
    for s in (1.0, 1e-158):
        x = s * u[None, :]
        c1, c2 = 1.5 / (math.sqrt(n) * np.linalg.norm(x)), 1.5 * n / np.abs(x).sum()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, b = _h(x, c1, c2)[2:]
            assert 1.4 < a[0] < 1.6 and 1.4 < b[0] < 1.6
            grads.append(np.array(_gradients(x, c1, c2)[1:]) * s)
            assert cutoff_gradient_check(x, c1, c2).ok and cutoff_product_check(x, c1, c2).ok
    assert np.allclose(grads[1], grads[0], rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("n", [10**5, 3 * 10**5])
def test_cutoff_checks_pass_correct_points_at_large_n(n):
    # six points on h2's slope; central differences of step 1e-6 failed some
    # of them here, against a level b = c2 ||x||_1/n that rounds by an ulp
    x = np.random.default_rng(0).uniform(1.2, 1.8, (6, n))
    for check in (cutoff_gradient_check, cutoff_product_check):
        chk = check(x, 1.0, 1.0)
        assert chk.ok and chk.gradient_violations == 0 and chk.skipped_near_kink == 0


def test_t_map_lipschitz_check_passes_at_large_n():
    # six exponential points at n = 10^4, O(n) per point: differencing every
    # shifted row would take an (n, n) stack per point, 0.8 GB.  E/B is
    # 2.7e-7 to 5.3e-7 at seeds 0-4, and grows like n 2^-52/h: the rounding
    # of the row sums against the fixed step crosses the 1e-5 gate near
    # n = 2e5 (see ROADMAP item 11)
    x = np.random.default_rng(0).exponential(1.0, (6, 10**4))
    tracemalloc.start()
    try:
        chk = t_map_lipschitz_check(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chk.ok and chk.count == 6 and chk.max_excess == 0.0
    assert chk.max_fd_error <= 1e-6 * _t_norms(x, x.sum(axis=1))[1].min()
    # T(x) in _t_norms, 0.48 MB, is the peak
    assert peak < 2**20, peak


def test_lemma_checks_on_an_empty_cloud():
    for n in (1, 5):
        empty = np.empty((0, n))
        _assert_tmap_matches_pointwise(empty)
        _assert_cutoffs_match_pointwise(empty, 0.8, 1.25)


def test_lemma_checks_difference_in_small_blocks():
    # T's differences take O(n) per point from blocks of at most 2^14
    # entries per array, and peak at 0.40 MB on 200 points; differencing
    # every shifted row in one (m n, n) stack for a 2000 x 50 cloud would
    # take 40 MB.  The cutoffs take no differences: their one array the
    # size of the cloud, |x| in _cloud_cutoffs, dominates, at 0.09 MB on 200 points.
    # With that array (T(x) for T) all three peak at 0.85-0.90 MB on 2000
    rng = np.random.default_rng(3)
    checks = (t_map_lipschitz_check, lambda x: cutoff_gradient_check(x, 1.0, 1.0),
              lambda x: cutoff_product_check(x, 1.0, 1.0))
    for m, limits in ((200, (2**19, 2**17, 2**17)), (2000, (2**20, 2**20, 2**20))):
        pts = _spread(rng, m, 50)
        for check, limit in zip(checks, limits):
            tracemalloc.start()
            try:
                check(pts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit, (m, peak)


@pytest.mark.parametrize("n", [1, 2, 7, 50, 150])
def test_lemma_checks_do_not_depend_on_the_block_size(monkeypatch, n):
    # one point per block, three, the shipped blocks and one block for the
    # whole cloud; the cloud spans at least two of T's shipped blocks from
    # n = 50 on.  Every step of T's differences acts on one row at a time,
    # so E is bit for bit the same.  The cutoff checks have no blocks, and
    # must not read the size
    mc = isodist.montecarlo
    rows = max(1, mc._FD_ENTRIES // n)
    m = min(2 * rows + 3, 600)
    rng = np.random.default_rng(60 + n)
    tmap, spread = rng.exponential(1.0, (m, n)), _spread(rng, m, n)
    tmap[0, 0] = 1e-9  # a coordinate below the step
    spread[1] *= 0.5 / np.linalg.norm(spread[1])  # on the inner kink of h1 at c1 = 2/sqrt(n)

    def checks(tmap, spread):
        return [t_map_lipschitz_check(tmap)] + [
            check(spread, c1, 1.0) for c1 in (1.0, 2.0 / math.sqrt(n))
            for check in (cutoff_gradient_check, cutoff_product_check)]

    shipped = checks(tmap, spread)
    # column-major clouds are read as row-major ones
    assert checks(np.asfortranarray(tmap), np.asfortranarray(spread)) == shipped
    for entries in (1, 3 * n, m * n):
        monkeypatch.setattr(mc, "_FD_ENTRIES", entries)
        assert checks(tmap, spread) == shipped, entries


@pytest.mark.parametrize("count", [2, 3, 8, 137, 141, 5000, 10000, 10001, 16385, 20000])
def test_transfer_pvalue_is_the_least_column_kstest(count):
    n, seed = 3, 40 + count
    mapped = oracles.phi_erfc(oracles.generate_concat(seed, f"gaussian-{n}", count,
                                                      oracles.gaussian_fill(n), DEFAULT_CHUNK))
    least = min(stats.kstest(mapped[:, i], "uniform").pvalue for i in range(n))
    assert transfer_map_check(n, count, seed).min_ks_pvalue == least


# ---------------------------------------------------------------- batches built in place

# three chunks, the last one partial
BATCH = 2 * DEFAULT_CHUNK + 777


def _peak(call):
    """call()'s peak of traced memory, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("family", [BodyFamily.cube(), BodyFamily.simplex(), BodyFamily.ball(),
                                    BodyFamily.lp(1.0), BodyFamily.lp(1.5)],
                         ids=["cube", "simplex", "ball", "lp1", "lp1.5"])
def test_batches_are_the_concatenated_out_of_place_fills(family):
    # the simplex fill against its out-of-place expression; the cube's is the
    # generator's own array and the l_p fills work in place as before, so
    # those are held to the concatenated chunks of the package's fill
    n, seed = 3, 21
    if family.kind == "simplex":
        fill = oracles.simplex_fill(unit_volume_radius(family, n), n)
    else:
        fill = _fill_for(family, n)
    want = oracles.generate_concat(seed, f"uniform-{family.label()}-{n}", BATCH, fill,
                                   DEFAULT_CHUNK)
    assert np.array_equal(sample_uniform(family, n, BATCH, seed).points, want)


@pytest.mark.parametrize("count", [5, DEFAULT_CHUNK, BATCH])
def test_experiments_match_their_out_of_place_expressions(count):
    n, seed = 4, 23
    want = oracles.generate_concat(seed, f"gaussian-{n}", count, oracles.gaussian_fill(n),
                                   DEFAULT_CHUNK)
    assert np.array_equal(generate(seed, f"gaussian-{n}", count, _gaussian_fill(n)), want)
    res = average_distance_experiment(n, count, seed)
    dist = oracles.avgdist_distances(n, count, seed, DEFAULT_CHUNK)
    assert res.mean_distance == EstimateWithCI.from_samples(dist)
    chk = transfer_map_check(n, count, seed)
    assert chk.max_direction_ratio == oracles.transfer_ratio(n, count, seed, DEFAULT_CHUNK)
    sums = oracles.exp_tail_sums(n, count, seed, DEFAULT_CHUNK)
    hits = int(np.count_nonzero(sums <= 0.7 * n))
    assert exp_tail_check(n, 0.7, count, seed).mc == EstimateWithCI.from_proportion(hits, count)


def test_phi_and_the_transfer_map_leave_their_inputs_alone():
    a = np.array([[-np.inf, -40.0, -1.5, -0.0], [0.0, 1e-300, 2.5, np.inf]])
    a.setflags(write=False)
    for x in (a, a.T, a.tolist()):
        keep = np.array(x, dtype=float)
        assert np.array_equal(phi(x), oracles.phi_erfc(x))
        assert np.array_equal(np.asarray(x), keep)
    assert phi(np.float64(-1.5)) == float(oracles.phi_erfc(-1.5))
    pts = generate(5, "gaussian-3", 1000, _gaussian_fill(3))
    keep = pts.copy()
    mapped = phi(pts)
    assert np.array_equal(pts, keep) and not np.shares_memory(mapped, pts)
    # every call draws a batch of its own, which its caller may write into
    pts *= 2.0
    assert np.array_equal(generate(5, "gaussian-3", 1000, _gaussian_fill(3)), keep)


@pytest.mark.parametrize("family,fill_chunks", [(BodyFamily.cube(), 1), (BodyFamily.simplex(), 1),
                                                (BodyFamily.ball(), 1), (BodyFamily.lp(1.5), 2)],
                         ids=["cube", "simplex", "ball", "lp1.5"])
def test_a_batch_peaks_at_itself_plus_a_chunk(family, fill_chunks):
    # the batch is allocated once and each chunk copied in and dropped, so the
    # peak is the batch plus what one fill holds: one chunk-sized array, two
    # for l_p at p != 2 (magnitudes and signs), plus per-point vectors.  A
    # list of parts joined by np.concatenate peaks at two batches
    n, count = 8, 3 * DEFAULT_CHUNK
    batch, chunk = count * n * 8, DEFAULT_CHUNK * n * 8
    peak = _peak(lambda: sample_uniform(family, n, count, 3))
    assert peak < batch + (fill_chunks + 1) * chunk, (peak, batch, chunk)


@pytest.mark.parametrize("check,batches", [(average_distance_experiment, 2),
                                           (transfer_map_check, 3)],
                         ids=["avgdist", "transfer"])
def test_experiments_peak_at_a_few_batches(check, batches):
    # the average distance takes x - y, squares and sums it in x's own memory,
    # where np.linalg.norm(x - y, axis=1) would hold four batches; the
    # transfer check drops each batch once read and sorts the mapped values
    # in place, where sorting a copy first would hold five
    n, count = 8, 3 * DEFAULT_CHUNK
    batch, chunk = count * n * 8, DEFAULT_CHUNK * n * 8
    check(2, 10, 0)  # scipy.stats is imported on the transfer check's first call
    peak = _peak(lambda: check(n, count, 3))
    assert peak < batches * batch + 2 * chunk, (peak, batch, chunk)
