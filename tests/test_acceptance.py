"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line with the measured numbers before
asserting, so `pytest -s tests/test_acceptance.py` reads as a checklist.
Criterion 7 holds each asymptote/inverse ratio at eps = 1e-10 to the bracket
that the Gaussian (Mills-ratio) and p = 1 tail expansions give from eps alone.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy import stats

import oracles
from isodist import (BodyFamily, average_distance_experiment,
                     bound_report, convergence_report, cube_diagonal_witness,
                     cube_sum_cdf, cutoff_gradient_check, cutoff_product_check,
                     delta_closed_form, exp_tail_check, Grid, make_profile,
                     phi_inv, phi_inv_asymptote, psi_p, psi_p_inv,
                     psi_p_inv_asymptote, phi, scaled_max_distance,
                     t_map_lipschitz_check, time_to_half, transfer_map_check,
                     verify_extremal_pairs)
from isodist.cli import _spread_cloud
from isodist.rng import DEFAULT_CHUNK, generate

EPS_GRID = (0.01, 0.05, 0.1, 0.25, 0.45)
SQRT_E = math.sqrt(math.e)


def _line(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_ball_exactness():
    start = time.perf_counter()
    worst = 0.0
    tied = True
    for eps in EPS_GRID:
        rep = bound_report(BodyFamily.ball(), eps)
        worst = max(worst, abs(rep.upper - (-2.0 * phi_inv(eps) / SQRT_E)))
        tied &= rep.lower == rep.upper == rep.exact_limit
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and tied and elapsed < 1.0
    _line(1, ok, f"ball two-sided bound exact, max error {worst:.3g}, "
          f"lower==upper {tied}, {elapsed:.3f}s")
    assert ok


def test_criterion_02_quadrature_vs_closed_forms():
    families = [BodyFamily.cube(), BodyFamily.ball(), BodyFamily.simplex(),
                BodyFamily.lp(1.0), BodyFamily.lp(1.5), BodyFamily.lp(1.99)]
    worst = 0.0
    for family in families:
        for eps in EPS_GRID:
            closed = delta_closed_form(family, eps)
            quad = time_to_half(make_profile(family), eps)
            worst = max(worst, abs(quad - closed) / closed)
    # explicit Euler at the stated step, spot-checked where the integration
    # interval stays affordable; the quadrature sweep above covers the grid
    euler_worst = 0.0
    for family, eps in [(f, 0.1) for f in families] + [(BodyFamily.cube(), 0.01)]:
        crossing = oracles.euler_delta_to_half(make_profile(family), eps,
                                               step=1e-5)
        euler_worst = max(euler_worst,
                          abs(crossing - delta_closed_form(family, eps)))
    ok = worst <= 1e-8 and euler_worst <= 1e-4
    _line(2, ok, f"quadrature vs closed forms rel {worst:.3g}, "
          f"Euler crossing err {euler_worst:.3g}")
    assert ok


def test_criterion_03_tail_volume_convergence():
    start = time.perf_counter()
    ok = True
    sup_at_400 = {}
    grid = np.arange(0.0, 2.0001, 0.05)
    for p in (1.0, 1.5, 2.0):
        rep = convergence_report(p, (100, 200, 400), grid)
        gaps = rep.sup_gap_tail
        ok &= gaps[0] > gaps[1] > gaps[2] and gaps[2] <= 0.02
        sup_at_400[p] = gaps[2]
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _line(3, ok, "sup |V_n - limit| at n=400: "
          + ", ".join(f"p={p:g}: {g:.4f}" for p, g in sup_at_400.items())
          + f", decreasing in n, {elapsed:.1f}s")
    assert ok


def test_criterion_04_cube_witness_slab_volume():
    n = 30
    a = -math.sqrt(math.pi / 6.0) * phi_inv(0.12)
    vol = cube_sum_cdf(n, n / 2.0 - a * math.sqrt(n))
    wit = cube_diagonal_witness(n, 0.1)
    rel = abs(wit.distance - 0.74000) / 0.74000
    ok = abs(vol - 0.12) <= 0.02 and rel <= 0.10
    _line(4, ok, f"slab volume {vol:.6f} (target 0.12), "
          f"witness distance {wit.distance:.5f} vs 0.74 ({rel:+.2%})")
    assert ok


def test_criterion_05_extremal_pairs_exhaustive():
    budget = 10_000_000
    checked = 0
    agreed = True
    for k, n in ((2, 2), (2, 3), (3, 2), (2, 4)):
        grid = Grid(k, n)
        size = k ** n
        for r in range(1, size + 1):
            for s in range(1, size + 1):
                if math.comb(size, r) * math.comb(size, s) > budget:
                    continue
                chk = verify_extremal_pairs(grid, r, s, budget=budget)
                agreed &= chk.agree
                checked += 1
    _line(5, agreed, f"{checked} budget-eligible (r,s) cases on "
          "[2]^2, [2]^3, [3]^2, [2]^4, exact agreement")
    assert agreed and checked > 0


def test_criterion_06_discrete_scaling():
    start = time.perf_counter()
    value = float(scaled_max_distance(30, 64, 0.1))
    elapsed = time.perf_counter() - start
    rel = abs(value - 0.74000) / 0.74000
    ok = rel <= 0.10 and elapsed < 10.0
    _line(6, ok, f"scaled_max_distance(30, 64, 0.1) = {value:.5f} "
          f"({rel:+.2%} vs 0.74), {elapsed:.2f}s")
    assert ok


def test_criterion_07_asymptote_approach():
    ratio_fns = {
        "phi-inv": lambda e: phi_inv_asymptote(e) / phi_inv(e),
        "psi-inv p=1": lambda e: psi_p_inv_asymptote(e, 1.0) / psi_p_inv(e, 1.0),
        "psi-inv p=2": lambda e: psi_p_inv_asymptote(e, 2.0) / psi_p_inv(e, 2.0),
    }
    eps = 1e-10
    cases = {name: fn(eps) for name, fn in ratio_fns.items()}
    gauss = oracles.gaussian_asymptote_ratio_bracket(eps)
    p1 = oracles.psi1_asymptote_ratio(eps)
    # p = 1 has an exact ratio, held to a relative 1e-12
    brackets = {"phi-inv": gauss,
                "psi-inv p=1": (p1 * (1.0 - 1e-12), p1 * (1.0 + 1e-12)),
                "psi-inv p=2": gauss}
    within = all(lo <= cases[k] <= hi for k, (lo, hi) in brackets.items())
    monotone = True
    for fn in ratio_fns.values():
        gaps = [abs(fn(10.0 ** -k) - 1.0) for k in range(4, 13)]
        monotone &= all(a > b for a, b in zip(gaps, gaps[1:]))
    ok = within and monotone
    _line(7, ok, "ratios at 1e-10: "
          + ", ".join(f"{k}: {v:.6f} in [{brackets[k][0]:.6f}, {brackets[k][1]:.6f}]"
                      for k, v in cases.items())
          + f"; gap sequences monotone {monotone}")
    assert ok


def test_criterion_08_derivative_positivity(rng):
    bad_sign = bad_fd = 0
    h = 1e-7
    for _ in range(10_000):
        x = rng.uniform(1e-4, 0.5)
        p = rng.uniform(1.0, 2.0)
        # the shipped l_p profile's central difference, against the
        # derivative written out in the oracles
        f = make_profile(BodyFamily.lp(p))
        fd = (f(x + h) - f(x - h)) / (2.0 * h)
        if fd <= 0.0:
            bad_sign += 1
        d = oracles.xlog_power_derivative(x, p)
        if abs(fd - d) > 1e-5 * abs(d):
            bad_fd += 1
    ok = bad_sign == 0 and bad_fd == 0
    _line(8, ok, f"10^4 (x, p) samples: {bad_sign} sign violations, "
          f"{bad_fd} finite-difference mismatches")
    assert ok


def test_criterion_09_sodin_lemma_suite():
    seed = 7
    failures = []
    for dim in (2, 5, 20):
        pts = generate(seed, f"check-sodin-{dim}", 10_000,
                       lambda g, m, d=dim: g.standard_exponential((m, d)))
        lip = t_map_lipschitz_check(pts)
        if not lip.ok:
            failures.append(f"lipschitz n={dim}")
    pts = _spread_cloud(seed + 1, "check-cutoff-20", 10_000, 20)
    cut = cutoff_gradient_check(pts, 1.0, 1.0)
    if not cut.ok or cut.plateau_violations or cut.gradient_violations:
        failures.append("cutoff")
    prod = cutoff_product_check(pts[:1000], 1.0, 1.0)
    if not prod.ok:
        failures.append("product")
    for dim in (3, 5, 10, 20):
        for alpha in (0.1, 0.2, 0.5, 0.9):
            chk = exp_tail_check(dim, alpha, 100_000, seed)
            if not chk.ok or chk.erlang > chk.bound * (1.0 + 1e-12):
                failures.append(f"tail n={dim} alpha={alpha}")
    ok = not failures
    _line(9, ok, "zero violations across lipschitz/cutoff/product/tail corpora"
          if ok else f"violations: {failures}")
    assert ok


def test_criterion_10_transfer_map():
    chk = transfer_map_check(10, 10_000, seed=7)
    # min_ks_pvalue bounds the exact p-value from above, so the bar is held
    # on the exact least-column kstest p-value of the same cloud too
    mapped = oracles.phi_erfc(oracles.generate_concat(7, "gaussian-10", 10_000,
                                                      oracles.gaussian_fill(10), DEFAULT_CHUNK))
    exact = min(stats.kstest(mapped[:, i], "uniform").pvalue for i in range(10))
    ok = chk.ok and chk.min_ks_pvalue > 0.01 and exact > 0.01 \
        and chk.max_direction_ratio <= 1.0 + 1e-6
    _line(10, ok, f"KS min p-value {exact:.3g} (Massart's bound {chk.min_ks_pvalue:.3g}; "
          f">0.01), max directional ratio {chk.max_direction_ratio:.9f}")
    assert ok


def test_criterion_11_average_distance_reproducible():
    first, second = (average_distance_experiment(50, 100_000, seed=7) for _ in range(2))
    bound = math.sqrt(50.0 / (2.0 * math.pi * math.e))
    same = (first.mean_distance.estimate == second.mean_distance.estimate
            and first.mean_distance.half_width_95 == second.mean_distance.half_width_95)
    mean = first.mean_distance.estimate
    ok = mean >= bound and same and first.ok
    _line(11, ok, f"mean distance {mean:.4f} >= {bound:.4f}, "
          f"bit-identical across two runs with seed 7: {same}")
    assert ok


def test_criterion_12_cross_identities():
    grid = np.linspace(-4.0, 4.0, 161)
    psi_gap = float(np.max(np.abs(psi_p(grid, 2.0) - phi(SQRT_E * grid))))

    # at the placeholder constants c_lambda = c_iso = 1
    lp1, simplex = BodyFamily.lp(1.0), BodyFamily.simplex()
    prof_gap = 0.0
    for t in np.linspace(0.01, 0.49, 49):
        prof_gap = max(prof_gap, abs(make_profile(lp1)(t) - make_profile(simplex)(t)))
    form_gap = upper_gap = diag_gap = 0.0
    for eps in EPS_GRID:
        form_gap = max(form_gap, abs(delta_closed_form(lp1, eps)
                                     - delta_closed_form(simplex, eps)))
        rl = bound_report(lp1, eps)
        rs = bound_report(simplex, eps)
        upper_gap = max(upper_gap, abs(rl.upper - rs.upper))
        # the simplex witness runs along a diagonal, the l1 witness along
        # an axis; the lower bounds differ by exactly sqrt(2)
        diag_gap = max(diag_gap, abs(rs.lower - math.sqrt(2.0) * rl.lower))

    ball_rows_equal = all(
        bound_report(BodyFamily.lp(2.0), eps) == bound_report(BodyFamily.ball(), eps)
        for eps in EPS_GRID)
    lp2_raw_parametric = bound_report(BodyFamily.lp(1.5), 0.1).parametric \
        and not bound_report(BodyFamily.lp(2.0), 0.1).parametric

    ok = (psi_gap <= 1e-10 and prof_gap <= 1e-12 and form_gap <= 1e-12
          and upper_gap <= 1e-12 and diag_gap <= 1e-12
          and ball_rows_equal and lp2_raw_parametric)
    _line(12, ok, f"psi_2 vs phi(sqrt(e) x) {psi_gap:.2g}; lp(1)=simplex "
          f"(profile {prof_gap:.2g}, delta {form_gap:.2g}, upper {upper_gap:.2g}, "
          f"lower sqrt2 factor {diag_gap:.2g}); lp(2)=ball rows {ball_rows_equal}")
    assert ok
