"""Independent references and the verdict on every operation's result.

Nothing here imports isodist.  Scalars are recomputed with mpmath at 50
digits (incomplete beta and gamma, erfinv), slab volumes and lattice
counts exactly with Fractions and integers, simplex corners as
alpha^(n-1)/2, and long curves with scipy.special's incomplete beta.
Where an inverse is needed the library's answer is pushed forward through
the independent function instead (a cap height must give the cap volume
eps back).  Lattice answers are recomputed by plain enumeration and
dilation on numpy arrays.

Tolerances are stated below.  Volumes are judged relative to eps, since
eps reaches 1e-15.  Statistical outputs are judged at FIVE_SE standard
errors, so a correct sampler fails on a new seed about once in a
million operations.

A failure that matches one of the documented library defects is
tagged with KNOWN_DEFECTS' key: it still counts as failed, but it does
not make the run incorrect.  Any other failure does.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy import special

import workloads

mp.mp.dps = 50

REL_FORMULA = 1e-9   # closed forms and values printed at 12 digits
REL_QUAD = 1e-8      # the enlargement quadrature's documented agreement
REL_VOLUME = 1e-6    # witness volumes, cap and slab tails, relative to the volume
REL_FD = 1e-5        # finite-difference Jacobians against the exact one
FD_STEP = 1e-6       # the central-difference step of the lemma checks
FIVE_SE = 5.0
TAIL_DEFECT_BELOW = 1e-4   # tails below this are where the cancellation shows

KNOWN_DEFECTS = {
    "tail-cancellation": "ROADMAP 3: 0.5 - quadrature loses the l_p cap tail "
                         "(absolute tolerance 1e-10/1e-12), so small caps miss "
                         "their volume relative to eps",
    "normal-approximation": "ROADMAP 4: cube_sum_cdf switches to a normal "
                            "approximation above n = 40, so diagonal slabs miss "
                            "their volume",
    "fd-step-leaves-orthant": "t_map_lipschitz_check steps x - h e_i with "
                              "h = 1e-6, so a point with a coordinate below h "
                              "makes t_map raise DomainError",
    "absolute-tolerance": "ROADMAP 4: the slab solve stops on absolute "
                          "tolerances (brentq xtol 1e-13, volume check 1e-10), "
                          "so at n <= 2 and eps near 1e-15 the slab misses its "
                          "volume relative to eps",
}


@dataclass
class Verdict:
    ok: bool = True
    reasons: list = field(default_factory=list)
    known: str | None = None
    errors: dict = field(default_factory=dict)

    def check(self, good: bool, reason: str) -> None:
        if not good:
            self.ok = False
            self.reasons.append(reason)

    def rel(self, got, want, tol: float, what: str) -> float:
        err = _rel(got, want)
        self.check(err <= tol, f"{what}: got {float(got)!r}, want {float(want)!r} "
                               f"(rel err {err:.3g} > {tol:g})")
        return err

    def to_dict(self) -> dict:
        return {"ok": self.ok, "known": self.known, "reasons": self.reasons[:3],
                "errors": self.errors}


def _rel(got, want) -> float:
    if got is None:
        return math.inf
    got, want = mp.mpf(got), mp.mpf(want)
    if want == 0:
        return float(abs(got))
    return float(abs(got - want) / abs(want))


# ---------------------------------------------------------------- formulas

@functools.lru_cache(maxsize=None)
def phi_inv(eps: float):
    return -mp.erfinv(1 - 2 * mp.mpf(eps)) / mp.sqrt(mp.pi)


def kappa(p: float):
    return (2 * mp.gamma(1 + 1 / mp.mpf(p))) ** p


def phi_p(a, p: float):
    """Distribution function of exp(-kappa_p |x|^p)."""
    a, p = mp.mpf(a), mp.mpf(p)
    half = mp.gammainc(1 / p, 0, kappa(p) * abs(a) ** p, regularized=True) / 2
    return mp.mpf(0.5) - half if a < 0 else mp.mpf(0.5) + half


def psi_p_inv_residual(value: float, p: float, eps: float) -> float:
    """Relative residual of value = psi_p_inv(eps, p), pushed forward."""
    return _rel(phi_p(mp.mpf(value) * mp.e ** (1 / mp.mpf(p)), p), eps)


@functools.lru_cache(maxsize=None)
def lp_radius(p: float, n: int):
    p = mp.mpf(p)
    return mp.exp(mp.loggamma(1 + n / p) / n) / (2 * mp.gamma(1 + 1 / p))


@functools.lru_cache(maxsize=None)
def simplex_radius(n: int):
    return mp.exp((mp.loggamma(n + 1) - mp.mpf(1.5) * mp.log(n)) / (n - 1))


def lp_cap_volume(a: float, p: float, n: int):
    """Volume of {x_1 >= a} in the unit-volume l_p ball, incomplete beta."""
    omega = lp_radius(p, n)
    a = mp.mpf(a)
    if a >= omega:
        return mp.mpf(0)
    p = mp.mpf(p)
    z = (a / omega) ** p
    return mp.betainc(1 / p, (n - 1) / p + 1, z, 1, regularized=True) / 2


def lp_cap_volumes(x: np.ndarray, p: float, n: int) -> np.ndarray:
    """Vectorised cap volumes in double precision (scipy's betaincc)."""
    omega = float(lp_radius(p, n))
    z = np.minimum((np.asarray(x) / omega) ** p, 1.0)
    return 0.5 * special.betaincc(1.0 / p, (n - 1.0) / p + 1.0, z)


def lp_section_areas(x: np.ndarray, p: float, n: int) -> np.ndarray:
    omega = float(lp_radius(p, n))
    logpref = (math.lgamma(1 + n / p) - math.lgamma(1 + 1 / p)
               - math.lgamma(1 + (n - 1) / p) - math.log(2 * omega))
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.where(x < omega, 1.0 - (x / omega) ** p, 0.0)
        return np.where(x < omega, np.exp(logpref + (n - 1) / p * np.log(inner)), 0.0)


def irwin_hall(n: int, s: float) -> Fraction:
    """P(U_1 + ... + U_n <= s), exact in rationals on the binary value of s."""
    s = Fraction(s)
    if s <= 0:
        return Fraction(0)
    if s >= n:
        return Fraction(1)
    total = sum((-1) ** j * math.comb(n, j) * (s - j) ** n
                for j in range(math.floor(s) + 1))
    return total / math.factorial(n)


def delta_closed(family: str, p: float | None, eps: float):
    """Enlargement integral over [eps, 1/2] in closed form (unit constants)."""
    eps = mp.mpf(eps)
    if family == "cube":
        return -phi_inv(float(eps))
    if family == "ball":
        return -phi_inv(float(eps)) / mp.sqrt(mp.e)
    if family == "simplex":
        return -(mp.log(eps) + mp.log(2))
    p = mp.mpf(p)
    return p * ((-mp.log(eps)) ** (1 / p) - mp.log(2) ** (1 / p))


def bound_rows(family: str, p: float | None, eps: float) -> dict:
    """Expected bound report; `psi_lower` marks a lower bound -2 psi_p_inv
    that is checked by pushing it forward."""
    e = mp.mpf(eps)
    if family == "ball" or (family == "lp" and p == 2.0):
        v = -2 * phi_inv(eps) / mp.sqrt(mp.e)
        return {"lower": v, "upper": v, "exact": v, "parametric": False}
    if family == "cube":
        m = -2 * mp.sqrt(mp.pi / 6) * phi_inv(eps)
        return {"lower": m, "upper": -2 * phi_inv(eps), "manhattan": m,
                "parametric": False}
    if family == "simplex":
        return {"lower": -(mp.sqrt(2) / mp.e) * mp.log(2 * e), "upper": -2 * mp.log(e),
                "parametric": True}
    return {"psi_lower": True, "upper": 2 * p * (-mp.log(e)) ** (1 / mp.mpf(p)),
            "parametric": True}


def _proportion_ok(v: Verdict, est: float, want, count: int, what: str) -> None:
    want = float(want)
    se = math.sqrt(max(want * (1 - want), 1.0 / count) / count)
    v.check(abs(est - want) <= FIVE_SE * se,
            f"{what}: estimate {est:.6g} vs {want:.6g} (> {FIVE_SE:g} standard errors)")


# ---------------------------------------------------------------- judges

def judge(op: dict, status: str, summary: dict | None) -> Verdict:
    v = Verdict()
    if status != "ok":
        v.check(False, f"raised {status}")
        if (op["kind"] == "tmap_check" and "positive orthant" in status
                and workloads.cloud(op, spread=False).min() < FD_STEP):
            v.known = "fd-step-leaves-orthant"
        return v
    _JUDGES[op["kind"]](op, summary, v)
    if not v.ok:
        v.known = _known_defect(op, v)
    return v


def _known_defect(op: dict, v: Verdict) -> str | None:
    """Tag a failure whose only symptom is a documented library defect."""
    vol = v.errors.get("volume_rel", 0.0)
    only_volume = all(r.startswith(("volume", "tail")) for r in v.reasons)
    if not only_volume:
        return None
    kind = op["kind"]
    small = op.get("eps", 1.0) < TAIL_DEFECT_BELOW or v.errors.get("tail_small", False)
    if kind == "cube_diagonal" and vol > REL_VOLUME:
        if op["n"] > 40:
            return "normal-approximation"
        return "absolute-tolerance" if small else None
    if kind in ("lp_caps", "ball_caps", "section_curve", "lp_tail_volume", "cli") \
            and small:
        return "tail-cancellation"
    return None


def _bound_report(op, s, v):
    fam, p, eps = op["family"], op.get("p"), op["eps"]
    want = bound_rows(fam, p, eps)
    _bound_fields(v, s, want, p, eps)
    v.check(s["parametric"] == want["parametric"], "parametric flag")


def _bound_fields(v, got: dict, want: dict, p, eps):
    for key in ("lower", "upper", "exact", "manhattan"):
        if key in want:
            v.rel(got[key], want[key], REL_FORMULA, key)
    if want.get("psi_lower"):
        err = psi_p_inv_residual(-got["lower"] / 2, p, eps)
        v.check(err <= REL_FORMULA, f"lower: psi_p_inv residual {err:.3g}")


def _simplex_corner(op, s, v):
    n, eps = op["n"], op["eps"]
    alpha = mp.mpf(s["alpha"])
    v.errors["volume_rel"] = v.rel(alpha ** (n - 1) / 2, eps, REL_FORMULA, "volume")
    want_alpha = (2 * mp.mpf(eps)) ** (mp.mpf(1) / (n - 1))
    v.rel(s["distance"], mp.sqrt(2) * simplex_radius(n) * (1 - want_alpha),
          REL_FORMULA, "distance")
    v.rel(s["limit"], -(mp.sqrt(2) / mp.e) * mp.log(2 * mp.mpf(eps)), REL_FORMULA, "limit")


def _cube_diagonal(op, s, v):
    n, eps = op["n"], op["eps"]
    thr = s["threshold"]
    vol = irwin_hall(n, thr)
    v.errors["volume_rel"] = v.rel(mp.mpf(vol.numerator) / vol.denominator, eps,
                                   REL_VOLUME, "volume")
    v.rel(s["distance"], 2 * (mp.mpf(n) / 2 - mp.mpf(thr)) / mp.sqrt(n),
          REL_FORMULA, "distance")
    v.rel(s["limit"], -2 * mp.sqrt(mp.pi / 6) * phi_inv(eps), REL_FORMULA, "limit")


def _caps(op, s, v, p):
    n, eps = op["n"], op["eps"]
    a = s["threshold"]
    v.check(s["distance"] == 2 * a, "distance is not twice the cap height")
    v.errors["volume_rel"] = v.rel(lp_cap_volume(a, p, n), eps, REL_VOLUME, "volume")
    err = psi_p_inv_residual(-s["limit"] / 2, p, eps)
    v.check(err <= REL_FORMULA, f"limit: psi_p_inv residual {err:.3g}")


def _distance_quad(op, s, v):
    want = 2 * delta_closed(op["family"], op.get("p"), op["eps"])
    v.rel(s["distance"], want, REL_QUAD, "distance")


def _curve(v, x, areas, tails, p, n, what):
    """Areas at REL_FORMULA; tails at REL_VOLUME relative to the tail."""
    x = np.asarray(x, dtype=float)
    want_a = lp_section_areas(x, p, n)
    want_t = lp_cap_volumes(x, p, n)
    areas, tails = np.asarray(areas, dtype=float), np.asarray(tails, dtype=float)
    ea = np.abs(areas - want_a) / np.maximum(want_a, 1e-300)
    v.check(bool(np.all((ea <= REL_FORMULA) | (np.abs(areas - want_a) < 1e-300))),
            f"{what} area: max rel err {float(ea.max()):.3g}")
    pos = want_t > 0
    et = np.where(pos, np.abs(tails - want_t) / np.where(pos, want_t, 1.0),
                  np.abs(tails))
    worst = int(np.argmax(et))
    v.errors["tail_rel"] = max(v.errors.get("tail_rel", 0.0), float(et[worst]))
    if et[worst] > REL_VOLUME:
        v.check(False, f"tail {what} at x={x[worst]:g}: rel err {et[worst]:.3g}")
        bad = et > REL_VOLUME
        v.errors["tail_small"] = bool(np.all(want_t[bad] < TAIL_DEFECT_BELOW))


def _judge_section_curve(op, s, v):
    x = workloads.grid(op["grid"])
    v.rel(s["omega"], lp_radius(op["p"], op["n"]), REL_FORMULA, "omega")
    _curve(v, x, s["areas"], s["tails"], op["p"], op["n"], "section_curve")


def _parse_csv(text: str) -> list[dict]:
    import csv
    import io

    return list(csv.DictReader(io.StringIO(text)))


def _cli(op, s, v):
    argv = op["argv"]
    v.check(s["rc"] == 0, f"exit code {s['rc']}")
    if s["rc"] != 0:
        return
    rows = _parse_csv(s["text"])
    opts = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}
    cmd = argv[0]
    p = float(opts["--p"]) if "--p" in opts else None
    if cmd == "bounds":
        eps_list = [float(e) for e in opts["--eps"].split(",")]
        v.check(len(rows) == len(eps_list), "row count")
        for row, eps in zip(rows, eps_list):
            want = bound_rows(opts["--family"], p, eps)
            got = {k: float(row[k]) for k in ("lower", "upper")}
            if "exact" in want:
                got["exact"] = float(row["exact_limit"])
            if "manhattan" in want:
                got["manhattan"] = float(row["manhattan_scaled_limit"])
            _bound_fields(v, got, want, p, eps)
    elif cmd == "witness":
        n, eps = int(opts["--n"]), float(opts["--eps"])
        q = 2.0 if opts["--family"] == "ball" else p
        a = float(rows[0]["distance"]) / 2
        vol = lp_cap_volume(a, q, n)
        v.errors["volume_rel"] = v.rel(vol, eps, REL_VOLUME, "volume")
        if eps >= TAIL_DEFECT_BELOW:
            return
        v.errors["tail_small"] = True
    elif cmd == "sections":
        q = float(opts["--p"])
        x = workloads.grid(opts["--grid"])
        ns = [int(t) for t in opts["--n"].split(",")]
        v.check(len(rows) == len(ns) * x.size, "row count")
        for i, n in enumerate(ns):
            part = rows[i * x.size:(i + 1) * x.size]
            _curve(v, [float(r["x"]) for r in part], [float(r["area"]) for r in part],
                   [float(r["tail"]) for r in part], q, n, f"sections n={n}")
        lim = rows[: x.size]
        xs = np.array([float(r["x"]) for r in lim])
        scale = 2 * math.gamma(1 + 1 / q) * math.exp(1 / q)
        want_d = math.exp(1 / q) * np.exp(-np.abs(scale * xs) ** q)
        got_d = np.array([float(r["area_limit"]) for r in lim])
        v.check(bool(np.all(np.abs(got_d - want_d) <= REL_FORMULA * want_d + 1e-300)),
                "area_limit")
        want_t = 0.5 * special.gammaincc(1 / q, kappa_f(q) * (math.exp(1 / q) * xs) ** q)
        got_t = np.array([float(r["tail_limit"]) for r in lim])
        v.check(bool(np.all(np.abs(got_t - want_t) <= REL_FORMULA * want_t + 1e-300)),
                "tail_limit")
    elif cmd == "asympt":
        which = opts["--which"]
        for row in rows:
            eps = float(row["epsilon"])
            actual = float(row["actual"])
            if which == "phi-inv":
                v.rel(actual, phi_inv(eps), REL_FORMULA, "actual")
                asym = -mp.sqrt(-mp.log(eps)) / mp.sqrt(mp.pi)
            else:
                err = psi_p_inv_residual(actual, p, eps)
                v.check(err <= REL_FORMULA, f"actual: psi_p_inv residual {err:.3g}")
                asym = -((-mp.log(eps)) ** (1 / mp.mpf(p))) / (
                    2 * mp.e ** (1 / mp.mpf(p)) * mp.gamma(1 + 1 / mp.mpf(p)))
            v.rel(float(row["asymptote"]), asym, REL_FORMULA, "asymptote")
            v.rel(float(row["ratio"]), float(row["asymptote"]) / actual, REL_FORMULA,
                  "ratio")


def kappa_f(p: float) -> float:
    return (2.0 * math.gamma(1.0 + 1.0 / p)) ** p


def _sample_uniform(op, s, v):
    fam, n, count = op["family"], op["n"], op["count"]
    v.check(s["shape"] == [count, n], f"shape {s['shape']}")
    se = s["stat_sd"] / math.sqrt(count)
    if fam in ("ball", "lp"):
        p = 2.0 if fam == "ball" else op["p"]
        rp = float(lp_radius(p, n)) ** p
        want = rp * n / (n + p)
        v.check(s["stat_max"] <= rp * (1 + 1e-9), "point outside the body")
    elif fam == "cube":
        want = n / 2.0
        v.check(s["min"] >= 0.0 and s["max"] <= 1.0, "point outside the cube")
    else:
        omega = float(simplex_radius(n))
        want = omega / n
        v.check(s["min"] >= 0.0, "negative simplex coordinate")
        v.check(abs(s["row_sum_min"] - omega) <= 1e-9 * omega
                and abs(s["row_sum_max"] - omega) <= 1e-9 * omega,
                "point off the simplex")
    v.check(abs(s["stat_mean"] - want) <= FIVE_SE * se,
            f"moment {s['stat_mean']:.6g} vs {want:.6g} (> {FIVE_SE:g} standard errors)")


def _estimate_cap_volume(op, s, v):
    fam, n, a = op["family"], op["n"], op["a"]
    if fam == "cube":
        want = 1.0 - a
    elif fam == "simplex":
        want = (1 - mp.mpf(a) / simplex_radius(n)) ** (n - 1)
    else:
        want = lp_cap_volume(a, 2.0 if fam == "ball" else op["p"], n)
    v.check(s["count"] == op["count"], "count")
    _proportion_ok(v, s["estimate"], want, op["count"], "cap volume")


def _exp_tail(op, s, v):
    n, alpha, count = op["n"], op["alpha"], op["count"]
    x = mp.mpf(alpha) * n
    erlang = mp.gammainc(n, 0, x, regularized=True)
    v.rel(s["erlang"], erlang, REL_FORMULA, "erlang")
    v.rel(s["bound"], (mp.mpf(alpha) * mp.e) ** n / mp.sqrt(2 * mp.pi * n),
          REL_FORMULA, "bound")
    _proportion_ok(v, s["estimate"], erlang, count, "tail estimate")


def _transfer(op, s, v):
    n = op["n"]
    v.check(s["count"] == op["count"], "count")
    v.check(s["ratio"] <= 1.0 + 1e-6, f"contraction ratio {s['ratio']!r}")
    # min of n uniform p-values; flag at the 5-sigma two-sided level
    floor = 1.0 - (1.0 - 5.7e-7) ** (1.0 / n)
    v.check(s["min_p"] >= floor, f"min KS p-value {s['min_p']:.3g} < {floor:.3g}")


@functools.lru_cache(maxsize=None)
def mean_cube_distance(n: int) -> float:
    """E||X - Y|| for independent uniform X, Y in (0,1)^n.

    sqrt(S) = (1/sqrt(pi)) int_0^inf (1 - e^{-u^2 S}) u^{-2} du with
    S = sum (X_i - Y_i)^2, and M(t) = E e^{-t (X_1 - Y_1)^2} is
    1 + sum_{k>=1} (-t)^k / (k! (2k+1) (k+1)) for t < 1 (summed as M - 1,
    so 1 - M^n keeps its digits) and
    sqrt(pi) erf(sqrt t)/sqrt t - (1 - e^{-t})/t beyond.
    """
    from scipy import integrate

    def one_minus_mgf_n(u):
        t = u * u
        if t < 1.0:
            term, m1 = 1.0, 0.0
            for k in range(1, 40):
                term *= -t / k
                m1 += term / ((2 * k + 1) * (k + 1))
            return -math.expm1(n * math.log1p(m1))
        r = math.sqrt(t)
        m = math.sqrt(math.pi) * math.erf(r) / r - (1.0 - math.exp(-t)) / t
        return 1.0 - m**n

    f = lambda u: one_minus_mgf_n(u) / (u * u) if u > 0 else n / 6.0  # noqa: E731
    head, _ = integrate.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)
    tail, _ = integrate.quad(f, 1.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return (head + tail) / math.sqrt(math.pi)


def _avgdist(op, s, v):
    n = op["n"]
    v.rel(s["lower"], mp.sqrt(mp.mpf(n) / (2 * mp.pi * mp.e)), REL_FORMULA, "lower bound")
    v.check(s["count"] == op["count"], "count")
    want = mean_cube_distance(n)
    v.check(abs(s["mean"] - want) <= FIVE_SE * s["se"],
            f"mean distance {s['mean']:.6g} vs {want:.6g} (> {FIVE_SE:g} standard errors)")


def _tmap_check(op, s, v):
    x = workloads.cloud(op, spread=False)
    m, n = x.shape
    total = x.sum(axis=1)
    t = x / total[:, None]
    jac = (np.eye(n)[None, :, :] - t[:, None, :]) / total[:, None, None]
    norms = np.linalg.svd(jac, compute_uv=False)[:, 0]
    bound = (1.0 + math.sqrt(n) * np.linalg.norm(t, axis=1)) / total
    want_excess = max(0.0, float(np.max(norms / bound - 1.0)))
    v.check(s["count"] == m, "count")
    v.check(abs(s["max_excess"] - want_excess) <= 1e-6,
            f"max excess {s['max_excess']:.3g} vs {want_excess:.3g}")
    v.check(s["max_fd_error"] <= REL_FD * float(norms.max()),
            f"finite-difference error {s['max_fd_error']:.3g}")


def _near_kink(x: np.ndarray, c1: float, c2: float) -> np.ndarray:
    n = x.shape[1]
    a = c1 * math.sqrt(n) * np.linalg.norm(x, axis=1)
    b = c2 * np.abs(x).sum(axis=1) / n
    return (np.minimum(np.abs(a - 1.0), np.abs(a - 2.0)) < 1e-4) | \
        (np.minimum(np.abs(b - 1.0), np.abs(b - 2.0)) < 1e-4)


def _cutoff_check(op, s, v):
    x = workloads.cloud(op, spread=True)
    v.check(s["count"] == x.shape[0], "count")
    skipped = int(_near_kink(x, op["c1"], op["c2"]).sum())
    v.check(s["skipped"] == skipped, f"skipped {s['skipped']} vs {skipped}")
    v.check(s["plateau"] == 0, f"{s['plateau']} plateau violations")
    v.check(s["gradient"] == 0, f"{s['gradient']} gradient violations")


# ---------------------------------------------------------------- lattice

def count_cells(k: int, n: int, s: int) -> int:
    """Cells of [k]^n with coordinate sum <= s, by inclusion-exclusion."""
    if s < 0:
        return 0
    return sum((-1) ** j * math.comb(n, j) * math.comb(s - j * k + n, n)
               for j in range(min(n, s // k) + 1))


def scaled_max_distance(n: int, m: int, eps: float) -> float:
    k = m + 1
    need = Fraction(eps) * k**n
    lo, hi = 0, n * m
    while lo < hi:
        mid = (lo + hi) // 2
        if count_cells(k, n, mid) >= need:
            hi = mid
        else:
            lo = mid + 1
    return max(0, n * m - 2 * lo) / (m * math.sqrt(n))


def _cells(k: int, n: int) -> np.ndarray:
    """All cells in row-major order (last coordinate fastest)."""
    return np.indices((k,) * n).reshape(n, -1).T


def segment_mask(k: int, n: int, count: int, final: bool) -> int:
    cells = _cells(k, n)
    # simplicial order: by sum, then larger earlier coordinate first
    keys = [cells[:, i] * -1 for i in reversed(range(n))] + [cells.sum(axis=1)]
    order = np.lexsort(keys)
    chosen = order[cells.shape[0] - count:] if final else order[:count]
    return sum(1 << int(i) for i in chosen)


def _mask_array(mask: int, k: int, n: int) -> np.ndarray:
    bits = np.array([(mask >> i) & 1 for i in range(k**n)], dtype=bool)
    return bits.reshape((k,) * n)


def _dilate(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    for ax in range(a.ndim):
        lo = [slice(None)] * a.ndim
        hi = [slice(None)] * a.ndim
        lo[ax], hi[ax] = slice(1, None), slice(None, -1)
        out[tuple(lo)] |= a[tuple(hi)]
        out[tuple(hi)] |= a[tuple(lo)]
    return out


def _array_mask(a: np.ndarray) -> int:
    return sum(1 << int(i) for i in np.flatnonzero(a.ravel()))


def lattice_distance(a: np.ndarray, b: np.ndarray) -> int:
    d = 0
    while not np.any(a & b):
        a = _dilate(a)
        d += 1
    return d


def brute_extremal(k: int, n: int, r: int, s: int) -> int:
    """max over |A| = r, |B| = s of dist(A, B), by enumerating every A."""
    import itertools

    cells = _cells(k, n)
    dist = np.abs(cells[:, None, :] - cells[None, :, :]).sum(axis=2)
    combos = np.array(list(itertools.combinations(range(len(cells)), r)))
    near = dist[:, combos].min(axis=2)          # cells x subsets
    near.sort(axis=0)
    return int(near[len(cells) - s].max())      # s-th farthest, best subset


def _verify(op, s, v):
    k, n, r, t = op["k"], op["n"], op["r"], op["s"]
    size = k**n
    v.check(s["space"] == math.comb(size, r) * math.comb(size, t), "search space")
    brute = brute_extremal(k, n, r, t)
    a = _mask_array(segment_mask(k, n, r, False), k, n)
    b = _mask_array(segment_mask(k, n, t, True), k, n)
    seg = lattice_distance(a, b)
    v.check(s["brute"] == brute, f"brute max {s['brute']} vs {brute}")
    v.check(s["segment"] == seg, f"segment distance {s['segment']} vs {seg}")
    v.check(s["agree"] == (brute == seg), "agree flag")


def _segment(op, s, v):
    want = segment_mask(op["k"], op["n"], op["r"], op["kind"] == "final_segment")
    v.check(int(s["mask"], 16) == want, "segment cells")


def _t_boundary(op, s, v):
    a = _mask_array(segment_mask(op["k"], op["n"], op["r"], False), op["k"], op["n"])
    for _ in range(op["t"]):
        a = _dilate(a)
    v.check(int(s["mask"], 16) == _array_mask(a), "t-boundary cells")


def _set_distance(op, s, v):
    k, n = op["k"], op["n"]
    a = _mask_array(segment_mask(k, n, op["r"], False), k, n)
    b = _mask_array(segment_mask(k, n, op["s"], True), k, n)
    want = lattice_distance(a, b)
    v.check(s["value"] == want, f"distance {s['value']} vs {want}")


def _scaled(op, s, v):
    v.rel(s["value"], scaled_max_distance(op["n"], op["m"], op["eps"]), 1e-12, "value")


def _count_cells(op, s, v):
    v.check(s["value"] == count_cells(op["k"], op["n"], op["s"]), "count")


# ---------------------------------------------------------------- probes

def _phi_inv_vec(op, s, v):
    x = np.linspace(1e-6, 1.0 - 1e-6, op["points"])[:: max(1, op["points"] // 16)]
    for xi, got in zip(x, s["sample"]):
        want = -phi_inv(float(1 - xi)) if xi > 0.5 else phi_inv(float(xi))
        v.check(abs(got - want) <= REL_FORMULA * (abs(want) + 1e-6), f"phi_inv({xi:g})")


def _phi_p_vec(op, s, v):
    x = np.linspace(-3.0, 3.0, op["points"])[:: max(1, op["points"] // 16)]
    for xi, got in zip(x, s["sample"]):
        v.rel(got, phi_p(float(xi), op["p"]), REL_FORMULA, f"phi_p({xi:g})")


def _phi_p_inv(op, s, v):
    for eps, got in zip(workloads.probe_eps(op["calls"]), s["values"]):
        v.rel(phi_p(got, op["p"]), eps, REL_FORMULA, f"phi_p_inv({eps:g})")


def _time_to_half(op, s, v):
    v.rel(s["value"], delta_closed(op["family"], op.get("p"), op["eps"]), REL_QUAD, "value")


def _closed_form(op, s, v):
    fams = (("ball", None), ("cube", None), ("simplex", None), ("lp", 1.5))
    for i, (eps, got) in enumerate(zip(workloads.probe_eps(op["calls"]), s["values"])):
        fam, p = fams[i % 4]
        v.rel(got, delta_closed(fam, p, eps), REL_FORMULA, f"{fam} delta")


def _lp_tail_volume(op, s, v):
    want = lp_cap_volume(op["x"], op["p"], op["n"])
    err = v.rel(s["value"], want, REL_VOLUME, "tail")
    v.errors["tail_rel"] = err
    v.errors["tail_small"] = want < TAIL_DEFECT_BELOW


def _cube_sum_cdf(op, s, v):
    want = irwin_hall(op["n"], op["s"])
    v.rel(s["value"], mp.mpf(want.numerator) / want.denominator, REL_FORMULA, "value")


_JUDGES = {
    "bound_report": _bound_report,
    "simplex_corner": _simplex_corner,
    "cube_diagonal": _cube_diagonal,
    "lp_caps": lambda op, s, v: _caps(op, s, v, op["p"]),
    "ball_caps": lambda op, s, v: _caps(op, s, v, 2.0),
    "distance_quad": _distance_quad,
    "section_curve": _judge_section_curve,
    "cli": _cli,
    "sample_uniform": _sample_uniform,
    "estimate_cap_volume": _estimate_cap_volume,
    "exp_tail": _exp_tail,
    "transfer": _transfer,
    "avgdist": _avgdist,
    "tmap_check": _tmap_check,
    "cutoff_check": _cutoff_check,
    "product_check": _cutoff_check,
    "scaled_max_distance": _scaled,
    "verify": _verify,
    "initial_segment": _segment,
    "final_segment": _segment,
    "t_boundary": _t_boundary,
    "set_distance": _set_distance,
    "count_cells": _count_cells,
    "phi_inv_vec": _phi_inv_vec,
    "phi_p_vec": _phi_p_vec,
    "phi_p_inv": _phi_p_inv,
    "time_to_half": _time_to_half,
    "closed_form": _closed_form,
    "lp_tail_volume": _lp_tail_volume,
    "cube_sum_cdf": _cube_sum_cdf,
}
