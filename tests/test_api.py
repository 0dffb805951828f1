"""The public surface: which values a caller can set, and how dimensions
are taken."""

import ast
import dataclasses
import functools
import importlib
import inspect
import pathlib

import numpy as np
import pytest

import isodist
from isodist import (BodyFamily, DomainError, Grid, RangeError, SubsetHandle,
                     average_distance_experiment, ball_caps_witness, bodies, bound_report,
                     convergence_report, count_cells_sum_le, cube_diagonal_witness,
                     cube_sum_cdf, cutoff_gradient_check, cutoff_product_check,
                     delta_closed_form, distance_upper_bound, estimate_cap_volume,
                     exp_tail_check, final_segment, initial_segment, kappa, lp_caps_witness,
                     lp_section_area, lp_tail_volume, make_profile, phi, phi_inv,
                     phi_inv_asymptote, phi_p, phi_p_inv, psi_p, psi_p_density_limit,
                     psi_p_inv, psi_p_inv_asymptote, sample_uniform, scaled_max_distance,
                     section_curve, simplex_corner_witness, sphere_projection_cdf, t_boundary,
                     t_map_lipschitz_check, time_to_half, transfer_map_check,
                     unit_volume_radius, verify_extremal_pairs)

MODULES = ("bodies", "cli", "enlargement", "errors", "lattice", "montecarlo",
           "profiles", "rng", "sections", "specfun", "witness")

# Every defaulted parameter of a public function or method and every
# defaulted dataclass field.  A new entry is a new setting that tests and
# benchmarks have to cover: add it here only on purpose.
SETTABLE = {
    "bodies.BodyFamily.p",
    "cli.main(argv)",
    "enlargement.distance_upper_bound(method)",
    "lattice.verify_extremal_pairs(budget)",
}


# The names `from isodist import *` gives, modules left out.  A new entry
# is a new public function or type that tests, docs and benchmarks have to
# cover: add it here only on purpose.
PUBLIC = {
    "AvgDistanceResult", "BodyFamily", "BoundReport", "BudgetExceededError", "Cell",
    "ConvergenceReport", "CutoffCheck", "DimensionMismatchError", "DomainError",
    "EmptySetError", "EnlargementResult", "EstimateWithCI", "ExpTailCheck",
    "ExtremalCheck", "Grid", "IsoProfile", "IsodistError", "NonConvergenceError",
    "RangeError", "RegionDescriptor", "RegionPair", "SampleBatch", "SectionCurve",
    "SubsetHandle", "TMapCheck", "TransferCheck", "average_distance_experiment",
    "ball_caps_witness", "bound_report", "convergence_report", "count_cells_sum_le",
    "cube_diagonal_witness", "cube_sum_cdf",
    "cutoff_gradient_check", "cutoff_product_check", "delta_closed_form",
    "distance_upper_bound", "estimate_cap_volume", "exp_tail_check", "final_segment",
    "initial_segment", "kappa", "lp_caps_witness",
    "lp_section_area", "lp_tail_volume", "make_profile", "phi", "phi_inv",
    "phi_inv_asymptote", "phi_p", "phi_p_inv", "psi_p",
    "psi_p_density_limit", "psi_p_inv", "psi_p_inv_asymptote",
    "sample_uniform", "scaled_max_distance", "section_curve", "set_distance",
    "simplex_corner_witness", "simplicial_cmp", "sphere_projection_cdf", "t_boundary",
    "t_map_lipschitz_check", "time_to_half", "transfer_map_check", "unit_volume_radius",
    "verify_extremal_pairs",
}


def _defaulted(fn, owner):
    return {f"{owner}({name})" for name, prm in inspect.signature(fn).parameters.items()
            if prm.default is not inspect.Parameter.empty}


def _settable(mod):
    module = importlib.import_module(f"isodist.{mod}")
    found = set()
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found |= _defaulted(obj, f"{mod}.{name}")
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                found |= {f"{mod}.{name}.{f.name}" for f in dataclasses.fields(obj)
                          if f.default is not dataclasses.MISSING
                          or f.default_factory is not dataclasses.MISSING}
            for mname, method in vars(obj).items():
                if isinstance(method, (classmethod, staticmethod)):
                    method = method.__func__
                if not mname.startswith("_") and inspect.isfunction(method):
                    found |= _defaulted(method, f"{mod}.{name}.{mname}")
    return found


def test_settable_values_are_the_allowlist():
    assert set().union(*map(_settable, MODULES)) == SETTABLE


def test_public_names_are_the_allowlist():
    assert {name for name in isodist.__all__
            if not inspect.ismodule(getattr(isodist, name))} == PUBLIC


ENVIRON = {"os.environ", "environ"}
ENV_GETTERS = {"os.environ.get", "environ.get", "os.getenv", "getenv"}


def _env_reads(path):
    """Each os.environ[key], os.environ.get(key, ...) and os.getenv(key, ...)
    in one file, as "file: key"."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Subscript) and ast.unparse(node.value) in ENVIRON:
            yield f"{path.name}: {ast.unparse(node.slice)}"
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in ENV_GETTERS:
            yield f"{path.name}: {ast.unparse(node.args[0])}"


def test_no_environment_variable_is_read():
    # an environment variable is a setting the allowlist above cannot see
    files = sorted(pathlib.Path(isodist.__file__).parent.glob("*.py"))
    assert len(files) == len(MODULES) + 1  # the modules and __init__
    assert [r for f in files for r in _env_reads(f)] == []


# Each family's formulas live in one record of profiles._FAMILIES, and lp(2)
# becomes the ball once, in bodies.BodyFamily.  What is left to branch on a
# family is the choice of algorithm, listed here; a new branch on a family
# belongs in the table instead.
FAMILY_TESTS = [
    "cli.cmd_witness: family.kind == 'cube'",
    "cli.cmd_witness: family.kind == 'simplex'",
    "montecarlo._fill_for: family.kind == 'cube'",
    "montecarlo._fill_for: family.kind == 'simplex'",
    "witness.bound_report: family.kind == 'cube'",
]


def _family_tests(path):
    """Each comparison of a .kind attribute with strings, or of a .p
    attribute with 2, in one file, as "module.function: source"."""
    for top in ast.parse(path.read_text(), str(path)).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            attrs = {side.attr for side in sides if isinstance(side, ast.Attribute)}
            consts = [c.value for side in sides
                      for c in getattr(side, "elts", [side]) if isinstance(c, ast.Constant)]
            if ("kind" in attrs and any(isinstance(c, str) for c in consts)) \
                    or ("p" in attrs and 2 in consts):
                yield f"{path.stem}.{getattr(top, 'name', '<module>')}: {ast.unparse(node)}"


def test_family_decisions_stay_in_the_table():
    files = sorted(pathlib.Path(isodist.__file__).parent.glob("*.py"))
    assert sorted(r for f in files if f.name != "bodies.py"
                  for r in _family_tests(f)) == FAMILY_TESTS


GRID = np.array([0.0, 0.5, 1.0])

# every public function taking a dimension n, called with n = 25, the
# lattice functions once more with 25 as the side k or the scale m, and
# every other integer count that is no lattice size: the sample counts and
# seeds, the boundary distance t and the search budget
TAKES_N = {
    "unit_volume_radius": lambda n: unit_volume_radius(BodyFamily.lp(1.5), n),
    "lp_section_area": lambda n: lp_section_area(0.5, 1.5, n),
    "lp_tail_volume": lambda n: lp_tail_volume(0.5, 1.5, n),
    "section_curve": lambda n: section_curve(2.0, n, GRID),
    "convergence_report": lambda n: convergence_report(1.5, [n], GRID),
    "cube_sum_cdf": lambda n: cube_sum_cdf(n, 10.0),
    "sphere_projection_cdf": lambda n: sphere_projection_cdf(n, 0.3),
    "lp_caps_witness": lambda n: lp_caps_witness(n, 1.5, 0.1),
    "ball_caps_witness": lambda n: ball_caps_witness(n, 0.1),
    "cube_diagonal_witness": lambda n: cube_diagonal_witness(n, 0.1),
    "simplex_corner_witness": lambda n: simplex_corner_witness(n, 0.1),
    "sample_uniform": lambda n: sample_uniform(BodyFamily.simplex(), n, 8, 1),
    "estimate_cap_volume": lambda n: estimate_cap_volume(BodyFamily.ball(), n, 0.1, 8, 1),
    "exp_tail_check": lambda n: exp_tail_check(n, 0.5, 8, 1),
    "transfer_map_check": lambda n: transfer_map_check(n, 8, 1),
    "average_distance_experiment": lambda n: average_distance_experiment(n, 8, 1),
    "Grid": lambda n: Grid(3, n),
    "Grid-k": lambda k: Grid(k, 2),
    "count_cells_sum_le": lambda n: count_cells_sum_le(3, n, 10),
    "count_cells_sum_le-k": lambda k: count_cells_sum_le(k, 3, 10),
    "scaled_max_distance": lambda n: scaled_max_distance(n, 4, 0.1),
    "scaled_max_distance-m": lambda m: scaled_max_distance(4, m, 0.1),
    "sample_uniform(count)": lambda c: sample_uniform(BodyFamily.cube(), 3, c, 1),
    "sample_uniform(seed)": lambda s: sample_uniform(BodyFamily.cube(), 3, 8, s),
    "estimate_cap_volume(count)":
        lambda c: estimate_cap_volume(BodyFamily.ball(), 3, 0.1, c, 1),
    "estimate_cap_volume(seed)":
        lambda s: estimate_cap_volume(BodyFamily.ball(), 3, 0.1, 8, s),
    "exp_tail_check(count)": lambda c: exp_tail_check(3, 0.5, c, 1),
    "exp_tail_check(seed)": lambda s: exp_tail_check(3, 0.5, 8, s),
    "transfer_map_check(count)": lambda c: transfer_map_check(3, c, 1),
    "transfer_map_check(seed)": lambda s: transfer_map_check(3, 8, s),
    "average_distance_experiment(count)": lambda c: average_distance_experiment(3, c, 1),
    "average_distance_experiment(seed)": lambda s: average_distance_experiment(3, 8, s),
    "t_boundary(t)": lambda t: t_boundary(SubsetHandle(Grid(3, 2), 1), t),
    "verify_extremal_pairs(budget)":
        lambda b: verify_extremal_pairs(Grid(2, 2), 4, 4, budget=b),
}
# the entries of TAKES_N that take 0, so that -1 is their least bad value
FROM_ZERO = {"sample_uniform(seed)", "estimate_cap_volume(seed)", "exp_tail_check(seed)",
             "transfer_map_check(seed)", "average_distance_experiment(seed)",
             "t_boundary(t)", "verify_extremal_pairs(budget)"}


@pytest.mark.parametrize("name", sorted(TAKES_N))
def test_dimension_must_be_integral(name):
    call = TAKES_N[name]
    want = repr(call(25))
    assert repr(call(np.int64(25))) == want
    assert repr(call(25.0)) == want
    for bad in (25.7, float("nan"), float("inf"), -1 if name in FROM_ZERO else 0):
        with pytest.raises(DomainError):
            call(bad)


CLOUD = np.array([[0.1, 0.2, 0.3], [1.0, 2.0, 0.5]])
FAMILIES = {f.label(): f for f in (BodyFamily.ball(), BodyFamily.cube(),
                                    BodyFamily.simplex(), BodyFamily.lp(1.5))}
PROFILES = {label: make_profile(f) for label, f in FAMILIES.items()}

# each public call with the number of inputs it takes that a bodies._validate_*
# function checks; the families are built beforehand and not counted
CHECKS_ONCE = {
    **{f"bound_report({k})": (lambda f=f: bound_report(f, 0.1), 1)
       for k, f in FAMILIES.items()},
    **{f"delta_closed_form({k})": (lambda f=f: delta_closed_form(f, 0.1), 1)
       for k, f in FAMILIES.items()},
    **{f"distance_upper_bound({k})": (lambda f=f: distance_upper_bound(f, 0.1), 1)
       for k, f in FAMILIES.items()},
    **{f"make_profile({k})(t)": (lambda f=f: f(0.1), 1) for k, f in PROFILES.items()},
    **{f"sample_uniform({k})": (lambda f=f: sample_uniform(f, 7, 8, 1), 3)
       for k, f in FAMILIES.items()},
    "lp_caps_witness": (lambda: lp_caps_witness(10, 1.5, 0.1), 3),
    "ball_caps_witness": (lambda: ball_caps_witness(10, 0.1), 3),
    "cube_diagonal_witness": (lambda: cube_diagonal_witness(10, 0.1), 2),
    "simplex_corner_witness": (lambda: simplex_corner_witness(10, 0.1), 2),
    "kappa": (lambda: kappa(1.5), 1),
    "phi_p": (lambda: phi_p(0.3, 1.5), 1),
    "psi_p": (lambda: psi_p(0.3, 1.5), 1),
    "phi_p_inv": (lambda: phi_p_inv(0.1, 1.5), 2),
    "psi_p_inv": (lambda: psi_p_inv(0.1, 1.5), 2),
    "section_curve": (lambda: section_curve(1.5, 10, GRID), 2),
    # n once, and each of the two Gaussian streams its count and seed
    "transfer_map_check": (lambda: transfer_map_check(3, 8, 1), 5),
    # the points go through montecarlo._cloud, which is no validator here;
    # c1 and c2 once each
    "t_map_lipschitz_check": (lambda: t_map_lipschitz_check(CLOUD), 0),
    "cutoff_gradient_check": (lambda: cutoff_gradient_check(CLOUD, 0.8, 1.25), 2),
    "cutoff_product_check": (lambda: cutoff_product_check(CLOUD, 0.8, 1.25), 2),
}
VALIDATORS = ("_validate_epsilon", "_validate_n", "_validate_open_interval", "_validate_p")


def test_each_input_is_checked_once(monkeypatch):
    # public functions check their inputs and then call unchecked kernels,
    # so nothing below them checks the same value again
    calls = []
    for name in VALIDATORS:
        check = getattr(bodies, name)

        def counted(*args, _check=check, **kwargs):
            calls.append(args)
            return _check(*args, **kwargs)
        for mod in MODULES:
            module = importlib.import_module(f"isodist.{mod}")
            if getattr(module, name, None) is check:
                monkeypatch.setattr(module, name, counted)
    counts = {}
    for label, (call, _) in CHECKS_ONCE.items():
        calls.clear()
        call()
        counts[label] = len(calls)
    assert counts == {label: want for label, (_, want) in CHECKS_ONCE.items()}


def _scaled(v, base):
    """base scaled by v, as nested lists where base is a list; a v numpy
    cannot multiply by, such as None or 'abc', is passed on as it is."""
    try:
        out = np.multiply(v, base)
    except TypeError:
        return v
    return out.tolist() if isinstance(base, list) else out


# every public call that takes a real value the bodies validators or the
# cloud intake check, as a function of that value, with a valid one
TAKES_REAL = {
    # the cloud v CLOUD, as nested lists of Python numbers for T
    "t_map_lipschitz_check": (lambda v: t_map_lipschitz_check(_scaled(v, CLOUD.tolist())), 0.5),
    "cutoff_gradient_check(points)": (
        lambda v: cutoff_gradient_check(_scaled(v, CLOUD), 1.0, 1.0), 0.5),
    "cutoff_product_check(points)": (
        lambda v: cutoff_product_check(_scaled(v, CLOUD), 1.0, 1.0), 0.5),
    "cutoff_gradient_check(c1)": (lambda v: cutoff_gradient_check(CLOUD, v, 1.0), 0.8),
    "cutoff_gradient_check(c2)": (lambda v: cutoff_gradient_check(CLOUD, 1.0, v), 1.25),
    "cutoff_product_check(c1)": (lambda v: cutoff_product_check(CLOUD, v, 1.0), 0.8),
    "cutoff_product_check(c2)": (lambda v: cutoff_product_check(CLOUD, 1.0, v), 1.25),
    "estimate_cap_volume": (lambda v: estimate_cap_volume(BodyFamily.ball(), 3, v, 8, 1), 0.2),
    "exp_tail_check": (lambda v: exp_tail_check(3, v, 8, 1), 0.5),
    "phi_inv": (phi_inv, 0.1),
    "phi_p_inv(eps)": (lambda v: phi_p_inv(v, 1.5), 0.1),
    "psi_p_inv(eps)": (lambda v: psi_p_inv(v, 1.5), 0.1),
    "make_profile(t)": (lambda v: make_profile(BodyFamily.simplex())(v), 0.1),
    "bound_report": (lambda v: bound_report(BodyFamily.cube(), v), 0.1),
    "delta_closed_form": (lambda v: delta_closed_form(BodyFamily.ball(), v), 0.1),
    "distance_upper_bound": (lambda v: distance_upper_bound(BodyFamily.simplex(), v), 0.1),
    "time_to_half": (lambda v: time_to_half(PROFILES["cube"], v), 0.1),
    "lp_caps_witness(eps)": (lambda v: lp_caps_witness(10, 1.5, v), 0.1),
    "ball_caps_witness": (lambda v: ball_caps_witness(10, v), 0.1),
    "cube_diagonal_witness": (lambda v: cube_diagonal_witness(10, v), 0.1),
    "simplex_corner_witness": (lambda v: simplex_corner_witness(10, v), 0.1),
    "scaled_max_distance": (lambda v: scaled_max_distance(4, 4, v), 0.1),
    "phi_inv_asymptote": (phi_inv_asymptote, 0.1),
    "psi_p_inv_asymptote(eps)": (lambda v: psi_p_inv_asymptote(v, 1.5), 0.1),
    "BodyFamily.lp": (BodyFamily.lp, 1.5),
    "kappa": (kappa, 1.5),
    "phi_p(p)": (lambda v: phi_p(0.3, v), 1.5),
    "psi_p(p)": (lambda v: psi_p(0.3, v), 1.5),
    "phi_p_inv(p)": (lambda v: phi_p_inv(0.1, v), 1.5),
    "lp_section_area(p)": (lambda v: lp_section_area(0.5, v, 10), 1.5),
    "lp_tail_volume(p)": (lambda v: lp_tail_volume(0.5, v, 10), 1.5),
    "section_curve(p)": (lambda v: section_curve(v, 10, GRID), 1.5),
    "convergence_report(p)": (lambda v: convergence_report(v, [10], GRID), 1.5),
    "psi_p_inv(p)": (lambda v: psi_p_inv(0.1, v), 1.5),
    "psi_p_inv_asymptote(p)": (lambda v: psi_p_inv_asymptote(0.1, v), 1.5),
    "lp_caps_witness(p)": (lambda v: lp_caps_witness(10, v, 0.1), 1.5),
    "psi_p_density_limit(p)": (lambda v: psi_p_density_limit(0.3, v), 1.5),
    "BodyFamily(p)": (lambda v: BodyFamily("lp", v), 1.5),
    "count_cells_sum_le(s)": (lambda v: count_cells_sum_le(3, 2, v), 2.0),
    # the distribution functions, which take any value on the line
    "phi": (phi, 0.3),
    "phi_p(a)": (lambda v: phi_p(v, 1.5), 0.3),
    "psi_p(a)": (lambda v: psi_p(v, 1.5), 0.3),
    "lp_section_area(x)": (lambda v: lp_section_area(v, 1.5, 10), 0.5),
    "lp_tail_volume(x)": (lambda v: lp_tail_volume(v, 1.5, 10), 0.5),
    "cube_sum_cdf": (lambda v: cube_sum_cdf(5, v), 2.0),
    "sphere_projection_cdf": (lambda v: sphere_projection_cdf(5, v), 0.5),
    "psi_p_density_limit(x)": (lambda v: psi_p_density_limit(v, 1.5), 0.3),
    # the grids of heights, scaled by v
    "section_curve(grid)": (lambda v: section_curve(1.5, 10, _scaled(v, GRID)), 1.0),
    "convergence_report(grid)": (lambda v: convergence_report(1.5, [10], _scaled(v, GRID)), 1.0),
}


@pytest.mark.parametrize("name", sorted(TAKES_REAL))
def test_complex_input_raises(name):
    # a complex value raises DomainError, never a bare TypeError and never a
    # ComplexWarning with the imaginary part dropped, also where that part is
    # 0; so do None, never read as NaN, and values numpy cannot read as floats
    call, good = TAKES_REAL[name]
    call(good)
    for bad in (complex(good, 5.0), np.complex128(complex(good, 1.0)), np.complex64(good),
                np.array(complex(good, 1.0)), np.array([complex(good, 0.0)]),
                None, "abc", {}):
        with pytest.raises(DomainError):
            call(bad)


# the calls of TAKES_REAL whose value is one number, never an array: every
# eps but phi_inv's, every p, the constants and the single-number arguments
TAKES_NUMBER = (
    "bound_report", "delta_closed_form", "distance_upper_bound", "time_to_half",
    "lp_caps_witness(eps)", "ball_caps_witness", "cube_diagonal_witness",
    "simplex_corner_witness", "scaled_max_distance", "phi_inv_asymptote",
    "psi_p_inv_asymptote(eps)", "phi_p_inv(eps)", "psi_p_inv(eps)",
    "BodyFamily.lp", "BodyFamily(p)", "kappa", "phi_p(p)", "psi_p(p)", "phi_p_inv(p)",
    "psi_p_inv(p)", "psi_p_inv_asymptote(p)", "lp_caps_witness(p)", "lp_section_area(p)",
    "lp_tail_volume(p)", "section_curve(p)", "convergence_report(p)",
    "psi_p_density_limit(p)",
    "cutoff_gradient_check(c1)", "cutoff_gradient_check(c2)",
    "cutoff_product_check(c1)", "cutoff_product_check(c2)",
    "estimate_cap_volume", "exp_tail_check", "lp_tail_volume(x)", "cube_sum_cdf",
    "sphere_projection_cdf", "count_cells_sum_le(s)",
)


@pytest.mark.parametrize("name", TAKES_NUMBER)
def test_array_for_a_single_number_raises(name):
    # neither compared entry by entry nor a bare TypeError; a 0-d array passes
    call, good = TAKES_REAL[name]
    call(np.array(good))
    for bad in (np.full(100, good), np.array([good]), [good, good]):
        with pytest.raises(DomainError):
            call(bad)


LATTICE = Grid(3, 2)

# every lattice size, index or mask, compared with the grid's cells: a
# call as a function of it, a valid value, and an integer below and one
# above its range
TAKES_SIZE = {
    "initial_segment(r)": (lambda v: initial_segment(LATTICE, v), 2, (-1, 10)),
    "final_segment(s)": (lambda v: final_segment(LATTICE, v), 2, (-1, 10)),
    "Grid.cell(index)": (lambda v: LATTICE.cell(v), 2, (-1, 9)),
    "SubsetHandle(mask)": (lambda v: SubsetHandle(LATTICE, v), 2, (-1, 1 << 9)),
    "verify_extremal_pairs(r)": (lambda v: verify_extremal_pairs(LATTICE, v, 2), 2, (0, 10)),
    "verify_extremal_pairs(s)": (lambda v: verify_extremal_pairs(LATTICE, 2, v), 2, (0, 10)),
}


@pytest.mark.parametrize("name", sorted(TAKES_SIZE))
def test_lattice_size_is_read_before_it_is_compared(name):
    # a malformed value is DomainError itself, not its subclass RangeError
    # and not a bare TypeError or ValueError from a comparison with the grid;
    # an integer outside the grid is RangeError
    call, good, outside = TAKES_SIZE[name]
    call(good)
    for bad in (complex(good, 1.0), complex(good, 0.0), np.array([good, good]),
                np.array([good]), str(good)):
        with pytest.raises(DomainError) as err:
            call(bad)
        assert err.type is DomainError
    for bad in outside:
        with pytest.raises(RangeError):
            call(bad)


# the real-valued names a bare TAKES_REAL key feeds, and the integer ones a
# bare TAKES_N key feeds
REAL_NAMES = {"a", "alpha", "eps", "p", "points", "s", "x"}
SIZE_NAMES = {"n", "n_list"}

# arguments no table here feeds: the package's own objects, which check
# their fields when they are built, cells, which bodies._cell reads (see
# test_lattice), and two string choices
EXEMPT_TYPES = {"BodyFamily", "IsoProfile", "Grid", "SubsetHandle", "Cell"}
EXEMPT = {"BodyFamily(kind)", "distance_upper_bound(method)"}


def _fed(table, names):
    """'f(x)' for each key of an intake table: a key 'f(x)' or 'f-x' feeds
    parameter x of f, and a bare key 'f' the one parameter of f named in
    names."""
    out = set()
    for key in table:
        f, sep, x = key.partition("(") if "(" in key else key.partition("-")
        if not sep:
            fn = functools.reduce(getattr, f.split("."), isodist)
            (x,) = (p for p in inspect.signature(fn).parameters if p in names)
        out.add(f"{f}({x.rstrip(')')})")
    return out


def test_every_argument_goes_through_an_intake():
    # each parameter of a public function, or of a public class that checks
    # its fields, is in an intake table or exempt, so a new entry point
    # cannot skip the intake without failing here
    fed = (_fed(TAKES_N, SIZE_NAMES) | _fed(TAKES_REAL, REAL_NAMES) | set(TAKES_SIZE)
           | EXEMPT)
    assert set(TAKES_NUMBER) <= set(TAKES_REAL)
    missing = []
    for name in sorted(isodist.__all__):
        obj = getattr(isodist, name)
        if inspect.isfunction(obj) or inspect.isclass(obj) and "__post_init__" in vars(obj):
            for prm in inspect.signature(obj).parameters.values():
                kind = getattr(prm.annotation, "__name__", prm.annotation)
                if f"{name}({prm.name})" not in fed and kind not in EXEMPT_TYPES:
                    missing.append(f"{name}({prm.name})")
    assert missing == []
