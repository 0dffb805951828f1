"""The public surface: which values a caller can set, and how dimensions
are taken."""

import ast
import dataclasses
import importlib
import inspect
import pathlib

import numpy as np
import pytest

import isodist
from isodist import (BodyFamily, DomainError, Grid, average_distance_experiment,
                     ball_caps_witness, convergence_report, count_cells_sum_le,
                     cube_diagonal_witness, cube_sum_cdf, estimate_cap_volume,
                     exp_tail_check, lp_caps_witness, lp_section_area,
                     lp_tail_volume, sample_gaussian, sample_uniform,
                     scaled_max_distance, section_curve, simplex_corner_witness,
                     sphere_projection_cdf, transfer_map_check, unit_volume_radius)

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
    "profiles.IsoProfile.parametric",
    "specfun.unit_volume_radius(p)",
    "witness.BoundReport.manhattan_scaled_limit",
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


GRID = np.array([0.0, 0.5, 1.0])

# every public function taking a dimension n, called with n = 25, and the
# lattice functions once more with 25 as the side k or the scale m
TAKES_N = {
    "unit_volume_radius": lambda n: unit_volume_radius("lp", n, 1.5),
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
    "sample_gaussian": lambda n: sample_gaussian(n, 8, 1),
    "transfer_map_check": lambda n: transfer_map_check(n, 8, 1),
    "average_distance_experiment": lambda n: average_distance_experiment(n, 8, 1),
    "Grid": lambda n: Grid(3, n),
    "Grid-k": lambda k: Grid(k, 2),
    "count_cells_sum_le": lambda n: count_cells_sum_le(3, n, 10),
    "count_cells_sum_le-k": lambda k: count_cells_sum_le(k, 3, 10),
    "scaled_max_distance": lambda n: scaled_max_distance(n, 4, 0.1),
    "scaled_max_distance-m": lambda m: scaled_max_distance(4, m, 0.1),
}


@pytest.mark.parametrize("name", sorted(TAKES_N))
def test_dimension_must_be_integral(name):
    call = TAKES_N[name]
    want = repr(call(25))
    assert repr(call(np.int64(25))) == want
    assert repr(call(25.0)) == want
    for bad in (25.7, float("nan"), float("inf"), 0):
        with pytest.raises(DomainError):
            call(bad)
