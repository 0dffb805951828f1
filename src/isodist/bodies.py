"""Body families the distance bounds are stated for.

A family is a tag plus, for the l_p balls, the exponent p.  All bodies are
normalized to volume one: the cube is (0,1)^n, the others are scaled by the
unit-volume radius computed in profiles.  p is restricted to [1, 2]; the
p = 1 member is the cross-polytope, and lp(2) is built as the euclidean
ball itself, so BodyFamily.lp(2.0) == BodyFamily.ball() and every formula
reads the ball's row for it.

This module is the one place that turns an argument into a number.  A
public function reads each argument here before it compares or computes
with it, by one rule per kind of argument, and what the rule refuses
raises DomainError:

    one number        _number: a real scalar or a 0-d array, as a float;
                      an array or a complex value raises
    real value/array  _real: a float, or a float array when the input
                      has an axis; a complex value raises, also with a
                      zero imaginary part, and so do None, also inside
                      a list or an object array, and what numpy cannot
                      read as floats
    integer size      _validate_n: a Python or numpy integer or an
                      integral float, as an int; a fractional, NaN,
                      infinite, complex, array or string value raises
    lattice cell      _cell: a tuple of ints, each coordinate a Python
                      or numpy integer; a float, complex or string
                      coordinate raises, also an integral one like 1.0
    point cloud       montecarlo._cloud, which reads it through _real

The private _validate_* helpers below then check a value's range; the
other modules import them, and a public function runs each of its
inputs through at most one of them, once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_KINDS = ("ball", "cube", "simplex", "lp")


def _real(x, name: str):
    """x as a float, or as a float array when it has an axis; the
    validators pass a Python float by without the call.  A Python or
    numpy int, float or bool goes straight through float(); anything else,
    a 0-d array or a numeric string among them, through np.asarray(x,
    dtype=float) first.  DomainError is raised for a complex x, also with
    a zero imaginary part, where numpy would drop that part with no more
    than a ComplexWarning; for None, also inside a list or an object
    array, which numpy would read as NaN (object arrays of Fractions
    pass); and for what numpy refuses to read as floats, such as 'abc',
    {} or a ragged list."""
    if not isinstance(x, (int, float, np.integer, np.floating)):
        try:
            a = np.asarray(x)
            if np.iscomplexobj(a) or a.dtype == object and any(v is None for v in a.flat):
                raise DomainError(f"{name} must be real, got {type(x).__name__}")
            x = np.asarray(x, dtype=float)
        except (TypeError, ValueError):
            raise DomainError(f"{name} must be real, got {type(x).__name__}") from None
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def _number(x, name: str) -> float:
    """x as one float, read by _real; an array raises DomainError."""
    x = _real(x, name)
    if isinstance(x, np.ndarray):
        raise DomainError(f"{name} must be a single number, not an array")
    return x


def _validate_p(p: float) -> float:
    p = p if type(p) is float else _number(p, "p")
    if not 1.0 <= p <= 2.0:
        raise DomainError(f"p must lie in [1, 2], got {p}")
    return p


@dataclass(frozen=True)
class BodyFamily:
    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown family {self.kind!r}, expected one of {_KINDS}")
        if self.kind == "lp":
            if self.p is None:
                raise DomainError("lp family needs an exponent p")
            object.__setattr__(self, "p", _validate_p(self.p))
            if self.p == 2.0:
                object.__setattr__(self, "kind", "ball")
                object.__setattr__(self, "p", None)
        elif self.p is not None:
            raise DomainError(f"{self.kind} family takes no exponent")

    @classmethod
    def ball(cls) -> "BodyFamily":
        return cls("ball")

    @classmethod
    def cube(cls) -> "BodyFamily":
        return cls("cube")

    @classmethod
    def simplex(cls) -> "BodyFamily":
        return cls("simplex")

    @classmethod
    def lp(cls, p: float) -> "BodyFamily":
        return cls("lp", p)

    def label(self) -> str:
        if self.kind == "lp":
            return f"lp({self.p:g})"
        return self.kind


def _validate_epsilon(eps: float) -> float:
    """Volume fractions must sit strictly between 0 and 1/2."""
    eps = eps if type(eps) is float else _number(eps, "epsilon")
    if not 0.0 < eps < 0.5:
        raise DomainError(f"epsilon must lie in (0, 0.5), got {eps}")
    return eps


def _validate_open_interval(x, lo: float, hi: float, name: str):
    """x with every entry in (lo, hi), where a NaN entry fails, read by
    _real: a real scalar or a 0-d input comes back as a float, anything
    else as a float array, and a complex value raises DomainError."""
    x = x if type(x) is float else _real(x, name)
    if not (lo < x < hi if isinstance(x, float) else ((x > lo) & (x < hi)).all()):
        raise DomainError(f"{name} must lie in ({lo:g}, {hi:g})")
    return x


def _validate_n(n, least: float) -> int:
    """A dimension or lattice size n >= least, as an int.

    Python and numpy integers pass, and so do integral floats such as
    25.0; a fractional, infinite or NaN n raises DomainError instead of
    being truncated, as does a complex, array or string one.  least =
    -inf reads any integer and leaves its range to the caller: the
    lattice's sizes, indices and masks raise RangeError outside the grid.
    """
    try:
        m = operator.index(n)
    except TypeError:
        m = int(n) if isinstance(n, float) and n.is_integer() else None
    if m is None or m < least:
        raise DomainError(f"need an integer >= {least}, got {n!r}")
    return m


def _cell(cell) -> tuple:
    """A lattice cell as a tuple of ints.  Each coordinate is read with
    operator.index, so a Python or numpy integer passes and a float, even
    an integral one such as 1.0, raises DomainError, as do a complex or
    string coordinate; the grid checks the count and range."""
    try:
        return tuple(map(operator.index, cell))
    except TypeError:
        raise DomainError(f"cell {cell!r} has a non-integer coordinate") from None
