"""Body families the distance bounds are stated for.

A family is a tag plus, for the l_p balls, the exponent p.  All bodies are
normalized to volume one: the cube is (0,1)^n, the others are scaled by the
unit-volume radius computed in profiles.  p is restricted to [1, 2]; the
p = 1 member is the cross-polytope, and lp(2) is built as the euclidean
ball itself, so BodyFamily.lp(2.0) == BodyFamily.ball() and every formula
reads the ball's row for it.

The private _validate_* helpers below are the shared input checks that
the other modules import; a public function runs each of its inputs
through at most one of them, once, and they raise DomainError outside
the domain.  They read a value through _real, as montecarlo's cloud
intake does, so a complex value raises DomainError too.
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
    dtype=float) first.  A complex x raises DomainError, also with a zero
    imaginary part, where numpy would drop that part with no more than a
    ComplexWarning and float() would raise TypeError."""
    if not isinstance(x, (int, float, np.integer, np.floating)):
        if np.iscomplexobj(x):
            raise DomainError(f"{name} must be real, not complex")
        x = np.asarray(x, dtype=float)
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def _validate_p(p: float) -> float:
    p = p if type(p) is float else float(_real(p, "p"))
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
    eps = eps if type(eps) is float else float(_real(eps, "epsilon"))
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


def _validate_n(n, least: int) -> int:
    """A dimension or lattice size n >= least, as an int.

    Python and numpy integers pass, and so do integral floats such as
    25.0; a fractional, infinite or NaN n raises DomainError instead of
    being truncated.
    """
    try:
        m = operator.index(n)
    except TypeError:
        m = int(n) if isinstance(n, float) and n.is_integer() else None
    if m is None or m < least:
        raise DomainError(f"need an integer >= {least}, got {n!r}")
    return m
