"""Body families the distance bounds are stated for.

A family is a tag plus, for the l_p balls, the exponent p.  All bodies are
normalized to volume one: the cube is (0,1)^n, the others are scaled by the
unit-volume radius computed in specfun.  p is restricted to [1, 2]; the
p = 1 member is the cross-polytope and p = 2 the euclidean ball.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import DomainError

_KINDS = ("ball", "cube", "simplex", "lp")


def validate_p(p: float) -> float:
    p = float(p)
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
            object.__setattr__(self, "p", validate_p(self.p))
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
        return cls("lp", float(p))

    def label(self) -> str:
        if self.kind == "lp":
            return f"lp({self.p:g})"
        return self.kind


def validate_epsilon(eps: float) -> float:
    """Volume fractions must sit strictly between 0 and 1/2."""
    eps = float(eps)
    if not 0.0 < eps < 0.5:
        raise DomainError(f"epsilon must lie in (0, 0.5), got {eps}")
    return eps


def validate_n(n, least: int) -> int:
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
