"""Domain error types shared across the package.

Everything derived from DomainError means "the mathematics rejected the
input" (the CLI maps these to exit code 2), as opposed to malformed
flags or I/O problems.
"""

from __future__ import annotations


class DomainError(Exception):
    """Base class for mathematical domain violations."""


class AllZero(DomainError):
    """All projective coordinates are zero."""


class BasePointVanishing(DomainError):
    """The designated base point has y = 0, so it cannot define a twist."""


class PointNotOnCurve(DomainError):
    """Point does not satisfy y^s = a*x^r + b."""


class NotAdmissible(DomainError):
    """x-coordinates do not have pairwise distinct r-th powers."""


class DimensionMismatch(DomainError):
    """Projective point length does not match the fiber dimension."""


class NotOnFiber(DomainError):
    """Point does not satisfy every fiber equation."""


class DegenerateParameter(DomainError):
    """Conic parameterization produced the zero vector."""


class DegenerateSpec(DomainError):
    """Conic coefficients with alpha or beta zero, or cubic coefficients
    with alpha, beta or alpha + beta zero.  A conic with alpha + beta zero
    is valid; only its parameter u = 1 is degenerate (DegenerateParameter)."""


class CoordinateVanishing(DomainError):
    """A cubic point outside the mapped locus: X*Y*Z = 0, or U + V = 0 on
    the diagonal model."""


class NotOnCubic(DomainError):
    """Point does not satisfy the diagonal cubic equation."""


class WrongShape(DomainError):
    """Operation requires a specific (n, s); got something else."""


class TrivialPoint(DomainError):
    """Fiber point whose recovered curve degenerates (a*b = 0).

    Carries the degenerate coefficients so callers can report them.
    """

    def __init__(self, a, b):
        self.a = a
        self.b = b
        super().__init__(f"trivial fiber point: recovered a={a}, b={b}")


class MismatchReport(DomainError):
    """Raised when the embedded dataset reproduction finds mismatches."""

    def __init__(self, failures):
        self.failures = tuple(failures)
        lines = "; ".join(self.failures)
        super().__init__(f"{len(self.failures)} mismatch(es): {lines}")
