"""The Lie algebra of affine maps of the line, its group and coadjoint orbits.

Elements alpha*X + beta*Y correspond to matrices [[alpha, beta], [0, 0]]; the
only non-zero bracket is [X, Y] = Y.  The connected group consists of maps
x -> a x + b with a > 0.  Coordinates may be exact (int/Fraction) or floating
point: all algebraic operations preserve whichever arithmetic they are fed,
so property tests can run with zero tolerance on rationals.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .symbol_algebra import ExpPolySymbol


class DegenerateOrbitError(ValueError):
    """Raised when a symplectic quantity is requested on a point orbit (y = 0)."""


@dataclass(frozen=True)
class LieAlgebraElement:
    """alpha*X + beta*Y in the basis with [X, Y] = Y."""

    alpha: object
    beta: object

    def __add__(self, other: "LieAlgebraElement") -> "LieAlgebraElement":
        return LieAlgebraElement(self.alpha + other.alpha, self.beta + other.beta)

    def __sub__(self, other: "LieAlgebraElement") -> "LieAlgebraElement":
        return LieAlgebraElement(self.alpha - other.alpha, self.beta - other.beta)

    def __neg__(self) -> "LieAlgebraElement":
        return LieAlgebraElement(-self.alpha, -self.beta)

    def __rmul__(self, scalar) -> "LieAlgebraElement":
        return LieAlgebraElement(scalar * self.alpha, scalar * self.beta)

    __mul__ = __rmul__


X = LieAlgebraElement(1, 0)
Y = LieAlgebraElement(0, 1)


@dataclass(frozen=True)
class GroupElement:
    """Orientation-preserving affine map x -> a x + b (a > 0)."""

    a: object
    b: object

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"dilation must be positive, got a={self.a!r}")

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(1, 0)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        # (a1, b1) . (a2, b2) = (a1 a2, a1 b2 + b1)
        return GroupElement(self.a * other.a, self.a * other.b + self.b)

    def inverse(self) -> "GroupElement":
        return GroupElement(1 / self.a, -self.b / self.a)


@dataclass(frozen=True)
class CoadjointPoint:
    """Linear functional x*X^* + y*Y^* on the algebra."""

    x: object
    y: object


@dataclass(frozen=True)
class OrbitId:
    """Classification of a coadjoint orbit.

    kind is one of "point", "upper", "lower"; lam carries the abscissa of a
    point orbit and is None otherwise.
    """

    kind: str
    lam: object = None

    @classmethod
    def point(cls, lam) -> "OrbitId":
        return cls("point", lam)


UPPER_HALF_PLANE = OrbitId("upper")
LOWER_HALF_PLANE = OrbitId("lower")


def bracket(z: LieAlgebraElement, t: LieAlgebraElement) -> LieAlgebraElement:
    """Lie bracket [Z, T] = (alpha1 beta2 - alpha2 beta1) Y."""
    return LieAlgebraElement(0 * z.alpha, z.alpha * t.beta - t.alpha * z.beta)


# log of the largest finite float: math.exp overflows above it.
_EXP_MAX_ARG = math.log(sys.float_info.max)


def exp_group(z: LieAlgebraElement) -> GroupElement:
    """Exponential of the algebra element into the group (always floating).

    a = e^alpha and b = beta (e^alpha - 1)/alpha; the quotient is evaluated
    through expm1 so the removable singularity at alpha = 0 keeps full
    relative accuracy.
    """
    alpha = float(z.alpha)
    beta = float(z.beta)
    if alpha > _EXP_MAX_ARG:
        raise OverflowError(
            f"exp_group: alpha = {alpha!r} exceeds {_EXP_MAX_ARG!r}, the largest "
            "exponent whose e^alpha is a finite float")
    a = math.exp(alpha)
    if alpha == 0.0:
        b = beta
    else:
        b = beta * math.expm1(alpha) / alpha
    return GroupElement(a, b)


def adjoint_matrix(g: GroupElement):
    """Matrix of Ad(g) on the (X, Y) basis, as a 2x2 nested tuple.

    Ad(g)(alpha, beta) = (alpha, a beta - b alpha) for g = (a, b).
    """
    return ((1, 0), (-g.b, g.a))


def coadjoint_act(g: GroupElement, f: CoadjointPoint) -> CoadjointPoint:
    """Coadjoint action K(g)F, paired through Ad(g^{-1}).

    The transpose of the adjoint matrix of g^{-1} acts on the (x, y)
    coordinates, giving (x + (b/a) y, y/a).
    """
    (m11, m12), (m21, m22) = adjoint_matrix(g.inverse())
    return CoadjointPoint(m11 * f.x + m21 * f.y, m12 * f.x + m22 * f.y)


def classify_orbit(f: CoadjointPoint, tol=0) -> OrbitId:
    """Orbit through F: a point orbit on y = 0, else a half-plane.

    ``tol`` widens the y = 0 test for floating-point inputs; the default 0
    keeps the strict case split, which is exact on rational coordinates.
    """
    if abs(f.y) <= tol:
        return OrbitId.point(f.x)
    return UPPER_HALF_PLANE if f.y > 0 else LOWER_HALF_PLANE


def hamiltonian(z: LieAlgebraElement) -> ExpPolySymbol:
    """Hamiltonian symbol of Z on the orbit chart: alpha*p + beta*e^q."""
    return ExpPolySymbol({(1, 0): z.alpha, (0, 1): z.beta})


def kirillov_form(f: CoadjointPoint, z: LieAlgebraElement,
                  t: LieAlgebraElement):
    """Canonical symplectic pairing <F, [Z, T]> = (a1 b2 - a2 b1) y.

    Only defined on the two-dimensional orbits; raises DegenerateOrbitError
    on the point orbits y = 0 where the form is not symplectic.
    """
    if f.y == 0:
        raise DegenerateOrbitError("Kirillov form is degenerate on point orbits (y = 0)")
    return (z.alpha * t.beta - t.alpha * z.beta) * f.y
