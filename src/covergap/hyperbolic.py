"""Upper half-plane hyperbolic geometry.

Points, unit-determinant isometries acting by Mobius transformations,
the distance function, hyperbolic ball areas and the radius-t ball
indicator kernel k_t(z, w) = 1[d(z, w) <= t].

Everything is kept in the half-plane model; the Poincare disk appears
only transiently inside the octagon construction (surface_group).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HPoint:
    """A point x + iy in the open upper half-plane."""

    x: float
    y: float

    def __post_init__(self):
        if not (self.y > 0.0) or not math.isfinite(self.y) or not math.isfinite(self.x):
            raise ValueError(f"point must have finite coordinates and y > 0, got {self.x}, {self.y}")


def cosh_distance(z: HPoint, w: HPoint) -> float:
    """cosh d(z, w); cheaper than distance and monotone in it."""
    dx = z.x - w.x
    dy = z.y - w.y
    return 1.0 + (dx * dx + dy * dy) / (2.0 * z.y * w.y)


def distance(z: HPoint, w: HPoint) -> float:
    """Hyperbolic distance arccosh(1 + |z-w|^2 / (2 Im z Im w)).

    For nearly coincident points arccosh(1 + eps) loses all precision, so
    the excess eps is computed before the 1.0 is ever added and below
    eps = 1e-12 the asymptotic sqrt(2 eps) is returned instead.
    """
    dx = z.x - w.x
    dy = z.y - w.y
    eps = (dx * dx + dy * dy) / (2.0 * z.y * w.y)
    if eps < 1e-12:
        return math.sqrt(2.0 * eps)
    return math.acosh(1.0 + eps)


def ball_area(t: float) -> float:
    """Area 2 pi (cosh t - 1) of a hyperbolic disk of radius t."""
    if t < 0:
        raise ValueError("radius must be nonnegative")
    return 2.0 * math.pi * (math.cosh(t) - 1.0)


def ball_kernel(t: float, z: HPoint, w: HPoint) -> int:
    """Indicator of d(z, w) <= t, compared on the cosh scale (no arccosh)."""
    if t < 0:
        raise ValueError("radius must be nonnegative")
    return 1 if cosh_distance(z, w) <= math.cosh(t) else 0


class Isometry:
    """A 2x2 real matrix of determinant one acting on the half-plane.

    M and -M act identically; equality and hashing-style keys are defined
    up to that global sign.

    The determinant is validated to be positive and renormalized only when
    it is grossly off one (an unnormalized input matrix). Small apparent
    drift is deliberately left alone: the Moebius action is scale invariant,
    and for products of determinant-one factors the computed ad - bc is an
    ill-conditioned measurement (noise of order eps * scale^2, amplified
    further by cancellation in the product), so "correcting" it by a square
    root injects far more entry error than the chain actually carries.
    """

    __slots__ = ("m",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (2, 2):
            raise ValueError("isometry needs a 2x2 matrix")
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        scale = max(1.0, float(np.abs(m).max()))
        noise = 64.0 * np.finfo(float).eps * scale * scale
        if not det > 0:
            if noise < 0.5:
                raise ValueError(f"determinant must be positive, got {det}")
        elif not 0.5 < det < 2.0 and noise < 0.25:
            m = m / math.sqrt(det)
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "m", m)

    def __setattr__(self, *a):
        raise AttributeError("Isometry is immutable")

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return Isometry(self.m @ other.m)

    def inverse(self) -> "Isometry":
        a, b, c, d = self.m.ravel()
        return Isometry(np.array([[d, -b], [-c, a]]))

    def apply(self, z: HPoint) -> HPoint:
        a, b, c, d = self.m.ravel()
        den = (c * z.x + d) ** 2 + (c * z.y) ** 2
        x = ((a * z.x + b) * (c * z.x + d) + a * c * z.y * z.y) / den
        y = z.y / den
        return HPoint(x, y)

    def same_as(self, other: "Isometry", tol: float = 1e-9) -> bool:
        """Projective equality: M equals +-N entrywise within tol."""
        d_plus = np.abs(self.m - other.m).max()
        d_minus = np.abs(self.m + other.m).max()
        return min(d_plus, d_minus) <= tol

    def is_identity(self, tol: float = 1e-9) -> bool:
        return self.same_as(IDENTITY, tol)

    def __repr__(self):
        a, b, c, d = self.m.ravel()
        return f"Isometry([[{a:.6g}, {b:.6g}], [{c:.6g}, {d:.6g}]])"


IDENTITY = Isometry(np.eye(2))


def to_hyperboloid(z: HPoint) -> np.ndarray:
    """Half-plane -> hyperboloid sheet X0^2 - X1^2 - X2^2 = 1, X0 > 0."""
    r2 = z.x * z.x + z.y * z.y
    return np.array([(r2 + 1.0) / (2.0 * z.y), z.x / z.y, (r2 - 1.0) / (2.0 * z.y)])


def from_hyperboloid(X: np.ndarray) -> HPoint:
    y = 1.0 / (X[0] - X[2])
    return HPoint(X[1] * y, y)


def geodesic_point(z: HPoint, w: HPoint, s: float) -> HPoint:
    """The point at parameter s in [0, 1] along the geodesic from z to w.

    Computed on the hyperboloid, where the unit-speed geodesic is
    (sinh((1-s)d) Z + sinh(s d) W) / sinh(d).
    """
    d = distance(z, w)
    if d < 1e-14:
        return z
    Z, W = to_hyperboloid(z), to_hyperboloid(w)
    X = (math.sinh((1.0 - s) * d) * Z + math.sinh(s * d) * W) / math.sinh(d)
    return from_hyperboloid(X)


# ---------------------------------------------------------------------------
# vectorized helpers used by the grid / operator-assembly code

def pairwise_cosh_distance(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """cosh d between every row of P (k,2) and every row of Q (l,2)."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    dx = P[:, 0, None] - Q[None, :, 0]
    dy = P[:, 1, None] - Q[None, :, 1]
    # in place, so fewer (k, l) temporaries are alive at once; the roundings
    # are those of 1 + (dx^2 + dy^2) / (2 (P_y Q_y)), as doubling is exact
    dx *= dx
    dy *= dy
    dx += dy
    dx /= (2.0 * P[:, 1, None]) * Q[None, :, 1]
    dx += 1.0
    return dx


def mobius_apply(matrix: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Apply one 2x2 matrix to an (k,2) array of half-plane points."""
    a, b, c, d = np.asarray(matrix, dtype=float).ravel()
    x = P[:, 0]
    y = P[:, 1]
    den = (c * x + d) ** 2 + (c * y) ** 2
    return np.stack([((a * x + b) * (c * x + d) + a * c * y * y) / den, y / den], axis=1)
