"""Upper half-plane hyperbolic geometry.

A point x + iy is an (x, y) pair of floats, and many points are the rows of
a (k, 2) float array. The distance function, hyperbolic ball areas, and the
Mobius action of 2x2 matrices of determinant one, alone or stacked, on
arrays of points (mobius_apply).

Everything is kept in the half-plane model. The Poincare disk appears
only transiently: inside the octagon construction (surface_group) and as
the chart in which disk_tree and ball_candidates cull the node pairs of
block assembly (domain) before the exact half-plane test. geodesic_point
places the grid nodes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.spatial import cKDTree


def distance(z, w) -> float:
    """Hyperbolic distance arccosh(1 + |z-w|^2 / (2 Im z Im w)) between
    two (x, y) points.

    For nearly coincident points arccosh(1 + eps) loses all precision, so
    the excess eps is computed before the 1.0 is ever added and below
    eps = 1e-12 the asymptotic sqrt(2 eps) is returned instead.
    """
    (zx, zy), (wx, wy) = z, w
    dx = zx - wx
    dy = zy - wy
    eps = (dx * dx + dy * dy) / (2.0 * zy * wy)
    if eps < 1e-12:
        return math.sqrt(2.0 * eps)
    return math.acosh(1.0 + eps)


def check_radius(t: float) -> float:
    """t itself if it is a radius, finite and nonnegative; ValueError
    otherwise. Every layer that takes a kernel or ball radius (ball_area,
    the transform, the support search, block assembly) checks it here."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"radius must be finite and nonnegative, got {t}")
    return t


def ball_area(t: float) -> float:
    """Area 2 pi (cosh t - 1) of a hyperbolic disk of radius t."""
    return 2.0 * math.pi * (math.cosh(check_radius(t)) - 1.0)


def geodesic_point(z, w, s: float) -> tuple:
    """The (x, y) point at parameter s in [0, 1] along the geodesic from
    the point z to the point w; z itself below d = 1e-14.

    Computed on the hyperboloid sheet X0^2 - X1^2 - X2^2 = 1, where z is
    ((|z|^2 + 1) / 2y, x / y, (|z|^2 - 1) / 2y) and the unit-speed geodesic
    is (sinh((1-s)d) Z + sinh(s d) W) / sinh(d); back in the half-plane,
    y = 1 / (X0 - X2) and x = X1 y. On Python floats, coordinate by
    coordinate.
    """
    d = distance(z, w)
    if d < 1e-14:
        return z
    (zx, zy), (wx, wy) = z, w
    a, b, c = math.sinh((1.0 - s) * d), math.sinh(s * d), math.sinh(d)
    rz = zx * zx + zy * zy
    rw = wx * wx + wy * wy
    X0 = (a * ((rz + 1.0) / (2.0 * zy)) + b * ((rw + 1.0) / (2.0 * wy))) / c
    X1 = (a * (zx / zy) + b * (wx / wy)) / c
    X2 = (a * ((rz - 1.0) / (2.0 * zy)) + b * ((rw - 1.0) / (2.0 * wy))) / c
    y = 1.0 / (X0 - X2)
    return X1 * y, y


# ---------------------------------------------------------------------------
# vectorized helpers used by the grid / operator-assembly code

def pairwise_cosh_distance(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """cosh d between every row of P (..., k, 2) and every row of Q
    (..., l, 2), shape (..., k, l); the leading axes broadcast.

    So P[i, None] and Q[j, None] give the paired values cosh d(P_i, Q_j)
    as an (N, 1, 1) array, each with exactly the roundings of its entry in
    the full (k, l) matrix.
    """
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    dx = P[..., :, None, 0] - Q[..., None, :, 0]
    dy = P[..., :, None, 1] - Q[..., None, :, 1]
    # in place, so fewer (k, l) temporaries are alive at once; the roundings
    # are those of 1 + (dx^2 + dy^2) / (2 (P_y Q_y)), as doubling is exact
    dx *= dx
    dy *= dy
    dx += dy
    dx /= (2.0 * P[..., :, None, 1]) * Q[..., None, :, 1]
    dx += 1.0
    return dx


def _disk(P: np.ndarray):
    """Cayley images w = (z - i)/(z + i) of half-plane rows, as (k, 2)
    coordinates, and 1 - |w|^2 = 4 y / |z + i|^2 without cancellation."""
    x, y = P[:, 0], P[:, 1]
    den = x * x + (y + 1.0) ** 2
    return np.stack([(x * x + y * y - 1.0) / den, -2.0 * x / den], axis=1), 4.0 * y / den


def disk_tree(P: np.ndarray) -> cKDTree:
    """KD-tree on the Poincare-disk images, about the base point i, of the
    half-plane rows P (k, 2); ball_candidates queries it."""
    return cKDTree(_disk(np.asarray(P, dtype=float))[0])


def ball_candidates(tree: cKDTree, Q: np.ndarray, cosh_t: float):
    """Index pairs (i, j), with j ascending, of tree points i that may lie
    within cosh distance cosh_t of the rows j of Q (l, 2).

    The pairs are a superset of those whose computed pairwise_cosh_distance
    is at most cosh_t, so filtering them with it gives exactly the full
    matrix's pairs. The hyperbolic T-ball about a disk point w, |w| = rho,
    lies in the Euclidean disk of radius tau (1 - rho^2) / (1 - rho tau)
    about w, tau = tanh(T/2); its nearest point to the disk centre is that
    far from w. Float error can only add candidates: cosh T is raised by
    16 eps cosh T, more than a computed cosh <= cosh_t can hide, and the
    radius by a relative 1e-9 and by 1e-14, more than the few-ulp absolute
    error of disk coordinates below 1.
    """
    w, one_minus_rho2 = _disk(np.asarray(Q, dtype=float))
    excess = cosh_t - 1.0 + 16.0 * np.finfo(float).eps * cosh_t
    tau = math.sqrt(excess / (excess + 2.0))  # tanh(T/2) from cosh T
    rho = np.hypot(w[:, 0], w[:, 1])
    r = tau * one_minus_rho2 / (1.0 - rho * tau) * (1.0 + 1e-9) + 1e-14
    hits = tree.query_ball_point(w, r, return_sorted=False)
    counts = np.fromiter(map(len, hits), dtype=np.intp, count=len(hits))
    i = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.intp,
                    count=int(counts.sum()))
    return i, np.repeat(np.arange(len(hits)), counts)


def mobius_apply(matrix: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Apply one 2x2 matrix, or each of a stack (n, 2, 2), to a (k, 2)
    array of half-plane points: shape (k, 2), or (n, k, 2). A stack's
    images are its matrices' one by one, bit for bit."""
    M = np.asarray(matrix, dtype=float)
    a, b, c, d = (M[..., i, j, None] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    x = P[:, 0]
    y = P[:, 1]
    den = (c * x + d) ** 2 + (c * y) ** 2
    return np.stack([((a * x + b) * (c * x + d) + a * c * y * y) / den, y / den], axis=-1)
