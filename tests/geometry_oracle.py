"""Scalar half-plane oracles for the geometry tests: the cosh distance and
ball-indicator kernel of two (x, y) points, which pairwise_cosh_distance
and assemble_block vectorize, Dirichlet-domain membership, which the grid
nodes and the octagon's vertices are checked against, and the image of one
point under one matrix.
"""

import math

import numpy as np

from covergap.hyperbolic import distance, mobius_apply
from covergap.surface_group import BASE_POINT


def cosh_distance(z, w) -> float:
    """cosh d(z, w); cheaper than distance and monotone in it."""
    (zx, zy), (wx, wy) = z, w
    dx = zx - wx
    dy = zy - wy
    return 1.0 + (dx * dx + dy * dy) / (2.0 * zy * wy)


def ball_kernel(t: float, z, w) -> int:
    """Indicator of d(z, w) <= t, compared on the cosh scale (no arccosh)."""
    if t < 0:
        raise ValueError("radius must be nonnegative")
    return 1 if cosh_distance(z, w) <= math.cosh(t) else 0


def act(M, z):
    """The image of one (x, y) point under one matrix, by mobius_apply."""
    return tuple(mobius_apply(M, np.array([z]))[0].tolist())


def in_fundamental_domain(real, z, slack: float = 0.0) -> bool:
    """Dirichlet-domain membership: z is no farther from the base point than
    from any of its side-pairing translates. slack > 0 admits a margin,
    slack < 0 demands strict interiority."""
    d0 = distance(z, BASE_POINT)
    images = mobius_apply(real.side_pairings, np.array([BASE_POINT]))[:, 0]
    return all(d0 <= distance(z, p) + slack for p in images.tolist())
