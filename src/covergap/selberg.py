"""Radial transform of the ball kernel and spectral-parameter conversions.

The indicator kernel of a radius-t hyperbolic ball acts on a Laplacian
eigenfunction with eigenvalue 1/4 + r^2 by the scalar

    h_t(r) = 4 sqrt(2) * int_0^t cos(r u) sqrt(cosh t - cosh u) du,

with cos(ru) -> cosh(au) for imaginary parameter r = ia. The integrand has a
square-root zero at u = t; substituting u = t - s^2 removes it, after which
Gauss-Legendre with order doubling converges to near machine precision.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hyperbolic import ball_area, check_radius

FOUR_SQRT2 = 4.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class SpectralParameter:
    """Spectral parameter r in lambda = 1/4 + r^2.

    kind "real" covers the tempered range lambda >= 1/4; kind "imaginary"
    means r = i*value with value in [0, 1/2], covering lambda in [0, 1/4].
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("real", "imaginary"):
            raise ValueError(f"kind must be 'real' or 'imaginary', got {self.kind!r}")
        if not math.isfinite(self.value):
            raise ValueError(f"parameter value must be finite, got {self.value}")
        if self.value < 0:
            raise ValueError("parameter value must be nonnegative")
        if self.kind == "imaginary" and self.value > 0.5 + 1e-12:
            raise ValueError("imaginary parameter must lie in [0, 1/2]")

    @staticmethod
    def real(r: float) -> "SpectralParameter":
        return SpectralParameter("real", r)

    @staticmethod
    def imaginary(a: float) -> "SpectralParameter":
        return SpectralParameter("imaginary", a)


@dataclass(frozen=True)
class TransformValue:
    value: float
    quadrature_error_estimate: float


@functools.lru_cache(maxsize=None)
def _gauss_nodes(n: int):
    """Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _integrate_fixed(f, t: float, n: int) -> float:
    """int_0^t f(u) sqrt(cosh t - cosh u) du at fixed Gauss order n,
    via u = t - s^2 on s in [0, sqrt(t)].

    cosh t - cosh u is evaluated as 2 sinh((t+u)/2) sinh((t-u)/2) so the
    difference stays accurate as u -> t.
    """
    if t <= 0:
        return 0.0
    root = math.sqrt(t)
    x, w = _gauss_nodes(n)
    s = root * x
    u = t - s * s
    diff = 2.0 * np.sinh(0.5 * (t + u)) * np.sinh(0.5 * (s * s))
    vals = f(u) * np.sqrt(diff) * 2.0 * s
    return float(root * np.dot(w, vals))


_QUAD_TOL = 1e-12  # _integrate stops once doubling the order moves less


def _integrate(f, t: float):
    """Order-doubling wrapper; returns (value, |last change|), (0.0, 0.0)
    at t = 0. t is checked by check_radius."""
    prev = _integrate_fixed(f, check_radius(t), 16)
    n = 32
    while n <= 2048:
        cur = _integrate_fixed(f, t, n)
        err = abs(cur - prev)
        if err < _QUAD_TOL:
            return cur, err
        prev = cur
        n *= 2
    return prev, err


def selberg_h(t: float, p: SpectralParameter) -> TransformValue:
    """Transform of the radius-t ball kernel at spectral parameter p."""
    if p.kind == "imaginary":
        a = p.value
        f = lambda u: np.cosh(a * u)
    else:
        r = p.value
        f = lambda u: np.cos(r * u)
    val, err = _integrate(f, t)
    return TransformValue(FOUR_SQRT2 * val, FOUR_SQRT2 * err)


def h_peak(t: float) -> float:
    """Value at r = 0, the largest the transform gets over real parameters;
    equals the operator norm of the ball kernel on the whole plane."""
    return selberg_h(t, SpectralParameter.real(0.0)).value


def invert_h(t: float, v: float) -> SpectralParameter:
    """Imaginary parameter a with h_t(ia) = v, by bisection on [0, 1/2].

    a -> h_t(ia) is strictly increasing from h_peak(t) to the ball area, so
    the solution is unique. v at or below the peak (a discretized norm can
    dip under the continuum baseline) returns a = 0 and v at or above the
    ball area returns a = 1/2, without bisecting; v above the ball area by
    more than a tolerance is inconsistent input and raises, as do a t or v
    that is not finite.
    """
    if check_radius(t) == 0:
        raise ValueError(f"t must be positive, got {t}")
    if not math.isfinite(v):
        raise ValueError(f"value must be finite, got {v}")
    lo_val = h_peak(t)
    hi_val = ball_area(t)
    # discretized norms can sit a hair above the continuum ceiling; only a
    # clear violation is inconsistent input
    tol = 1e-6 * hi_val + 1e-9
    if v > hi_val + tol:
        raise ValueError(
            f"value {v} exceeds the lambda=0 transform {hi_val}: "
            "inconsistent with a ball kernel of this radius"
        )
    if v <= lo_val:
        return SpectralParameter.imaginary(0.0)
    if v >= hi_val:
        return SpectralParameter.imaginary(0.5)
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if selberg_h(t, SpectralParameter.imaginary(mid)).value < v:
            lo = mid
        else:
            hi = mid
    return SpectralParameter.imaginary(0.5 * (lo + hi))


def lambda_from_param(p: SpectralParameter) -> float:
    """Eigenvalue lambda = 1/4 + r^2 (real r) or 1/4 - a^2 (r = ia)."""
    if p.kind == "real":
        return 0.25 + p.value * p.value
    return 0.25 - p.value * p.value


def plane_density(lam: float) -> float:
    """Spectral density of the hyperbolic plane w.r.t. Lebesgue measure:
    (1/4pi) tanh(pi sqrt(lam - 1/4)) above 1/4, zero below."""
    if lam < 0.25:
        return 0.0
    return math.tanh(math.pi * math.sqrt(lam - 0.25)) / (4.0 * math.pi)


def gap_lower_bound_coefficient(t: float) -> float:
    """c(t) = 2 sqrt(2) int_0^t u^2 sqrt(cosh t - cosh u) du.

    Since cosh(au) - 1 >= a^2 u^2 / 2, the transform satisfies
    h_t(ia) - h_t(0) >= c(t) a^2, so a norm excess over the r = 0 baseline
    yields 1/4 - lambda_1 <= (norm - h_t(0)) / c(t).
    """
    val, _ = _integrate(lambda u: u * u, t)
    return 2.0 * math.sqrt(2.0) * val
