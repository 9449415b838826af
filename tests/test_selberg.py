"""Tests for the ball-kernel transform, its inversion, and the plane density."""

import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

from covergap.hyperbolic import ball_area
from covergap.selberg import (
    SpectralParameter,
    gap_lower_bound_coefficient,
    h_peak,
    invert_h,
    lambda_from_param,
    plane_density,
    selberg_h,
    _integrate_fixed,
)


def jacobi_oracle(f, t, n=80):
    """Independent quadrature: pull the (t-u)^(1/2) factor into a
    Gauss-Jacobi weight and integrate the remaining smooth part."""
    x, w = roots_jacobi(n, 0.5, 0.0)
    u = 0.5 * t * (x + 1.0)
    half = 0.5 * (t - u)
    ratio = np.where(half < 1e-8, 1.0 + half * half / 6.0, np.sinh(half) / np.maximum(half, 1e-300))
    g = np.sqrt(np.sinh(0.5 * (t + u)) * ratio)
    return (0.5 * t) ** 1.5 * float(np.dot(w, f(u) * g))


# ---------------------------------------------------------------- transform

def test_parameter_validation():
    with pytest.raises(ValueError):
        SpectralParameter("imaginary", 0.6)
    with pytest.raises(ValueError):
        SpectralParameter("real", -1.0)
    with pytest.raises(ValueError):
        SpectralParameter("complex", 1.0)


def test_zero_radius():
    assert selberg_h(0.0, SpectralParameter.real(2.0)).value == 0.0
    assert h_peak(0.0) == 0.0
    assert gap_lower_bound_coefficient(0.0) == 0.0


def test_area_identity():
    # a = 1/2 is the constant eigenfunction (lambda = 0): the transform is
    # the ball area
    for t in (0.5, 1.0, 2.0):
        v = selberg_h(t, SpectralParameter.imaginary(0.5)).value
        assert abs(v - ball_area(t)) <= 1e-8
        assert abs(v - 2.0 * math.pi * (math.cosh(t) - 1.0)) <= 1e-8


def test_strict_monotonicity_in_a():
    for t in (0.5, 1.0, 2.0):
        grid = np.linspace(0.0, 0.5, 101)
        vals = [selberg_h(t, SpectralParameter.imaginary(a)).value for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_peak_dominates_real_axis():
    rng = np.random.default_rng(42)
    for t in (0.5, 1.0, 2.0):
        peak = h_peak(t)
        for r in rng.uniform(0.0, 50.0, 100):
            assert abs(selberg_h(t, SpectralParameter.real(r)).value) <= peak + 1e-12


def test_peak_below_imaginary_values():
    peak = h_peak(1.0)
    for a in np.linspace(0.005, 0.5, 100):
        assert selberg_h(1.0, SpectralParameter.imaginary(a)).value > peak


def test_imaginary_values_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = rng.uniform(0.01, 3.0)
        a = rng.uniform(0.0, 0.5)
        tv = selberg_h(t, SpectralParameter.imaginary(a))
        assert tv.value >= 0.0
        assert 0.0 <= tv.quadrature_error_estimate < 1e-10


def test_against_jacobi_quadrature():
    # same integrals through a structurally different rule
    for t in (0.3, 0.5, 1.0, 1.5, 2.0):
        for p in (SpectralParameter.real(0.0), SpectralParameter.real(3.7),
                  SpectralParameter.imaginary(0.2), SpectralParameter.imaginary(0.5)):
            mine = selberg_h(t, p).value
            f = (lambda u: np.cosh(p.value * u)) if p.kind == "imaginary" else (
                lambda u: np.cos(p.value * u))
            other = 4.0 * math.sqrt(2.0) * jacobi_oracle(f, t)
            assert abs(mine - other) <= 1e-10


def test_order_doubling_converged():
    # halving the step once more moves the fixed-order result by < 1e-10
    for t in (0.5, 1.0, 2.0):
        for a in (0.0, 0.3, 0.5):
            f = lambda u: np.cosh(a * u)
            assert abs(_integrate_fixed(f, t, 128) - _integrate_fixed(f, t, 256)) < 1e-10


# ---------------------------------------------------------------- inversion

def test_invert_round_trip():
    for t in (1.0, 2.0):
        for a0 in (0.1, 0.25, 0.4, 0.5):
            v = selberg_h(t, SpectralParameter.imaginary(a0)).value
            p = invert_h(t, v)
            assert p.kind == "imaginary"
            assert abs(p.value - a0) <= 1e-8
            if a0 == 0.5:  # the ball area itself returns the edge exactly
                assert p.value == 0.5


def test_invert_boundaries():
    p = invert_h(1.0, h_peak(1.0))
    assert p.value == pytest.approx(0.0, abs=1e-8)
    p = invert_h(1.0, ball_area(1.0))
    assert p.value == pytest.approx(0.5, abs=1e-8)
    # a hair above the ball area, within the tolerance, reads the edge
    assert invert_h(1.0, ball_area(1.0) * (1.0 + 1e-7)).value == 0.5


def test_invert_at_peak_is_exact_zero():
    # the peak itself maps to a = 0 exactly, not to a bisection endpoint
    for t in (0.5, 1.0, 2.0):
        p = invert_h(t, h_peak(t))
        assert p.value == 0.0 and p.kind == "imaginary"


def test_invert_clamps_below_peak():
    p = invert_h(1.0, h_peak(1.0) - 0.1)
    assert p.value == 0.0 and p.kind == "imaginary"


def test_invert_rejects_above_area():
    with pytest.raises(ValueError):
        invert_h(1.0, ball_area(1.0) + 0.1)


def test_lambda_from_param():
    assert lambda_from_param(SpectralParameter.imaginary(0.5)) == 0.0
    assert lambda_from_param(SpectralParameter.imaginary(0.0)) == 0.25
    assert lambda_from_param(SpectralParameter.real(1.0)) == 1.25


# ------------------------------------------------------------------ density

def test_plane_density():
    assert plane_density(0.2) == 0.0
    assert plane_density(0.25) == 0.0
    assert plane_density(1.25) == pytest.approx(math.tanh(math.pi) / (4 * math.pi), abs=1e-15)
    assert plane_density(1.25) == pytest.approx(0.079281, abs=1e-6)
    # increasing and saturating toward 1/(4 pi)
    vals = [plane_density(l) for l in np.linspace(0.25, 30.0, 200)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1.0 / (4 * math.pi)


# -------------------------------------------------------------- coefficient

def test_coefficient_against_jacobi():
    for t in (0.5, 1.0, 2.0):
        mine = gap_lower_bound_coefficient(t)
        other = 2.0 * math.sqrt(2.0) * jacobi_oracle(lambda u: u * u, t)
        assert abs(mine - other) <= 1e-9


def test_coefficient_quadratic_lower_bound():
    # h_t(ia) - h_t(0) >= c(t) a^2 across the whole parameter range
    t = 1.0
    peak = h_peak(t)
    c = gap_lower_bound_coefficient(t)
    assert c > 0
    for a in np.linspace(0.0, 0.5, 101):
        excess = selberg_h(t, SpectralParameter.imaginary(a)).value - peak
        assert excess >= c * a * a - 1e-10
