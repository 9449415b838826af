"""The finite-element oracle of fem_oracle.py against a published
eigenvalue of the Bolza surface and against the cover operator's readings.

The cover test compares on the transform scale: the top value v of a cover
operator at t = 2, m = 392 against h_t(r_1), where the FEM gives
lambda_1 = 1/4 + r_1^2 (r_1 imaginary below 1/4), so it needs no inversion
of v. Each FEM lambda_1 is a 16/24 Richardson step, within 1e-5 of a 48/64
one on these covers.
"""

import dataclasses
import math

import pytest

import covergap.cover_spectrum as cover_spectrum
from covergap.cover_spectrum import build_cover_operator, estimate_gap
from covergap.domain import assemble_support_blocks, build_grid
from covergap.selberg import SpectralParameter, selberg_h
from covergap.surface_group import build_bolza_realization, support_set
from covergap.symmetric_group import evaluate_word, sample_uniform_hom
from fem_oracle import fem_eigenvalues, glued_mesh

BOLZA_LAMBDA1 = 3.8388872588  # Strohmaier and Uski, Comm. Math. Phys. 317 (2013)
T, GRID_M = 2.0, 392
COVER_SEEDS = range(3000, 3004)
# the cover's own operator (phi(gamma)^-1 in perm_images) reads these four
# covers within 4.2e-4 of the FEM in lambda; v moves 7.4-8.1 per unit lambda
LAMBDA_TOL = 1e-3


@pytest.fixture(scope="module")
def real():
    return build_bolza_realization()


def _fem_lambda1(real, hom, k1, k2):
    """lambda_1 of the surface (hom None) or of its cover, from a two-mesh
    Richardson step on the O(1/k^2) error."""
    l1, l2 = (fem_eigenvalues(real, k, hom)[1] for k in (k1, k2))
    return (k2 * k2 * l2 - k1 * k1 * l1) / (k2 * k2 - k1 * k1)


def test_bolza_lambda1_from_a_richardson_step(real):
    # 3.8438 / 3.8411 at k = 32 / 48, of multiplicity 3
    assert abs(_fem_lambda1(real, None, 32, 48) - BOLZA_LAMBDA1) <= 2e-4


def test_glued_mesh_is_closed_with_the_cover_euler_characteristic(real):
    assert glued_mesh(real, 8)[-1] == -2
    assert glued_mesh(real, 16, sample_uniform_hom(8, 2, seed=COVER_SEEDS[0]))[-1] == -16


def test_a_missing_side_pairing_fails_loudly(real):
    # without pairing 0 and its inverse the octagon is cut open along a
    # loop, which keeps chi = -2; unchecked, the oracle read lambda_1 as
    # 1.7366 here instead of 3.9125
    keep = [p for p in range(8) if p not in (0, 4)]
    cut = dataclasses.replace(real, side_pairings=real.side_pairings[keep],
                              side_pairing_words=[real.side_pairing_words[p] for p in keep])
    with pytest.raises(AssertionError, match="16 edges do not border two triangles"):
        fem_eigenvalues(cut, 8)


@pytest.fixture(scope="module")
def covers(real):
    """The t = 2, m = 392 family and (hom, FEM lambda_1) of four n = 8 covers."""
    blocks = assemble_support_blocks(support_set(real, T), T, build_grid(real, GRID_M))
    homs = [sample_uniform_hom(8, 2, seed=s) for s in COVER_SEEDS]
    assert all(hom.transitive for hom in homs)
    return blocks, [(hom, _fem_lambda1(real, hom, 16, 24)) for hom in homs]


def _h(lam: float) -> float:
    """h_t(r) at lambda = 1/4 + r^2, r real or imaginary."""
    if lam >= 0.25:
        return selberg_h(T, SpectralParameter.real(math.sqrt(lam - 0.25))).value
    return selberg_h(T, SpectralParameter.imaginary(math.sqrt(0.25 - lam))).value


def _off_fem(blocks, covers):
    """(seed, v, lambda_1) of every cover whose top value v lies outside h_t
    over lambda_1 +- LAMBDA_TOL (h_t decreases in lambda there)."""
    out = []
    for seed, (hom, lam) in zip(COVER_SEEDS, covers):
        v = estimate_gap(build_cover_operator(blocks, hom)).op_norm
        if not _h(lam + LAMBDA_TOL) <= v <= _h(lam - LAMBDA_TOL):
            out.append((seed, v, lam))
    return out


def test_inverse_images_read_the_fem_lambda1(covers, monkeypatch):
    # with phi(gamma)^-1 in perm_images (ROADMAP item 1's fix) the kernel
    # reading agrees with the FEM, so the test below fails for the convention
    monkeypatch.setattr(cover_spectrum, "evaluate_word",
                        lambda hom, w: evaluate_word(hom, w).inverse())
    assert _off_fem(*covers) == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: perm_images holds phi(gamma), "
                   "so the operator is not the cover's; its readings are 0.16-0.22 "
                   "off the FEM lambda_1 in lambda")
def test_cover_readings_match_the_fem_lambda1(covers):
    assert _off_fem(*covers) == []
