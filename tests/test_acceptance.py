"""Acceptance suite: nine end-to-end checks of the whole pipeline, and an
external oracle, Bolza's first eigenvalue.

Each test prints one PASS/FAIL summary line (bypassing capture, so the
lines appear inline in the verbose run log) and then asserts. Tolerances
and sample sizes are the contract; do not tighten or loosen them here.
"""

import json
import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh
from scipy.optimize import brentq

from covergap.hyperbolic import ball_area
from covergap.surface_group import (
    SurfacePresentation,
    build_bolza_realization,
    dehn_reduce,
    inverse_word,
    support_set,
)
from covergap.domain import assemble_support_blocks, build_grid
from covergap.selberg import SpectralParameter, h_peak, invert_h, selberg_h
from covergap.experiments import (
    cmd_gap_sweep,
    cmd_lattice_count,
    cmd_sampler_validate,
    cmd_strong_convergence,
    make_config,
)


@pytest.fixture
def report(capsys):
    def emit(line):
        with capsys.disabled():
            print(line, flush=True)

    return emit


@pytest.fixture(scope="module")
def bolza():
    return build_bolza_realization()


@pytest.fixture(scope="module")
def blocks400(bolza):
    grid = build_grid(bolza, 400)
    return grid, assemble_support_blocks(support_set(bolza, 1.0), 1.0, grid)


def test_ac1_constant_eigenfunction_identity(bolza, blocks400, report):
    # top eigenvalue of the scalar operator sum A_gamma (the constant
    # eigenfunction, which every cover shares) vs the ball-area value
    # 2*pi*(cosh 1 - 1), within 2% on the ~400-node grid and 0.5% on the
    # ~1600-node grid
    t0 = time.perf_counter()
    ball = ball_area(1.0)
    grid, blocks = blocks400
    rels = {}
    v = np.linalg.eigvalsh(sum(b.dense() for b in blocks))[-1]
    rels[grid.m] = abs(v - ball) / ball
    grid16 = build_grid(bolza, 1600)
    blocks16 = assemble_support_blocks(support_set(bolza, 1.0), 1.0, grid16)
    v16 = np.linalg.eigvalsh(sum(b.dense() for b in blocks16))[-1]
    rels[grid16.m] = abs(v16 - ball) / ball
    wall = time.perf_counter() - t0
    ok = rels[grid.m] <= 0.02 and rels[grid16.m] <= 0.005 and wall < 120
    report(
        f"AC1 {'PASS' if ok else 'FAIL'}: scalar-operator top vs 2pi(cosh1-1): "
        f"rel {rels[grid.m]:.3%} at m={grid.m}, {rels[grid16.m]:.3%} at "
        f"m={grid16.m} ({wall:.1f}s)"
    )
    assert ok, rels


def test_ac2_transform_suite(report):
    t0 = time.perf_counter()
    grid_a = np.linspace(0.0, 0.5, 101)
    rng = np.random.default_rng(0)
    rs = rng.uniform(0.0, 50.0, 100)
    ball_err = roundtrip = 0.0
    mono = bounded = -np.inf
    for t in (0.5, 1.0, 2.0):
        vals = [selberg_h(t, SpectralParameter.imaginary(a)).value for a in grid_a]
        ball_err = max(ball_err, abs(vals[-1] - ball_area(t)))
        mono = max(mono, max(x - y for x, y in zip(vals, vals[1:])))
        peak = selberg_h(t, SpectralParameter.real(0.0)).value
        bounded = max(
            bounded,
            max(abs(selberg_h(t, SpectralParameter.real(r)).value) for r in rs) - peak,
        )
        roundtrip = max(
            roundtrip,
            max(abs(invert_h(t, v).value - a) for a, v in zip(grid_a, vals)),
        )
    wall = time.perf_counter() - t0
    ok = (ball_err <= 1e-8 and mono < 0.0 and bounded <= 1e-12
          and roundtrip <= 1e-8)
    report(
        f"AC2 {'PASS' if ok else 'FAIL'}: ball identity err {ball_err:.1e}, "
        f"strictly monotone {mono < 0.0}, |h(r)|<=h(0) margin {-bounded:.1e}, "
        f"invert round-trip {roundtrip:.1e} ({wall:.1f}s)"
    )
    assert ok, (ball_err, mono, bounded, roundtrip)


def test_ac3_quadratic_growth_inequality(report):
    # h_1(ia) - h_1(0) >= 2*sqrt(2)*a^2 * int_0^1 u^2 sqrt(cosh1 - cosh u) du
    t0 = time.perf_counter()
    integral = quad(
        lambda u: u * u * math.sqrt(max(math.cosh(1.0) - math.cosh(u), 0.0)),
        0.0, 1.0, epsabs=1e-12,
    )[0]
    coeff = 2.0 * math.sqrt(2.0) * integral
    h0 = selberg_h(1.0, SpectralParameter.real(0.0)).value
    slack = min(
        selberg_h(1.0, SpectralParameter.imaginary(a)).value - h0 - coeff * a * a
        for a in np.linspace(0.0, 0.5, 101)
    )
    wall = time.perf_counter() - t0
    ok = slack >= -1e-10
    report(
        f"AC3 {'PASS' if ok else 'FAIL'}: min slack of the quadratic lower "
        f"bound {slack:.3e} over a in [0, 1/2], coeff {coeff:.6f} ({wall:.1f}s)"
    )
    assert ok, slack


def test_ac4_truncation_certificates(blocks400, report):
    t0 = time.perf_counter()
    grid, blocks = blocks400
    ranks = []
    r = 1
    while r < grid.m:
        ranks.append(r)
        r *= 2
    ranks.append(grid.m)
    worst = -np.inf
    for b in blocks:
        s = np.linalg.svd(b.dense(), compute_uv=False)
        for r in ranks:
            sig = s[r] if r < len(s) else 0.0
            worst = max(worst, sig - b.hs_norm / math.sqrt(r))
    total_hs = sum(b.hs_norm for b in blocks)
    certified = [total_hs / math.sqrt(r) for r in ranks]
    slope = float(np.polyfit(np.log(ranks), np.log(certified), 1)[0])
    wall = time.perf_counter() - t0
    ok = worst <= 1e-12 and abs(slope + 0.5) <= 0.1 and wall < 60
    report(
        f"AC4 {'PASS' if ok else 'FAIL'}: sigma_(r+1) <= hs/sqrt(r) margin "
        f"{-worst:.2e} over {len(blocks)} blocks x {len(ranks)} ranks, "
        f"certified-bound slope {slope:.3f} ({wall:.1f}s)"
    )
    assert ok, (worst, slope)


def test_ac5_sampler_exactness(tmp_path, report):
    t0 = time.perf_counter()
    cfg = make_config(overrides=dict(
        n_max=4, gof_draws=100000, gof_alpha=0.01, seed=0,
        output_dir=str(tmp_path),
    ))
    res = cmd_sampler_validate(cfg)
    per_n = res["report"]["per_n"]
    counts = {n: per_n[str(n)]["enumerated"] for n in (2, 3, 4)}
    pvals = {n: per_n[str(n)]["pvalue"] for n in (2, 3, 4)}
    wall = time.perf_counter() - t0
    ok = (counts == {2: 16, 3: 486, 4: 34176}
          and all(per_n[str(n)]["count_match"] for n in (2, 3, 4))
          and all(p > 0.01 for p in pvals.values())
          and wall < 300)
    report(
        f"AC5 {'PASS' if ok else 'FAIL'}: enumerated {counts}, chi-square "
        f"p-values { {n: round(p, 3) for n, p in pvals.items()} } at 1e5 "
        f"draws each ({wall:.1f}s)"
    )
    assert ok, (counts, pvals)


def test_ac6_gap_trend_across_degree(tmp_path, report):
    t0 = time.perf_counter()
    cfg = make_config(overrides=dict(
        t=1.0, grid_m=400, n_list=[4, 8, 16], samples_per_n=200,
        require_transitive=True, seed=0, epsilon_list=[0.1],
        output_dir=str(tmp_path),
    ))
    res = cmd_strong_convergence(cfg)
    records = res["records"]
    peak = h_peak(1.0)
    fracs, medians = [], []
    for n in cfg.n_list:
        chosen = [r for r in records if r.n == n and r.transitive][:200]
        assert len(chosen) == 200
        fracs.append(sum(r.op_norm > 1.1 * peak for r in chosen) / 200.0)
        medians.append(res["summary_dict"]["per_n"][str(n)]["median_deficit"])
    assert 1.0 + 0.1 == 1.1  # so the program's threshold is this one
    assert res["fractions"][0.1] == fracs
    beta = res["summary_dict"]["deficit_loglog_slope"]
    wall = time.perf_counter() - t0
    frac_ok = all(b <= a + 1e-12 for a, b in zip(fracs, fracs[1:]))
    med_ok = all(b <= a + 1e-12 for a, b in zip(medians, medians[1:]))
    ok = frac_ok and med_ok
    report(
        f"AC6 {'PASS' if ok else 'FAIL'}: eps=0.1 exceedance {fracs} "
        f"nonincreasing {frac_ok}, median deficit "
        f"{[round(m, 6) for m in medians]} nonincreasing {med_ok}, "
        f"beta_hat={beta} (reported, no threshold) ({wall:.0f}s)"
    )
    assert ok, (fracs, medians)


def test_ac7_lattice_growth(tmp_path, report):
    t0 = time.perf_counter()
    cfg = make_config(overrides=dict(
        radius_list=[4.0, 5.0, 6.0, 7.0, 8.0], t_list=[0.5, 1.0, 1.5],
        seed=0, output_dir=str(tmp_path),
    ))
    res = cmd_lattice_count(cfg)
    expo = res["growth_exponent"]
    c_hat = res["C_hat"]
    envel = all(
        res["support_counts"][t] <= c_hat * math.exp(2 * t) + 1e-9
        for t in cfg.t_list
    )
    wall = time.perf_counter() - t0
    ok = 0.7 <= expo <= 1.3 and envel and wall < 120
    report(
        f"AC7 {'PASS' if ok else 'FAIL'}: growth exponent {expo:.4f} in "
        f"[0.7, 1.3], |S(t)| <= {c_hat:.2f} e^(2t) for all t: {envel} "
        f"({wall:.1f}s)"
    )
    assert ok, (expo, envel)


def test_ac8_word_problem(bolza, report):
    t0 = time.perf_counter()
    pres = SurfacePresentation(2)
    rng = np.random.default_rng(0)
    letters = np.array([1, 2, 3, 4, -1, -2, -3, -4])

    def rand_word(max_len, min_len=1):
        length = int(rng.integers(min_len, max_len + 1))
        return tuple(int(x) for x in rng.choice(letters, size=length))

    bad = 0
    for _ in range(10**4):
        w = rand_word(12)
        bad += dehn_reduce(w + inverse_word(w), pres) != ()
    for _ in range(10**3):
        u = rand_word(8, min_len=0)
        bad += dehn_reduce(u + pres.relator + inverse_word(u), pres) != ()

    mats = {g: bolza.letter_matrix(int(g)) for g in letters}
    eye = np.eye(2)

    def is_id(M):
        return min(np.abs(M - eye).max(), np.abs(M + eye).max()) \
            <= 1e-6 * max(1.0, np.abs(M).max())

    mismatch = [0]
    checked = [0]

    def walk(word, M, depth):
        checked[0] += 1
        if (dehn_reduce(word, pres) == ()) != is_id(M):
            mismatch[0] += 1
        if depth < 6:
            for g in letters:
                walk(word + (int(g),), M @ mats[g], depth + 1)

    walk((), eye, 0)
    wall = time.perf_counter() - t0
    ok = bad == 0 and mismatch[0] == 0 and wall < 60
    report(
        f"AC8 {'PASS' if ok else 'FAIL'}: 1e4 w * w^-1 + 1e3 relator "
        f"conjugates reduced to empty ({bad} failures); matrix agreement on "
        f"{checked[0]} words of length <= 6 ({mismatch[0]} mismatches) "
        f"({wall:.1f}s)"
    )
    assert ok, (bad, mismatch[0])


@pytest.mark.parametrize("t", [1.0, 2.0])
def test_ac9_thread_determinism(tmp_path, report, monkeypatch, t):
    # the covers are solved on a pool with one worker per CPU, or in the
    # driver's process on a one-CPU host: the CSV must not tell them apart,
    # at t = 1 (every block sparse) and at t = 2 (the identity block dense,
    # so its products go through BLAS on both paths)
    t0 = time.perf_counter()
    outs, workers = {}, {}
    for tag in ("a", "b", "c"):
        if tag == "c":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                                raising=False)
        cfg = make_config(overrides=dict(
            t=t, grid_m=120, n_list=[2, 4], samples_per_n=3, seed=7,
            output_dir=str(tmp_path / tag),
        ))
        res = cmd_gap_sweep(cfg)
        outs[tag] = open(res["data"], "rb").read()
        workers[tag] = json.load(open(res["meta"]))["workers"]
    wall = time.perf_counter() - t0
    ok = outs["a"] == outs["b"] == outs["c"] and workers["c"] == 1
    report(
        f"AC9 {'PASS' if ok else 'FAIL'}: t = {t:g} gap-sweep CSV byte-identical "
        f"over repeat run and {workers['a']} workers vs the one-CPU path "
        f"({len(outs['a'])} bytes, {wall:.1f}s)"
    )
    assert ok


BOLZA_LAMBDA1 = 3.8388872588  # Strohmaier and Uski, Comm. Math. Phys. 317 (2013)


def test_bolza_first_eigenvalue_oracle(bolza, report):
    # an external oracle: eigenvalues 2-4 of the scalar operator sum A_gamma
    # are h_1(r_1) for Bolza's lambda_1 = 1/4 + r_1^2 (multiplicity 3);
    # inverted on the decreasing real branch r in [0, 5.12] of h_1, each
    # lands within 0.005 of the published value on the ~1600-node grid
    t0 = time.perf_counter()
    grid = build_grid(bolza, 1600)
    blocks = assemble_support_blocks(support_set(bolza, 1.0), 1.0, grid)
    top = eigh(sum(b.dense() for b in blocks), eigvals_only=True,
               subset_by_index=[grid.m - 4, grid.m - 1])[::-1]
    lams = [0.25 + brentq(lambda r: selberg_h(1.0, SpectralParameter.real(r)).value - v,
                          0.0, 5.12) ** 2
            for v in top[1:]]
    errs = [lam - BOLZA_LAMBDA1 for lam in lams]
    wall = time.perf_counter() - t0
    ok = max(map(abs, errs)) <= 0.005
    report(
        f"Bolza oracle {'PASS' if ok else 'FAIL'}: lambda_1 readings "
        f"{', '.join(f'{e:+.5f}' for e in errs)} off {BOLZA_LAMBDA1} at "
        f"m={grid.m} ({wall:.1f}s)"
    )
    assert ok, lams
