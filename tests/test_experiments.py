"""Tests for the experiment drivers: config handling, determinism of the
sampling pipeline, and the shape/invariants of every table the drivers emit.

Heavy numerics stay on the crudest legal grid (grid_m=50) with single-digit
sample counts; the point here is plumbing, not spectral accuracy.
"""

import csv
import dataclasses
import json
import math
import multiprocessing
import os
import pickle
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from covergap.hyperbolic import ball_area
from covergap.selberg import h_peak
import covergap.experiments as experiments
from covergap.surface_group import MAX_R
from covergap.symmetric_group import count_homs, sample_uniform_hom
from covergap.experiments import (
    ComputeError,
    ExperimentConfig,
    GAP_HEADER,
    UsageError,
    _assemble,
    _draw_homs,
    _write_table,
    cmd_gap_sweep,
    cmd_lattice_count,
    cmd_sampler_validate,
    cmd_selberg_table,
    cmd_strong_convergence,
    cmd_truncation_study,
    derived_seed,
    make_config,
)


# ------------------------------------------------------------ configuration


def test_config_defaults_validate():
    cfg = ExperimentConfig()
    assert cfg.validate() is cfg
    assert cfg.n_list == (4, 8, 16)
    assert cfg.format == "csv"


@pytest.mark.parametrize(
    "bad",
    [
        {"genus": 1},
        {"genus": 3},
        {"t": 0.0},
        {"t": 5.0},
        {"grid_m": 10},
        {"n_list": (3, 2)},
        {"n_list": (2, 2)},
        {"n_list": (1,)},
        {"n_list": ()},
        {"samples_per_n": 0},
        {"truncation_r_list": (0,)},
        {"truncation_r_list": (4, 1)},
        {"truncation_r_list": (4, 4)},
        {"format": "xml"},
        {"epsilon_list": (0.0,)},
        {"epsilon_list": ()},
        {"epsilon_list": (0.1, 0.1)},
        {"t_list": ()},
        {"t_list": (-1.0,)},
        {"t_list": (8.0,)},
        {"t_list": (1.0, 0.5, 1.0)},
        {"real_r_list": (-0.5,)},
        {"real_r_list": (0.0, 0.0)},
        {"imag_a_list": (0.7,)},
        {"imag_a_list": (0.5, 0.1, 0.5)},
        {"real_r_list": (), "imag_a_list": ()},
        {"radius_list": (4.0, 2.0)},
        {"radius_list": (4.0, 4.0)},
        {"radius_list": (0.0, MAX_R + 1.0)},
        {"t_list": (math.nan,)},
        {"epsilon_list": (math.inf,)},
        {"real_r_list": (math.nan,)},
        {"real_r_list": (0.0, math.inf)},
        {"radius_list": (math.nan,)},
        {"n_max": 9},
        {"gof_draws": 10},
        {"gof_alpha": 1.0},
        {"seed": -1},
    ],
)
def test_config_rejects_bad_values(bad):
    with pytest.raises(UsageError):
        dataclasses.replace(ExperimentConfig(), **bad).validate()


def test_make_config_flags_override_file():
    cfg = make_config(
        file_values={"t": 0.5, "seed": 3, "n_list": [2, 3]},
        overrides={"t": 1.5, "seed": None, "samples_per_n": 7},
    )
    assert cfg.t == 1.5  # flag wins
    assert cfg.seed == 3  # None override falls through to the file value
    assert cfg.n_list == (2, 3)  # json lists became int tuples
    assert cfg.samples_per_n == 7


def test_make_config_rejects_unknown_key():
    with pytest.raises(UsageError):
        make_config(file_values={"grid": 100})


def test_make_config_casts_list_fields():
    cfg = make_config(overrides={"epsilon_list": [1, 2], "n_list": [2.0]})
    assert cfg.epsilon_list == (1.0, 2.0)
    assert cfg.n_list == (2,)
    assert all(isinstance(e, float) for e in cfg.epsilon_list)


def test_derived_seed_stable_and_distinct():
    # frozen reference values: these seeds are written into output tables,
    # so any drift would silently invalidate recorded runs
    assert derived_seed(5, 2, 0) == 8284994389295094759
    assert derived_seed(5, 3, 0) == 736717198779128466
    seen = {derived_seed(m, n, i) for m in (0, 5) for n in (2, 3) for i in range(4)}
    assert len(seen) == 16


def test_write_table_csv_is_crlf(tmp_path):
    path = _write_table(str(tmp_path / "x.csv"), ["a", "b"], [[1, "y"]], "csv")
    raw = Path(path).read_bytes()
    assert raw == b"a,b\r\n1,y\r\n"


def test_write_table_json_swaps_extension(tmp_path):
    path = _write_table(str(tmp_path / "x.csv"), ["a"], [[2], [3]], "json")
    assert path.endswith("x.json")
    assert json.loads(Path(path).read_text()) == [{"a": 2}, {"a": 3}]


# ---------------------------------------------------------------- gap sweep


def _tiny_cfg(out, **extra):
    base = dict(grid_m=50, n_list=[2, 3], samples_per_n=3, seed=5,
                output_dir=str(out))
    base.update(extra)
    return make_config(overrides=base)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    cfg = _tiny_cfg(out)
    return cfg, cmd_gap_sweep(cfg, threads=2)


def test_gap_sweep_record_invariants(sweep):
    cfg, res = sweep
    records = res["records"]
    assert [(r.n, r.index) for r in records] == [(2, 0), (2, 1), (2, 2),
                                                (3, 0), (3, 1), (3, 2)]
    peak = h_peak(cfg.t)
    for r in records:
        assert r.seed == derived_seed(cfg.seed, r.n, r.index)
        assert 0.0 <= r.krylov_residual < 1e-6
        assert r.lambda_lower_bound <= 0.25 + 1e-12
        assert (r.lambda_hat is None) == (r.op_norm <= peak)
        if r.lambda_hat is not None:
            assert r.lambda_hat == r.lambda_lower_bound
        assert r.wall_time > 0


def test_gap_sweep_disconnected_sample_reads_zero(sweep):
    # this seed draws a non-transitive tuple at (3, 0); its cover splits, so
    # the estimate must report an eigenvalue at (numerically) zero rather
    # than fail on the constant direction
    _, res = sweep
    loose = [r for r in res["records"] if not r.transitive]
    assert loose
    for r in loose:
        assert r.lambda_hat is not None and r.lambda_hat <= 0.05


def test_gap_sweep_files_and_summary(sweep):
    cfg, res = sweep
    raw = Path(res["data"]).read_bytes()
    lines = raw.decode().split("\r\n")
    assert lines[0] == ",".join(GAP_HEADER)
    assert len(lines) == 8 and lines[-1] == ""  # header + 6 rows + trailer
    summary = json.loads(Path(res["summary"]).read_text())
    assert set(summary["per_n"]) == {"2", "3"}
    assert summary["per_n"]["2"]["median_deficit"] == 0.0
    assert summary["per_n"]["2"]["transitive_samples"] == 3
    assert summary["h_peak"] == pytest.approx(h_peak(cfg.t))
    meta = json.loads(Path(res["meta"]).read_text())
    assert meta["partial"] is False
    assert meta["config"]["grid_m"] == 50
    assert meta["wall_time_seconds"] > 0
    assert meta["records"] == 6
    assert meta["workers"] == min(len(os.sched_getaffinity(0)), 6)
    assert meta["code_version"] != "unknown"
    per_n = meta["sample_seconds"]
    assert sum(v["count"] for v in per_n.values()) == len(res["records"])
    for v in per_n.values():
        assert 0 < v["p50"] <= v["max"]
    _check_stage_seconds(meta)


def _check_stage_seconds(meta):
    stages = meta["stage_seconds"]
    assert set(stages) == {"setup", "sampling", "solve", "write"}
    assert all(v >= 0 for v in stages.values())
    assert sum(stages.values()) == pytest.approx(meta["wall_time_seconds"], rel=0.05)


def test_gap_sweep_rerun_is_byte_identical(sweep, tmp_path):
    cfg, res = sweep
    cfg2 = dataclasses.replace(cfg, output_dir=str(tmp_path))
    res2 = cmd_gap_sweep(cfg2, threads=1)  # different thread count on purpose
    assert Path(res["data"]).read_bytes() == Path(res2["data"]).read_bytes()
    assert Path(res["summary"]).read_bytes() == Path(res2["summary"]).read_bytes()


def test_gap_sweep_keeps_partial_batch(sweep, tmp_path, monkeypatch):
    # one failing sample must not stop the others: every other row is
    # written in (n, index) order, the sidecar says partial, and the driver
    # raises ComputeError at the end
    cfg, res = sweep
    bad_seed = derived_seed(cfg.seed, 2, 1)
    real = experiments.estimate_gap

    def flaky(op, seed=None, **kw):
        if seed == bad_seed:
            raise RuntimeError("injected failure")
        return real(op, seed=seed, **kw)

    monkeypatch.setattr(experiments, "estimate_gap", flaky)
    cfg2 = dataclasses.replace(cfg, output_dir=str(tmp_path))
    with pytest.raises(ComputeError, match="injected failure"):
        cmd_gap_sweep(cfg2)
    full = Path(res["data"]).read_bytes().decode().split("\r\n")
    got = (tmp_path / "gap_sweep.csv").read_bytes().decode().split("\r\n")
    assert got == full[:2] + full[3:]  # header, (2, 0), then (2, 2) onward
    meta = json.loads((tmp_path / "gap_sweep_meta.json").read_text())
    assert meta["partial"] is True
    assert meta["records"] == 5


def _two_cpus(monkeypatch):
    # the sweep pools its solves over two workers, whatever this host has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


def test_gap_sweep_names_first_failure_in_index_order(sweep, tmp_path,
                                                      monkeypatch):
    # the later sample's failure is raised first, in its own worker; the
    # driver still names the earlier one in (n, index) order
    cfg, _ = sweep
    early, late = derived_seed(cfg.seed, 2, 2), derived_seed(cfg.seed, 3, 0)
    real = experiments.estimate_gap

    def flaky(op, seed):
        if seed == late:
            raise RuntimeError(f"failure at {seed}")
        if seed == early:
            time.sleep(0.5)
            raise RuntimeError(f"failure at {seed}")
        return real(op, seed=seed)

    _two_cpus(monkeypatch)
    monkeypatch.setattr(experiments, "estimate_gap", flaky)
    with pytest.raises(ComputeError, match=f"failure at {early}$"):
        cmd_gap_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path)))
    meta = json.loads((tmp_path / "gap_sweep_meta.json").read_text())
    assert meta["partial"] is True and meta["records"] == 4


class _TwoFieldError(RuntimeError):
    def __init__(self, a, b):
        super().__init__(f"fields {a} and {b}")


def test_pooled_failure_always_reaches_the_driver(sweep, monkeypatch):
    # an exception whose unpickling fails would kill the pool's result
    # thread; the worker sends its text instead
    cfg, _ = sweep
    job = _draw_homs(cfg, 2)[0]

    def failing(op, seed):
        raise _TwoFieldError(1, 2)

    monkeypatch.setattr(experiments, "estimate_gap", failing)
    monkeypatch.setattr(experiments, "_family", _assemble(cfg))
    sent = experiments._pooled_gap_record(job)
    back = pickle.loads(pickle.dumps(sent))
    assert back == "fields 1 and 2"


def test_gap_sweep_leaves_no_worker_behind(sweep, tmp_path, monkeypatch):
    cfg, _ = sweep
    _two_cpus(monkeypatch)
    res = cmd_gap_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path)))
    assert json.loads(Path(res["meta"]).read_text())["workers"] == 2
    assert multiprocessing.active_children() == []

    def failing(op, seed):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(experiments, "estimate_gap", failing)
    with pytest.raises(ComputeError, match="injected failure"):
        cmd_gap_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path)))
    assert multiprocessing.active_children() == []


def test_draw_homs_require_transitive(tmp_path):
    cfg = _tiny_cfg(tmp_path, n_list=[3], require_transitive=True)
    draws = _draw_homs(cfg, 3)
    transitive = [hom.transitive for _, _, _, hom in draws]
    assert sum(transitive) == cfg.samples_per_n
    assert transitive[-1]  # stops right at the quota
    assert [d[1] for d in draws] == list(range(len(draws)))


# ------------------------------------------------------- other sweep drivers


def test_strong_convergence_fractions(tmp_path):
    cfg = _tiny_cfg(tmp_path, epsilon_list=[0.02, 10.0])
    res = cmd_strong_convergence(cfg)
    for eps, fracs in res["fractions"].items():
        for f in fracs:
            assert 0.0 <= f <= 1.0
    # a threshold of 11 * h_peak is far beyond the row-sum ceiling
    assert res["fractions"][10.0] == [0.0, 0.0]
    assert res["trend"]["10.0"] is True
    rows = [ln.split(",") for ln in
            Path(res["data"]).read_bytes().decode().split("\r\n")[1:-1]]
    assert len(rows) == 4  # two degrees x two epsilons
    for row in rows:
        assert int(row[3]) <= int(row[4])
    # the timings are the gap sweep's; the table's sidecar carries none
    meta = json.loads(Path(res["gap_meta"]).read_text())
    counts = [v["count"] for v in meta["sample_seconds"].values()]
    assert sum(counts) == len(res["records"])
    _check_stage_seconds(meta)
    own = json.loads(Path(res["meta"]).read_text())
    assert not {"sample_seconds", "stage_seconds"} & set(own)


def test_strong_convergence_is_one_gap_sweep(sweep, tmp_path, monkeypatch):
    # one sampling pass feeds both tables: every (n, index) is drawn and
    # solved once, and the gap files equal a gap-sweep run's byte for byte;
    # the solves run in the sweep's worker processes, so each one appends a
    # line to a file instead of to a list in this process
    cfg, res = sweep
    drawn = []
    solved = tmp_path / "solved.log"
    draw, solve = experiments.sample_uniform_hom, experiments.estimate_gap

    def counting_draw(n, genus, seed):
        drawn.append((n, seed))
        return draw(n, genus, seed=seed)

    def counting_solve(op, seed):
        with open(solved, "a") as f:
            f.write(f"{op.n} {seed}\n")
        return solve(op, seed=seed)

    monkeypatch.setattr(experiments, "sample_uniform_hom", counting_draw)
    monkeypatch.setattr(experiments, "estimate_gap", counting_solve)
    out = cmd_strong_convergence(dataclasses.replace(cfg, output_dir=str(tmp_path)))
    assert drawn == [(r.n, r.seed) for r in res["records"]]
    assert sorted(solved.read_text().splitlines()) == sorted(
        f"{r.n} {r.seed}" for r in res["records"])
    for key, name in (("data", "gap_sweep.csv"),
                      ("summary", "gap_sweep_summary.json")):
        assert Path(out["gap_" + key]) == tmp_path / name
        assert Path(out["gap_" + key]).read_bytes() == Path(res[key]).read_bytes()


def test_strong_convergence_failure_writes_no_table(sweep, tmp_path, monkeypatch):
    cfg, _ = sweep
    bad_seed = derived_seed(cfg.seed, 3, 0)
    real = experiments.estimate_gap

    def flaky(op, seed):
        if seed == bad_seed:
            raise RuntimeError("injected failure")
        return real(op, seed=seed)

    monkeypatch.setattr(experiments, "estimate_gap", flaky)
    with pytest.raises(ComputeError, match="injected failure"):
        cmd_strong_convergence(dataclasses.replace(cfg, output_dir=str(tmp_path)))
    meta = json.loads((tmp_path / "gap_sweep_meta.json").read_text())
    assert meta["partial"] is True and meta["records"] == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "gap_sweep.csv", "gap_sweep_meta.json", "gap_sweep_summary.json"]


def test_strong_convergence_trend_skips_degrees_without_samples(tmp_path,
                                                                 monkeypatch):
    # a degree with no transitive sample reads fraction NaN: it must not
    # turn the trend false, and a rise between the other degrees still must
    cfg = _tiny_cfg(tmp_path, n_list=[2, 3, 4], epsilon_list=[10.0, 100.0])
    real = experiments._transitive_slice
    high = 20 * h_peak(cfg.t)

    def sliced(cfg, records, n):
        chosen = real(cfg, records, n)
        if n == 3:
            return []
        if n == 4:
            return [dataclasses.replace(r, op_norm=high) for r in chosen]
        return chosen

    monkeypatch.setattr(experiments, "_transitive_slice", sliced)
    res = cmd_strong_convergence(cfg)
    assert res["fractions"][100.0][0] == 0.0 == res["fractions"][100.0][2]
    assert math.isnan(res["fractions"][100.0][1])
    assert res["fractions"][10.0][2] == 1.0
    assert res["trend"] == {"10.0": False, "100.0": True}
    meta = json.loads(Path(res["meta"]).read_text())
    assert meta["nonincreasing"] == res["trend"]
    rows = [ln.split(",") for ln in
            Path(res["data"]).read_bytes().decode().split("\r\n")[1:-1]]
    assert [r[4:] for r in rows if r[0] == "3"] == [["0", "nan"]] * 2


def test_truncation_study_certificates(tmp_path, monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    cases = [
        ({"truncation_r_list": [1, 4, 32, 64]}, 5, [64], 32),
        # t = 2 stores the identity block dense; at full rank the study
        # applies it by its own dot, as the operator does, so the two norms
        # agree bit for bit
        ({"t": 2.0, "grid_m": 100, "n_list": [4], "seed": 0,
          "truncation_r_list": [1, 4, 16, 64, 128]}, 25, [], 128),
    ]
    for k, (extra, pairs, skipped, m) in enumerate(cases):
        cfg = _tiny_cfg(tmp_path / str(k), **extra)
        calls.clear()
        res = cmd_truncation_study(cfg)
        # one SVD per inverse pair of blocks, not per block or per rank
        partners = _assemble(cfg).partners
        assert len(calls) == sum(i <= j for i, j in enumerate(partners)) == pairs
        assert json.loads(Path(res["meta"]).read_text())["skipped_ranks"] == skipped
        assert len(res["rows"]) == len(cfg.truncation_r_list) - len(skipped)
        for _, r, certified, observed, hs_ref, bound, full in res["rows"]:
            assert float(observed) <= float(certified) + 1e-9
            assert float(bound) >= float(full) - float(certified) - 1e-9
        last = res["rows"][-1]
        assert last[1] == m  # full rank on the m-node grid
        assert float(last[2]) == 0.0 and float(last[3]) == 0.0
        assert res["slope"] == pytest.approx(-0.5, abs=1e-9)


def test_truncation_study_with_every_rank_skipped(tmp_path, monkeypatch):
    # ranks above the 32-node grid are skipped before any cover is drawn,
    # solved or factored
    cfg = _tiny_cfg(tmp_path, truncation_r_list=[64, 128])
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "svd", counting(np.linalg.svd))
    for name in ("sample_uniform_hom", "estimate_gap"):
        monkeypatch.setattr(experiments, name, counting(getattr(experiments, name)))
    res = cmd_truncation_study(cfg)
    assert calls == [] and res["rows"] == []
    assert Path(res["data"]).read_bytes().decode().split("\r\n") == [
        "n,r,certified_gap,observed_diff,hs_reference,truncated_bound,full_norm",
        "",
    ]
    assert json.loads(Path(res["meta"]).read_text())["skipped_ranks"] == [64, 128]


def test_truncation_study_uses_first_transitive_draw(tmp_path, monkeypatch):
    # at seed 9 the n = 2 draw at index 0 is not transitive, index 1 is
    first = [derived_seed(9, 2, i) for i in range(2)]
    assert [sample_uniform_hom(2, 2, seed=s).transitive for s in first] == \
        [False, True]
    used = []
    build = experiments.build_cover_operator

    def recording_build(blocks, hom):
        used.append(hom)
        return build(blocks, hom)

    monkeypatch.setattr(experiments, "build_cover_operator", recording_build)
    data = []
    for samples in (1, 50):
        cfg = _tiny_cfg(tmp_path / str(samples), n_list=[2], seed=9,
                        samples_per_n=samples, truncation_r_list=[1, 4])
        data.append(Path(cmd_truncation_study(cfg)["data"]).read_bytes())
    assert data[0] == data[1]  # the study ignores samples_per_n
    expected = sample_uniform_hom(2, 2, seed=first[1]).gens
    assert [[p.images0 for p in h.gens] for h in used] == \
        [[p.images0 for p in expected]] * 2


def test_selberg_table_values(tmp_path):
    cfg = _tiny_cfg(tmp_path, t_list=[1.0], real_r_list=[0.0, 1.0],
                    imag_a_list=[0.0, 0.25, 0.5])
    res = cmd_selberg_table(cfg)
    assert len(res["rows"]) == 5
    imag = [row for row in res["rows"] if row[1] == "imaginary"]
    vals = [float(row[3]) for row in imag]
    assert vals == sorted(vals)  # transform grows toward the ball area
    assert vals[-1] == pytest.approx(ball_area(1.0), rel=1e-6)
    at_zero = {row[1]: float(row[3]) for row in res["rows"]
               if float(row[2]) == 0.0}
    assert at_zero["real"] == at_zero["imaginary"] == pytest.approx(h_peak(1.0))
    for row in res["rows"]:
        kind, p, lam = row[1], float(row[2]), float(row[5])
        assert lam == pytest.approx(0.25 + p * p if kind == "real"
                                    else 0.25 - p * p)
        assert float(row[6]) >= 0.0


def _csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_sampler_validate_tiny(tmp_path):
    cfg = _tiny_cfg(tmp_path, n_max=3, gof_draws=2000)
    res = cmd_sampler_validate(cfg)
    rep = res["report"]["per_n"]["2"]
    assert rep["enumerated"] == rep["count_homs"] == count_homs(2, 2) == 16
    assert rep["count_match"] and rep["pass"]
    # the p-value must be scipy.stats' own, bit for bit
    for entry in res["report"]["per_n"].values():
        assert entry["pvalue"] == chi2.sf(entry["chi2_stat"], entry["df"])
    assert res["report"]["pass"] is True
    assert [row["pass"] for row in _csv_rows(res["data"])] == ["True", "True"]


def test_sampler_validate_statistical_failure_raises(tmp_path):
    # an absurd alpha turns any finite p-value into a failure; the report
    # must still land on disk before the error propagates
    cfg = _tiny_cfg(tmp_path, n_max=2, gof_draws=2000, gof_alpha=0.999999)
    with pytest.raises(ComputeError):
        cmd_sampler_validate(cfg)
    rows = _csv_rows(tmp_path / "sampler_validate.csv")
    assert [row["pass"] for row in rows] == ["False"]


def test_lattice_count_known_values(tmp_path):
    cfg = _tiny_cfg(tmp_path, radius_list=[0.0, 4.0, 6.0], t_list=[0.5, 1.0])
    res = cmd_lattice_count(cfg)
    assert res["lattice_counts"] == {0.0: 1, 4.0: 9, 6.0: 97}
    assert res["support_counts"] == {0.5: 49, 1.0: 49}
    assert res["C_hat"] == pytest.approx(49.0 / math.e)
    expected = (math.log(97) - math.log(9)) / 2.0
    assert res["growth_exponent"] == pytest.approx(expected)
    assert 0.7 <= res["growth_exponent"] <= 1.3


def test_lattice_count_support_steps_at_the_second_ring(tmp_path):
    # S(t) holds the 49 tiles meeting P up to the second ring, 16 tiles
    # at arccosh(2 + 2 sqrt 2) = 2.2568 from P; so 49 at t = 2.25
    ring = math.acosh(2.0 + 2.0 * math.sqrt(2.0))
    t_list = [2.25, ring - 1e-3, ring + 1e-3]
    res = cmd_lattice_count(_tiny_cfg(tmp_path, radius_list=[0.0], t_list=t_list))
    assert res["support_counts"] == dict(zip(t_list, [49, 49, 65]))
