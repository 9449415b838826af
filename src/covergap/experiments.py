"""Batch experiment drivers: seeded sampling campaigns with CSV/JSON output.

Every command takes an ExperimentConfig, derives one RNG stream per sample
from the master seed, and writes rows in deterministic (n, index) order so
identical configs give byte-identical data files. The gap sweep solves its
covers on a fork pool with one worker process per CPU this process may run
on, and in this process where there is one CPU or no fork; every other
command runs serially. The truncation study stays serial: its SVDs ran
slower in pool workers than here, and a 2-worker pool over its six Lanczos
solves alone measured 0.99x its serial wall time on 2 CPUs. Every command
writes its table and then its JSON sidecar through _write_outputs;
wall-clock numbers go to the sidecar only, never into the data files. cmd_gap_sweep and cmd_truncation_study still accept an
ignored `threads` keyword, because the benchmark harness
(perfbench/child.py) passes it.
"""

import csv
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import time
from dataclasses import dataclass
from importlib.metadata import PackageNotFoundError
from importlib.metadata import version as _pkg_version
from typing import Optional, Tuple, get_args, get_origin, get_type_hints

import numpy as np
from scipy.special import chdtrc

from .cover_spectrum import build_cover_operator, estimate_gap, truncation_components
from .domain import assemble_support_blocks, build_grid
from .selberg import (
    SpectralParameter,
    h_peak,
    lambda_from_param,
    plane_density,
    selberg_h,
)
from .surface_group import (
    MAX_R,
    build_bolza_realization,
    lattice_points,
    support_radius,
    support_set,
)
from .symmetric_group import (
    MAX_N,
    Permutation,
    commutator,
    count_homs,
    sample_uniform_hom,
)


@functools.cache
def _code_version() -> str:
    """The installed package version; from a source checkout, where no
    package metadata exists, "src-sha256:" plus a sha256 over the sorted
    names and bytes of the package's .py files, the recipe perfbench
    records as src_sha256, so a sidecar can be matched to a bench run."""
    try:
        return _pkg_version("covergap")
    except PackageNotFoundError:
        pass
    pkg = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()


class UsageError(ValueError):
    """Bad configuration or flags; maps to exit code 2."""


class ComputeError(RuntimeError):
    """Numerical failure mid-run; maps to exit code 1, output flagged partial."""


# a block stored dense is one m x m float64 array (800 MB at m = 10000),
# so larger grids exhaust memory long before they finish
MAX_GRID_M = 10000


def _strictly_ascending(xs) -> bool:
    return all(a < b for a, b in zip(xs, xs[1:]))


def _distinct(xs) -> bool:
    return len(set(xs)) == len(xs)


@dataclass(frozen=True)
class ExperimentConfig:
    genus: int = 2
    t: float = 1.0
    grid_m: int = 400
    n_list: Tuple[int, ...] = (4, 8, 16)
    samples_per_n: int = 200
    seed: int = 0
    truncation_r_list: Tuple[int, ...] = (1, 4, 16, 64, 256)
    output_dir: str = "."
    format: str = "csv"
    epsilon_list: Tuple[float, ...] = (0.02, 0.1)
    t_list: Tuple[float, ...] = (0.5, 1.0, 1.5)
    real_r_list: Tuple[float, ...] = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)
    imag_a_list: Tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    radius_list: Tuple[float, ...] = (0.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0)
    n_max: int = 4
    gof_draws: int = 100000
    gof_alpha: float = 0.01
    require_transitive: bool = False

    def validate(self) -> "ExperimentConfig":
        if self.genus != 2:
            raise UsageError("genus must be 2: the blocks are built on the Bolza surface")
        if not 0 < self.t <= 4.0:
            raise UsageError("t must lie in (0, 4]")
        if not 50 <= self.grid_m <= MAX_GRID_M:
            raise UsageError(
                f"grid_m must lie in [50, {MAX_GRID_M}]: a block stored "
                "dense is an m x m array")
        if not self.n_list or not _strictly_ascending(self.n_list):
            raise UsageError("n_list must be nonempty and strictly ascending")
        for n in self.n_list:
            if not 2 <= n <= MAX_N:
                raise UsageError(f"cover degree {n} outside [2, {MAX_N}]")
        if self.seed < 0:
            raise UsageError("seed must be nonnegative")
        if self.samples_per_n < 1:
            raise UsageError("samples_per_n must be positive")
        if not self.truncation_r_list or any(r < 1 for r in self.truncation_r_list):
            raise UsageError("truncation ranks must be positive")
        if not _strictly_ascending(self.truncation_r_list):
            raise UsageError("truncation ranks must be strictly ascending")
        if self.format not in ("csv", "json"):
            raise UsageError("format must be csv or json")
        for key in ("t_list", "epsilon_list", "real_r_list", "radius_list"):
            if not all(map(math.isfinite, getattr(self, key))):
                raise UsageError(f"{key} entries must be finite")
        for key in ("epsilon_list", "t_list"):
            xs = getattr(self, key)
            if not xs or not _distinct(xs) or any(x <= 0 for x in xs):
                raise UsageError(f"{key} must be nonempty with distinct positive entries")
        if any(support_radius(t) > MAX_R for t in self.t_list):
            raise UsageError(
                "t_list entries must keep the support search radius within "
                f"the enumeration cap {MAX_R}")
        if not _distinct(self.real_r_list) or any(r < 0 for r in self.real_r_list):
            raise UsageError("real spectral parameters must be distinct and nonnegative")
        imag = self.imag_a_list
        if not _distinct(imag) or any(not 0 <= a <= 0.5 for a in imag):
            raise UsageError("imaginary spectral parameters must be distinct, in [0, 1/2]")
        if not self.real_r_list and not self.imag_a_list:
            raise UsageError("real_r_list and imag_a_list must not both be empty")
        if any(R < 0 for R in self.radius_list) or not _strictly_ascending(
            self.radius_list
        ):
            raise UsageError("radius_list must be nonnegative and strictly ascending")
        if any(R > MAX_R for R in self.radius_list):
            raise UsageError(
                f"radius_list entries must not exceed the enumeration cap {MAX_R}")
        if not 2 <= self.n_max <= 4:
            raise UsageError("n_max must be 2, 3, or 4 (exhaustive regime)")
        if self.gof_draws < 1000:
            raise UsageError("gof_draws must be at least 1000")
        if not 0 < self.gof_alpha < 1:
            raise UsageError("gof_alpha must lie in (0, 1)")
        return self


_FIELD_TYPES = get_type_hints(ExperimentConfig)


def _checked_scalar(key: str, val, kind):
    """val as a `kind` value: an int field takes an int or an integral
    float, a float field an int or a float, a bool or str field only its
    own type; a bool is never a number."""
    if kind in (bool, str):
        if isinstance(val, kind):
            return val
    elif isinstance(val, (int, float)) and not isinstance(val, bool):
        if kind is float:
            try:
                return float(val)
            except OverflowError:
                raise UsageError(f"{key} is too large for a float") from None
        if isinstance(val, int):
            return val
        if val.is_integer():
            return int(val)
    raise UsageError(f"{key} must be {kind.__name__}, got {val!r}")


def _checked_value(key: str, val):
    """val checked against the ExperimentConfig annotation of `key`; tuple
    fields take a list whose items follow the scalar rule."""
    hint = _FIELD_TYPES[key]
    if get_origin(hint) is not tuple:
        return _checked_scalar(key, val, hint)
    if not isinstance(val, (list, tuple)):
        raise UsageError(f"{key} must be a list, got {val!r}")
    item = get_args(hint)[0]
    return tuple(_checked_scalar(key, x, item) for x in val)


def make_config(file_values: Optional[dict] = None,
                overrides: Optional[dict] = None) -> ExperimentConfig:
    """Merge config-file values with flag overrides (flags win), and create
    the output directory, so an unusable one fails before any work. A flag
    that was not given is None and skipped; a file value of null is a
    value of the wrong type."""
    merged = {}
    for source, flags in ((file_values or {}, False), (overrides or {}, True)):
        for key, val in source.items():
            if key not in _FIELD_TYPES:
                raise UsageError(f"unknown config key {key!r}")
            if val is not None or not flags:
                merged[key] = _checked_value(key, val)
    cfg = ExperimentConfig(**merged).validate()
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot use output directory: {exc}") from None
    return cfg


def load_config_file(path: str) -> dict:
    try:
        with open(path) as f:
            values = json.load(f)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
        raise UsageError(f"cannot parse config file: {exc}")
    except RecursionError:  # arrays or objects nested past the parser's stack
        raise UsageError("cannot parse config file: nested too deeply") from None
    if not isinstance(values, dict):
        raise UsageError("config file must hold a JSON object")
    return values


def derived_seed(master: int, *parts) -> int:
    """Stable per-sample seed from the master seed and index coordinates."""
    tag = ":".join([str(master)] + [str(p) for p in parts])
    digest = hashlib.sha256(tag.encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class GapRecord:
    n: int
    index: int
    seed: int
    transitive: bool
    op_norm: float
    lambda_hat: Optional[float]
    lambda_lower_bound: float
    krylov_residual: float
    wall_time: float  # summarized per n in the sidecar, never in data files

    def row(self):
        return [
            self.n,
            self.index,
            self.seed,
            self.transitive,
            _fmt(self.op_norm),
            "" if self.lambda_hat is None else _fmt(self.lambda_hat),
            _fmt(self.lambda_lower_bound),
            _fmt(self.krylov_residual),
        ]


GAP_HEADER = [
    "n", "index", "seed", "transitive", "op_norm",
    "lambda_hat", "lambda_lower_bound", "krylov_residual",
]


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_json(path: str, payload) -> None:
    try:
        with open(path, "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
            f.write("\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_table(path: str, header, rows, fmt: str) -> str:
    if fmt == "json":
        path = os.path.splitext(path)[0] + ".json"
        _write_json(path, [dict(zip(header, r)) for r in rows])
        return path
    try:
        with open(path, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\r\n")
            w.writerow(header)
            w.writerows(rows)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None
    return path


# the sidecar has a function of its own, as perfbench/child.py times the
# table's and the sidecar's writes as separate calls
def _write_meta(path: str, cfg: ExperimentConfig, wall: float, extra: dict,
                partial: bool) -> str:
    _write_json(path, {
        "config": dataclasses.asdict(cfg),
        "code_version": _code_version(),
        "wall_time_seconds": wall,
        "partial": partial,
        **extra,
    })
    return path


def _write_outputs(cfg: ExperimentConfig, name: str, header, rows, t_start: float,
                   extra: Optional[dict] = None, partial: bool = False):
    """Write the table `<name>.csv` (`<name>.json` under --format json),
    then its sidecar `<name>_meta.json`: the config, the code version, the
    partial flag, `extra`, and the wall time from the clock reading t_start
    to the end of the table's write. Returns the two paths."""
    data = _write_table(_outpath(cfg, name + ".csv"), header, rows, cfg.format)
    wall = time.perf_counter() - t_start
    meta = _write_meta(_outpath(cfg, name + "_meta.json"), cfg, wall, extra or {}, partial)
    return data, meta


def _outpath(cfg: ExperimentConfig, name: str) -> str:
    return os.path.join(cfg.output_dir, name)


# ----------------------------------------------------------- gap sampling


def _draw_homs(cfg: ExperimentConfig, n: int):
    """Sequential seeded draws; with require_transitive, keep drawing until
    samples_per_n transitive tuples are on hand (every draw is recorded)."""
    draws = []
    transitive = 0
    cap = 4 * cfg.samples_per_n + 16
    for index in itertools.count():
        if cfg.require_transitive:
            if transitive >= cfg.samples_per_n:
                break
            if index >= cap:
                raise ComputeError(
                    f"could not reach {cfg.samples_per_n} transitive samples "
                    f"at n={n} within {cap} draws"
                )
        elif index >= cfg.samples_per_n:
            break
        s = derived_seed(cfg.seed, n, index)
        hom = sample_uniform_hom(n, cfg.genus, seed=s)
        transitive += hom.transitive
        draws.append((n, index, s, hom))
    return draws


def _assemble(cfg: ExperimentConfig):
    real = build_bolza_realization()
    grid = build_grid(real, cfg.grid_m)
    return assemble_support_blocks(support_set(real, cfg.t), cfg.t, grid)


_family = None  # a pool worker's BlockFamily, set by its initializer


def _adopt_family(blocks) -> None:
    global _family
    _family = blocks


def _gap_record(blocks, job):
    """The GapRecord of one (n, index, seed, hom) draw, timed where it is
    solved, or the text of the exception that stopped it. Text always
    survives the trip back from a pool worker; unpickling some exceptions
    would kill the pool's result thread, and the sweep would wait forever."""
    n, index, s, hom = job
    t0 = time.perf_counter()
    try:
        est = estimate_gap(build_cover_operator(blocks, hom), seed=s)
    except Exception as exc:  # keep the partial batch
        return str(exc)
    return GapRecord(
        n=n,
        index=index,
        seed=s,
        transitive=hom.transitive,
        op_norm=est.op_norm,
        lambda_hat=est.lambda_exact_if_below_quarter,
        lambda_lower_bound=est.lambda_lower_bound,
        krylov_residual=est.krylov_residual,
        wall_time=time.perf_counter() - t0,
    )


def _pooled_gap_record(job):
    """_gap_record in a pool worker, on the family it inherited."""
    return _gap_record(_family, job)


def _pool_size(jobs: int) -> int:
    """Worker processes for `jobs` solves: one per CPU this process may run
    on, at most one per job; 1 (solve in this process) where fork or the
    CPU affinity query does not exist."""
    if ("fork" not in multiprocessing.get_all_start_methods()
            or not hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), jobs)


def _collect_gap_records(draws, blocks):
    """One GapRecord per draw, in (n, index) order, and the number of
    processes that solved them. A failing sample does not stop the batch:
    the text of the first failure in (n, index) order is returned with the
    records of every other sample."""
    workers = _pool_size(len(draws))
    if workers > 1:
        # the workers inherit the family through fork instead of a pickle
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers, initializer=_adopt_family,
                      initargs=(blocks,)) as pool:
            results = pool.map(_pooled_gap_record, draws, chunksize=1)
            pool.close()
            pool.join()
    else:
        results = [_gap_record(blocks, job) for job in draws]
    records = [r for r in results if isinstance(r, GapRecord)]
    failure = next((r for r in results if isinstance(r, str)), None)
    return records, failure, workers


_STAGES = ("setup", "sampling", "solve", "write")


def _stage_seconds(marks) -> dict:
    """Seconds of each of _STAGES between consecutive clock readings; they
    sum to the span from the first reading to the last."""
    return {name: b - a for name, a, b in zip(_STAGES, marks, marks[1:])}


def _sample_seconds(records) -> dict:
    """Per-n count, median and maximum of the per-sample build+solve time;
    records arrive sorted by (n, index)."""
    out = {}
    for n, group in itertools.groupby(records, key=lambda r: r.n):
        secs = [r.wall_time for r in group]
        out[str(n)] = {"count": len(secs), "p50": float(np.median(secs)),
                       "max": max(secs)}
    return out


def _transitive_slice(cfg: ExperimentConfig, records, n: int):
    """The per-n transitive records entering summaries (first samples_per_n)."""
    out = [r for r in records if r.n == n and r.transitive]
    return out[: cfg.samples_per_n]


def _fit_loglog(xs, ys):
    """Least-squares slope of log y against log x; None if underdetermined."""
    pts = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pts) < 2:
        return None
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    return float(np.polyfit(lx, ly, 1)[0])


def cmd_gap_sweep(cfg: ExperimentConfig, threads: int = 1) -> dict:
    """Per-sample gap records plus a per-n median-deficit summary."""
    marks = [time.perf_counter()]
    blocks = _assemble(cfg)
    marks.append(time.perf_counter())
    draws = [d for n in cfg.n_list for d in _draw_homs(cfg, n)]
    marks.append(time.perf_counter())
    records, failure, workers = _collect_gap_records(draws, blocks)
    marks.append(time.perf_counter())
    medians = {}
    for n in cfg.n_list:
        chosen = _transitive_slice(cfg, records, n)
        deficits = sorted(0.25 - r.lambda_lower_bound for r in chosen)
        medians[n] = {
            "median_deficit": float(np.median(deficits)) if deficits else None,
            "transitive_samples": len(chosen),
        }
    slope = _fit_loglog(
        [n for n in cfg.n_list if medians[n]["median_deficit"]],
        [medians[n]["median_deficit"] for n in cfg.n_list
         if medians[n]["median_deficit"]],
    )
    summary = {
        "per_n": {str(n): medians[n] for n in cfg.n_list},
        "deficit_loglog_slope": slope,
        "h_peak": h_peak(cfg.t),
    }
    summary_path = _outpath(cfg, "gap_sweep_summary.json")
    _write_json(summary_path, summary)
    marks.append(time.perf_counter())
    data_path, meta_path = _write_outputs(
        cfg, "gap_sweep", GAP_HEADER, [r.row() for r in records], marks[0],
        extra={"records": len(records), "workers": workers,
               "sample_seconds": _sample_seconds(records),
               "stage_seconds": _stage_seconds(marks)},
        partial=failure is not None,
    )
    if failure is not None:
        raise ComputeError(f"gap sweep incomplete: {failure}")
    return {"data": data_path, "summary": summary_path, "meta": meta_path,
            "records": records, "summary_dict": summary}


def cmd_strong_convergence(cfg: ExperimentConfig) -> dict:
    """Exceedance fractions of op_norm > (1+eps) h_peak(t), per (n, eps).

    The table is read off the records of one gap sweep, whose files are
    written too; a sweep that fails raises before the table is written."""
    t_start = time.perf_counter()
    sweep = cmd_gap_sweep(cfg)
    records = sweep["records"]
    peak = h_peak(cfg.t)
    rows = []
    fractions = {eps: [] for eps in cfg.epsilon_list}
    for n in cfg.n_list:
        chosen = _transitive_slice(cfg, records, n)
        for eps in cfg.epsilon_list:
            thr = (1.0 + eps) * peak
            hits = sum(1 for r in chosen if r.op_norm > thr)
            frac = hits / len(chosen) if chosen else float("nan")
            fractions[eps].append(frac)
            rows.append([n, _fmt(eps), _fmt(thr), hits, len(chosen), _fmt(frac)])
    # a degree without transitive samples has fraction NaN and no say
    trend = {}
    for eps in cfg.epsilon_list:
        seen = [f for f in fractions[eps] if not math.isnan(f)]
        trend[_fmt(eps)] = all(b <= a + 1e-12 for a, b in zip(seen, seen[1:]))
    data_path, meta_path = _write_outputs(
        cfg, "strong_convergence",
        ["n", "epsilon", "threshold", "exceed_count", "samples", "fraction"],
        rows, t_start, extra={"h_peak": peak, "nonincreasing": trend},
    )
    return {"gap_data": sweep["data"], "gap_summary": sweep["summary"],
            "gap_meta": sweep["meta"], "data": data_path, "meta": meta_path,
            "records": records, "summary_dict": sweep["summary_dict"],
            "trend": trend, "fractions": fractions}


def cmd_truncation_study(cfg: ExperimentConfig, threads: int = 1) -> dict:
    """Certified truncation budgets vs observed norm shifts across ranks."""
    t_start = time.perf_counter()
    blocks = _assemble(cfg)
    ranks = [r for r in cfg.truncation_r_list if r <= blocks.m]
    skipped = [r for r in cfg.truncation_r_list if r > blocks.m]
    rows = []
    if ranks:  # with every rank skipped no cover is drawn or solved
        n = cfg.n_list[-1]
        first = dataclasses.replace(cfg, samples_per_n=1, require_transitive=True)
        hom = _draw_homs(first, n)[-1][3]
        op = build_cover_operator(blocks, hom)
        full = estimate_gap(op, seed=cfg.seed).op_norm
        for comp in truncation_components(op, ranks, seed=cfg.seed):
            observed = abs(comp["truncated_top"] - full)
            rows.append([
                n, comp["r"], _fmt(comp["certified_gap"]), _fmt(observed),
                _fmt(comp["hs_reference"]), _fmt(comp["bound"]), _fmt(full),
            ])
    slope = _fit_loglog(ranks, [float(r[4]) for r in rows])
    data_path, meta_path = _write_outputs(
        cfg, "truncation_study",
        ["n", "r", "certified_gap", "observed_diff",
         "hs_reference", "truncated_bound", "full_norm"],
        rows, t_start,
        extra={"hs_reference_loglog_slope": slope, "skipped_ranks": skipped},
    )
    return {"data": data_path, "meta": meta_path, "slope": slope, "rows": rows}


def cmd_selberg_table(cfg: ExperimentConfig) -> dict:
    """Transform values over a (t, parameter) grid, plot-ready."""
    t_start = time.perf_counter()
    rows = []
    for t in cfg.t_list:
        params = [SpectralParameter.real(r) for r in sorted(cfg.real_r_list)]
        params += [
            SpectralParameter.imaginary(a) for a in sorted(cfg.imag_a_list)
        ]
        for p in params:
            tv = selberg_h(t, p)
            lam = lambda_from_param(p)
            rows.append([
                _fmt(t), p.kind, _fmt(p.value), _fmt(tv.value),
                _fmt(tv.quadrature_error_estimate), _fmt(lam),
                _fmt(plane_density(lam)),
            ])
    data_path, meta_path = _write_outputs(
        cfg, "selberg_table",
        ["t", "kind", "param", "value", "error_estimate",
         "lambda", "plane_density"],
        rows, t_start,
    )
    return {"data": data_path, "meta": meta_path, "rows": rows}


# ------------------------------------------------------- sampler validation


def _enumerate_hom_tuples(n: int):
    """All genus-2 tuples (A,B,C,D) of permutations with [A,B][C,D] = e."""
    if math.factorial(n) ** 2 > 2_000_000:
        raise ComputeError("enumeration memory cap exceeded")
    perms = [Permutation(p) for p in itertools.permutations(range(n))]
    pairs_by_comm = {}
    for a in perms:
        for b in perms:
            pairs_by_comm.setdefault(commutator(a, b), []).append((a, b))
    tuples = []
    for c, plist in pairs_by_comm.items():
        qlist = pairs_by_comm.get(c.inverse(), [])
        for ab in plist:
            for cd in qlist:
                tuples.append(ab + cd)
    return tuples


def cmd_sampler_validate(cfg: ExperimentConfig) -> dict:
    """Exhaustive-enumeration and chi-square checks of the uniform sampler."""
    t_start = time.perf_counter()
    header = ["n", "enumerated", "count_homs", "count_match",
              "chi2_stat", "df", "pvalue", "pass"]
    report = {"alpha": cfg.gof_alpha, "draws": cfg.gof_draws, "per_n": {}}
    rows = []
    for n in range(2, cfg.n_max + 1):
        tuples = _enumerate_hom_tuples(n)
        expected_count = count_homs(n, 2)
        count_ok = len(tuples) == expected_count
        index = {tup: i for i, tup in enumerate(tuples)}
        counts = np.zeros(len(tuples))
        for i in range(cfg.gof_draws):
            t = sample_uniform_hom(n, 2, seed=derived_seed(cfg.seed, "gof", n, i))
            counts[index[t.gens]] += 1
        e = cfg.gof_draws / len(tuples)
        stat = float(((counts - e) ** 2 / e).sum())
        df = len(tuples) - 1
        pvalue = float(chdtrc(df, stat))
        ok = count_ok and pvalue > cfg.gof_alpha
        row = [n, len(tuples), expected_count, count_ok, stat, df, pvalue, ok]
        report["per_n"][str(n)] = dict(zip(header[1:], row[1:]))
        rows.append([_fmt(x) if isinstance(x, float) else x for x in row])
    report["pass"] = all(row[-1] for row in rows)
    data_path, meta_path = _write_outputs(cfg, "sampler_validate", header, rows, t_start)
    if not report["pass"]:
        raise ComputeError("sampler validation failed; see report")
    return {"report": report, "data": data_path, "meta": meta_path}


def cmd_lattice_count(cfg: ExperimentConfig) -> dict:
    """Orbit-point counts per radius and support sizes per kernel radius."""
    t_start = time.perf_counter()
    real = build_bolza_realization()
    rows = []
    lat = {}
    for R in cfg.radius_list:
        lat[R] = len(lattice_points(real, R))
        rows.append(["lattice", _fmt(R), lat[R], ""])
    sup = {}
    for t in cfg.t_list:
        sup[t] = len(support_set(real, t))
    C_hat = max(sup[t] / math.exp(2 * t) for t in cfg.t_list)
    for t in cfg.t_list:
        rows.append(["support", _fmt(t), sup[t], _fmt(C_hat)])
    fit_R = [R for R in cfg.radius_list if 4.0 <= R <= 8.0 and lat[R] > 0]
    slope = None
    if len(fit_R) >= 2:
        slope = float(np.polyfit(fit_R, [math.log(lat[R]) for R in fit_R], 1)[0])
    data_path, meta_path = _write_outputs(
        cfg, "lattice_count", ["kind", "parameter", "count", "C_hat"], rows,
        t_start, extra={"growth_exponent": slope, "C_hat": C_hat},
    )
    return {"data": data_path, "meta": meta_path,
            "growth_exponent": slope, "C_hat": C_hat,
            "lattice_counts": lat, "support_counts": sup}
