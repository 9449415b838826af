"""Batch experiment drivers: seeded sampling campaigns with CSV/JSON output.

Every command takes an ExperimentConfig, derives one RNG stream per sample
from the master seed, runs the work serially, and writes rows in
deterministic (n, index) order so identical configs give byte-identical
data files. Wall-clock numbers go to the JSON sidecar only, never into the
data files. cmd_gap_sweep and cmd_truncation_study still accept an ignored
`threads` keyword, because the benchmark harness (perfbench/child.py)
passes it.
"""

import csv
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import time
from dataclasses import dataclass
from importlib.metadata import PackageNotFoundError
from importlib.metadata import version as _pkg_version
from typing import Optional, Tuple, get_args, get_origin, get_type_hints

import numpy as np
from scipy.stats import chi2

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
        if self.grid_m < 50:
            raise UsageError("grid_m must be at least 50")
        if not self.n_list or not _strictly_ascending(self.n_list):
            raise UsageError("n_list must be nonempty and strictly ascending")
        for n in self.n_list:
            if not 2 <= n <= MAX_N:
                raise UsageError(f"cover degree {n} outside [2, {MAX_N}]")
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
            return float(val)
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
    """Merge config-file values with flag overrides (flags win)."""
    merged = {}
    for source in (file_values or {}, overrides or {}):
        for key, val in source.items():
            if key not in _FIELD_TYPES:
                raise UsageError(f"unknown config key {key!r}")
            if val is not None:
                merged[key] = _checked_value(key, val)
    return ExperimentConfig(**merged).validate()


def load_config_file(path: str) -> dict:
    try:
        with open(path) as f:
            values = json.load(f)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}")
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
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")


def _write_table(path: str, header, rows, fmt: str) -> str:
    if fmt == "json":
        path = os.path.splitext(path)[0] + ".json"
        _write_json(path, [dict(zip(header, r)) for r in rows])
        return path
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\r\n")
        w.writerow(header)
        w.writerows(rows)
    return path


def _write_meta(path: str, cfg: ExperimentConfig, wall: float,
                extra: Optional[dict] = None, partial: bool = False) -> str:
    payload = {
        "config": dataclasses.asdict(cfg),
        "code_version": _code_version(),
        "wall_time_seconds": wall,
        "partial": partial,
    }
    if extra:
        payload.update(extra)
    _write_json(path, payload)
    return path


def _outpath(cfg: ExperimentConfig, name: str) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
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
    blocks = assemble_support_blocks(support_set(real, cfg.t), cfg.t, grid)
    return real, grid, blocks


def _collect_gap_records(draws, blocks):
    """One GapRecord per draw, in (n, index) order. A failing sample does
    not stop the batch: the first failure is returned with the records of
    every other sample."""
    records, failure = [], None
    for n, index, s, hom in draws:
        t0 = time.perf_counter()
        try:
            est = estimate_gap(build_cover_operator(blocks, hom), seed=s)
        except Exception as exc:  # keep the partial batch
            if failure is None:
                failure = exc
            continue
        records.append(GapRecord(
            n=n,
            index=index,
            seed=s,
            transitive=hom.transitive,
            op_norm=est.op_norm,
            lambda_hat=est.lambda_exact_if_below_quarter,
            lambda_lower_bound=est.lambda_lower_bound,
            krylov_residual=est.krylov_residual,
            wall_time=time.perf_counter() - t0,
        ))
    records.sort(key=lambda r: (r.n, r.index))
    return records, failure


_STAGES = ("setup", "sampling", "solve", "write")


def _gap_sweep(cfg: ExperimentConfig):
    """Set-up, draws and solves of one gap sweep: the records, the first
    failure, and the clock readings at the start and at the end of each of
    the first three _STAGES."""
    marks = [time.perf_counter()]
    _, _, blocks = _assemble(cfg)
    marks.append(time.perf_counter())
    draws = [d for n in cfg.n_list for d in _draw_homs(cfg, n)]
    marks.append(time.perf_counter())
    records, failure = _collect_gap_records(draws, blocks)
    marks.append(time.perf_counter())
    return records, failure, marks


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
    records, failure, marks = _gap_sweep(cfg)
    data_path = _write_table(
        _outpath(cfg, "gap_sweep.csv"), GAP_HEADER,
        [r.row() for r in records], cfg.format,
    )
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
    meta_path = _write_meta(
        _outpath(cfg, "gap_sweep_meta.json"), cfg, marks[-1] - marks[0],
        extra={"records": len(records),
               "sample_seconds": _sample_seconds(records),
               "stage_seconds": _stage_seconds(marks)},
        partial=failure is not None,
    )
    if failure is not None:
        raise ComputeError(f"gap sweep incomplete: {failure}")
    return {"data": data_path, "summary": summary_path, "meta": meta_path,
            "records": records, "summary_dict": summary}


def cmd_strong_convergence(cfg: ExperimentConfig) -> dict:
    """Exceedance fractions of op_norm > (1+eps) h_peak(t), per (n, eps)."""
    records, failure, marks = _gap_sweep(cfg)
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
    data_path = _write_table(
        _outpath(cfg, "strong_convergence.csv"),
        ["n", "epsilon", "threshold", "exceed_count", "samples", "fraction"],
        rows, cfg.format,
    )
    marks.append(time.perf_counter())
    meta_path = _write_meta(
        _outpath(cfg, "strong_convergence_meta.json"), cfg, marks[-1] - marks[0],
        extra={"h_peak": peak, "nonincreasing": trend,
               "sample_seconds": _sample_seconds(records),
               "stage_seconds": _stage_seconds(marks)},
        partial=failure is not None,
    )
    if failure is not None:
        raise ComputeError(f"strong-convergence sweep incomplete: {failure}")
    return {"data": data_path, "meta": meta_path, "trend": trend,
            "records": records, "fractions": fractions}


def cmd_truncation_study(cfg: ExperimentConfig, threads: int = 1) -> dict:
    """Certified truncation budgets vs observed norm shifts across ranks."""
    t_start = time.perf_counter()
    _, grid, blocks = _assemble(cfg)
    n = cfg.n_list[-1]
    first = dataclasses.replace(cfg, samples_per_n=1, require_transitive=True)
    hom = _draw_homs(first, n)[-1][3]
    op = build_cover_operator(blocks, hom)
    full = estimate_gap(op, seed=cfg.seed).op_norm
    ranks = [r for r in cfg.truncation_r_list if r <= grid.m]
    skipped = [r for r in cfg.truncation_r_list if r > grid.m]
    rows = []
    for r in ranks:
        comp = truncation_components(op, r, seed=cfg.seed)
        observed = abs(comp["truncated_top"] - full)
        rows.append([
            n, r, _fmt(comp["certified_gap"]), _fmt(observed),
            _fmt(comp["hs_reference"]), _fmt(comp["bound"]), _fmt(full),
        ])
    data_path = _write_table(
        _outpath(cfg, "truncation_study.csv"),
        ["n", "r", "certified_gap", "observed_diff",
         "hs_reference", "truncated_bound", "full_norm"],
        rows, cfg.format,
    )
    slope = _fit_loglog(ranks, [float(r[4]) for r in rows])
    wall = time.perf_counter() - t_start
    meta_path = _write_meta(
        _outpath(cfg, "truncation_study_meta.json"), cfg, wall,
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
    data_path = _write_table(
        _outpath(cfg, "selberg_table.csv"),
        ["t", "kind", "param", "value", "error_estimate",
         "lambda", "plane_density"],
        rows, cfg.format,
    )
    wall = time.perf_counter() - t_start
    meta_path = _write_meta(_outpath(cfg, "selberg_table_meta.json"), cfg, wall)
    return {"data": data_path, "meta": meta_path, "rows": rows}


# ------------------------------------------------------- sampler validation


def _enumerate_hom_tuples(n: int):
    """All genus-2 tuples (A,B,C,D) with [A,B][C,D] = e, as image keys."""
    if math.factorial(n) ** 2 > 2_000_000:
        raise ComputeError("enumeration memory cap exceeded")
    perms = [Permutation(p) for p in itertools.permutations(range(n))]
    pairs_by_comm = {}
    for a in perms:
        for b in perms:
            key = commutator(a, b).images0
            pairs_by_comm.setdefault(key, []).append((a.images0, b.images0))
    inv_key = {p.images0: p.inverse().images0 for p in perms}
    tuples = []
    for ckey, plist in pairs_by_comm.items():
        qlist = pairs_by_comm.get(inv_key[ckey], [])
        for ab in plist:
            for cd in qlist:
                tuples.append(ab + cd)
    return tuples


def cmd_sampler_validate(cfg: ExperimentConfig) -> dict:
    """Exhaustive-enumeration and chi-square checks of the uniform sampler."""
    t_start = time.perf_counter()
    report = {"alpha": cfg.gof_alpha, "draws": cfg.gof_draws, "per_n": {}}
    overall = True
    for n in range(2, cfg.n_max + 1):
        tuples = _enumerate_hom_tuples(n)
        expected_count = count_homs(n, 2)
        count_ok = len(tuples) == expected_count
        index = {tup: i for i, tup in enumerate(tuples)}
        counts = np.zeros(len(tuples))
        for i in range(cfg.gof_draws):
            t = sample_uniform_hom(n, 2, seed=derived_seed(cfg.seed, "gof", n, i))
            counts[index[tuple(p.images0 for p in t.gens)]] += 1
        e = cfg.gof_draws / len(tuples)
        stat = float(((counts - e) ** 2 / e).sum())
        df = len(tuples) - 1
        pvalue = float(chi2.sf(stat, df))
        ok = count_ok and pvalue > cfg.gof_alpha
        overall = overall and ok
        report["per_n"][str(n)] = {
            "enumerated": len(tuples),
            "count_homs": expected_count,
            "count_match": count_ok,
            "chi2_stat": stat,
            "df": df,
            "pvalue": pvalue,
            "pass": ok,
        }
    report["pass"] = overall
    path = _outpath(cfg, "sampler_validate.json")
    _write_json(path, report)
    wall = time.perf_counter() - t_start
    meta_path = _write_meta(_outpath(cfg, "sampler_validate_meta.json"), cfg, wall)
    if not overall:
        raise ComputeError("sampler validation failed; see report")
    return {"report": report, "data": path, "meta": meta_path}


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
    data_path = _write_table(
        _outpath(cfg, "lattice_count.csv"),
        ["kind", "parameter", "count", "C_hat"],
        rows, cfg.format,
    )
    wall = time.perf_counter() - t_start
    meta_path = _write_meta(
        _outpath(cfg, "lattice_count_meta.json"), cfg, wall,
        extra={"growth_exponent": slope, "C_hat": C_hat},
    )
    return {"data": data_path, "meta": meta_path,
            "growth_exponent": slope, "C_hat": C_hat,
            "lattice_counts": lat, "support_counts": sup}
