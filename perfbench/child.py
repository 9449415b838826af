"""One benchmark job in a fresh interpreter, so every cache starts cold.

Usage: python3 perfbench/child.py '<job json>' with covergap importable
(run.py puts src/ on PYTHONPATH). The job's result is printed as one JSON
object on the last line of standard output.

Jobs:
  call    time the sweep set-up (realization, support set, grid, blocks),
          then one untraced call of the public driver, each timed around
          the call; afterwards, outside the timing, the row-sum ceiling of
          the blocks and, for call 0 of a sweep workload, the dense top
          eigenvalue of its smallest cover (the oracle).
  traced  the same driver call serially (threads=1) with every layer's
          public functions wrapped by a Tracer; then repeated matvecs on
          the first cover of each degree. Returns the per-layer metrics.
"""

import hashlib
import json
import os
import resource
import statistics
import sys
import time

import numpy as np
import scipy.linalg

import covergap.cover_spectrum as cover_spectrum
import covergap.domain as domain
import covergap.experiments as experiments
import covergap.symmetric_group as symmetric_group
from covergap.domain import assemble_support_blocks, build_grid
from covergap.experiments import derived_seed, make_config
from covergap.surface_group import build_bolza_realization, support_set
from covergap.symmetric_group import evaluate_word, sample_uniform_hom

from tracer import Tracer, span_cost
from workloads import WORKLOADS, config_overrides

MATVEC_REPEATS = 20
DRIVERS = {
    "gap-sweep": experiments.cmd_gap_sweep,
    "truncation-study": experiments.cmd_truncation_study,
}


def _config(job):
    return make_config(overrides=config_overrides(
        job["workload"], job["seed"], job["call"], job["output_dir"]))


def _records(command, out):
    """Driver output as plain JSON: the written row plus typed values."""
    if command == "gap-sweep":
        return [
            {"n": r.n, "index": r.index, "seed": r.seed,
             "transitive": r.transitive, "op_norm": r.op_norm,
             "lambda_lower_bound": r.lambda_lower_bound,
             "krylov_residual": r.krylov_residual,
             "row": [str(x) for x in r.row()]}
            for r in out["records"]
        ]
    keys = ("n", "r", "certified_gap", "observed_diff", "hs_reference",
            "truncated_bound", "full_norm")
    recs = []
    for row in out["rows"]:
        rec = {k: float(v) for k, v in zip(keys, row)}
        rec["n"], rec["r"] = int(row[0]), int(row[1])
        rec["row"] = [str(x) for x in row]
        recs.append(rec)
    return recs


def _data_digests(output_dir):
    """sha256 of every data file the driver wrote (sidecars hold wall
    times, so they are left out)."""
    out = {}
    for name in sorted(os.listdir(output_dir)):
        if name.endswith("_meta.json"):
            continue
        with open(os.path.join(output_dir, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def _run_driver(job, threads):
    cfg = _config(job)
    command = WORKLOADS[job["workload"]]["command"]
    t0 = time.perf_counter()
    try:
        out = DRIVERS[command](cfg, threads=threads)
    except (experiments.ComputeError, ValueError, RuntimeError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}",
                "wall_s": time.perf_counter() - t0}
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "records": _records(command, out),
        "digests": _data_digests(cfg.output_dir),
    }


def rowsum_ceiling(grid, blocks) -> float:
    """Collatz-Wielandt upper bound on the top eigenvalue of the full
    nonnegative operator, with test vector sqrt(weights); it bounds the
    mean-zero norm of every cover built from these blocks."""
    u = np.sqrt(grid.weights)
    s = np.zeros(grid.m)
    for b in blocks:
        s += b.matrix.dot(u)
    return float(np.max(s / u))


def dense_mean_zero_top(blocks, hom) -> float:
    """Top eigenvalue of sum_gamma A_gamma (x) P_gamma restricted to the
    mean-zero fiber, from the explicit dense matrix."""
    n = hom.n
    Q = np.linalg.qr(np.eye(n)[:, : n - 1] - 1.0 / n)[0]
    m = blocks[0].matrix.shape[0]
    T = np.zeros((m * (n - 1), m * (n - 1)))
    for b in blocks:
        P = np.zeros((n, n))
        P[np.arange(n), evaluate_word(hom, b.gamma[0]).images0] = 1.0
        T += np.kron(b.dense(), Q.T @ P @ Q)
    dim = T.shape[0]
    return float(scipy.linalg.eigh(T, eigvals_only=True,
                                   subset_by_index=[dim - 1, dim - 1])[0])


def _setup(cfg):
    real = build_bolza_realization()
    support = support_set(real, cfg.t)
    grid = build_grid(real, cfg.grid_m)
    return grid, assemble_support_blocks(support, cfg.t, grid)


def job_call(job):
    """Set-up then driver call, timed separately in the same process, so
    the item time wall - setup sees the same machine state."""
    cfg = _config(job)
    t0 = time.perf_counter()
    grid, blocks = _setup(cfg)
    setup = time.perf_counter() - t0
    result = _run_driver(job, WORKLOADS[job["workload"]]["threads"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["setup_s"] = setup
    result["ceiling"] = rowsum_ceiling(grid, blocks)
    if job["call"] == 0 and WORKLOADS[job["workload"]]["command"] == "gap-sweep":
        n = cfg.n_list[0]
        hom = sample_uniform_hom(n, cfg.genus, seed=derived_seed(cfg.seed, n, 0))
        result["oracle"] = {"n": n, "index": 0,
                            "top": dense_mean_zero_top(blocks, hom)}
    return result


def matvec_cost(op):
    """Computed flops and bytes of one mean-zero matvec (from array sizes,
    ignoring cache reuse): basis change in and out, and per block a
    product, a column gather and an accumulate over the m x n fiber."""
    m, n = op.m, op.n
    mn = m * n
    flops = 4 * m * n * (n - 1)
    nbytes = 2 * 8 * (mn + m * (n - 1) + n * (n - 1))
    for b in op.blocks:
        if b.is_sparse:
            nnz = b.matrix.nnz
            flops += 2 * nnz * n
            nbytes += 12 * nnz + 4 * (m + 1)
        else:
            flops += 2 * m * m * n
            nbytes += 8 * m * m
        flops += mn
        # seven passes over the fiber: read X, write AX, gather (read and
        # write), accumulate (read Y and the gathered block, write Y)
        nbytes += 7 * 8 * mn
    return flops, nbytes


def _tail(values):
    """(percentile, value) for the highest whole percentile with at least
    ten samples above it; the median when there are fewer than 20."""
    if not values:
        return 50, 0.0
    q = max(50, int(100 * (1 - 10 / len(values))))
    return q, float(np.percentile(values, q))


def _p50(values):
    return float(np.median(values)) if values else 0.0


SELBERG = ("selberg.selberg_h", "selberg.invert_h",
           "selberg.gap_lower_bound_coefficient", "selberg.h_peak")


def _install(tracer, captured):
    def first_op(args, kwargs, op):
        captured["ops"].setdefault(op.n, op)
        return op.n

    def grid_info(args, kwargs, grid):
        captured["grid"] = grid
        return grid.m

    def blocks_info(args, kwargs, blocks):
        captured["blocks"] = blocks
        nnz = sum(int(b.matrix.nnz) if b.is_sparse
                  else int(np.count_nonzero(b.matrix)) for b in blocks)
        return len(blocks), nnz

    w = tracer.wrap
    w(experiments, "build_bolza_realization", "surface_group.build_bolza_realization")
    w(experiments, "support_set", "surface_group.support_set",
      lambda a, k, r: len(r))
    w(experiments, "build_grid", "domain.build_grid", grid_info)
    w(experiments, "assemble_support_blocks", "domain.assemble_support_blocks",
      blocks_info)
    w(domain, "mobius_apply", "hyperbolic.mobius_apply")
    w(domain, "pairwise_cosh_distance", "hyperbolic.pairwise_cosh_distance",
      lambda a, k, r: int(r.size))
    w(experiments, "sample_uniform_hom", "symmetric_group.sample_uniform_hom",
      lambda a, k, r: bool(r.transitive))
    w(symmetric_group, "character_table", "symmetric_group.character_table")
    w(experiments, "build_cover_operator", "cover_spectrum.build_cover_operator",
      first_op)
    w(experiments, "estimate_gap", "cover_spectrum.estimate_gap",
      lambda a, k, r: int(r.metadata["iterations"]))
    w(cover_spectrum, "matvec", "cover_spectrum.matvec")
    w(experiments, "truncation_components", "cover_spectrum.truncation_components")
    w(cover_spectrum, "svd_truncate", "domain.svd_truncate")
    w(cover_spectrum, "selberg_h", "selberg.selberg_h")
    w(cover_spectrum, "invert_h", "selberg.invert_h")
    w(cover_spectrum, "gap_lower_bound_coefficient",
      "selberg.gap_lower_bound_coefficient")
    w(experiments, "h_peak", "selberg.h_peak")
    w(experiments, "_write_table", "experiments.write")
    w(experiments, "_write_meta", "experiments.write")


def layer_metrics(tr, captured, traced_wall, per_span):
    draws_ms = [d * 1e3 for d in tr.durations("symmetric_group.sample_uniform_hom")]
    transitive = tr.infos("symmetric_group.sample_uniform_hom")
    build_ms = [d * 1e3 for d in tr.durations("cover_spectrum.build_cover_operator")]
    est_ms = [d * 1e3 for d in tr.durations("cover_spectrum.estimate_gap")]
    iters = tr.infos("cover_spectrum.estimate_gap")
    blocks_info = tr.infos("domain.assemble_support_blocks")
    support = tr.infos("surface_group.support_set")
    grid_m = tr.infos("domain.build_grid")

    mt = {
        "surface_group.busy_s": tr.busy("surface_group.build_bolza_realization",
                                        "surface_group.support_set"),
        "surface_group.support_size": support[0] if support else 0,
        "domain.grid_s": tr.busy("domain.build_grid"),
        "domain.assemble_s": tr.busy("domain.assemble_support_blocks"),
        "domain.m": grid_m[0] if grid_m else 0,
        "domain.blocks": blocks_info[0][0] if blocks_info else 0,
        "domain.nnz": blocks_info[0][1] if blocks_info else 0,
        "hyperbolic.pair_kernel_s": tr.busy("hyperbolic.mobius_apply",
                                            "hyperbolic.pairwise_cosh_distance"),
        "hyperbolic.pairs": sum(tr.infos("hyperbolic.pairwise_cosh_distance")),
        "symmetric_group.table_s": tr.busy("symmetric_group.character_table"),
        "symmetric_group.busy_s": tr.busy("symmetric_group.sample_uniform_hom"),
        "symmetric_group.draw_ms.p50": _p50(draws_ms),
        "symmetric_group.draws": len(draws_ms),
        "symmetric_group.accept_ratio":
            sum(transitive) / len(transitive) if transitive else 0.0,
        "cover_spectrum.covers": len(build_ms),
        "cover_spectrum.build_busy_s": tr.busy("cover_spectrum.build_cover_operator"),
        "cover_spectrum.build_ms.p50": _p50(build_ms),
        "cover_spectrum.estimate_busy_s":
            tr.self_time("cover_spectrum.estimate_gap", *SELBERG),
        "cover_spectrum.estimate_ms.p50": _p50(est_ms),
        "cover_spectrum.lanczos_iters.mean":
            float(np.mean(iters)) if iters else 0.0,
        "cover_spectrum.lanczos_iters.max": max(iters) if iters else 0,
        "cover_spectrum.matvecs": len(tr.durations("cover_spectrum.matvec")),
        "domain.svd_s": tr.busy("domain.svd_truncate"),
        "cover_spectrum.truncation_self_s": tr.self_time(
            "cover_spectrum.truncation_components", "domain.svd_truncate"),
        "selberg.busy_s": tr.busy(*SELBERG),
        "selberg.invert_h_ms.p50":
            _p50([d * 1e3 for d in tr.durations("selberg.invert_h")]),
        "trace.spans": len(tr.spans),
        "trace.overhead_s": len(tr.spans) * per_span,
        "experiments.write_s": tr.busy("experiments.write"),
        "experiments.traced_wall_s": traced_wall,
    }
    for key, values in (("symmetric_group.draw_ms", draws_ms),
                        ("cover_spectrum.build_ms", build_ms),
                        ("cover_spectrum.estimate_ms", est_ms)):
        q, v = _tail(values)
        mt[key + ".tail"] = v
        mt[key + ".tail_pct"] = q
    mt["experiments.traced_setup_s"] = (
        mt["surface_group.busy_s"] + mt["domain.grid_s"] + mt["domain.assemble_s"])
    mt["experiments.traced_layers_s"] = (
        mt["experiments.traced_setup_s"] + mt["symmetric_group.busy_s"]
        + mt["cover_spectrum.build_busy_s"] + mt["cover_spectrum.estimate_busy_s"]
        + mt["selberg.busy_s"] + mt["domain.svd_s"]
        + mt["cover_spectrum.truncation_self_s"] + mt["experiments.write_s"])
    mt["trace.unaccounted_s"] = traced_wall - mt["experiments.traced_layers_s"]

    rng = np.random.default_rng(0)
    for n in (4, 8, 16):
        op = captured["ops"].get(n)
        ms = flops = nbytes = 0
        if op is not None:
            x = rng.standard_normal(op.dimension)
            cover_spectrum.matvec(op, x)
            times = []
            for _ in range(MATVEC_REPEATS):
                t0 = time.perf_counter()
                cover_spectrum.matvec(op, x)
                times.append(time.perf_counter() - t0)
            ms = statistics.median(times) * 1e3
            flops, nbytes = matvec_cost(op)
        mt[f"cover_spectrum.matvec_ms.n{n}"] = ms
        mt[f"cover_spectrum.matvec_flops.n{n}"] = flops
        mt[f"cover_spectrum.matvec_bytes.n{n}"] = nbytes
    return mt


def job_traced(job):
    per_span = span_cost()
    tracer, captured = Tracer(), {"ops": {}}
    _install(tracer, captured)
    try:
        result = _run_driver(job, threads=1)
    finally:
        tracer.restore()
    if "error" in result:
        return result
    result["layers"] = layer_metrics(tracer, captured, result["wall_s"], per_span)
    result["ceiling"] = rowsum_ceiling(captured["grid"], captured["blocks"])
    return result


def main():
    job = json.loads(sys.argv[1])
    run = {"call": job_call, "traced": job_traced}[job["job"]]
    print(json.dumps(run(job)))


if __name__ == "__main__":
    main()
