"""covergap benchmark: closed loop, one client, one fresh interpreter per call.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed 0 --seconds 30 [--report F]

With --trace 0 a run calls the workload's public driver (cmd_gap_sweep or
cmd_truncation_study) in a fresh child per call, back to back, until the
next call would end more than half a call past --seconds, and at least
three times. Call k uses master seed 1000 * seed + k. Each child first
times the sweep set-up (realization, support set, grid, blocks) and then
the driver call. The run reports the end-to-end metrics of BENCHMARK.json
as medians over the calls: driver wall time, set-up time, items per second
of the driver's time after set-up, and peak RSS.

With --trace 1 a run makes call 0 untraced, then repeats it serially with
every layer's public functions wrapped in timing spans (tracer.py), and
reports the per-layer metrics. Per-layer metrics whose unit is "count" must
repeat exactly for the same seed and code; the others are times or ratios.

--workload all runs every workload both ways and prints every metric. Every
item the program outputs is checked (checks.py); the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}, and
the exit code is 1 when a check fails and 2 when the benchmark cannot run.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import signal
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUN_LIMIT_S = 170.0  # every child is killed by then; the run must end < 180 s
TIMED_MIN_CALLS = 3  # set-up time is a median over at least this many calls


class BenchError(RuntimeError):
    """The benchmark cannot run here (exit 2, no result line)."""


def host_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    pkg = os.path.join(SRC, "covergap")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(f.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "src_sha256": digest.hexdigest(),
    }


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.out_root = os.path.join(ROOT, ".bench_out", f"{workload}-{os.getpid()}")

    def child(self, job: str, call: int) -> dict:
        """Run one job for call `call` in a fresh interpreter; returns its
        JSON result with the process's own elapsed time as `elapsed_s`."""
        spec = {"job": job, "workload": self.workload, "seed": self.seed,
                "call": call,
                "output_dir": os.path.join(self.out_root, f"{job}{call}")}
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p)
        timeout = self.deadline - time.monotonic()
        if timeout <= 1:
            raise checks.RunFailure(f"no time left for the {job} job")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "child.py"), json.dumps(spec)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise checks.RunFailure(f"{job} job exceeded the run time limit")
        if proc.returncode != 0 or not proc.stdout.strip():
            raise checks.RunFailure(
                f"{job} job exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["elapsed_s"] = time.monotonic() - t0
        return result

    def run(self, seconds: float, timed: bool, traced: bool,
            min_calls: int = 1) -> dict:
        """Untraced calls: if `timed`, for `seconds` and at least
        TIMED_MIN_CALLS, otherwise `min_calls`. With `traced`, then a traced
        repeat of call 0."""
        raw = {"calls": [], "traced": None}
        if timed:
            min_calls = TIMED_MIN_CALLS
        try:
            start = time.monotonic()
            while True:
                call = self.child("call", len(raw["calls"]))
                raw["calls"].append(call)
                ends = time.monotonic() - start + 0.5 * call["elapsed_s"]
                if len(raw["calls"]) >= min_calls and (not timed or ends >= seconds):
                    break
            if traced:
                raw["traced"] = self.child("traced", 0)
        finally:
            shutil.rmtree(self.out_root, ignore_errors=True)
        return raw


def end_to_end(raw) -> dict:
    calls = [c for c in raw["calls"] if "error" not in c]
    if not calls:
        return {}
    return {
        "wall_s": statistics.median(c["wall_s"] for c in calls),
        "setup_s": statistics.median(c["setup_s"] for c in calls),
        "items_per_s": statistics.median(
            len(c["records"]) / (c["wall_s"] - c["setup_s"]) for c in calls),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in calls),
    }


def per_layer(raw) -> dict:
    traced, call0 = raw["traced"], raw["calls"][0]
    if traced is None or "error" in traced or "error" in call0:
        return {}
    layers = dict(traced["layers"])
    layers["experiments.parallel_speedup"] = (
        (layers["experiments.traced_wall_s"] - layers["experiments.traced_setup_s"])
        / (call0["wall_s"] - call0["setup_s"]))
    layers["experiments.other_s"] = (
        call0["wall_s"] - layers["experiments.traced_layers_s"])
    return layers


def run_workload(name, seed, seconds, timed, traced, deadline):
    raw = Runner(name, seed, deadline).run(seconds, timed=timed, traced=traced)
    verdict = checks.check_run(name, seed, raw)
    metrics = {}
    if timed:
        metrics.update(end_to_end(raw))
    if traced:
        metrics.update(per_layer(raw))
    return metrics, verdict


def write_references(selected, seed) -> int:
    for name in selected:
        raw = Runner(name, seed, time.monotonic() + 4 * RUN_LIMIT_S).run(
            0, timed=False, traced=False,
            min_calls=checks.REFERENCE_CALLS)
        print(f"wrote {checks.write_reference(name, seed, raw)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="also write the full result as JSON here")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the records of the first calls as the "
                             f"reference (seed {DEFAULT_SEED} only)")
    args = parser.parse_args(argv)
    # SystemExit lets subprocess.run kill and reap the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.write_reference and args.seed != DEFAULT_SEED:
        parser.error(f"references are kept for seed {DEFAULT_SEED} only")

    started = time.monotonic()
    try:
        if not os.path.isdir(os.path.join(SRC, "covergap")):
            raise BenchError(f"covergap sources not found under {SRC}")
        spec_path = os.path.join(ROOT, "BENCHMARK.json")
        with open(spec_path) as f:
            spec = json.load(f)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        names = [m["name"] for m in (spec["per_layer"] if args.trace else spec["end_to_end"])]
        host = host_facts()
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    everything = args.workload == "all"
    selected = sorted(WORKLOADS) if everything else [args.workload]
    if args.write_reference:
        return write_references(selected, args.seed)
    print("host " + json.dumps(host, sort_keys=True), flush=True)
    report = {"host": host, "seed": args.seed, "seconds": args.seconds,
              "workloads": {}}
    all_metrics, attempted, failed = {}, 0, 0
    for name in selected:
        try:
            metrics, verdict = run_workload(
                name, args.seed, args.seconds,
                timed=everything or not args.trace,
                traced=everything or bool(args.trace),
                deadline=(time.monotonic() if everything else started) + RUN_LIMIT_S)
        except checks.StaleReference as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        except checks.RunFailure as exc:
            metrics, verdict = {}, checks.Verdict(attempted=1, failed=1,
                                                 problems=[str(exc)])
        attempted += verdict.attempted
        failed += verdict.failed
        report["workloads"][name] = {"metrics": metrics, "checks": verdict.summary()}
        for line in verdict.lines():
            print(f"[{name}] {line}", flush=True)
        wanted = list(units) if everything else names
        for key in wanted:
            if key not in metrics:
                if verdict.failed:
                    continue
                print(f"perfbench: metric {key} missing on {name}", file=sys.stderr)
                return 2
            print(f"[{name}] {key} = {metrics[key]:.6g} {units[key]}")
            all_metrics[f"{name}/{key}" if everything else key] = {
                "value": metrics[key], "unit": units[key]}

    correct = failed == 0
    if args.report:
        report.update(correct=correct, attempted=attempted, failed=failed)
        with open(args.report, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": all_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
