"""Run-to-run spread of the benchmark: one run per seed, one after another.

Usage (from the repository root):

  python3 perfbench/spread.py --workloads sweep-m392,truncation-m392 --seeds 1-10
      [--trace 0|1] [--seconds 30] [--out spread.json]

For every workload and end-to-end (or, with --trace 1, per-layer) metric it
prints the median of the runs, the first and third quartiles as
statistics.quantiles(values, n=4) gives them, and their distance as a share
of the median. That share is what BENCHMARK.json's bounds are judged
against. Every run must pass its output checks.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

from workloads import WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(sorted(WORKLOADS)))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    # SystemExit lets the finally clause below stop the running run.py
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    summary, ok = {}, True
    for name in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            proc = subprocess.Popen(
                [sys.executable, RUN, "--workload", name, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            try:
                stdout, stderr = proc.communicate()
            finally:
                if proc.poll() is None:  # interrupted: let run.py stop its child
                    proc.terminate()
                    proc.wait()
            lines = stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                ok = False
                print(f"{name} seed {seed}: FAILED (exit {proc.returncode})\n"
                      f"{stderr.strip()[-2000:]}", flush=True)
                continue
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
                if args.trace == "0"), flush=True)
        summary[name] = {}
        for key, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else 0.0
            summary[name][key] = {"median": med, "q1": q1, "q3": q3,
                                  "iqr_share": share, "values": vals}
            print(f"{name} {key}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"iqr/median {share:.4f}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seeds": args.seeds, "trace": args.trace,
                       "seconds": args.seconds, "workloads": summary},
                      f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
