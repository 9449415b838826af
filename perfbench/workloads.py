"""Workload table shared by the benchmark parent (run.py) and its child
processes (child.py).

A workload is a configuration of one public driver in covergap.experiments.
Call k of a run with benchmark seed s passes the driver the master seed
CALL_STRIDE * s + k, so the calls of one run sample different covers and
one seed always gives the same inputs.
"""

DEFAULT_SEED = 0
CALL_STRIDE = 1000

# command: which driver runs; threads: the driver's worker threads;
# config: ExperimentConfig overrides besides seed and output directory.
WORKLOADS = {
    # README/AC6 configuration scaled down: Lanczos, the n=16 sampler and
    # per-cover build all carry weight; the only workload where the
    # driver's thread pool can show (threads = the 2 cores of the host).
    "sweep-m392": {
        "command": "gap-sweep",
        "threads": 2,
        "config": {"t": 1.0, "grid_m": 400, "n_list": [4, 8, 16],
                   "samples_per_n": 6, "require_transitive": True},
    },
    # truncation-study uses the blocks differently: dense SVD of every
    # block per rank, then the factored truncated apply.
    "truncation-m392": {
        "command": "truncation-study",
        "threads": 1,
        "config": {"t": 1.0, "grid_m": 400, "n_list": [8],
                   "truncation_r_list": [1, 4, 16, 64, 256]},
    },
}


def config_overrides(name: str, seed: int, call: int, output_dir: str) -> dict:
    """make_config overrides for call `call` of workload `name`."""
    values = dict(WORKLOADS[name]["config"])
    values["seed"] = CALL_STRIDE * seed + call
    values["output_dir"] = output_dir
    return values
