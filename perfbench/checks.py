"""Output checks for every item a benchmark run produces.

An item is one record the driver returns: one sampled cover for gap-sweep,
one rank for truncation-study. An item fails when

* it breaks an invariant that holds for every seed: for covers
  0 <= lambda bound <= 1/4, Krylov residual <= KRYLOV_TOL * norm, and norm
  <= the row-sum ceiling of the blocks; for truncation ranks, the observed
  norm shift within half the certified gap and the truncated bound at or
  above the full norm;
* at the default seed, it differs from the committed reference
  (reference/<workload>.json, which holds the first REFERENCE_CALLS calls):
  exact n, index, seed and transitive flag (or rank), floats within
  REFERENCE_RTOL;
* it is the smallest cover of call 0 of a sweep workload and its norm
  differs from the dense oracle's top eigenvalue by more than ORACLE_RTOL;
* the traced repeat of call 0 wrote a different row than call 0, so tracing
  changed a result.

When the traced repeat's data files (sha256, sidecars excluded) differ from
call 0's, byte-determinism broke and all of its items fail.
"""

import json
import os
from dataclasses import dataclass, field
from typing import List, Optional

from workloads import DEFAULT_SEED, WORKLOADS

REFERENCE_RTOL = 1e-7
REFERENCE_CALLS = 10
ORACLE_RTOL = 1e-6
KRYLOV_TOL = 1e-8  # estimate_gap's Lanczos stopping tolerance
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


class RunFailure(RuntimeError):
    """A child job crashed, timed out or printed no result."""


class StaleReference(RuntimeError):
    """The reference was made for another workload definition."""


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    digests_match_reference: Optional[bool] = None

    def fail(self, items: int, problem: str):
        self.failed += items
        self.problems.append(problem)

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failed_frac": self.failed / max(self.attempted, 1),
                "problems": self.problems, "data_sha256": self.digests,
                "data_sha256_match_reference": self.digests_match_reference}

    def lines(self):
        s = self.summary()
        out = [f"items attempted={s['attempted']} failed={s['failed']} "
               f"failed_frac={s['failed_frac']:.6g}"]
        out += [f"sha256 {k} {v}" for k, v in sorted(self.digests.items())]
        if self.digests_match_reference is not None:
            out.append(f"data files byte-identical to reference: "
                       f"{self.digests_match_reference}")
        out += [f"CHECK FAILED: {p}" for p in self.problems[:20]]
        return out


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-12


def _reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def write_reference(name: str, seed: int, raw: dict) -> str:
    calls = []
    for call in raw["calls"]:
        if "error" in call:
            raise RunFailure(f"cannot write a reference from a failed call: "
                             f"{call['error']}")
        calls.append({
            "records": [{k: v for k, v in r.items()
                         if k not in ("krylov_residual", "row")}
                        for r in call["records"]],
            "data_sha256": call["digests"]})
    payload = {"workload": WORKLOADS[name], "seed": seed, "calls": calls}
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = _reference_path(name)
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")
    return path


def _load_reference(name: str):
    try:
        with open(_reference_path(name)) as f:
            ref = json.load(f)
    except OSError as exc:
        raise StaleReference(f"no reference for {name}: {exc}")
    if ref["workload"] != WORKLOADS[name] or ref["seed"] != DEFAULT_SEED:
        raise StaleReference(
            f"reference/{name}.json was made for another workload definition; "
            f"regenerate it with --write-reference")
    return ref["calls"]


def _cover_problems(rec, ceiling):
    out = []
    lam, norm = rec["lambda_lower_bound"], rec["op_norm"]
    if not 0.0 <= lam <= 0.25:
        out.append(f"lambda bound {lam} outside [0, 1/4]")
    if rec["krylov_residual"] > KRYLOV_TOL * abs(norm):
        out.append(f"Krylov residual {rec['krylov_residual']} > tol * norm")
    if norm > ceiling * (1 + 1e-9):
        out.append(f"norm {norm} above the row-sum ceiling {ceiling}")
    return out


def _rank_problems(rec):
    out = []
    slack = 1e-7 * abs(rec["full_norm"])
    if rec["observed_diff"] > 0.5 * rec["certified_gap"] + slack:
        out.append(f"observed shift {rec['observed_diff']} beyond the "
                   f"certified budget {0.5 * rec['certified_gap']}")
    if rec["truncated_bound"] < rec["full_norm"] - slack:
        out.append(f"truncated bound {rec['truncated_bound']} below the "
                   f"full norm {rec['full_norm']}")
    if not rec["hs_reference"] > 0:
        out.append("nonpositive Hilbert-Schmidt reference")
    return out


def _reference_problems(command, rec, ref):
    if command == "gap-sweep":
        exact = ("n", "index", "seed", "transitive")
        floats = ("op_norm", "lambda_lower_bound")
    else:
        exact = ("n", "r")
        floats = ("certified_gap", "observed_diff", "hs_reference",
                  "truncated_bound", "full_norm")
    out = [f"{k} {rec[k]} != reference {ref[k]}" for k in exact if rec[k] != ref[k]]
    out += [f"{k} {rec[k]!r} differs from reference {ref[k]!r}"
            for k in floats if not _close(rec[k], ref[k], REFERENCE_RTOL)]
    return out


def _planned_items(name: str) -> int:
    cfg = WORKLOADS[name]["config"]
    if WORKLOADS[name]["command"] == "gap-sweep":
        return len(cfg["n_list"]) * cfg["samples_per_n"]
    return len(cfg["truncation_r_list"])


def check_run(name: str, seed: int, raw: dict) -> Verdict:
    command = WORKLOADS[name]["command"]
    verdict = Verdict()
    refs = _load_reference(name) if seed == DEFAULT_SEED else []
    call0 = raw["calls"][0]
    oracle = call0.get("oracle")
    outputs = [(f"call {k}", k, c) for k, c in enumerate(raw["calls"])]
    if raw["traced"] is not None:
        outputs.append(("traced call 0", 0, raw["traced"]))
    if "error" not in call0:
        verdict.digests = call0["digests"]
        if refs:
            verdict.digests_match_reference = call0["digests"] == refs[0]["data_sha256"]

    for label, k, out in outputs:
        if "error" in out:
            verdict.attempted += _planned_items(name)
            verdict.fail(_planned_items(name), f"{label} raised {out['error']}")
            continue
        recs = out["records"]
        verdict.attempted += len(recs)
        traced = out is raw["traced"]
        if traced and ("error" in call0 or out["digests"] != call0["digests"]):
            verdict.fail(len(recs), f"{label}: data files differ from call 0")
            continue
        ref = refs[k]["records"] if k < len(refs) else None
        if ref is not None and len(recs) != len(ref):
            verdict.fail(len(recs), f"{label}: {len(recs)} items, reference "
                                    f"has {len(ref)}")
            continue
        for i, rec in enumerate(recs):
            where = (f"{label} n={rec['n']} index={rec['index']}"
                     if command == "gap-sweep" else f"{label} r={rec['r']}")
            problems = (_cover_problems(rec, out["ceiling"]) if command == "gap-sweep"
                        else _rank_problems(rec))
            if ref is not None:
                problems += _reference_problems(command, rec, ref[i])
            if (oracle and k == 0 and rec["n"] == oracle["n"]
                    and rec["index"] == oracle["index"]
                    and not _close(rec["op_norm"], oracle["top"], ORACLE_RTOL)):
                problems.append(f"norm {rec['op_norm']!r} != dense oracle "
                                f"{oracle['top']!r}")
            if traced and rec["row"] != call0["records"][i]["row"]:
                problems.append(f"traced row {rec['row']} != untraced "
                                f"{call0['records'][i]['row']}")
            if problems:
                verdict.fail(1, f"{where}: " + "; ".join(problems))
    return verdict
