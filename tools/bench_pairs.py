#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and record the runs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seeds 701-710 \\
        --workload ensembles_small --workload oracle --seconds 20 \\
        --claim ensembles_small:ops_per_s --out BENCH_<pr>.json

Each pair runs ``bench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, one seed per pair, the parent first on even pairs
and the change first on odd ones. Each run is a fresh process with
``PYTHONDONTWRITEBYTECODE=1``, as the benchmark runs. The record lists
every run in pair order, each side's median and quartiles (numpy's linear
25th and 75th percentiles), the pairs the change won per end-to-end metric
(ties count for neither), the per-kind median latencies that run.py
prints, and, for ``--claim``, whether the change won at least nine tenths
of the pairs with medians apart by more than the parent's quartile spread.
Each end-to-end metric also gets a no-regression verdict against its
``bound`` in BENCHMARK.json (see ``verdict``).
Each run also records the CPU seconds of its process and its children
(``cpu_s``) and the 1-minute load average just before it (``load_1m``), so
pairs that ran under outside load show; they do not enter the claim. The
file is rewritten after every run, so an interrupted session keeps the
pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

KIND_LINE = re.compile(r"^\s+(\S+): median ([0-9.]+) ms over \d+$")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    load, cpu = os.getloadavg()[0], child_cpu_s()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{root} {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    out["cpu_s"], out["load_1m"] = round(child_cpu_s() - cpu, 3), round(load, 2)
    out["kinds"] = {m[1]: float(m[2]) for m in map(KIND_LINE.match, lines) if m}
    return out


def summary(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(med), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4), "runs": [round(v, 4) for v in values]}


def side_record(runs: list[dict], metrics: list[str]) -> dict:
    rec = {m: summary([r["metrics"][m]["value"] for r in runs]) for m in metrics}
    rec["attempted"] = [r["attempted"] for r in runs]
    rec["failed"] = [r["failed"] for r in runs]
    rec["all_correct"] = all(r["correct"] for r in runs)
    rec["cpu_s"] = [r["cpu_s"] for r in runs]
    rec["load_1m"] = [r["load_1m"] for r in runs]
    return rec


def verdict(parent: dict, change: dict, direction: str, bound: float) -> str:
    """``unresolved`` when the parent's quartile spread exceeds ``bound`` of
    its median and not every change run beats every parent run; else
    ``worse`` or ``better`` when the change's median is worse or better than
    the parent's by more than ``bound`` of it; else ``within_bound``."""
    sign = 1.0 if direction == "higher" else -1.0
    margin = bound * abs(parent["median"])
    beats_all = min(sign * v for v in change["runs"]) > max(sign * v for v in parent["runs"])
    if parent["q3"] - parent["q1"] > margin and not beats_all:
        return "unresolved"
    gain = sign * (change["median"] - parent["median"])
    return "worse" if gain < -margin else "better" if gain > margin else "within_bound"


def workload_record(runs: dict, first: list[str], pair_seeds: list[int], better: dict,
                    bounds: dict) -> dict:
    metrics = list(better)
    rec = {"pairs": len(runs["change"]), "seeds": pair_seeds[: len(runs["change"])],
           "first_side": first[: len(runs["change"])]}
    for side in ("parent", "change"):
        rec[side] = side_record(runs[side], metrics)
    wins, pct = {}, {}
    for m, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        pairs = zip(runs["parent"], runs["change"])
        wins[m] = sum(sign * (c["metrics"][m]["value"] - p["metrics"][m]["value"]) > 0
                      for p, c in pairs)
        p_med, c_med = rec["parent"][m]["median"], rec["change"][m]["median"]
        pct[m] = round(100.0 * (c_med - p_med) / p_med, 1) if p_med else None
    rec["change_better_pairs"], rec["median_change_pct"] = wins, pct
    rec["verdict"] = {m: verdict(rec["parent"][m], rec["change"][m], better[m], bounds[m])
                      for m in metrics}
    kinds = sorted(runs["parent"][0]["kinds"]) if runs["parent"] else []
    rec["per_kind_latency_ms"] = {
        side: {k: summary([r["kinds"][k] for r in runs[side] if k in r["kinds"]]) for k in kinds}
        for side in ("parent", "change")
    }
    return rec


def claim_record(rec: dict, workload: str, metric: str, direction: str) -> dict:
    p, c = rec["parent"][metric], rec["change"][metric]
    spread = p["q3"] - p["q1"]
    wins, pairs = rec["change_better_pairs"][metric], rec["pairs"]
    apart = (c["median"] - p["median"]) * (1.0 if direction == "higher" else -1.0)
    return {
        "workload": workload, "metric": metric,
        "parent_median": p["median"], "change_median": c["median"],
        "ratio": round(c["median"] / p["median"], 3),
        "parent_quartile_spread": round(spread, 4),
        "change_better_pairs": wins, "pairs": pairs,
        "met": bool(pairs and wins >= 0.9 * pairs and apart > spread),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seeds, required=True, help="first-last, inclusive")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--claim", help="workload:metric the change claims to improve")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    first = ["parent" if k % 2 == 0 else "change" for k in range(len(args.seeds))]
    record = {
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "method": (f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0 in each checkout, one parent/change pair per seed, alternating "
                   "which side runs first (first_side); written by tools/bench_pairs.py"),
        "workloads": {},
    }
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for k, seed in enumerate(args.seeds):
            order = ("parent", "change") if first[k] == "parent" else ("change", "parent")
            for side in order:
                runs[side].append(run_once(roots[side], workload, seed, args.seconds))
                print(f"{workload} seed {seed} {side}: "
                      f"{runs[side][-1]['metrics']['ops_per_s']['value']:.1f} ops/s", flush=True)
            record["workloads"][workload] = workload_record(runs, first, args.seeds, better,
                                                            bounds)
            if args.claim:
                cw, cm = args.claim.split(":")
                if cw in record["workloads"]:
                    record["claim"] = claim_record(record["workloads"][cw], cw, cm, better[cm])
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
