#!/usr/bin/env python3
"""Benchmark of bvd: four workloads, end-to-end metrics, and a traced run
that reports per-layer metrics.

Run from the root of the repository:

    python3 bench/run.py --workload ensembles_small --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload oracle --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --quick      # every workload briefly, all checks

Load comes from this one process in a closed loop: the next operation
starts when the previous one returns. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics, or with ``--trace 1`` the per-layer ones). See
bench/README.md for the workloads, the metrics and how they relate.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, fixed before numpy loads (main imports it); children
# inherit the same environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BVD_THREADS", None)

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_STARTS = 3  # fresh starts per run behind setup_s
REFERENCE_STARTS = 3  # fresh starts behind cli.import_ms and cli.interp_start_ms
P90_MIN_SAMPLES = 100  # at least ten samples beyond p90
CHILD_TIMEOUT = 120


class Tally:
    """Latencies, failures and per-round throughput of the rounds run so far."""

    def __init__(self):
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.round_rates: list[float] = []
        self.failed = 0
        self.problems: list[str] = []

    def run_round(self, ops, tracer=None):
        """Run one round. Each operation is timed alone; its check runs after
        the clock stops. An operation that raises or fails its check counts
        as failed; unless it raised its known fault, it also makes the run
        incorrect."""
        busy = 0.0
        for op in ops:
            span = tracer.open("op") if tracer else None
            t0 = time.perf_counter()
            try:
                out, exc = op.run(), None
            except Exception as e:  # counted and reported, the run goes on
                out, exc = None, e
            t1 = time.perf_counter()
            if tracer:
                tracer.close(span, exc is not None)
            self.latencies.append(t1 - t0)
            self.by_kind.setdefault(op.kind, []).append(t1 - t0)
            busy += t1 - t0
            if exc is not None:
                self.failed += 1
                if op.known_fault is None or not isinstance(exc, op.known_fault):
                    self.problems.append(f"{op.kind}: raised {type(exc).__name__}: {exc}")
                continue
            msg = op.check(out)
            if msg is not None:
                self.failed += 1
                self.problems.append(f"{op.kind}: {msg}")
        self.round_rates.append(len(ops) / busy)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        # the median round resists bursts of machine noise better than the mean
        return statistics.median(self.round_rates)


def another(start: float, done: int, at_least: int, seconds: float) -> bool:
    """Whether to run another unit: until ``at_least`` are done, then while
    one more brings the run's length closer to ``seconds``."""
    elapsed = time.perf_counter() - start
    return done < at_least or elapsed + 0.5 * elapsed / done < seconds


def measure(workload, seed: int, state, seconds: float) -> Tally:
    """Run whole rounds for about ``seconds``."""
    tally = Tally()
    start = time.perf_counter()
    while another(start, len(tally.round_rates), workload.min_rounds, seconds):
        tally.run_round(workload.round(seed, len(tally.round_rates), state))
    return tally


def run_child(cmd: list, env: dict) -> tuple[float, str]:
    """Run a child to its end; return its wall time and standard output."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited with {proc.returncode}: {proc.stderr.strip()}")
    return wall, proc.stdout


def setup_times(name: str, seed: int, env: dict) -> list[float]:
    if name == "cli_specs":
        cmd = [sys.executable, "-m", "bvd.cli", "--help"]
        return [run_child(cmd, env)[0] for _ in range(SETUP_STARTS)]
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)]
    return [json.loads(run_child(cmd, env)[1])["setup_s"] for _ in range(SETUP_STARTS)]


def machine_record() -> str:
    import numpy
    import scipy

    return (
        f"machine: {os.cpu_count()} cores, python {platform.python_version()} at {sys.executable}, "
        f"numpy {numpy.__version__}, scipy {scipy.__version__}, BLAS threads 1, BVD_THREADS unset, "
        f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE')!r} (inherited)"
    )


def report_counts(tally: Tally, label: str):
    print(f"{label}: attempted {tally.attempted}, failed {tally.failed}, "
          f"rounds {len(tally.round_rates)}")
    for msg in tally.problems[:10]:
        print(f"  incorrect: {msg}")


def end_to_end(workload, seed: int, seconds: float, env: dict) -> dict:
    setups = setup_times(workload.name, seed, env)
    tally = measure(workload, seed, workload.build(seed), seconds)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_specs" else resource.RUSAGE_SELF
    lat = tally.latencies
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (tally.ops_per_s, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    print(f"setup_s: median of {len(setups)} fresh starts: "
          + ", ".join(f"{s:.4f}" for s in setups))
    print(f"latency samples: {len(lat)} in {len(tally.round_rates)} rounds")
    if len(lat) >= P90_MIN_SAMPLES:
        p90 = 1e3 * statistics.quantiles(lat, n=10)[-1]
        print(f"latency_p90_ms (record only): {p90:.4f} ms over {len(lat)} samples")
    else:
        print(f"latency_p90_ms: not reported, {len(lat)} samples < {P90_MIN_SAMPLES}")
    for kind, values in sorted(tally.by_kind.items()):
        print(f"  {kind}: median {1e3 * statistics.median(values):.3f} ms over {len(values)}")
    report_counts(tally, "operations")
    return {"tallies": [tally], "metrics": metrics}


def per_layer(workload, seed: int, seconds: float, env: dict) -> dict:
    import spans

    state = workload.build(seed)
    # cli_specs runs its specs in-process here, so the wrappers see them.
    workload.in_process = True
    tracer = spans.Tracer()
    traced, plain = Tally(), Tally()
    # Each round runs traced and then again untraced, so that the two halves
    # of the tracing overhead see the same inputs and nearly the same machine.
    # The first round is traced: brute-force peak memory is only seen on a
    # call that raises the process's peak.
    start = time.perf_counter()
    while another(start, len(traced.round_rates), 1, seconds):
        ops = workload.round(seed, len(traced.round_rates), state)
        restore = spans.install(tracer)
        try:
            traced.run_round(ops, tracer)
        finally:
            restore()
        plain.run_round(ops)
    metrics = spans.layer_metrics(tracer)
    import_cmd = [sys.executable, "-c", "import time; t0 = time.perf_counter(); import bvd.cli; "
                  "print(time.perf_counter() - t0)"]
    imports = [float(run_child(import_cmd, env)[1]) for _ in range(REFERENCE_STARTS)]
    starts = [run_child([sys.executable, "-c", "pass"], env)[0] for _ in range(REFERENCE_STARTS)]
    metrics["cli.import_ms"] = (1e3 * statistics.median(imports), "ms")
    metrics["cli.interp_start_ms"] = (1e3 * statistics.median(starts), "ms")
    overhead = 100.0 * (plain.ops_per_s - traced.ops_per_s) / plain.ops_per_s
    metrics["trace.overhead_pct"] = (overhead, "%")
    print(f"tracing overhead: {traced.ops_per_s:.4f} ops/s traced, "
          f"{plain.ops_per_s:.4f} ops/s untraced ({overhead:.2f}%)")
    report_counts(traced, "traced operations")
    report_counts(plain, "untraced operations")
    from workloads import OUT

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({
            "workload": workload.name,
            "seed": seed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "spans": tracer.to_json(),
        }, fh)
    print(f"trace written to {path} ({len(tracer.start)} spans)")
    return {"tallies": [traced, plain], "metrics": dict(sorted(metrics.items()))}


def run_workload(workload, args) -> int:
    from workloads import child_env

    env = child_env()
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print(machine_record())
    body = per_layer if args.trace else end_to_end
    result = body(workload, args.seed, args.seconds, env)
    tallies = result["tallies"]
    for name, (value, unit) in result["metrics"].items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": not any(t.problems for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


def quick(names, seed: int) -> int:
    """Self-test: every workload, untraced and traced, one short run each.

    Each run must be correct and report exactly the metrics, with their
    units, that BENCHMARK.json lists for its mode.
    """
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    expected = {mode: {m["name"]: m["unit"] for m in spec[key]}
                for mode, key in (("0", "end_to_end"), ("1", "per_layer"))}
    ok = True
    for name in names:
        for trace_flag in ("0", "1"):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", "1", "--trace", trace_flag]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            units = {k: v["unit"] for k, v in result["metrics"].items()} if result else None
            good = bool(result and result["correct"] and units == expected[trace_flag])
            ok &= good
            summary = (f"attempted {result['attempted']}, failed {result['failed']}"
                       if result else f"exit {proc.returncode}")
            if result and units != expected[trace_flag]:
                summary += ", metrics differ from BENCHMARK.json"
            print(f"{'ok  ' if good else 'FAIL'} {name} trace={trace_flag}: {summary}")
            if not good:
                print("\n".join(lines[-15:]), proc.stderr[-2000:], sep="\n")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run every workload briefly with all its checks")
    args = parser.parse_args()
    if not (SRC / "bvd" / "__init__.py").is_file():
        print(f"bench: no bvd sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.quick:
        return quick(list(workloads.WORKLOADS), args.seed)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    return run_workload(workloads.WORKLOADS[args.workload], args)


if __name__ == "__main__":
    sys.exit(main())
