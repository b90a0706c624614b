"""tools/bench_pairs.py judges each end-to-end metric of a workload against
the bound BENCHMARK.json fixes for it."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
BETTER = {"ops_per_s": "higher", "latency_p50_ms": "lower"}
BOUNDS = {"ops_per_s": 0.25, "latency_p50_ms": 0.25}


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(ops, latency):
    return [{"metrics": {"ops_per_s": {"value": o}, "latency_p50_ms": {"value": t}},
             "attempted": 100, "failed": 0, "correct": True, "cpu_s": 1.0, "load_1m": 0.5,
             "kinds": {}} for o, t in zip(ops, latency)]


TIGHT_OPS, TIGHT_MS = [100, 101, 99, 100], [10.0, 10.1, 9.9, 10.0]
WIDE_OPS, WIDE_MS = [60, 140, 80, 120], [6.0, 14.0, 8.0, 12.0]  # quartile spread 50% of median


@pytest.mark.parametrize("parent, change, want", [
    ((TIGHT_OPS, TIGHT_MS), ([100, 102, 98, 101], [10.0, 10.2, 9.8, 10.1]), "within_bound"),
    ((TIGHT_OPS, TIGHT_MS), ([80, 81, 79, 80], [12.0, 12.1, 11.9, 12.0]), "within_bound"),
    ((TIGHT_OPS, TIGHT_MS), ([60, 61, 59, 60], [14.0, 14.1, 13.9, 14.0]), "worse"),
    ((TIGHT_OPS, TIGHT_MS), ([130, 131, 129, 130], [7.0, 7.1, 6.9, 7.0]), "better"),
    ((WIDE_OPS, WIDE_MS), ([100, 101, 99, 100], [10.0, 10.1, 9.9, 10.0]), "unresolved"),
    ((WIDE_OPS, WIDE_MS), ([40, 41, 39, 40], [16.0, 16.1, 15.9, 16.0]), "unresolved"),
    # Every change run beats every parent run: the spread does not hide it.
    ((WIDE_OPS, WIDE_MS), ([150, 151, 149, 150], [5.0, 5.1, 4.9, 5.0]), "better"),
], ids=["unchanged", "inside_bound", "worse", "better", "noisy", "noisy_and_worse",
        "noisy_but_disjoint"])
def test_verdict_per_metric(bench_pairs, parent, change, want):
    runs = {"parent": _runs(*parent), "change": _runs(*change)}
    rec = bench_pairs.workload_record(runs, ["parent", "change"] * 2, [1, 2, 3, 4], BETTER,
                                      BOUNDS)
    assert rec["verdict"] == {"ops_per_s": want, "latency_p50_ms": want}
