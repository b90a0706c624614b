"""Span tracer for the benchmark's traced runs.

The tracer times bvd's layers from outside: :func:`install` replaces the
layers' public functions with wrappers in every ``bvd`` module namespace
that binds them (``decomposition``, ``uniqueness`` and ``cli`` import
names such as ``brute_force_centroid`` directly), and wraps the
``eval_batch`` method of both loss classes. Each call records a span with
its name, start, end and parent; spans stay in memory until the run ends.
The benchmark opens an ``op`` span around every operation, so the spans of
one operation share that root.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from array import array

import numpy as np

OP = "op"
EVAL = "divergences.eval_batch"
BRUTE = "centroids.brute_force"
CLASSIFY = "uniqueness.classify"
CLI_MAIN = "cli.main"

# span name -> the (module, function) pairs it times
WRAPPED = {
    "core.make_ensemble": [("bvd.core", "make_ensemble")],
    "core.pair_expectation": [("bvd.core", "pair_expectation")],
    "core.side_expectation": [("bvd.core", "side_expectation")],
    "divergences.newton_invert": [("bvd.divergences", "newton_invert")],
    "centroids.closed_form": [
        ("bvd.centroids", "g_mean_label"),
        ("bvd.centroids", "f_mean_prediction"),
        ("bvd.centroids", "power_mean_centroids"),
    ],
    "centroids.lagrange": [
        ("bvd.centroids", "constrained_central_prediction"),
        ("bvd.centroids", "constrained_central_label"),
    ],
    BRUTE: [("bvd.centroids", "brute_force_centroid")],
    "decomposition": [
        ("bvd.decomposition", "decompose_gbregman"),
        ("bvd.decomposition", "decompose_constrained_bregman"),
        ("bvd.decomposition", "decompose_generic"),
    ],
    "uniqueness.separability": [("bvd.uniqueness", "separability_rank_test")],
    CLASSIFY: [("bvd.uniqueness", "classify_loss")],
    CLI_MAIN: [("bvd.cli", "main")],
}
# Loss classes whose eval_batch is timed as divergences.eval_batch.
EVAL_CLASSES = [("bvd.divergences", "GBregmanDivergence"), ("bvd.core", "CallableLoss")]

# Per-operation call and time figures reported for these spans.
TIMED = [
    "core.make_ensemble",
    "core.pair_expectation",
    "core.side_expectation",
    EVAL,
    "divergences.newton_invert",
    "centroids.closed_form",
    "centroids.lagrange",
    BRUTE,
    "decomposition",
    "uniqueness.separability",
    CLASSIFY,
]

_PAGE_MB = resource.getpagesize() / 2**20


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span store. ``value`` holds the points of an eval_batch
    span and the peak-memory rise of a brute-force span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.failed = array("b")
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.value.append(0.0)
        self.failed.append(0)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, failed: bool = False):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.failed[idx] = 1

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "value": self.value.tolist(),
            "failed": self.failed.tolist(),
        }


def _traced(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        failed = True
        try:
            out = fn(*args, **kwargs)
            failed = False
            return out
        finally:
            tracer.close(idx, failed)

    return wrapper


def _traced_eval(tracer: Tracer, fn):
    @functools.wraps(fn)
    def eval_batch(self, T, Y):
        idx = tracer.open(EVAL)
        failed = True
        try:
            out = fn(self, T, Y)
            failed = False
            return out
        finally:
            tracer.close(idx, failed)
            shape = np.broadcast_shapes(np.shape(T), np.shape(Y))[:-1]
            tracer.value[idx] = float(np.prod(shape))

    return eval_batch


def _traced_brute(tracer: Tracer, fn):
    """Brute-force wrapper that also records the call's peak memory.

    The process's peak RSS only rises when a call exceeds every earlier
    peak; when it rises, the call's peak above its entry RSS is known
    exactly, otherwise the span records 0.
    """

    @functools.wraps(fn)
    def brute_force_centroid(*args, **kwargs):
        rss0, peak0 = _rss_mb(), _peak_rss_mb()
        idx = tracer.open(BRUTE)
        failed = True
        try:
            out = fn(*args, **kwargs)
            failed = False
            return out
        finally:
            tracer.close(idx, failed)
            peak1 = _peak_rss_mb()
            if peak1 > peak0:
                tracer.value[idx] = peak1 - rss0

    return brute_force_centroid


def install(tracer: Tracer):
    """Wrap every layer function in every loaded ``bvd`` module; returns
    a function that restores the originals."""
    modules = [m for n, m in list(sys.modules.items()) if n == "bvd" or n.startswith("bvd.")]
    patches = []
    for name, targets in WRAPPED.items():
        for modname, attr in targets:
            original = getattr(sys.modules[modname], attr)
            if name == BRUTE:
                wrapper = _traced_brute(tracer, original)
            else:
                wrapper = _traced(tracer, name, original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        patches.append((mod, key, val))
                        setattr(mod, key, wrapper)
    for modname, clsname in EVAL_CLASSES:
        cls = getattr(sys.modules[modname], clsname)
        original = cls.__dict__["eval_batch"]
        patches.append((cls, "eval_batch", original))
        cls.eval_batch = _traced_eval(tracer, original)

    def restore():
        for obj, attr, val in reversed(patches):
            setattr(obj, attr, val)

    return restore


def _under(name_id: np.ndarray, parent: np.ndarray, nid: int) -> np.ndarray:
    """Boolean mask: the span has an ancestor with name id ``nid``."""
    has_parent = parent >= 0
    p = np.where(has_parent, parent, 0)
    mask = has_parent & (name_id[p] == nid)
    while True:
        nxt = mask | (has_parent & mask[p])
        if np.array_equal(nxt, mask):
            return mask
        mask = nxt


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans, per operation where the figure is
    a count or a time. Self time is a span's duration minus the time its
    direct child spans cover."""
    name_id = np.array(tracer.name_id, dtype=np.int64)
    parent = np.array(tracer.parent, dtype=np.int64)
    start = np.array(tracer.start, dtype=float)
    end = np.array(tracer.end, dtype=float)
    value = np.array(tracer.value, dtype=float)
    failed = np.array(tracer.failed, dtype=bool)
    dur = end - start
    child = np.zeros_like(dur)
    np.add.at(child, parent[parent >= 0], dur[parent >= 0])
    self_time = dur - child
    ids = {n: i for i, n in enumerate(tracer.names)}

    def of(name):
        return name_id == ids.get(name, -1)

    def under(name):
        return _under(name_id, parent, ids.get(name, -1))

    n_ops = max(int(np.sum(of(OP))), 1)
    out: dict[str, tuple[float, str]] = {}
    for name in TIMED:
        mask = of(name)
        outer = mask & ~under(name)  # nested calls of one layer count once
        out[f"{name}.calls"] = (float(np.sum(mask)) / n_ops, "calls/op")
        out[f"{name}.ms"] = (1e3 * float(np.sum(dur[outer])) / n_ops, "ms/op")
    evals = of(EVAL)
    total_points = float(np.sum(value[evals]))
    out[f"{EVAL}.points"] = (total_points / n_ops, "points/op")
    out[f"{EVAL}.points_per_call"] = (
        total_points / max(int(np.sum(evals)), 1),
        "points/call",
    )
    brute = of(BRUTE)
    in_brute = evals & under(BRUTE)
    out[f"{BRUTE}.self_ms"] = (1e3 * float(np.sum(self_time[brute])) / n_ops, "ms/op")
    out[f"{BRUTE}.eval_calls"] = (float(np.sum(in_brute)) / n_ops, "calls/op")
    out[f"{BRUTE}.eval_points"] = (float(np.sum(value[in_brute])) / n_ops, "points/op")
    out[f"{BRUTE}.peak_mb"] = (float(np.max(value[brute], initial=0.0)), "MB")
    dec = of("decomposition")
    out["decomposition.self_ms"] = (1e3 * float(np.sum(self_time[dec])) / n_ops, "ms/op")
    out["decomposition.failed"] = (
        float(np.sum(dec & failed & ~under("decomposition"))) / n_ops,
        "calls/op",
    )
    classify = of(CLASSIFY) & ~under(CLASSIFY)
    classify_time = float(np.sum(dur[classify]))
    oracle_time = float(np.sum(dur[brute & under(CLASSIFY) & ~under(BRUTE)]))
    out[f"{CLASSIFY}.oracle_share"] = (
        100.0 * oracle_time / classify_time if classify_time > 0 else 0.0,
        "%",
    )
    out["cli.run_ms"] = (1e3 * float(np.sum(dur[of(CLI_MAIN)])) / n_ops, "ms/op")
    return out
