"""The benchmark's tracer wraps bvd functions by name; they must exist,
and a traced call must record its spans and leave bvd as it was."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import bvd.cli  # noqa: F401 (install() wraps bvd.cli.main)
from bvd import centroids, core, decomposition, divergences

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_resolve(spans):
    for span, targets in spans.WRAPPED.items():
        for modname, attr in targets:
            assert callable(getattr(importlib.import_module(modname), attr, None)), (
                span, modname, attr,
            )


def test_eval_classes_define_eval_batch(spans):
    # install() patches cls.__dict__["eval_batch"]; an inherited one would
    # raise KeyError there.
    for modname, clsname in spans.EVAL_CLASSES:
        cls = getattr(importlib.import_module(modname), clsname)
        assert "eval_batch" in cls.__dict__, (modname, clsname)


def test_traced_calls_record_spans_and_restore(spans):
    modules = {n: m for n, m in sys.modules.items() if n == "bvd" or n.startswith("bvd.")}
    before = {n: dict(vars(m)) for n, m in modules.items()}
    classes = [getattr(importlib.import_module(m), c) for m, c in spans.EVAL_CLASSES]
    eval_batches = [cls.__dict__["eval_batch"] for cls in classes]
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        kl = divergences.catalog("kl", dim=2)
        labels = core.make_ensemble([[0.2, 0.8], [0.6, 0.4]], [1, 1])
        preds = core.make_ensemble([[0.3, 0.7], [0.5, 0.5]], [1, 2])
        decomposition.decompose(kl, labels, preds)
        centroids.brute_force_centroid(divergences.catalog("l1", dim=1),
                                       core.make_ensemble([[0.2], [0.7]], [1, 1]), "second_arg")
        core.side_expectation(kl, np.array([0.4, 0.6]), preds)
    finally:
        restore()
    recorded = {tracer.names[i] for i in tracer.name_id}
    assert {spans.EVAL, spans.BRUTE, "core.side_expectation"} <= recorded
    for name, module in modules.items():
        for key, value in before[name].items():
            assert vars(module)[key] is value, (name, key)
    for cls, original in zip(classes, eval_batches):
        assert cls.__dict__["eval_batch"] is original, cls
