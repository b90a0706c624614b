"""The benchmark's tracer wraps bvd functions by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
