"""The benchmark's four workloads.

Each workload builds its losses with ``catalog`` (its set-up), then makes
rounds of operations from the seed and the round's index. Every round has
the same make-up (the same operation kinds, sizes and fixed inputs), and a
run attempts whole rounds, so every run attempts the same operations in
the same proportions; the seeded points are drawn afresh for each round. An
operation is timed on its own; its check runs after the clock stops and
compares the output with ``checks`` (independent numpy) or with a property
the method must have.

bvd functions are looked up on their modules at call time, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from bvd import centroids, cli, core, decomposition, divergences, uniqueness

import checks as C

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPECS = ROOT / "demos" / "specs"
OUT = BENCH / "out"  # run outputs and trace files; ignored by git


def child_env() -> dict:
    """Environment of every child process: bvd from this checkout's src/;
    the rest, with run.py's one BLAS thread and unset BVD_THREADS (and
    PYTHONDONTWRITEBYTECODE as the caller had it), inherited."""
    return dict(os.environ, PYTHONPATH=str(SRC))


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    # Exception this operation raises because of a known program fault; it
    # counts as failed but does not make the run incorrect.
    known_fault: type[BaseException] | None = None


def _weights(rng, n):
    return rng.random(n) + 0.1


def _spd(rng, d):
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return Q @ np.diag(rng.uniform(0.5, 2.0, d)) @ Q.T


def _decompose_op(kind, loss, fname, L, wl, P, wp, refs=None, known_fault=None) -> Op:
    def run():
        labels = core.make_ensemble(L, wl)
        preds = core.make_ensemble(P, wp)
        return getattr(decomposition, fname)(loss, labels, preds)

    def check(report):
        msgs = [C.additivity(report)]
        if refs is not None:
            label_ref, pred_ref = refs
            msgs.append(C.point_close("central label", report.central_label,
                                      label_ref(L, wl), C.CLOSED_FORM_TOL))
            msgs.append(C.point_close("central prediction", report.central_prediction,
                                      pred_ref(P, wp), C.CLOSED_FORM_TOL))
        return C.first_error(*msgs)

    return Op(kind, run, check, known_fault)


def _normalized_gm(P, w):
    return C.normalized(C.geometric_mean(P, w))


# ---------------------------------------------------------------- ensembles_small

def _uniform(lo, hi):
    return lambda rng, n, d: rng.uniform(lo, hi, (n, d))


def _simplex_points(rng, n, d):
    P = rng.uniform(0.1, 0.9, (n, d))
    return P / P.sum(axis=1, keepdims=True)


def _gaussian_points(rng, n, d):
    return np.hstack([rng.uniform(-1.0, 1.0, (n, 1)), rng.uniform(0.3, 2.5, (n, 1))])


AM, GM = C.arithmetic_mean, C.geometric_mean
# kind -> (dimensions, point sampler, decomposition function, closed-form
# (label, prediction) centroids or None when only additivity is checked)
SMALL_KINDS = {
    "sq_euclidean": ((1, 2, 3), _uniform(-3.0, 3.0), "decompose_gbregman", (AM, AM)),
    "mahalanobis": ((1, 2, 3), _uniform(-3.0, 3.0), "decompose_gbregman", (AM, AM)),
    "kl": ((1, 2, 3), _uniform(0.1, 0.9), "decompose_gbregman", (AM, GM)),
    "reverse_kl": ((1, 2, 3), _uniform(0.1, 0.9), "decompose_gbregman", (GM, AM)),
    "alpha": ((1, 2, 3), _uniform(0.1, 0.9), "decompose_gbregman", None),
    "gaussian_canonical": ((2,), _gaussian_points, "decompose_gbregman", None),
    "bernoulli_kl": ((1,), _uniform(0.1, 0.9), "decompose_gbregman", None),
    "g_mahalanobis": ((1, 2, 3), _uniform(0.2, 5.0), "decompose_gbregman", None),
    "kl_simplex": ((2, 3), _simplex_points, "decompose_constrained_bregman", (AM, _normalized_gm)),
    "reverse_kl_simplex": ((2, 3), _simplex_points, "decompose_constrained_bregman",
                           (_normalized_gm, AM)),
}
SMALL_PER_KIND = 40
# The near-degenerate slice: Mahalanobis K = 1e4 I at d = 3, centres in
# [-5, 5]^3 with 1e-8 spread. Its inputs come from a fixed seed, not from
# --seed, so the same inputs fail in every run.
SLICE_SCALE = 1e4
SLICE_SIZE = 100
SLICE_SEED = 20250131


class EnsemblesSmall:
    name = "ensembles_small"
    min_rounds = 1

    def build(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 0])
        cat = divergences.catalog
        losses = {}
        for d in (1, 2, 3):
            losses["sq_euclidean", d] = cat("sq_euclidean", dim=d)
            losses["mahalanobis", d] = cat("mahalanobis", K=_spd(rng, d))
            losses["kl", d] = cat("kl", dim=d)
            losses["reverse_kl", d] = cat("reverse_kl", dim=d)
            losses["alpha", d] = cat("alpha", alpha=0.3, dim=d)
            losses["g_mahalanobis", d] = divergences.catalog_from_json({
                "name": "g_mahalanobis",
                "params": {"g": "log", "K": _spd(rng, d).tolist(),
                           "domain": {"dim": d, "lower": [0.01] * d, "upper": [10.0] * d}},
            })
        for d in (2, 3):
            losses["kl_simplex", d] = cat("kl", dim=d, simplex=True)
            losses["reverse_kl_simplex", d] = cat("reverse_kl", dim=d, simplex=True)
        losses["gaussian_canonical", 2] = cat("gaussian_canonical")
        losses["bernoulli_kl", 1] = cat("bernoulli_kl")
        losses["slice"] = cat("mahalanobis", K=SLICE_SCALE * np.eye(3))
        return losses

    def round(self, seed: int, index: int, losses: dict) -> list[Op]:
        rng = np.random.default_rng([seed, 1, index])
        ops = []
        for kind, (dims, sample, fname, refs) in SMALL_KINDS.items():
            for _ in range(SMALL_PER_KIND):
                d = int(rng.choice(dims))
                n, m = int(rng.integers(1, 9)), int(rng.integers(2, 17))
                L, wl = sample(rng, n, d), _weights(rng, n)
                P, wp = sample(rng, m, d), _weights(rng, m)
                ops.append(_decompose_op(f"{kind}/d{d}", losses[kind, d], fname,
                                         L, wl, P, wp, refs))
        srng = np.random.default_rng(SLICE_SEED)
        for _ in range(SLICE_SIZE):
            c = srng.uniform(-5.0, 5.0, 3)
            n, m = int(srng.integers(1, 9)), int(srng.integers(2, 17))
            L = c + 1e-8 * srng.standard_normal((n, 3))
            P = c + 1e-8 * srng.standard_normal((m, 3))
            ops.append(_decompose_op("mahalanobis_1e4/d3", losses["slice"], "decompose_gbregman",
                                     L, _weights(srng, n), P, _weights(srng, m), (AM, AM),
                                     known_fault=ArithmeticError))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]


# ---------------------------------------------------------------- ensembles_wide

WIDE_CASES = [  # (kind, d)
    ("kl_simplex", 100),
    ("reverse_kl_simplex", 100),
    ("kl_simplex", 1000),
    ("reverse_kl_simplex", 1000),
    ("sq_euclidean", 1000),
]
WIDE_LABELS, WIDE_MEMBERS = 16, 64


class EnsemblesWide:
    name = "ensembles_wide"
    min_rounds = 1

    def build(self, seed: int) -> dict:
        cat = divergences.catalog
        losses = {}
        for kind, d in WIDE_CASES:
            if kind == "sq_euclidean":
                losses[kind, d] = cat("sq_euclidean", dim=d)
            else:
                losses[kind, d] = cat(kind.removesuffix("_simplex"), dim=d, simplex=True)
        return losses

    def round(self, seed: int, index: int, losses: dict) -> list[Op]:
        rng = np.random.default_rng([seed, 1, index])
        ops = []
        for kind, d in WIDE_CASES:
            if kind == "sq_euclidean":
                L = rng.uniform(-3.0, 3.0, (WIDE_LABELS, d))
                P = rng.uniform(-3.0, 3.0, (WIDE_MEMBERS, d))
                fname = "decompose_gbregman"
            else:
                L = rng.dirichlet(np.full(d, 2.0), WIDE_LABELS)
                P = rng.dirichlet(np.full(d, 2.0), WIDE_MEMBERS)
                fname = "decompose_constrained_bregman"
            ops.append(_decompose_op(f"{kind}/d{d}", losses[kind, d], fname,
                                     L, _weights(rng, WIDE_LABELS), P, _weights(rng, WIDE_MEMBERS),
                                     SMALL_KINDS[kind][3]))
        return ops


# ---------------------------------------------------------------- oracle

# Counterexample losses: (kind, catalog name, params, own formula). The
# catalog's minkowski takes 0 < epsilon <= 2, so the second exponent is 1.25.
ORACLE_LOSSES = [
    ("l1", "l1", {}, C.minkowski(1.0)),
    ("minkowski_1.5", "minkowski", {"epsilon": 1.5}, C.minkowski(1.5)),
    ("minkowski_1.25", "minkowski", {"epsilon": 1.25}, C.minkowski(1.25)),
    ("zero_one_grid", "zero_one_grid", {"levels": 3}, C.zero_one),
]
# dimension -> draws per round. Three draws at d = 1 put the median
# operation inside the dense cluster of cheap calls (30-90 ms) rather than
# in the sparse gap above it, where latency_p50_ms would jump between runs.
ORACLE_DRAWS = {1: 3, 2: 1}
DENSE_PER_AXIS = {1: 4001, 2: 401}
CROSS_CHECKS = [("kl", d) for d in (1, 2, 3)] + [("sq_euclidean", d) for d in (1, 2, 3)]
# central label (second_arg) and central prediction (first_arg) references
CROSS_REFS = {"kl": {"second_arg": AM, "first_arg": GM}, "sq_euclidean": {"second_arg": AM, "first_arg": AM}}
D4_SUPPORT = 5
CLASSIFY_CASES = [  # (kind, verdict the paper's theorem requires)
    ("minkowski_1.5", "not_gbregman"),
    ("l1", "not_gbregman"),
    ("kl", "consistent_with_gbregman"),
    ("sq_euclidean", "consistent_with_gbregman"),
]


def _oracle_points(rng, kind, n, d):
    if kind == "zero_one_grid":
        return rng.integers(0, 3, (n, d)).astype(float)
    if kind == "kl":
        return rng.uniform(0.1, 0.9, (n, d))
    return rng.uniform(-3.0, 3.0, (n, d))


def _side_check(what, kind, own_loss, domain, point, objective, P, w) -> str | None:
    """An oracle objective of a counterexample loss: it must match the
    loss formula at the returned point, and no reference may beat it."""
    own = float(C.objective(own_loss, point, P, w)[0])
    if C.relative(objective, own) > 1e-12:
        return f"{what}: objective {objective!r} but the loss formula gives {own!r}"
    if kind == "l1":
        ref = float(C.objective(own_loss, C.weighted_median(P, w), P, w)[0])
        if C.relative(objective, ref) > C.OBJECTIVE_TOL:
            return f"{what}: objective {objective!r}, weighted median gives {ref!r}"
        return None
    ref = C.dense_minimum(own_loss, domain.lower, domain.upper, P, w, DENSE_PER_AXIS[P.shape[1]])
    if objective > ref + C.OBJECTIVE_TOL * (1.0 + abs(ref)):
        return f"{what}: objective {objective!r} beaten by a dense search ({ref!r})"
    return None


class Oracle:
    name = "oracle"
    min_rounds = 2  # a round is about half a run; two keep the sample count fixed

    def build(self, seed: int) -> dict:
        cat = divergences.catalog
        losses = {}
        for kind, name, params, _ in ORACLE_LOSSES:
            for d in ORACLE_DRAWS:
                losses[kind, d] = cat(name, dim=d, **params)
        for d in (1, 2, 3):
            losses["kl", d] = cat("kl", dim=d)
            losses["sq_euclidean", d] = cat("sq_euclidean", dim=d)
        losses["kl", 4] = cat("kl", dim=4)
        return losses

    def round(self, seed: int, index: int, losses: dict) -> list[Op]:
        rng = np.random.default_rng([seed, 1, index])
        # Support sizes cycle through 2..6 instead of being drawn, so that
        # the seed changes the points but not the amount of work.
        sizes = itertools.cycle(range(2, 7))
        ops = []
        for kind, _, _, own in ORACLE_LOSSES:
            for d, draws in ORACLE_DRAWS.items():
                for _ in range(draws):
                    loss = losses[kind, d]
                    n, m = next(sizes), next(sizes)
                    L, wl = _oracle_points(rng, kind, n, d), _weights(rng, n)
                    P, wp = _oracle_points(rng, kind, m, d), _weights(rng, m)
                    ops.append(self._centroid_op(kind, loss, own, P, wp))
                    ops.append(self._generic_op(kind, loss, own, L, wl, P, wp))
        for kind, d in CROSS_CHECKS:
            for side, ref in CROSS_REFS[kind].items():
                n = next(sizes)
                P, w = _oracle_points(rng, kind, n, d), _weights(rng, n)
                ops.append(self._cross_op(f"{kind}/d{d}/{side}", losses[kind, d], side, ref, P, w))
        P = _oracle_points(rng, "kl", D4_SUPPORT, 4)
        ops.append(self._cross_op("kl/d4/first_arg", losses["kl", 4], "first_arg", GM,
                                  P, _weights(rng, D4_SUPPORT)))
        classifier_seed = int(rng.integers(2**31))
        for kind, verdict in CLASSIFY_CASES:
            ops.append(self._classify_op(kind, losses[kind, 1], verdict, classifier_seed))
        return ops

    @staticmethod
    def _centroid_op(kind, loss, own, P, w) -> Op:
        def run():
            return centroids.brute_force_centroid(loss, core.make_ensemble(P, w), "first_arg")

        def check(res):
            return _side_check("central prediction", kind, own, loss.domain,
                               res.point, res.objective, P, w)

        return Op(f"brute_force/{kind}/d{P.shape[1]}", run, check)

    @staticmethod
    def _generic_op(kind, loss, own, L, wl, P, wp) -> Op:
        def run():
            labels, preds = core.make_ensemble(L, wl), core.make_ensemble(P, wp)
            return decomposition.decompose_generic(loss, labels, preds)

        def check(r):
            expected = float(C.weights(wl) @ own(L[:, None, :], P[None, :, :]) @ C.weights(wp))
            bias = float(own(r.central_label, r.central_prediction))
            gap = expected - r.intrinsic_noise - bias - r.variance
            return C.first_error(
                _side_check("central label", kind, own, loss.domain,
                            r.central_label, r.intrinsic_noise, L, wl),
                _side_check("central prediction", kind, own, loss.domain,
                            r.central_prediction, r.variance, P, wp),
                None if C.relative(r.expected_loss, expected) <= 1e-12
                else f"expected loss {r.expected_loss!r}, own sum {expected!r}",
                None if C.relative(r.bias, bias) <= 1e-12 else f"bias {r.bias!r}, own {bias!r}",
                None if abs(r.gap - gap) <= 1e-12 * (1.0 + expected)
                else f"gap {r.gap!r} is not E - noise - bias - variance = {gap!r}",
            )

        return Op(f"decompose_generic/{kind}/d{L.shape[1]}", run, check)

    @staticmethod
    def _cross_op(kind, loss, side, ref, P, w) -> Op:
        def run():
            return centroids.brute_force_centroid(loss, core.make_ensemble(P, w), side)

        def check(res):
            return C.point_close("oracle centroid", res.point, ref(P, w), C.ORACLE_TOL,
                                 relative_to_ref=False)

        return Op(f"brute_force/{kind}", run, check)

    @staticmethod
    def _classify_op(kind, loss, verdict, seed) -> Op:
        def run():
            return uniqueness.classify_loss(loss, uniqueness.ClassifierConfig(seed=seed))

        def check(res):
            if res.verdict != verdict:
                return f"verdict {res.verdict!r}, the theorem requires {verdict!r}"
            return None

        return Op(f"classify/{kind}/d1", run, check)


# ---------------------------------------------------------------- cli_specs

def _read_csv(path: Path) -> list[dict]:
    header, *rows = path.read_text().splitlines()
    keys = header.split(",")
    return [dict(zip(keys, row.split(","))) for row in rows]


def _check_kl_simplex(spec, files):
    row, = _read_csv(files["kl_simplex.csv"])
    target = -np.log(0.8)
    if C.relative(float(row["variance"]), target) > 1e-12:
        return f"variance {row['variance']} is not -log 0.8 = {target!r}"
    return None


def _check_l1(spec, files):
    gap = json.loads(files["l1_gap.json"].read_text())["report"]["gap"]
    if abs(gap + 2.0 / 3.0) > 1e-12:
        return f"gap {gap!r} is not -2/3"
    return None


def _check_kl_centroid(spec, files):
    res = json.loads(files["kl_centroids.json"].read_text())["results"]
    lab, pre = spec["labels"], spec["preds"]
    return C.first_error(
        C.point_close("central label", res["central_label"]["point"],
                      AM(lab["points"], lab["weights"]), C.ORACLE_TOL, relative_to_ref=False),
        C.point_close("central prediction", res["central_prediction"]["point"],
                      _normalized_gm(pre["points"], pre["weights"]), C.CLOSED_FORM_TOL),
    )


def _check_alpha_sweep(spec, files):
    rows = _read_csv(files["alpha_sweep.csv"])
    if len(rows) != len(spec["sweep"]["values"]):
        return f"{len(rows)} rows for {len(spec['sweep']['values'])} swept values"
    if "alpha_sweep.svg" not in files:
        return "no SVG written"
    for row in rows:
        gap, expected = float(row["gap"]), float(row["expected"])
        if abs(gap) > C.ADDITIVITY_TOL * (1.0 + abs(expected)):
            return f"{row['divergence']}: |gap| {abs(gap):.3e} is not float noise"
    return None


def _check_minkowski(spec, files):
    out = json.loads(files["minkowski_verdict.json"].read_text())
    if out["verdict"] != "not_gbregman":
        return f"verdict {out['verdict']!r}, the theorem requires 'not_gbregman'"
    if not any(s.get("witness") for s in out["evidence"]["separability"]):
        return "no separability witness"
    return None


SPEC_CHECKS = {
    "alpha_sweep.json": _check_alpha_sweep,
    "kl_centroid.json": _check_kl_centroid,
    "kl_simplex_decompose.json": _check_kl_simplex,
    "l1_decompose.json": _check_l1,
    "minkowski_classify.json": _check_minkowski,
}


class CliSpecs:
    """Each operation runs one shipped spec through the CLI: in a fresh
    process started with the real interpreter binary, or, in traced runs,
    in-process through ``bvd.cli.main``."""

    name = "cli_specs"
    min_rounds = 2  # byte-identical reruns need a second round

    def __init__(self):
        self.in_process = False

    def build(self, seed: int) -> dict:
        specs = {fname: json.loads((SPECS / fname).read_text()) for fname in SPEC_CHECKS}
        # each spec's first output files, which every rerun must repeat byte for byte
        return {"specs": specs, "first": {}}

    def round(self, seed: int, index: int, state: dict) -> list[Op]:
        rng = np.random.default_rng([seed, 1, index])
        specs, first = state["specs"], state["first"]
        names = sorted(specs)
        return [self._op(names[i], specs[names[i]], first) for i in rng.permutation(len(names))]

    def _op(self, fname, spec, first: dict) -> Op:
        def run():
            OUT.mkdir(exist_ok=True)
            out_dir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
            argv = [spec["command"], "--spec", str(SPECS / fname), "--out", str(out_dir)]
            try:
                if self.in_process:
                    err = io.StringIO()
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                        rc = cli.main(argv)
                    return rc, err.getvalue(), out_dir
                proc = subprocess.run([sys.executable, "-m", "bvd.cli", *argv], env=child_env(),
                                      capture_output=True, text=True, timeout=120)
                return proc.returncode, proc.stderr, out_dir
            except BaseException:
                shutil.rmtree(out_dir, ignore_errors=True)
                raise

        def check(result):
            rc, stderr, out_dir = result
            try:
                if rc != 0:
                    return f"exit code {rc}: {stderr.strip()}"
                files = {p.name: p for p in out_dir.iterdir()}
                msg = SPEC_CHECKS[fname](spec, files)
                if msg is None:
                    contents = {name: p.read_bytes() for name, p in files.items()}
                    if first.setdefault(fname, contents) != contents:
                        msg = "output files differ from this spec's first run"
                return msg
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)

        return Op(f"spec/{fname.removesuffix('.json')}", run, check)


WORKLOADS = {w.name: w for w in (EnsemblesSmall(), EnsemblesWide(), Oracle(), CliSpecs())}
