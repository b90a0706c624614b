"""Tests for ensembles, domains, and pair/side expectations."""

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from functools import partial

import numpy as np
import pytest

from bvd import BoundaryError, CallableLoss, Domain, WeightedEnsemble, core, decompose
from bvd import make_ensemble
from bvd import CentroidResult, DecompositionReport, SeparabilityVerdict
from bvd.uniqueness import ClassificationResult
from bvd.core import pair_expectation, side_expectation
from bvd.divergences import GBregmanDivergence, catalog, catalog_from_json

from conftest import GBREGMAN_FAMILIES, make_entry, random_spd, sample_points


def _grid(rng, n, d):
    return rng.integers(0, 3, (n, d)).astype(float)


def _simplex(rng, n, d):
    return rng.dirichlet(np.full(d, 2.0), n)


# Every catalog entry, plus the wide cases of the benchmark: (loss, sampler).
BLOCK_CASES = {
    name: (partial(make_entry, name, dims[-1]), partial(sample_points, name))
    for name, dims in GBREGMAN_FAMILIES
}
BLOCK_CASES.update({
    "g_mahalanobis": (
        lambda: catalog_from_json({"name": "g_mahalanobis", "params": {
            "K": random_spd(np.random.default_rng(8), 3).tolist(),
            "domain": {"dim": 3, "lower": [0.01] * 3, "upper": [10.0] * 3}}}),
        partial(sample_points, "kl"),
    ),
    "minkowski": (lambda: catalog("minkowski", epsilon=1.5, dim=2),
                  partial(sample_points, "sq_euclidean")),
    "l1": (lambda: catalog("l1", dim=2), partial(sample_points, "sq_euclidean")),
    "zero_one_grid": (lambda: catalog("zero_one_grid", dim=2, levels=3), _grid),
    # Not g-Bregman, so wide products keep the block loop.
    "kl_callable": (lambda: CallableLoss(3, catalog("kl", dim=3).domain,
                                         catalog("kl", dim=3).eval_batch, name="kl",
                                         separable=True),
                    partial(sample_points, "kl")),
    "kl_simplex_d1000": (lambda: catalog("kl", dim=1000, simplex=True), _simplex),
    "sq_euclidean_d1000": (lambda: catalog("sq_euclidean", dim=1000),
                           partial(sample_points, "sq_euclidean")),
})


class TestMakeEnsemble:
    def test_normalizes_weights(self):
        ens = make_ensemble([[0.0], [2.0]], [1, 1])
        np.testing.assert_allclose(ens.weights, [0.5, 0.5])

    def test_single_point(self):
        ens = make_ensemble([[0.2, 0.8]], [3])
        np.testing.assert_allclose(ens.weights, [1.0])
        assert ens.dim == 2

    def test_three_points_with_duplicates(self):
        ens = make_ensemble([[0.0], [1.0], [1.0]], [1, 1, 1])
        np.testing.assert_allclose(ens.weights, [1 / 3, 1 / 3, 1 / 3])

    def test_scalars_coerce_to_1d_points(self):
        ens = make_ensemble([0, 2], [1, 1])
        assert ens.dim == 1
        np.testing.assert_allclose(ens.points, [[0.0], [2.0]])

    def test_already_normalized_weights_kept_bit_exact(self):
        w = np.array([0.3, 0.7])
        ens = make_ensemble([[0.0], [1.0]], w)
        assert ens.weights[0] == 0.3 and ens.weights[1] == 0.7

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            make_ensemble([[0.0], [1.0, 2.0]], [1, 1])

    def test_all_zero_weights(self):
        with pytest.raises(ValueError, match="zero"):
            make_ensemble([[0.0], [1.0]], [0, 0])

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            make_ensemble([[0.0], [1.0]], [1, -1])

    def test_non_finite_input(self):
        with pytest.raises(ValueError):
            make_ensemble([[np.nan]], [1])
        with pytest.raises(ValueError):
            make_ensemble([[0.0]], [np.inf])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            make_ensemble([[0.0]], [1, 1])

    @pytest.mark.parametrize(
        "points", [0.5, np.zeros((2, 1, 1)), [], [[]], np.zeros((0, 2))],
        ids=["0-d", "3-D", "empty", "empty-point", "no-points"],
    )
    def test_malformed_points(self, points):
        with pytest.raises(ValueError):
            make_ensemble(points, [1])

    def test_zero_weight_atoms_dropped_by_both_constructors(self):
        a = make_ensemble([[0.0], [0.5], [1.0]], [0, 1, 3])
        b = WeightedEnsemble(np.array([[0.0], [0.5], [1.0]]), np.array([0, 0.25, 0.75]))
        for ens in (a, b):
            np.testing.assert_array_equal(ens.points, [[0.5], [1.0]])
            np.testing.assert_array_equal(ens.weights, [0.25, 0.75])


class TestDomain:
    @pytest.mark.parametrize(
        "kwargs, message",
        [({"dim": 0}, "dim must be >= 1"),
         ({"dim": 2, "lower": [0.0]}, r"lower must have shape \(2,\)"),
         ({"dim": 2, "eq_lhs": [[1.0, 1.0]]}, "eq_lhs and eq_rhs must be given together"),
         ({"dim": 2, "eq_lhs": [[1.0, 1.0, 1.0]], "eq_rhs": [1.0]},
          "equality constraint shapes inconsistent")],
        ids=["dim", "lower_shape", "half_equality", "equality_shapes"],
    )
    def test_malformed_domain_is_named(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Domain(**kwargs)

    def test_loss_on_a_domain_of_another_dimension_is_named(self):
        with pytest.raises(ValueError, match="domain dimension mismatch"):
            CallableLoss(3, Domain.unit_box(2), lambda T, Y: np.sum((T - Y) ** 2, axis=-1))

    def test_box_containment(self):
        dom = Domain.box([0, 0], [1, 1])
        assert dom.contains([0.5, 0.5])
        assert dom.contains([0.0, 1.0])
        assert not dom.contains([1.2, 0.5])
        assert not dom.contains([0.5, -0.1])

    def test_feasibility_idempotent(self, rng):
        dom = Domain.simplex(3)
        for _ in range(50):
            p = rng.uniform(0, 1, 3)
            p = p / p.sum()
            first = dom.contains(p)
            assert dom.contains(p) == first
            assert first

    def test_simplex_equality_tolerance(self):
        dom = Domain.simplex(2)
        assert dom.contains([0.5, 0.5 + 5e-11])
        assert not dom.contains([0.5, 0.51])

    @pytest.mark.parametrize(
        "domain, rows, want",
        [
            (
                Domain.box([0, 0], [1, 1]),
                [[0.5, 0.5], [0.0, 1.0], [1.2, 0.5], [0.5, -0.1], [1 + 5e-11, 0.5], [np.nan, 0.5]],
                [True, True, False, False, True, False],
            ),
            (
                Domain.simplex(2),
                [[0.5, 0.5], [0.5, 0.5 + 5e-11], [0.5, 0.51], [1.0, 0.0], [-0.5, 1.5], [0.5, np.nan]],
                [True, True, False, True, False, False],
            ),
        ],
        ids=["box", "simplex"],
    )
    def test_feasible_mask_agrees_with_contains(self, domain, rows, want):
        rows = np.array(rows)
        mask = domain.feasible(rows)
        assert mask.tolist() == want
        assert [domain.contains(r) for r in rows] == want

    @pytest.mark.parametrize(
        "domain",
        [Domain.box([0, -1], [1, 2]), Domain(2, lower=np.array([0.0, -np.inf])), Domain.simplex(2)],
        ids=["box", "half_bounded", "simplex"],
    )
    def test_feasible_mask_matches_per_bound_reductions(self, domain):
        # The one combined mask equals one reduction per bound, at the
        # default tolerance (bounds shifted when the domain is built) and
        # at others.
        for tol in (core.FEASIBILITY_TOL, 1e-12, 1e-6):
            lo = np.array([0.0, -1.0]) if domain.lower is None else domain.lower
            hi = np.array([1.0, 2.0]) if domain.upper is None else domain.upper
            bounds = np.concatenate([lo, hi])
            bounds = bounds[np.isfinite(bounds)]
            values = np.concatenate([[np.nan, np.inf, -np.inf, 0.5],
                                     *(bounds + k * tol for k in (-2, -1, 0, 1, 2))])
            Y = np.stack(np.meshgrid(values, values, indexing="ij"), axis=-1).reshape(-1, 2)
            with np.errstate(invalid="ignore"):
                want = np.isfinite(Y).all(axis=-1)
                if domain.lower is not None:
                    want &= (Y >= domain.lower - tol).all(axis=-1)
                if domain.upper is not None:
                    want &= (Y <= domain.upper + tol).all(axis=-1)
                if domain.eq_lhs is not None:
                    want &= np.abs(Y @ domain.eq_lhs.T - domain.eq_rhs).max(axis=-1) <= tol
            got = domain.feasible(Y, tol)
            assert got.tolist() == want.tolist()
            assert got.any() and not got.all()
            assert domain.feasible(Y.reshape(len(values), len(values), 2), tol).tolist() == (
                want.reshape(len(values), len(values)).tolist())

    def test_rank_deficient_constraints_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            Domain(2, eq_lhs=[[1, 1], [2, 2]], eq_rhs=[1, 2])

    def test_too_many_constraints_rejected(self):
        with pytest.raises(ValueError):
            Domain(2, eq_lhs=[[1, 0], [0, 1], [1, 1]], eq_rhs=[1, 1, 1])

    @pytest.mark.parametrize(
        "lower, upper, message",
        [
            ([1.0, 1.0], [0.0, 2.0], "coordinate 0 has lower bound 1 above its upper bound 0"),
            ([0.0, np.nan], [1.0, 1.0], "lower bound of coordinate 1 is nan"),
            ([0.0, 0.0], [np.nan, 1.0], "upper bound of coordinate 0 is nan"),
        ],
        ids=["inverted", "nan_lower", "nan_upper"],
    )
    def test_inverted_or_nan_bounds_rejected(self, lower, upper, message):
        for build in (lambda: Domain(2, np.array(lower), np.array(upper)),
                      lambda: Domain.box(lower, upper),
                      lambda: Domain.from_json({"dim": 2, "lower": lower, "upper": upper})):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build()

    def test_unbounded_flag(self):
        assert not Domain(2).is_bounded
        assert Domain.box([0, 0], [1, 1]).is_bounded

    def test_json_round_trip(self):
        dom = Domain.simplex(3)
        again = Domain.from_json(json.loads(json.dumps(dom.to_json())))
        assert again.dim == 3
        np.testing.assert_allclose(again.eq_lhs, dom.eq_lhs)
        np.testing.assert_allclose(again.eq_rhs, dom.eq_rhs)
        box = Domain.box([-1, -1], [1, 1])
        again = Domain.from_json(box.to_json())
        assert again.eq_lhs is None
        np.testing.assert_allclose(again.lower, box.lower)


class TestEnsembleJson:
    def test_round_trip(self, rng):
        ens = make_ensemble(rng.normal(size=(4, 2)), rng.random(4) + 0.2)
        again = WeightedEnsemble.from_json(json.loads(json.dumps(ens.to_json())))
        np.testing.assert_array_equal(again.points, ens.points)
        np.testing.assert_array_equal(again.weights, ens.weights)


class TestRecordJson:
    # One fixed instance of each result type and its JSON, byte for byte.
    RECORDS = [
        (CentroidResult(np.array([0.25, 0.75]), np.array([-0.5]), 0.125, "lagrange", True),
         '{"point": [0.25, 0.75], "multipliers": [-0.5], "objective": 0.125, '
         '"method": "lagrange", "non_unique": true}'),
        (DecompositionReport(1.5, 0.25, 0.5, 0.75, 0.0, np.array([0.5, 0.5]),
                             np.array([0.25, 0.75])),
         '{"expected_loss": 1.5, "intrinsic_noise": 0.25, "bias": 0.5, "variance": 0.75, '
         '"gap": 0.0, "central_label": [0.5, 0.5], "central_prediction": [0.25, 0.75], '
         '"multipliers": null, "method": "generic"}'),
        (SeparabilityVerdict(2, np.array([3.0, 1e-3]), 1e-6, False, 1, 9, 0,
                             {"labels": [0.1, 0.2], "predictions": [0.3, 0.4],
                              "determinant": -0.5}),
         '{"numerical_rank": 2, "singular_values": [3.0, 0.001], "threshold": 1e-06, '
         '"separable": false, "dim": 1, "n_samples": 9, "n_unreliable": 0, "witness": '
         '{"labels": [0.1, 0.2], "predictions": [0.3, 0.4], "determinant": -0.5}}'),
        (ClassificationResult("inconclusive", {"seed": 0, "failures": ["gap trial 0: x"]}),
         '{"verdict": "inconclusive", "evidence": {"seed": 0, "failures": ["gap trial 0: x"]}}'),
        (make_ensemble([[0.0, 1.0], [2.0, 3.0]], [1, 3]),
         '{"points": [[0.0, 1.0], [2.0, 3.0]], "weights": [0.25, 0.75]}'),
    ]

    @pytest.mark.parametrize("record, want", RECORDS,
                             ids=["centroid", "report", "verdict", "classification", "ensemble"])
    def test_fields_in_order_and_bytes(self, record, want):
        assert list(record.to_json()) == [f.name for f in dataclasses.fields(record)]
        assert json.dumps(record.to_json()) == want


class TestPairExpectation:
    def test_matches_double_loop(self, rng):
        loss = catalog("sq_euclidean", dim=2)
        labels = make_ensemble(rng.uniform(-2, 2, (3, 2)), rng.random(3) + 0.1)
        preds = make_ensemble(rng.uniform(-2, 2, (4, 2)), rng.random(4) + 0.1)
        direct = sum(
            wl * wp * loss.eval(t, y)
            for t, wl in zip(labels.points, labels.weights)
            for y, wp in zip(preds.points, preds.weights)
        )
        assert pair_expectation(loss, labels, preds) == pytest.approx(direct, rel=1e-13)

    def test_side_expectation_matches(self, rng):
        loss = catalog("sq_euclidean", dim=1)
        ens = make_ensemble(rng.uniform(-2, 2, (4, 1)), rng.random(4) + 0.1)
        x = np.array([0.3])
        direct = sum(w * loss.eval(x, p) for p, w in zip(ens.points, ens.weights))
        assert side_expectation(loss, x, ens) == pytest.approx(direct)

    def test_pair_dimension_mismatch_is_named(self, rng):
        loss = catalog("kl", dim=3)
        labels = make_ensemble(rng.uniform(0.1, 0.9, (4, 1)), np.ones(4))
        preds = make_ensemble(rng.uniform(0.1, 0.9, (5, 3)), np.ones(5))
        with pytest.raises(ValueError, match="label dimension: expected 3 .* got 1"):
            pair_expectation(loss, labels, preds)
        with pytest.raises(ValueError, match="prediction dimension: expected 3 .* got 1"):
            pair_expectation(loss, preds, labels)

    def test_non_finite_pair_is_named(self):
        # A label coordinate against a prediction's zero: the error names the
        # coordinate, as kl.eval does on the same pair.
        kl = catalog("kl", dim=2)
        labels = make_ensemble([[0.2, 0.4]], [1])
        preds = make_ensemble([[0.0, 0.5], [0.1, 0.3]], [1, 1])
        with pytest.raises(BoundaryError, match="prediction coordinate 0") as caught:
            kl.eval(labels.points[0], preds.points[0])
        for fn in (pair_expectation, decompose,
                   lambda kl, labels, preds: side_expectation(kl, labels.points[0], preds)):
            with pytest.raises(BoundaryError) as exc:
                fn(kl, labels, preds)
            assert str(exc.value) == str(caught.value)

    def test_non_finite_pair_without_boundary_check_is_named(self, monkeypatch):
        # A loss whose _check_boundary accepts every pair names the first
        # pair in row order.
        loss = CallableLoss(1, Domain.box([0.0], [2.0]),
                            lambda T, Y: np.where(T[..., 0] + Y[..., 0] >= 2.5, np.inf, 0.0))
        labels = make_ensemble([[0.5], [1.5], [2.0]], [1, 1, 1])
        preds = make_ensemble([[0.5], [1.25]], [1, 1])
        with pytest.raises(BoundaryError, match=r"label=\[1.5\], prediction=\[1.25\]"):
            pair_expectation(loss, labels, preds)
        # Only the used cells must be finite. Every cell is evaluated, in one
        # block of all three rows and in one-row blocks alike.
        used = np.array([[1, 0], [0, 0], [0, 1]], dtype=bool)
        finite_used = np.array([[1, 0], [0, 0], [0, 0]], dtype=bool)
        for budget in (core.BLOCK_FLOATS, 2):  # then one-row blocks
            monkeypatch.setattr(core, "BLOCK_FLOATS", budget)
            with pytest.raises(BoundaryError, match=r"label=\[2.\], prediction=\[1.25\]"):
                core.support_product(loss, labels.points, preds.points, used)
            values = core.support_product(loss, labels.points, preds.points, finite_used)
            np.testing.assert_array_equal(values, [[0.0, 0.0], [0.0, np.inf], [np.inf, np.inf]])

    def test_default_boundary_check_accepts_every_pair(self):
        class Bare(core.LossFunction):
            pass

        box = Domain.box([0.0], [2.0])
        for loss in (CallableLoss(1, box, lambda T, Y: T - Y), Bare(1, box)):
            assert callable(loss._check_boundary)
            assert loss._check_boundary(np.zeros(1), np.ones(1)) is None

    def test_side_dimension_mismatch_is_named(self, rng):
        loss = catalog("kl", dim=3)
        ens = make_ensemble(rng.uniform(0.1, 0.9, (5, 3)), np.ones(5))
        for side_loss in (loss, loss.reverse()):  # the second argument's side
            with pytest.raises(ValueError, match="point dimension: expected 3 .* got 1"):
                side_expectation(side_loss, np.array([0.5]), ens)

    def test_each_support_point_mapped_once(self, rng, monkeypatch):
        from bvd.divergences import Mapping, make_g_mahalanobis

        mapped = []

        def forward(y):
            mapped.append(np.size(y))
            return np.log(y)

        mapping = Mapping(forward=forward, inverse=np.exp)
        loss = make_g_mahalanobis(mapping, np.eye(3), Domain.box(0.05 * np.ones(3), np.ones(3)))
        labels = make_ensemble(rng.uniform(0.1, 0.9, (6, 3)), np.ones(6))
        preds = make_ensemble(rng.uniform(0.1, 0.9, (8, 3)), np.ones(8))
        pair_expectation(loss, labels, preds)
        assert sum(mapped) == (6 + 8) * 3
        # A product wider than one block takes the three-point identity:
        # every label and prediction is mapped twice (its direct vector and
        # its mapped coordinates) and the reference point c four times more,
        # whatever the block budget.
        for rows in (4, 1):
            mapped.clear()
            monkeypatch.setattr(core, "BLOCK_FLOATS", rows * 8 * 3)
            pair_expectation(loss, labels, preds)
            assert sum(mapped) == (2 * (6 + 8) + 4) * 3

    def test_kl_pair_peak_memory(self, rng):
        """A KL expectation wider than one block holds at most two and a
        half blocks of ``BLOCK_FLOATS`` floats at once: log Y and its
        difference from log c for the three-point identity's inner term,
        then its direct vectors (logs per point, one buffer reused in place
        and ``Y - T``)."""
        import tracemalloc

        d, nt, ny = 1000, 16, 64
        assert ny * d <= core.BLOCK_FLOATS  # one label row per block
        loss = catalog("kl", dim=d, simplex=True)
        labels = make_ensemble(rng.dirichlet(np.ones(d), nt), np.ones(nt))
        preds = make_ensemble(rng.dirichlet(np.ones(d), ny), np.ones(ny))
        tracemalloc.start()
        try:
            pair_expectation(loss, labels, preds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * core.BLOCK_FLOATS * 8

    @pytest.mark.parametrize("name", list(BLOCK_CASES))
    def test_block_size_does_not_change_results(self, rng, monkeypatch, name):
        build, sample = BLOCK_CASES[name]
        loss = build()
        d, nt, ny = loss.dim, 7, 5
        labels = make_ensemble(sample(rng, nt, d), rng.random(nt) + 0.1)
        preds = make_ensemble(sample(rng, ny, d), rng.random(ny) + 0.1)
        assert nt * ny * d <= core.BLOCK_FLOATS  # one block by default
        whole = repr(pair_expectation(loss, labels, preds))
        report = json.dumps(decompose(loss, labels, preds).to_json())

        calls = []
        batch = loss.eval_batch

        def counting(T, Y):
            calls.append(T.shape[0])
            return batch(T, Y)

        # One-row blocks, then blocks of 3, 3 and 1 rows. A g-Bregman
        # divergence runs no blocks of the product under either budget: the
        # three-point identity evaluates the nt labels against c, in blocks
        # of the budget's rows x ny labels, and c against the ny
        # predictions, and gives the one-block values up to float noise.
        identity = isinstance(loss, GBregmanDivergence)
        runs = []
        for rows, sizes in ((1, [1] * nt), (3, [3, 3, 1])):
            monkeypatch.setattr(core, "BLOCK_FLOATS", rows * ny * d)
            calls.clear()
            monkeypatch.setattr(loss, "eval_batch", counting)
            got = pair_expectation(loss, labels, preds)
            monkeypatch.setattr(loss, "eval_batch", batch)
            got_report = decompose(loss, labels, preds).to_json()
            runs.append(repr(got) + json.dumps(got_report))
            if not identity:
                assert repr(got) == whole
                assert calls == sizes
                assert json.dumps(got_report) == report
                continue
            per = rows * ny
            assert calls == [min(per, nt - i) for i in range(0, nt, per)] + [1]
            assert abs(got - float(whole)) <= 1e-13 * (1 + abs(float(whole)))
            want = json.loads(report)
            scale = 1 + abs(want["expected_loss"])
            for term in ("expected_loss", "intrinsic_noise", "bias", "variance", "gap"):
                assert abs(got_report[term] - want[term]) <= 1e-13 * scale, term
        assert runs[0] == runs[1]  # byte-identical across the two budgets

    def test_wide_kl_product_runs_in_bounded_memory(self):
        # 512 x 512 pairs at d = 1000 are 2.1e9 bytes per full-size
        # temporary; streamed in blocks of label rows they fit under a
        # 1 GiB address-space limit.
        code = textwrap.dedent(
            """
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
            import numpy as np
            from bvd import catalog, make_ensemble
            from bvd.core import pair_expectation

            rng = np.random.default_rng(0)
            d, n = 1000, 512
            T, Y = rng.dirichlet(np.full(d, 2.0), n), rng.dirichlet(np.full(d, 2.0), n)
            wt, wy = rng.random(n) + 0.1, rng.random(n) + 0.1
            got = pair_expectation(catalog("kl", dim=d, simplex=True),
                                   make_ensemble(T, wt), make_ensemble(Y, wy))
            # KL(t, y) = t.log t - t.log y + sum y - sum t, 64 labels at a time.
            wt, wy = wt / wt.sum(), wy / wy.sum()
            log_y, want = np.log(Y), 0.0
            for i in range(0, n, 64):
                t = T[i : i + 64]
                kl = (np.sum(t * np.log(t), axis=1)[:, None] - t @ log_y.T
                      + Y.sum(axis=1)[None, :] - t.sum(axis=1)[:, None])
                want += wt[i : i + 64] @ kl @ wy
            print(got, want)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        got, want = map(float, proc.stdout.split())
        assert got == pytest.approx(want, rel=1e-12)


def _wide(monkeypatch, fn, *args):
    """``fn(*args)`` under a one-float budget, which makes every product wide."""
    with monkeypatch.context() as patch:
        patch.setattr(core, "BLOCK_FLOATS", 1)
        return fn(*args)


def _log_map_mahalanobis():
    return catalog_from_json({"name": "g_mahalanobis", "params": {
        "K": random_spd(np.random.default_rng(8), 3).tolist(), "g": "log",
        "domain": {"dim": 3, "lower": [0.01] * 3, "upper": [10.0] * 3}}})


# (loss, sampler) pairs whose wide expectations the identity must reproduce.
THREE_POINT_CASES = {
    **{f"{name}_d{d}": (partial(make_entry, name, d), partial(sample_points, name))
       for name, dims in GBREGMAN_FAMILIES for d in dims},
    **{f"{name}_simplex": (partial(catalog, name, dim=4, simplex=True), _simplex)
       for name in ("kl", "reverse_kl")},
    "g_mahalanobis_log": (_log_map_mahalanobis, lambda rng, n, d: rng.uniform(0.2, 5.0, (n, d))),
}

REPORT_TERMS = ("expected_loss", "intrinsic_noise", "bias", "variance", "gap")


def assert_reports_close(got, want):
    """Same central points and multipliers; every term within 1e-13 (1 + E)."""
    for field in ("central_label", "central_prediction", "multipliers", "method"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
    scale = 1 + abs(want.expected_loss)
    for term in REPORT_TERMS:
        assert abs(getattr(got, term) - getattr(want, term)) <= 1e-13 * scale, term


class TestThreePointIdentity:
    """g-Bregman expectations wider than one block come from
    E D(T, Y) = E D(T, c) + E D(c, Y) - (E g(T) - g(c)) . (E f(Y) - f(c)),
    within float noise of the support product."""

    @staticmethod
    def assert_close(got, want):
        assert abs(got - want) <= 1e-13 * (1 + abs(want)), (got, want)

    @pytest.mark.parametrize("name", list(THREE_POINT_CASES))
    def test_matches_the_product(self, rng, monkeypatch, name):
        build, sample = THREE_POINT_CASES[name]
        loss = build()
        assert isinstance(loss, GBregmanDivergence)
        for _ in range(20):
            labels = make_ensemble(sample(rng, 6, loss.dim), rng.random(6) + 0.1)
            preds = make_ensemble(sample(rng, 9, loss.dim), rng.random(9) + 0.1)
            c = preds.points[-1]
            assert core.wide_inner_term(loss, labels, preds, c) is None  # one block
            assert _wide(monkeypatch, core.wide_inner_term, loss, labels, preds, c) is not None
            self.assert_close(_wide(monkeypatch, pair_expectation, loss, labels, preds),
                              pair_expectation(loss, labels, preds))
            assert_reports_close(_wide(monkeypatch, decompose, loss, labels, preds),
                                 decompose(loss, labels, preds))

    @pytest.mark.parametrize("scale", [1e4, 1e6])
    def test_large_scale_tight_points(self, monkeypatch, scale):
        # K = scale * I, points 1e-8 apart: f = 2 K y is orders of magnitude
        # larger than its differences from f(c), which are taken before the
        # sums.
        loss = catalog("mahalanobis", K=scale * np.eye(3))
        rng = np.random.default_rng(1)
        for _ in range(50):
            centres = rng.uniform(-5.0, 5.0, (2, 3))
            labels = make_ensemble(centres[0] + 1e-8 * rng.standard_normal((6, 3)), np.ones(6))
            Y = centres[rng.integers(2)] + 1e-8 * rng.standard_normal((9, 3))
            preds = make_ensemble(Y, np.ones(9))
            self.assert_close(_wide(monkeypatch, pair_expectation, loss, labels, preds),
                              pair_expectation(loss, labels, preds))
            assert_reports_close(_wide(monkeypatch, decompose, loss, labels, preds),
                                 decompose(loss, labels, preds))

    def test_caller_arrays_unchanged(self, rng, monkeypatch):
        # The identity map returns its input, so g(t) - g(c) must not be
        # formed in place.
        for name in ("sq_euclidean", "kl", "reverse_kl"):
            loss = catalog(name, dim=3)
            labels = make_ensemble(sample_points(name, rng, 6, 3), np.ones(6))
            preds = make_ensemble(sample_points(name, rng, 9, 3), np.ones(9))
            T0, Y0 = labels.points.copy(), preds.points.copy()
            _wide(monkeypatch, pair_expectation, loss, labels, preds)
            _wide(monkeypatch, decompose, loss, labels, preds)
            assert np.array_equal(labels.points, T0) and np.array_equal(preds.points, Y0)

    def test_kl_labels_sharing_a_zero_coordinate(self, rng, monkeypatch):
        # t* is 0 where every label is, so f(t*) = log t* is not finite; the
        # identity at c = y* never maps t*, and each row is evaluated once:
        # n labels and t* against t* and y*, y* against m predictions.
        kl = catalog("kl", dim=3, simplex=True)
        n, m = 5, 7
        L = np.column_stack([np.zeros(n), _simplex(rng, n, 2)])
        labels = make_ensemble(L, rng.random(n) + 0.1)
        preds = make_ensemble(_simplex(rng, m, 3), rng.random(m) + 0.1)
        whole, pair = decompose(kl, labels, preds), pair_expectation(kl, labels, preds)
        cells = []
        batch = kl.eval_batch

        def counting(T, Y):
            cells.append(np.prod(np.broadcast_shapes(T.shape, Y.shape)[:-1]))
            return batch(T, Y)

        monkeypatch.setattr(kl, "eval_batch", counting)
        wide = _wide(monkeypatch, decompose, kl, labels, preds)
        assert sum(cells) == 2 * n + 2 + m
        assert_reports_close(wide, whole)
        self.assert_close(_wide(monkeypatch, pair_expectation, kl, labels, preds), pair)

    def test_reverse_kl_predictions_sharing_a_zero_coordinate(self, rng, monkeypatch):
        # y* and c are 0 where every prediction is, so g(y*) = log y* is not
        # finite: the identity does not apply and the product gives the
        # one-block bytes.
        rkl = catalog("reverse_kl", dim=3, simplex=True)
        labels = make_ensemble(_simplex(rng, 5, 3), rng.random(5) + 0.1)
        P = np.column_stack([_simplex(rng, 7, 2), np.zeros(7)])
        preds = make_ensemble(P, rng.random(7) + 0.1)
        whole = decompose(rkl, labels, preds)
        wide = _wide(monkeypatch, decompose, rkl, labels, preds)
        assert json.dumps(wide.to_json()) == json.dumps(whole.to_json())
        assert _wide(monkeypatch, core.wide_inner_term, rkl, labels, preds,
                     whole.central_prediction, 2) is None
        assert (repr(_wide(monkeypatch, pair_expectation, rkl, labels, preds))
                == repr(pair_expectation(rkl, labels, preds)))

    def test_non_finite_pair_is_named(self, monkeypatch):
        # log of a prediction's zero leaves the term not finite, so the
        # product names the pair, as kl.eval does.
        kl = catalog("kl", dim=2)
        labels = make_ensemble([[0.2, 0.4], [0.3, 0.3]], [1, 1])
        preds = make_ensemble([[0.0, 0.5], [0.1, 0.3]], [1, 1])
        with pytest.raises(BoundaryError) as caught:
            kl.eval(labels.points[0], preds.points[0])
        monkeypatch.setattr(core, "BLOCK_FLOATS", 1)
        for fn in (pair_expectation, decompose):
            with pytest.raises(BoundaryError) as exc:
                fn(kl, labels, preds)
            assert str(exc.value) == str(caught.value)

    def test_non_finite_pair_without_boundary_check_is_named(self, monkeypatch):
        # A log-map Mahalanobis has no boundary check: the first non-finite
        # pair in row order is named, as in one block.
        loss = _log_map_mahalanobis()
        loss.domain = Domain.box(np.zeros(3), 10.0 * np.ones(3))
        labels = make_ensemble([[1.0, 2.0, 3.0], [0.0, 1.0, 1.0], [2.0, 2.0, 2.0]], np.ones(3))
        preds = make_ensemble([[1.0, 1.0, 1.0], [2.0, 3.0, 1.0]], np.ones(2))
        with pytest.raises(BoundaryError) as caught:
            pair_expectation(loss, labels, preds)
        with pytest.raises(BoundaryError) as exc:
            _wide(monkeypatch, pair_expectation, loss, labels, preds)
        assert str(exc.value) == str(caught.value)
        assert "label=[0. 1. 1.], prediction=[1. 1. 1.]" in str(exc.value)

    def test_derived_dual_runs_no_newton(self, rng, monkeypatch):
        # f = grad A o g is closed form, so a dual derived by Newton
        # inversion takes the identity without inverting anything.
        from bvd import divergences
        from bvd.divergences import Generator

        kl = catalog("kl", dim=3)
        derived = GBregmanDivergence(Generator(kl.gen.value, gradient=np.log), kl.map,
                                     kl.domain, direct_eval=kl.eval_batch)
        assert not derived.dual_is_closed_form
        inversions = []
        newton = divergences.newton_invert
        monkeypatch.setattr(divergences, "newton_invert",
                            lambda *args, **kw: inversions.append(1) or newton(*args, **kw))
        labels = make_ensemble(sample_points("kl", rng, 6, 3), rng.random(6) + 0.1)
        preds = make_ensemble(sample_points("kl", rng, 9, 3), rng.random(9) + 0.1)
        assert _wide(monkeypatch, core.wide_inner_term, derived, labels, preds,
                     preds.points[-1]) is not None
        self.assert_close(_wide(monkeypatch, pair_expectation, derived, labels, preds),
                          pair_expectation(kl, labels, preds))
        assert inversions == []

    @pytest.mark.parametrize("name", ["kl_simplex", "sq_euclidean"])
    def test_wide_answers_match_a_chunked_formula(self, name):
        # d = 1000 with 48 x 80 pairs, wide at the default budget. The
        # reference sums the pairs' direct forms, 8 labels at a time.
        rng = np.random.default_rng(3)
        d, n, m = 1000, 48, 80
        if name == "sq_euclidean":
            loss = catalog("sq_euclidean", dim=d)
            T, Y = rng.uniform(-3, 3, (n, d)), rng.uniform(-3, 3, (m, d))

            def direct(t, y):
                return np.sum((t - y) ** 2, axis=-1)
        else:
            loss = catalog("kl", dim=d, simplex=True)
            T, Y = _simplex(rng, n, d), _simplex(rng, m, d)

            def direct(t, y):
                return np.sum(t * (np.log(t) - np.log(y)) + y - t, axis=-1)
        labels, preds = make_ensemble(T, rng.random(n) + 0.1), make_ensemble(Y, rng.random(m) + 0.1)
        assert n * m * d > core.BLOCK_FLOATS
        lw, pw = labels.weights, preds.weights
        want = sum(lw[i : i + 8] @ direct(T[i : i + 8, None], Y[None]) @ pw for i in range(0, n, 8))
        self.assert_close(pair_expectation(loss, labels, preds), want)
        r = decompose(loss, labels, preds)
        t_star, y_star = r.central_label, r.central_prediction
        self.assert_close(r.expected_loss, want)
        self.assert_close(r.intrinsic_noise, lw @ direct(T, t_star))
        self.assert_close(r.bias, direct(t_star, y_star))
        self.assert_close(r.variance, pw @ direct(y_star, Y))

    def test_answers_do_not_depend_on_the_blas_thread_count(self):
        # The benchmark's wide shapes: KL and reverse KL on the simplex and
        # sq_euclidean at d = 1000, 16 labels and 64 predictions. Then the
        # oracle's lockstep searches: a classifier run on the 3-simplex
        # (null-space candidates) and a generic decomposition. Last,
        # mahalanobis and g_mahalanobis with a random SPD K at d = 300, whose
        # forms and inverse of K would go through BLAS and LAPACK.
        code = textwrap.dedent(
            """
            import json
            import numpy as np
            from bvd import (catalog, catalog_from_json, classify_loss, decompose,
                             decompose_generic, make_ensemble)
            from bvd.core import pair_expectation

            rng = np.random.default_rng(0)
            d, n, m = 1000, 16, 64
            for name in ("kl", "reverse_kl", "sq_euclidean"):
                if name == "sq_euclidean":
                    loss = catalog(name, dim=d)
                    T, Y = rng.uniform(-3, 3, (n, d)), rng.uniform(-3, 3, (m, d))
                else:
                    loss = catalog(name, dim=d, simplex=True)
                    T, Y = rng.dirichlet(np.full(d, 2.0), n), rng.dirichlet(np.full(d, 2.0), m)
                labels = make_ensemble(T, rng.random(n) + 0.1)
                preds = make_ensemble(Y, rng.random(m) + 0.1)
                print(json.dumps(decompose(loss, labels, preds).to_json()))
            print(repr(pair_expectation(loss, labels, preds)))
            print(json.dumps(classify_loss(catalog("kl", dim=3, simplex=True)).to_json()))
            loss = catalog("minkowski", epsilon=1.5, dim=2)
            labels = make_ensemble(rng.uniform(-3, 3, (5, 2)), rng.random(5) + 0.1)
            preds = make_ensemble(rng.uniform(-3, 3, (6, 2)), rng.random(6) + 0.1)
            print(json.dumps(decompose_generic(loss, labels, preds).to_json()))
            d, n, m = 300, 16, 64
            A = rng.standard_normal((d, d))
            K = np.einsum("ki,kj->ij", A, A) / d + np.eye(d)  # SPD, built without BLAS
            g_maha = catalog_from_json({"name": "g_mahalanobis", "params": {
                "g": "log", "K": K.tolist(),
                "domain": {"dim": d, "lower": [0.01] * d, "upper": [10.0] * d}}})
            for loss, lo, hi in ((catalog("mahalanobis", K=K), -3, 3), (g_maha, 0.2, 5.0)):
                for _ in range(5):
                    labels = make_ensemble(rng.uniform(lo, hi, (n, d)), rng.random(n) + 0.1)
                    preds = make_ensemble(rng.uniform(lo, hi, (m, d)), rng.random(m) + 0.1)
                    print(json.dumps(decompose(loss, labels, preds).to_json()))
            """
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
