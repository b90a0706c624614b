"""Tests for ensembles, domains, and pair/side expectations."""

import dataclasses
import json
import subprocess
import sys
import textwrap
from functools import partial

import numpy as np
import pytest

from bvd import BoundaryError, CallableLoss, Domain, WeightedEnsemble, core, decompose, make_ensemble
from bvd import CentroidResult, DecompositionReport, SeparabilityVerdict
from bvd.uniqueness import ClassificationResult
from bvd.core import pair_expectation, side_expectation
from bvd.divergences import catalog, catalog_from_json

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
        # The one combined mask equals one reduction per bound.
        tol = core.FEASIBILITY_TOL
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
        got = domain.feasible(Y)
        assert got.tolist() == want.tolist()
        assert got.any() and not got.all()
        assert domain.feasible(Y.reshape(len(values), len(values), 2)).tolist() == (
            want.reshape(len(values), len(values)).tolist())

    def test_rank_deficient_constraints_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            Domain(2, eq_lhs=[[1, 1], [2, 2]], eq_rhs=[1, 2])

    def test_too_many_constraints_rejected(self):
        with pytest.raises(ValueError):
            Domain(2, eq_lhs=[[1, 0], [0, 1], [1, 1]], eq_rhs=[1, 1, 1])

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
        # A loss with no _check_boundary names the first pair in row order.
        loss = CallableLoss(1, Domain.box([0.0], [2.0]),
                            lambda T, Y: np.where(T[..., 0] + Y[..., 0] >= 2.5, np.inf, 0.0))
        labels = make_ensemble([[0.5], [1.5], [2.0]], [1, 1, 1])
        preds = make_ensemble([[0.5], [1.25]], [1, 1])
        with pytest.raises(BoundaryError, match=r"label=\[1.5\], prediction=\[1.25\]"):
            pair_expectation(loss, labels, preds)
        # Only the used cells must be finite. A block evaluates the columns
        # its used cells span (here one block of all three rows), a block
        # without used cells none.
        used = np.array([[1, 0], [0, 0], [0, 1]], dtype=bool)
        with pytest.raises(BoundaryError, match=r"label=\[2.\], prediction=\[1.25\]"):
            core.support_product(loss, labels.points, preds.points, used)
        used[2, 1] = False
        values = core.support_product(loss, labels.points, preds.points, used)
        np.testing.assert_array_equal(values, [[0.0, np.nan], [0.0, np.nan], [np.inf, np.nan]])
        monkeypatch.setattr(core, "BLOCK_FLOATS", 2)  # one-row blocks
        values = core.support_product(loss, labels.points, preds.points, used)
        np.testing.assert_array_equal(values, [[0.0, np.nan], [np.nan, np.nan], [np.nan, np.nan]])

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
        # Blocks of 4 and 2 label rows: each label is still mapped once, the
        # predictions once per block.
        mapped.clear()
        monkeypatch.setattr(core, "BLOCK_FLOATS", 4 * 8 * 3)
        pair_expectation(loss, labels, preds)
        assert sum(mapped) == (6 + 2 * 8) * 3

    def test_kl_pair_peak_memory(self, rng):
        """The KL kernel holds at most two and a half blocks of
        ``BLOCK_FLOATS`` floats at once: logs per point, one buffer reused
        in place and ``Y - T``; the (nt, ny) matrices are small here."""
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

        # One-row blocks, then blocks of 3, 3 and 1 rows.
        for rows, sizes in ((1, [1] * nt), (3, [3, 3, 1])):
            monkeypatch.setattr(core, "BLOCK_FLOATS", rows * ny * d)
            calls.clear()
            monkeypatch.setattr(loss, "eval_batch", counting)
            assert repr(pair_expectation(loss, labels, preds)) == whole
            assert calls == sizes
            monkeypatch.setattr(loss, "eval_batch", batch)
            assert json.dumps(decompose(loss, labels, preds).to_json()) == report

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
