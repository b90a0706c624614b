"""Tests for ensembles, domains, and pair/side expectations."""

import json

import numpy as np
import pytest

from bvd import Domain, WeightedEnsemble, make_ensemble
from bvd.core import pair_expectation, side_expectation
from bvd.divergences import catalog


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
        assert side_expectation(loss, x, ens, "first_arg") == pytest.approx(direct)

    def test_pair_dimension_mismatch_is_named(self, rng):
        loss = catalog("kl", dim=3)
        labels = make_ensemble(rng.uniform(0.1, 0.9, (4, 1)), np.ones(4))
        preds = make_ensemble(rng.uniform(0.1, 0.9, (5, 3)), np.ones(5))
        with pytest.raises(ValueError, match="label dimension: expected 3 .* got 1"):
            pair_expectation(loss, labels, preds)
        with pytest.raises(ValueError, match="prediction dimension: expected 3 .* got 1"):
            pair_expectation(loss, preds, labels)

    def test_side_dimension_mismatch_is_named(self, rng):
        loss = catalog("kl", dim=3)
        ens = make_ensemble(rng.uniform(0.1, 0.9, (5, 3)), np.ones(5))
        for side in ("first_arg", "second_arg"):
            with pytest.raises(ValueError, match="point dimension: expected 3 .* got 1"):
                side_expectation(loss, np.array([0.5]), ens, side)

    def test_each_support_point_mapped_once(self, rng):
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

    def test_kl_pair_peak_memory(self, rng):
        """The KL kernel holds at most two and a half full (nt, ny, d)
        arrays at once: logs per point, one temporary reused for the sum."""
        import tracemalloc

        d, nt, ny = 1000, 16, 64
        loss = catalog("kl", dim=d, simplex=True)
        labels = make_ensemble(rng.dirichlet(np.ones(d), nt), np.ones(nt))
        preds = make_ensemble(rng.dirichlet(np.ones(d), ny), np.ones(ny))
        tracemalloc.start()
        try:
            pair_expectation(loss, labels, preds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * nt * ny * d * 8
