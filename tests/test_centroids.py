"""Tests for closed-form, constrained, and brute-force centroids."""

import numpy as np
import pytest

from bvd import Domain, InfeasibleMeanError, catalog, make_ensemble
from bvd.centroids import (
    brute_force_centroid,
    central_label,
    central_prediction,
    constrained_central_label,
    constrained_central_prediction,
    f_mean_prediction,
    g_mean_label,
    power_mean_centroids,
)
from bvd.divergences import GBregmanDivergence

from conftest import make_entry, sample_ensemble, sample_simplex_ensemble


class TestGMeanLabel:
    def test_sq_euclidean_is_arithmetic_mean(self):
        div = catalog("sq_euclidean", dim=1)
        labels = make_ensemble([[0.0], [2.0]], [1, 1])
        res = g_mean_label(div, labels)
        np.testing.assert_allclose(res.point, [1.0])
        assert res.method == "closed_form"

    def test_gaussian_averages_natural_parameters(self):
        div = catalog("gaussian_canonical")
        labels = make_ensemble([[0.0, 1.0], [2.0, 3.0]], [1, 1])
        res = g_mean_label(div, labels)
        np.testing.assert_allclose(res.point, [0.5, 1.5], rtol=1e-12)
        # Independent check: numerical minimization of the noise objective.
        oracle = brute_force_centroid(div, labels, "second_arg")
        np.testing.assert_allclose(res.point, oracle.point, atol=1e-5)

    def test_single_label_is_fixed_point(self, rng):
        for name in ("kl", "gaussian_canonical", "sq_euclidean"):
            d = 2
            div = make_entry(name, d, rng)
            labels = sample_ensemble(name, rng, 1, d)
            res = g_mean_label(div, labels)
            np.testing.assert_allclose(res.point, labels.points[0], rtol=1e-9, atol=1e-12)
            assert res.objective <= 1e-12


class TestFMeanPrediction:
    def test_kl_is_geometric_mean(self):
        div = catalog("kl", dim=2)
        preds = make_ensemble([[0.2, 0.8], [0.8, 0.2]], [1, 1])
        res = f_mean_prediction(div, preds)
        np.testing.assert_allclose(res.point, [0.4, 0.4], rtol=1e-12)
        oracle = brute_force_centroid(div, preds, "first_arg")
        np.testing.assert_allclose(res.point, oracle.point, atol=1e-5)

    def test_reverse_kl_is_arithmetic_mean(self):
        div = catalog("reverse_kl", dim=2)
        preds = make_ensemble([[0.2, 0.8], [0.8, 0.2]], [1, 1])
        res = f_mean_prediction(div, preds)
        np.testing.assert_allclose(res.point, [0.5, 0.5], rtol=1e-12)

    def test_gaussian_averages_moments(self):
        div = catalog("gaussian_canonical")
        preds = make_ensemble([[0.0, 1.0], [2.0, 1.0]], [1, 1])
        res = f_mean_prediction(div, preds)
        np.testing.assert_allclose(res.point, [1.0, 2.0], rtol=1e-12)
        oracle = brute_force_centroid(div, preds, "first_arg")
        np.testing.assert_allclose(res.point, oracle.point, atol=1e-5)

    def test_infeasible_mean_raises(self):
        # Moment averaging pushes the variance above the box: m^2 spread
        # of +-2.2 plus variance 2.4 exceeds var_max = 5.
        div = catalog("gaussian_canonical")
        preds = make_ensemble([[-2.2, 2.4], [2.2, 2.4]], [1, 1])
        with pytest.raises(InfeasibleMeanError, match="constrained"):
            f_mean_prediction(div, preds)


class TestConstrainedCentroids:
    def test_kl_simplex_geometric_mean_normalized(self):
        div = catalog("kl", dim=2, simplex=True)
        preds = make_ensemble([[0.2, 0.8], [0.8, 0.2]], [1, 1])
        res = constrained_central_prediction(div, preds)
        np.testing.assert_allclose(res.point, [0.5, 0.5], atol=1e-10)
        assert res.multipliers[0] == pytest.approx(-np.log(0.8), rel=1e-9)
        assert res.method == "lagrange"

    def test_kl_simplex_uneven_ensemble(self):
        div = catalog("kl", dim=2, simplex=True)
        preds = make_ensemble([[0.2, 0.8], [0.5, 0.5]], [1, 1])
        res = constrained_central_prediction(div, preds)
        np.testing.assert_allclose(res.point, [1 / 3, 2 / 3], atol=1e-10)
        # Closed form: normalized geometric means sqrt(0.1), sqrt(0.4).
        z = np.sqrt(0.1) + np.sqrt(0.4)
        np.testing.assert_allclose(res.point, [np.sqrt(0.1) / z, np.sqrt(0.4) / z],
                                   atol=1e-12)
        oracle = brute_force_centroid(div, preds, "first_arg")
        np.testing.assert_allclose(res.point, oracle.point, atol=1e-5)

    def test_single_prediction_zero_multiplier(self):
        div = catalog("kl", dim=2, simplex=True)
        preds = make_ensemble([[0.3, 0.7]], [1])
        res = constrained_central_prediction(div, preds)
        np.testing.assert_allclose(res.point, [0.3, 0.7], atol=1e-12)
        np.testing.assert_allclose(res.multipliers, [0.0], atol=1e-12)

    def test_reverse_kl_constrained_label(self):
        div = catalog("reverse_kl", dim=2, simplex=True)
        labels = make_ensemble([[0.2, 0.8], [0.8, 0.2]], [1, 1])
        res = constrained_central_label(div, labels)
        np.testing.assert_allclose(res.point, [0.5, 0.5], atol=1e-10)
        oracle = brute_force_centroid(div, labels, "second_arg")
        np.testing.assert_allclose(res.point, oracle.point, atol=1e-5)

    def test_reverse_kl_constrained_label_uneven(self):
        div = catalog("reverse_kl", dim=2, simplex=True)
        labels = make_ensemble([[0.2, 0.8], [0.5, 0.5]], [1, 1])
        res = constrained_central_label(div, labels)
        np.testing.assert_allclose(res.point, [1 / 3, 2 / 3], atol=1e-10)

    def test_reverse_kl_label_with_shared_zero_coordinate(self):
        # 0 log 0 = 0: labels that all vanish in one coordinate keep a
        # finite objective, with the label at zero there.
        div = catalog("reverse_kl", dim=3, simplex=True)
        labels = make_ensemble([[0.0, 0.5, 0.5], [0.0, 0.2, 0.8]], [1, 1])
        res = constrained_central_label(div, labels)
        np.testing.assert_allclose(res.point, [0.0, 1 / 3, 2 / 3], atol=1e-12)
        # Normalized geometric mean: the objective is -log(sqrt(0.1) + sqrt(0.4)).
        assert res.objective == pytest.approx(-np.log(np.sqrt(0.1) + np.sqrt(0.4)), rel=1e-9)

    def test_single_label_fixed_point(self):
        div = catalog("reverse_kl", dim=2, simplex=True)
        labels = make_ensemble([[0.4, 0.6]], [1])
        res = constrained_central_label(div, labels)
        np.testing.assert_allclose(res.point, [0.4, 0.6], atol=1e-12)

    def test_multiplier_consistency(self, rng):
        # f(y*) - E f(Y) must equal W^T lam.
        div = catalog("kl", dim=3, simplex=True)
        _, f = div.dual_pair()
        for _ in range(10):
            preds = sample_simplex_ensemble(rng, 4, 3)
            res = constrained_central_prediction(div, preds)
            mean_f = preds.weights @ f.forward(preds.points)
            lhs = f.forward(res.point) - mean_f
            rhs = div.domain.eq_lhs.T @ res.multipliers
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_lagrange_matches_brute_force_in_3d(self, rng):
        div = catalog("kl", dim=3, simplex=True)
        for _ in range(5):
            preds = sample_simplex_ensemble(rng, 4, 3)
            res = constrained_central_prediction(div, preds)
            oracle = brute_force_centroid(div, preds, "first_arg")
            np.testing.assert_allclose(res.point, oracle.point, atol=1e-5)
            # Closed form: normalized geometric means.
            gm = np.exp(preds.weights @ np.log(preds.points))
            np.testing.assert_allclose(res.point, gm / gm.sum(), atol=1e-9)

    def test_wide_simplex_normalized_geometric_mean(self, rng):
        # KL central prediction and reverse KL central label on the
        # 1000-class simplex are both the normalized geometric mean.
        d = 1000
        points = rng.dirichlet(np.ones(d), size=8)
        ens = make_ensemble(points, rng.random(8) + 0.1)
        gm = np.exp(ens.weights @ np.log(points))
        expected = gm / gm.sum()
        pred = central_prediction(catalog("kl", dim=d, simplex=True), ens)
        label = central_label(catalog("reverse_kl", dim=d, simplex=True), ens)
        for res in (pred, label):
            assert res.method == "lagrange"
            np.testing.assert_allclose(res.point, expected, rtol=1e-9, atol=0)

    def test_newton_derived_dual_map(self, rng):
        # Without a closed-form dual, the Lagrange solve runs on the dual map
        # that Newton inversion derives, and must find the same centroid.
        kl = catalog("kl", dim=3, simplex=True)
        stripped = GBregmanDivergence(
            gen=kl.gen, mapping=kl.map, domain=kl.domain, name="kl_stripped"
        )
        for _ in range(3):
            preds = sample_simplex_ensemble(rng, 4, 3)
            res = central_prediction(stripped, preds)
            ref = central_prediction(kl, preds)
            assert res.method == ref.method == "lagrange"
            np.testing.assert_allclose(res.point, ref.point, rtol=1e-9, atol=0)

    def test_non_identity_map_rejected(self):
        div = catalog("alpha", alpha=0.5, dim=2, simplex=True)
        preds = make_ensemble([[0.2, 0.8], [0.8, 0.2]], [1, 1])
        with pytest.raises(ValueError, match="identity"):
            constrained_central_prediction(div, preds)
        with pytest.raises(ValueError, match="identity"):
            constrained_central_label(div, preds)


class TestDispatcher:
    LABELS = ([[0.5, 0.5], [0.3, 0.7]], [1, 1])
    PREDS = ([[0.2, 0.8], [0.5, 0.5]], [1, 1])

    def test_reverse_kl_simplex_prediction_is_closed_form_mean(self):
        # Identity dual map: the arithmetic mean is feasible on the simplex.
        div = catalog("reverse_kl", dim=2, simplex=True)
        res = central_prediction(div, make_ensemble(*self.PREDS))
        assert res.method == "closed_form"
        np.testing.assert_allclose(res.point, [0.35, 0.65], rtol=0, atol=1e-15)

    def test_lagrange_sides_on_the_simplex(self):
        kl = catalog("kl", dim=2, simplex=True)
        rkl = catalog("reverse_kl", dim=2, simplex=True)
        pred = central_prediction(kl, make_ensemble(*self.PREDS))
        label = central_label(rkl, make_ensemble(*self.PREDS))
        assert pred.method == label.method == "lagrange"
        # Duality: both are the normalized geometric mean of the same points.
        np.testing.assert_allclose(label.point, pred.point, rtol=0, atol=1e-15)
        np.testing.assert_allclose(label.multipliers, pred.multipliers, atol=1e-15)

    def test_oracle_for_general_maps_and_plain_losses(self):
        alpha = catalog("alpha", alpha=0.5, dim=2, simplex=True)
        l1 = catalog("l1", dim=1)
        assert central_label(alpha, make_ensemble(*self.LABELS)).method == "brute_force"
        assert central_prediction(l1, make_ensemble([[0.0], [1.0]], [1, 2])).method \
            == "brute_force"


class TestBruteForce:
    def test_l1_weighted_median(self):
        loss = catalog("l1", dim=1)
        preds = make_ensemble([[0.0], [1.0]], [1, 2])
        res = brute_force_centroid(loss, preds, "first_arg")
        assert res.point[0] == 1.0
        assert res.objective == pytest.approx(1 / 3, rel=1e-12)
        assert not res.non_unique

    def test_sq_error_mean(self):
        loss = catalog("sq_euclidean", dim=1)
        preds = make_ensemble([[0.0], [2.0]], [1, 1])
        res = brute_force_centroid(loss, preds, "first_arg")
        assert res.point[0] == pytest.approx(1.0, abs=1e-7)

    def test_alpha_power_mean_on_simplex(self):
        div = catalog("alpha", alpha=0.5, dim=2, simplex=True)
        preds = make_ensemble([[0.2, 0.8], [0.8, 0.2]], [1, 1])
        res = brute_force_centroid(div, preds, "first_arg")
        np.testing.assert_allclose(res.point, [0.5, 0.5], atol=1e-6)
        closed = power_mean_centroids(div, preds, "first_arg")
        np.testing.assert_allclose(res.point, closed.point, atol=1e-5)

    def test_flat_l1_flagged_non_unique(self):
        loss = catalog("l1", dim=1)
        preds = make_ensemble([[0.0], [1.0]], [1, 1])
        res = brute_force_centroid(loss, preds, "first_arg")
        assert res.non_unique
        assert res.point[0] == pytest.approx(0.0, abs=1e-9)
        assert res.objective == pytest.approx(0.5, rel=1e-12)

    def test_unique_minimizers_not_flagged(self, rng):
        # Restarting from scattered grid points never discovers a second
        # distinct minimizer for any divergence family.
        for name in ("kl", "sq_euclidean", "reverse_kl", "alpha",
                     "gaussian_canonical", "bernoulli_kl", "mahalanobis"):
            d = 2 if name not in ("bernoulli_kl",) else 1
            div = make_entry(name, d, rng)
            ens = sample_ensemble(name, rng, 4, d)
            res = brute_force_centroid(div, ens, "first_arg")
            assert not res.non_unique, name

    def test_unbounded_domain_rejected(self):
        loss = catalog("sq_euclidean", dim=1)
        with pytest.raises(ValueError, match="bounded"):
            brute_force_centroid(loss, make_ensemble([[0.0]], [1]), "first_arg",
                                 domain=Domain(1))

    def test_bad_side_rejected(self):
        loss = catalog("sq_euclidean", dim=1)
        with pytest.raises(ValueError, match="side"):
            brute_force_centroid(loss, make_ensemble([[0.0]], [1]), "both")


class TestOracleEquivalence:
    # The full 100-instance sweep runs in the acceptance suite; this is a
    # faster smoke version over every family.
    def test_closed_form_matches_brute_force(self, rng):
        cases = [
            ("sq_euclidean", 2),
            ("mahalanobis", 2),
            ("kl", 2),
            ("reverse_kl", 3),
            ("alpha", 2),
            ("gaussian_canonical", 2),
            ("bernoulli_kl", 1),
        ]
        for name, d in cases:
            div = make_entry(name, d, rng)
            for _ in range(3):
                preds = sample_ensemble(name, rng, int(rng.integers(2, 7)), d)
                closed = f_mean_prediction(div, preds)
                oracle = brute_force_centroid(div, preds, "first_arg")
                np.testing.assert_allclose(
                    closed.point, oracle.point, atol=1e-5, err_msg=name
                )
                # The oracle's objective must essentially attain the minimum.
                assert oracle.objective <= closed.objective + 1e-8 * (
                    1 + abs(closed.objective)
                ), name
                labels = sample_ensemble(name, rng, int(rng.integers(2, 7)), d)
                closed = g_mean_label(div, labels)
                oracle = brute_force_centroid(div, labels, "second_arg")
                np.testing.assert_allclose(
                    closed.point, oracle.point, atol=1e-5, err_msg=name
                )


class TestPowerMeans:
    def test_symmetric_case(self):
        div = catalog("alpha", alpha=0.5, dim=2, simplex=True)
        preds = make_ensemble([[0.2, 0.8], [0.8, 0.2]], [1, 1])
        res = power_mean_centroids(div, preds, "first_arg")
        np.testing.assert_allclose(res.point, [0.5, 0.5], rtol=1e-12)

    def test_formula_values(self):
        div = catalog("alpha", alpha=0.5, dim=2, simplex=True)
        preds = make_ensemble([[0.2, 0.8], [0.5, 0.5]], [1, 1])
        res = power_mean_centroids(div, preds, "first_arg")
        q = np.array(
            [
                ((np.sqrt(0.2) + np.sqrt(0.5)) / 2) ** 2,
                ((np.sqrt(0.8) + np.sqrt(0.5)) / 2) ** 2,
            ]
        )
        np.testing.assert_allclose(res.point, q / q.sum(), rtol=1e-12)
        oracle = brute_force_centroid(div, preds, "first_arg")
        np.testing.assert_allclose(res.point, oracle.point, atol=1e-5)

    def test_label_side_uses_alpha_exponent(self, rng):
        div = catalog("alpha", alpha=0.3, dim=3, simplex=True)
        labels = sample_simplex_ensemble(rng, 4, 3)
        res = power_mean_centroids(div, labels, "second_arg")
        q = (labels.weights @ labels.points**0.3) ** (1 / 0.3)
        np.testing.assert_allclose(res.point, q / q.sum(), rtol=1e-12)
        oracle = brute_force_centroid(div, labels, "second_arg")
        np.testing.assert_allclose(res.point, oracle.point, atol=1e-5)

    def test_single_point(self):
        div = catalog("alpha", alpha=0.5, dim=2, simplex=True)
        preds = make_ensemble([[0.3, 0.7]], [1])
        res = power_mean_centroids(div, preds, "first_arg")
        np.testing.assert_allclose(res.point, [0.3, 0.7], rtol=1e-12)

    def test_wrong_divergence_rejected(self):
        div = catalog("kl", dim=2, simplex=True)
        with pytest.raises(ValueError, match="alpha"):
            power_mean_centroids(div, make_ensemble([[0.5, 0.5]], [1]), "first_arg")


class TestCentroidJson:
    def test_round_trip_fields(self):
        div = catalog("kl", dim=2, simplex=True)
        preds = make_ensemble([[0.2, 0.8], [0.8, 0.2]], [1, 1])
        res = constrained_central_prediction(div, preds)
        obj = res.to_json()
        assert set(obj) == {"point", "multipliers", "objective", "method", "non_unique"}
        assert obj["method"] == "lagrange"
        assert obj["non_unique"] is False
