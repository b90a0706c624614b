"""Tests for the bias-variance decomposition reports."""

import numpy as np
import pytest

from bvd import Domain, catalog, make_ensemble
from bvd.core import pair_expectation
from bvd.centroids import power_mean_centroids
from bvd.divergences import _log_mapping, make_g_mahalanobis
from bvd.decomposition import (
    decompose,
    decompose_constrained_bregman,
    decompose_gbregman,
    decompose_generic,
    exp_family_loglik_decompose,
    gaussian_log_partition,
    gaussian_sufficient_stat,
    ordering_violation_gap,
)

from conftest import (
    GBREGMAN_FAMILIES,
    make_entry,
    sample_ensemble,
    sample_simplex_ensemble,
)

# Frozen witness: alpha(0.5) on the simplex with power-mean centroids
# leaves a gap of about -8.7e-3. Found by seeded random search
# (numpy default_rng(20240817) over simplex ensembles), then simplified by
# hand; the test recomputes every term from scratch.
ALPHA_WITNESS_LABELS = ([[0.2, 0.8], [0.8, 0.2]], [1, 3])
ALPHA_WITNESS_PREDS = ([[0.9, 0.1], [0.3, 0.7]], [1, 1])


class TestGenericFixtures:
    def test_squared_error_symmetric_predictions(self):
        loss = catalog("sq_euclidean", dim=1)
        labels = make_ensemble([[0.0]], [1])
        preds = make_ensemble([[-1.0], [1.0]], [1, 1])
        r = decompose_generic(loss, labels, preds)
        assert r.intrinsic_noise == pytest.approx(0.0, abs=1e-10)
        assert r.bias == pytest.approx(0.0, abs=1e-10)
        assert r.variance == pytest.approx(1.0, rel=1e-8)
        assert r.gap == pytest.approx(0.0, abs=1e-8)

    def test_l1_gap_is_minus_two_thirds(self):
        loss = catalog("l1", dim=1)
        labels = make_ensemble([[0.0]], [1])
        preds = make_ensemble([[0.0], [1.0]], [1, 2])
        r = decompose_generic(loss, labels, preds)
        assert r.expected_loss == pytest.approx(2 / 3, rel=1e-13)
        assert r.central_prediction[0] == 1.0
        assert r.bias == pytest.approx(1.0, abs=1e-13)
        assert r.variance == pytest.approx(1 / 3, rel=1e-13)
        assert r.gap == pytest.approx(-2 / 3, abs=1e-12)

    def test_point_masses_give_all_zero(self, rng):
        for name in ("l1", "sq_euclidean"):
            loss = catalog(name, dim=2)
            t = rng.uniform(-1, 1, 2)
            labels = make_ensemble([t], [1])
            r = decompose_generic(loss, labels, labels)
            for term in (r.expected_loss, r.intrinsic_noise, r.bias, r.variance):
                assert term == pytest.approx(0.0, abs=1e-9)


class TestClosedFormFixtures:
    def test_sq_euclidean_two_by_two(self):
        # Direct evaluation oracle: with labels {(0,0),(2,2)} and preds
        # {(1,1),(3,3)} (equal weights), t* = (1,1), y* = (2,2);
        # E|T-t*|^2 = 2, |t*-y*|^2 = 2, E|y*-Y|^2 = 2, total 6.
        div = catalog("sq_euclidean", dim=2)
        labels = make_ensemble([[0, 0], [2, 2]], [1, 1])
        preds = make_ensemble([[1, 1], [3, 3]], [1, 1])
        r = decompose_gbregman(div, labels, preds)
        assert r.expected_loss == pytest.approx(6.0, rel=1e-13)
        assert r.intrinsic_noise == pytest.approx(2.0, rel=1e-13)
        assert r.bias == pytest.approx(2.0, rel=1e-13)
        assert r.variance == pytest.approx(2.0, rel=1e-13)
        assert abs(r.gap) < 1e-12

    def test_kl_box_geometric_mean(self):
        div = catalog("kl", dim=2)
        labels = make_ensemble([[0.5, 0.5]], [1])
        preds = make_ensemble([[0.2, 0.8], [0.8, 0.2]], [1, 1])
        r = decompose_gbregman(div, labels, preds)
        np.testing.assert_allclose(r.central_prediction, [0.4, 0.4], rtol=1e-12)
        assert r.intrinsic_noise == pytest.approx(0.0, abs=1e-14)
        assert r.bias == pytest.approx(div.eval([0.5, 0.5], [0.4, 0.4]), rel=1e-12)
        assert r.variance == pytest.approx(0.2, rel=1e-12)
        assert abs(r.gap) < 1e-9
        oracle = decompose_generic(div, labels, preds)
        assert r.bias == pytest.approx(oracle.bias, abs=1e-5)
        assert r.variance == pytest.approx(oracle.variance, abs=1e-5)

    def test_identical_point_masses(self):
        div = catalog("kl", dim=2)
        ens = make_ensemble([[0.3, 0.7]], [1])
        r = decompose_gbregman(div, ens, ens)
        for term in (r.expected_loss, r.intrinsic_noise, r.bias, r.variance, r.gap):
            assert term == pytest.approx(0.0, abs=1e-13)

    def test_constraint_domain_forwards_to_decompose(self):
        div = catalog("kl", dim=2, simplex=True)
        labels = make_ensemble([[0.5, 0.5]], [1])
        preds = make_ensemble([[0.2, 0.8], [0.8, 0.2]], [1, 1])
        r = decompose_gbregman(div, labels, preds)
        assert r.method == "lagrange"
        assert r.to_json() == decompose(div, labels, preds).to_json()


class TestConstrainedFixtures:
    def test_kl_simplex_log_partition_variance(self):
        div = catalog("kl", dim=2, simplex=True)
        labels = make_ensemble([[0.5, 0.5]], [1])
        preds = make_ensemble([[0.2, 0.8], [0.8, 0.2]], [1, 1])
        r = decompose_constrained_bregman(div, labels, preds)
        np.testing.assert_allclose(r.central_prediction, [0.5, 0.5], atol=1e-10)
        assert r.intrinsic_noise == pytest.approx(0.0, abs=1e-14)
        assert r.bias == pytest.approx(0.0, abs=1e-12)
        assert r.variance == pytest.approx(-np.log(0.8), rel=1e-9)
        assert r.expected_loss == pytest.approx(-np.log(0.8), rel=1e-12)
        assert abs(r.gap) < 1e-12
        assert r.multipliers[0] == pytest.approx(-np.log(0.8), rel=1e-9)

    def test_single_prediction_zero_variance(self):
        div = catalog("kl", dim=2, simplex=True)
        labels = make_ensemble([[0.4, 0.6]], [1])
        preds = make_ensemble([[0.25, 0.75]], [1])
        r = decompose_constrained_bregman(div, labels, preds)
        assert r.variance == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(r.multipliers, [0.0], atol=1e-12)

    def test_reverse_kl_mirror(self):
        div = catalog("reverse_kl", dim=2, simplex=True)
        labels = make_ensemble([[0.2, 0.8], [0.8, 0.2]], [1, 1])
        preds = make_ensemble([[0.5, 0.5]], [1])
        r = decompose_constrained_bregman(div, labels, preds)
        assert r.intrinsic_noise == pytest.approx(-np.log(0.8), rel=1e-9)
        assert r.bias == pytest.approx(0.0, abs=1e-12)
        assert r.variance == pytest.approx(0.0, abs=1e-12)
        assert abs(r.gap) < 1e-12

    def test_unconstrained_domain_forwards_to_decompose(self):
        div = catalog("kl", dim=2)
        labels = make_ensemble([[0.5, 0.5]], [1])
        preds = make_ensemble([[0.2, 0.8], [0.8, 0.2]], [1, 1])
        r = decompose_constrained_bregman(div, labels, preds)
        assert r.method == "closed_form"
        assert r.to_json() == decompose(div, labels, preds).to_json()

    def test_general_map_falls_back_with_warning(self):
        # A log map on the simplex: neither map is the identity and no
        # exact solver applies.
        div = make_g_mahalanobis(_log_mapping(), np.eye(2), Domain.simplex(2))
        labels = make_ensemble([[0.5, 0.5]], [1])
        preds = make_ensemble([[0.2, 0.8], [0.8, 0.2]], [1, 1])
        with pytest.warns(UserWarning, match="brute-force"):
            r = decompose_constrained_bregman(div, labels, preds)
        assert r.method == "brute_force"


class TestArgumentOrdering:
    LABELS = ([[0.3, 0.7]], [1])
    PREDS = ([[0.2, 0.8], [0.6, 0.4]], [1, 1])

    def test_kl_swapped_bias_breaks_additivity(self):
        div = catalog("kl", dim=2)
        labels = make_ensemble(*self.LABELS)
        preds = make_ensemble(*self.PREDS)
        gap = ordering_violation_gap(div, labels, preds, swap=("bias",))
        assert abs(gap) > 1e-6

    def test_symmetric_losses_indifferent_to_any_swap(self, rng):
        labels = make_ensemble(rng.uniform(-2, 2, (3, 2)), rng.random(3) + 0.1)
        preds = make_ensemble(rng.uniform(-2, 2, (4, 2)), rng.random(4) + 0.1)
        swaps = [("noise",), ("bias",), ("variance",), ("noise", "bias"),
                 ("noise", "bias", "variance")]
        for div in (
            catalog("mahalanobis", K=np.array([[2.0, 0.3], [0.3, 1.0]])),
            catalog("sq_euclidean", dim=2),
        ):
            for swap in swaps:
                gap = ordering_violation_gap(div, labels, preds, swap=swap)
                assert abs(gap) < 1e-12, (div.name, swap)

    def test_identity_permutation_matches_decomposition_gap(self):
        div = catalog("kl", dim=2)
        labels = make_ensemble(*self.LABELS)
        preds = make_ensemble(*self.PREDS)
        gap = ordering_violation_gap(div, labels, preds)
        report = decompose_gbregman(div, labels, preds)
        assert gap == pytest.approx(report.gap, abs=1e-12)
        assert abs(gap) < 1e-9

    @pytest.mark.parametrize("name", ["kl", "reverse_kl"])
    def test_simplex_identity_permutation_matches_decomposition_gap(self, rng, name):
        # On the simplex the centroids come from the dispatcher's Lagrange
        # solve; the unconstrained closed forms are infeasible there.
        div = catalog(name, dim=3, simplex=True)
        labels = sample_simplex_ensemble(rng, 4, 3)
        preds = sample_simplex_ensemble(rng, 5, 3)
        report = decompose(div, labels, preds)
        gap = ordering_violation_gap(div, labels, preds)
        assert abs(gap - report.gap) <= 1e-9 * (1 + report.expected_loss)
        assert abs(ordering_violation_gap(div, labels, preds, swap=("bias",))) > 1e-6

    def test_unknown_term_rejected(self):
        div = catalog("kl", dim=2)
        ens = make_ensemble([[0.5, 0.5]], [1])
        with pytest.raises(ValueError, match="unknown"):
            ordering_violation_gap(div, ens, ens, swap=("skew",))


class TestAdditivityProperties:
    def test_clean_additivity_without_constraints(self, rng):
        # Smaller version of the acceptance sweep: every family, random
        # ensembles, gap at float-noise level.
        for name in ("sq_euclidean", "mahalanobis", "kl", "reverse_kl", "alpha",
                      "gaussian_canonical", "bernoulli_kl"):
            d = 2 if name in ("mahalanobis", "gaussian_canonical") else (
                1 if name == "bernoulli_kl" else 3)
            div = make_entry(name, d, rng)
            for _ in range(40):
                labels = sample_ensemble(name, rng, int(rng.integers(1, 8)), d)
                preds = sample_ensemble(name, rng, int(rng.integers(1, 8)), d)
                r = decompose_gbregman(div, labels, preds)
                assert abs(r.gap) <= 1e-9 * (1 + abs(r.expected_loss)), name

    def test_constrained_additivity_on_simplex(self, rng):
        for name in ("kl", "reverse_kl"):
            div = catalog(name, dim=3, simplex=True)
            for _ in range(25):
                labels = sample_simplex_ensemble(rng, int(rng.integers(1, 6)), 3)
                preds = sample_simplex_ensemble(rng, int(rng.integers(1, 6)), 3)
                r = decompose_constrained_bregman(div, labels, preds)
                assert abs(r.gap) <= 1e-9 * (1 + abs(r.expected_loss)), name

    @pytest.mark.parametrize("scale", [1e4, 1e6])
    def test_large_scale_tight_ensembles(self, scale):
        # Mahalanobis K = scale * I with ensembles 1e-8 wide: the potentials
        # are ~1e7 times the terms, so differences of potentials cancel
        # catastrophically, while the centroid objectives do not.
        div = catalog("mahalanobis", K=scale * np.eye(3))
        rng = np.random.default_rng(1)
        for _ in range(100):
            c = rng.uniform(-5.0, 5.0, 3)
            n, m = int(rng.integers(1, 9)), int(rng.integers(2, 17))
            labels = make_ensemble(c + 1e-8 * rng.standard_normal((n, 3)), rng.random(n) + 0.1)
            preds = make_ensemble(c + 1e-8 * rng.standard_normal((m, 3)), rng.random(m) + 0.1)
            r = decompose_gbregman(div, labels, preds)
            assert abs(r.gap) <= 1e-9 * (1 + abs(r.expected_loss))

    def test_terms_equal_potential_differences(self, rng):
        # Noise and variance are the centroid objectives E D(T, t*) and
        # E D(y*, Y); at moderate scale they equal E A(g(T)) - A(g(t*)) and
        # E B(f(Y)) - B(f(y*)), plus lam . b on the side that ran Lagrange.
        cases = [(name, d, make_entry(name, d, rng)) for name, dims in GBREGMAN_FAMILIES
                 for d in dims]
        cases += [(name, 3, catalog(name, dim=3, simplex=True)) for name in ("kl", "reverse_kl")]
        for name, d, div in cases:
            B, f = div.dual_pair()
            for _ in range(10):
                n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
                if div.domain.n_constraints:
                    labels = sample_simplex_ensemble(rng, n, d)
                    preds = sample_simplex_ensemble(rng, m, d)
                else:
                    labels = sample_ensemble(name, rng, n, d)
                    preds = sample_ensemble(name, rng, m, d)
                r = decompose(div, labels, preds)
                noise = labels.weights @ div.gen.value(div.map.forward(labels.points)) \
                    - div.gen.value(div.map.forward(r.central_label))
                variance = preds.weights @ B.value(f.forward(preds.points)) \
                    - B.value(f.forward(r.central_prediction))
                if r.multipliers is not None:
                    correction = r.multipliers @ div.domain.eq_rhs
                    if div.map_is_identity:
                        variance += correction
                    else:
                        noise += correction
                assert r.intrinsic_noise == pytest.approx(noise, rel=1e-9), (name, d)
                assert r.variance == pytest.approx(variance, rel=1e-9), (name, d)

    def test_noise_lower_bounds_expected_loss(self, rng):
        # With a single prediction placed at the central label, expected
        # loss equals the intrinsic noise; elsewhere it can only grow.
        div = catalog("kl", dim=2)
        for _ in range(10):
            labels = sample_ensemble("kl", rng, 5, 2)
            t_star = decompose_gbregman(div, labels, labels).central_label
            preds = make_ensemble([t_star], [1])
            r = decompose_gbregman(div, labels, preds)
            assert r.intrinsic_noise <= r.expected_loss + 1e-12
            other = sample_ensemble("kl", rng, 1, 2)
            r2 = decompose_gbregman(div, labels, other)
            assert r2.intrinsic_noise <= r2.expected_loss + 1e-12

    def test_generic_agrees_with_closed_form(self, rng):
        for name in ("kl", "sq_euclidean", "gaussian_canonical"):
            d = 2
            div = make_entry(name, d, rng)
            labels = sample_ensemble(name, rng, 3, d)
            preds = sample_ensemble(name, rng, 4, d)
            closed = decompose_gbregman(div, labels, preds)
            generic = decompose_generic(div, labels, preds)
            assert generic.intrinsic_noise == pytest.approx(
                closed.intrinsic_noise, abs=1e-5)
            assert generic.bias == pytest.approx(closed.bias, abs=1e-5)
            assert generic.variance == pytest.approx(closed.variance, abs=1e-5)
            assert generic.expected_loss == pytest.approx(
                closed.expected_loss, rel=1e-12)


class TestNonDecomposabilityWitnesses:
    def test_l1_witness(self):
        loss = catalog("l1", dim=1)
        r = decompose_generic(
            loss, make_ensemble([[0.0]], [1]), make_ensemble([[0.0], [1.0]], [1, 2])
        )
        assert r.gap == pytest.approx(-2 / 3, abs=1e-12)

    def test_zero_one_grid_witness(self):
        loss = catalog("zero_one_grid", dim=1, levels=2)
        r = decompose_generic(
            loss, make_ensemble([[0.0]], [1]), make_ensemble([[0.0], [1.0]], [1, 2])
        )
        assert r.gap == pytest.approx(-2 / 3, abs=1e-12)
        assert abs(r.gap) > 1e-3

    def test_minkowski_witness(self, rng):
        loss = catalog("minkowski", epsilon=1.5, dim=1)
        labels = make_ensemble([[0.0]], [1])
        preds = make_ensemble([[0.0], [1.0]], [1, 2])
        r = decompose_generic(loss, labels, preds)
        assert abs(r.gap) > 1e-3

    def test_alpha_simplex_power_mean_witness(self):
        div = catalog("alpha", alpha=0.5, dim=2, simplex=True)
        labels = make_ensemble(*ALPHA_WITNESS_LABELS)
        preds = make_ensemble(*ALPHA_WITNESS_PREDS)
        t_star = power_mean_centroids(div, labels, "second_arg")
        y_star = power_mean_centroids(div, preds, "first_arg")
        expected = pair_expectation(div, labels, preds)
        gap = expected - t_star.objective - div.eval(t_star.point, y_star.point) \
            - y_star.objective
        assert abs(gap) > 1e-3
        assert gap == pytest.approx(-0.0087261319, abs=1e-9)
        # The dispatcher solves the same centroids, so decompose reports
        # the same gap.
        r = decompose(div, labels, preds)
        assert r.method == "closed_form"
        assert r.gap == pytest.approx(-0.0087261319, abs=1e-9)


class TestExpFamilyDecomposition:
    def test_single_standard_normal(self):
        B = gaussian_log_partition()
        preds = make_ensemble([[0.0, -0.5]], [1])  # natural params of N(0, 1)
        r = exp_family_loglik_decompose(B, 0.0, preds)
        assert r.variance == pytest.approx(0.0, abs=1e-14)
        assert r.bias == pytest.approx(0.5 * np.log(2 * np.pi), rel=1e-12)
        assert abs(r.gap) < 1e-12

    def test_two_component_fixture(self):
        # N(-1, 1) and N(1, 1) have natural parameters (-1, -1/2), (1, -1/2).
        B = gaussian_log_partition()
        preds = make_ensemble([[-1.0, -0.5], [1.0, -0.5]], [1, 1])
        r = exp_family_loglik_decompose(B, 0.0, preds)
        # Oracle: direct expectation of -log N(0; m, s) over the ensemble.
        direct = np.mean(
            [0.5 * np.log(2 * np.pi * 1.0) + m**2 / 2.0 for m in (-1.0, 1.0)]
        )
        assert r.expected_loss == pytest.approx(direct, rel=1e-12)
        assert abs(r.gap) < 1e-9
        assert r.variance == pytest.approx(0.5, rel=1e-12)
        assert r.variance >= 0

    def test_gap_vanishes_for_nonzero_observation(self, rng):
        # The split must stay exact for arbitrary observations, not just 0.
        B = gaussian_log_partition()
        for _ in range(10):
            ms = rng.uniform(-2, 2, 3)
            ss = rng.uniform(0.3, 3.0, 3)
            theta = np.stack([ms / ss, -0.5 / ss], axis=1)
            preds = make_ensemble(theta, rng.random(3) + 0.1)
            z = rng.uniform(-3, 3)
            r = exp_family_loglik_decompose(B, z, preds)
            direct = sum(
                w * (0.5 * np.log(2 * np.pi * s) + (z - m) ** 2 / (2 * s))
                for m, s, w in zip(ms, ss, preds.weights)
            )
            assert r.expected_loss == pytest.approx(direct, rel=1e-12)
            assert abs(r.gap) <= 1e-9 * (1 + abs(r.expected_loss))
            assert r.variance >= 0

    def test_degenerate_equal_predictions(self):
        B = gaussian_log_partition()
        preds = make_ensemble([[0.5, -0.25], [0.5, -0.25]], [1, 1])
        r = exp_family_loglik_decompose(B, 1.0, preds)
        assert r.variance == pytest.approx(0.0, abs=1e-14)

    def test_negative_bias_is_reported(self):
        # A sharp density at the observation makes -log p negative.
        B = gaussian_log_partition()
        s = 0.01
        preds = make_ensemble([[0.0, -0.5 / s]], [1])
        r = exp_family_loglik_decompose(B, 0.0, preds)
        assert r.bias < 0
        assert abs(r.gap) < 1e-12

    def test_sufficient_stat_fixture(self):
        np.testing.assert_allclose(gaussian_sufficient_stat(2.0), [2.0, 4.0])

    def test_non_gaussian_family(self, rng):
        # Exponential distributions: density rate * exp(-rate z) for z > 0,
        # natural parameter theta = -rate < 0, log-partition -log(-theta),
        # sufficient statistic z.
        from bvd.divergences import Generator

        B = Generator(
            value=lambda u: -np.log(-u[..., 0]),
            gradient=lambda u: -1.0 / np.asarray(u, dtype=float),
        )
        for _ in range(5):
            rates = rng.uniform(0.5, 3.0, 4)
            preds = make_ensemble((-rates)[:, None], rng.random(4) + 0.1)
            z = rng.uniform(0.1, 4.0)
            r = exp_family_loglik_decompose(
                B, z, preds, sufficient_stat=lambda s: np.array([float(s)])
            )
            direct = sum(
                w * (rate * z - np.log(rate))
                for rate, w in zip(rates, preds.weights)
            )
            assert r.expected_loss == pytest.approx(direct, rel=1e-12)
            assert abs(r.gap) <= 1e-12 * (1 + abs(r.expected_loss))
            assert r.variance >= 0


class TestReportJson:
    def test_fields_round_trip(self):
        div = catalog("kl", dim=2, simplex=True)
        labels = make_ensemble([[0.5, 0.5]], [1])
        preds = make_ensemble([[0.2, 0.8], [0.8, 0.2]], [1, 1])
        r = decompose_constrained_bregman(div, labels, preds)
        obj = r.to_json()
        assert obj["method"] == "lagrange"
        assert obj["multipliers"] is not None
        r2 = decompose_gbregman(catalog("kl", dim=2), labels, preds)
        assert r2.to_json()["multipliers"] is None
