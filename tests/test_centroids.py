"""Tests for closed-form, constrained, and brute-force centroids."""

import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
import scipy.optimize

from bvd import (CallableLoss, Domain, InfeasibleMeanError, catalog, centroids, classify_loss, core,
                 decompose_generic, make_ensemble)
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
from bvd.core import side_expectation
from bvd.divergences import (
    GBregmanDivergence,
    Generator,
    Mapping,
    _log_mapping,
    identity_mapping,
    make_g_mahalanobis,
)

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

    @pytest.mark.parametrize("name, centroid", [("kl", central_prediction),
                                                ("reverse_kl", central_label)])
    def test_infinite_everywhere_on_the_simplex_is_named(self, name, centroid):
        # Each coordinate is 0 at some support point, so the expected
        # divergence is infinite at every point of the simplex: no solver
        # can help, and the message says why instead of showing [nan nan].
        ens = make_ensemble([[1.0, 0.0], [0.0, 1.0]], [1, 1])
        with pytest.raises(InfeasibleMeanError,
                           match="no coordinate is positive at every support point"):
            centroid(catalog(name, dim=2, simplex=True), ens)


class TestConstrainedCentroids:
    def test_box_domain_has_no_equalities_to_solve(self):
        div = catalog("sq_euclidean", dim=2)
        preds = make_ensemble([[0.2, 0.8], [0.8, 0.2]], [1, 1])
        with pytest.raises(ValueError, match="domain has no equality constraints"):
            constrained_central_prediction(div, preds)

    def test_solution_outside_the_box_is_named(self):
        # The normalized geometric mean of these points is about
        # [0.83, 0.09, 0.09]: on the sum-one plane, but above the 0.6 bound.
        div = catalog("kl", dim=3)
        div.domain = Domain(3, np.zeros(3), 0.6 * np.ones(3), np.ones((1, 3)), np.ones(1))
        preds = make_ensemble([[0.6, 0.39, 0.01], [0.6, 0.01, 0.39]], [1, 1])
        with pytest.raises(ValueError, match="violates the box bounds"):
            constrained_central_prediction(div, preds)

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
            assert res.method == "closed_form"
            np.testing.assert_allclose(res.point, expected, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("d", [2, 100, 1000])
    def test_simplex_centroids_closed_form(self, rng, d):
        # KL's central prediction and reverse KL's central label are the
        # normalized geometric mean in closed form, with the simplex
        # multiplier lam = -log sum exp(E log Y).
        kl = catalog("kl", dim=d, simplex=True)
        rkl = catalog("reverse_kl", dim=d, simplex=True)
        for _ in range(5):
            ens = sample_simplex_ensemble(rng, int(rng.integers(2, 9)), d)
            gm = np.exp(np.einsum("k,kd->d", ens.weights, np.log(ens.points)))
            lam = -np.log(gm.sum())
            for res in (central_prediction(kl, ens), central_label(rkl, ens)):
                assert res.method == "closed_form"
                np.testing.assert_array_equal(res.point, gm / gm.sum())
                assert res.multipliers.shape == (1,)
                assert abs(res.multipliers[0] - lam) <= 1e-14 * (1 + abs(lam))

    def test_newton_derived_dual_map(self, rng):
        # Without a closed-form dual or the catalog's simplex parameter, the
        # Lagrange solve runs on the dual map that Newton inversion derives,
        # and must find the catalog KL's closed-form centroid.
        kl = catalog("kl", dim=3, simplex=True)
        stripped = GBregmanDivergence(
            gen=Generator(kl.gen.value, gradient=np.log), mapping=kl.map,
            domain=kl.domain, name="kl_stripped",
        )
        for _ in range(3):
            preds = sample_simplex_ensemble(rng, 4, 3)
            res = central_prediction(stripped, preds)
            ref = central_prediction(kl, preds)
            assert res.method == "lagrange" and ref.method == "closed_form"
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
        assert pred.method == label.method == "closed_form"
        # Duality: both are the normalized geometric mean of the same points.
        np.testing.assert_allclose(label.point, pred.point, rtol=0, atol=1e-15)
        np.testing.assert_allclose(label.multipliers, pred.multipliers, atol=1e-15)

    def test_lagrange_for_other_equality_sets(self):
        # The Lagrange solve still serves equality sets that no closed form
        # covers: a quadratic potential put on the simplex, and KL with a
        # second equality row.
        sq = catalog("sq_euclidean", dim=2)
        sq.domain = Domain.simplex(2)
        kl = catalog("kl", dim=3, simplex=True)
        kl.domain = Domain(3, np.zeros(3), np.ones(3), [[1, 1, 1], [1, -1, 0]], [1, 0])
        ens3 = make_ensemble([[0.3, 0.3, 0.4], [0.25, 0.25, 0.5]], [1, 1])
        for loss, ens in ((sq, make_ensemble(*self.PREDS)), (kl, ens3)):
            res = central_prediction(loss, ens)
            assert res.method == "lagrange", loss.name
            assert res.multipliers.size == loss.domain.n_constraints
            assert loss.domain.contains(res.point)

    # Family, dimension, simplex domain, and the solver the label takes.
    LABEL_CASES = [
        ("sq_euclidean", 2, False, "closed_form"),
        ("mahalanobis", 2, False, "closed_form"),
        ("kl", 3, False, "closed_form"),
        ("reverse_kl", 3, False, "closed_form"),
        ("alpha", 2, False, "closed_form"),
        ("gaussian_canonical", 2, False, "closed_form"),
        ("bernoulli_kl", 1, False, "closed_form"),
        ("kl", 3, True, "closed_form"),
        ("reverse_kl", 3, True, "closed_form"),
        ("alpha", 2, True, "closed_form"),
        ("l1", 1, False, "brute_force"),
    ]

    @pytest.mark.parametrize("name, d, simplex, method", LABEL_CASES)
    def test_label_is_prediction_of_reverse(self, rng, name, d, simplex, method):
        if name == "l1":
            loss = catalog("l1", dim=1)
            labels = make_ensemble(rng.uniform(-3, 3, (3, 1)), rng.random(3) + 0.1)
        elif simplex:
            loss = catalog(name, dim=d, simplex=True, **({"alpha": 0.5} if name == "alpha" else {}))
            labels = sample_simplex_ensemble(rng, 3, d)
        else:
            loss = make_entry(name, d, rng)
            labels = sample_ensemble(name, rng, 3, d)
        res = central_label(loss, labels)
        rev = central_prediction(loss.reverse(), labels)
        assert res.method == rev.method == method
        np.testing.assert_array_equal(res.point, rev.point)
        np.testing.assert_array_equal(res.multipliers, rev.multipliers)
        assert res.objective == rev.objective
        assert res.objective == pytest.approx(
            labels.weights @ loss.eval_batch(labels.points, res.point), rel=1e-12, abs=1e-15
        )
        if method == "closed_form":
            # The g-mean, computed here from the divergence's own map; on
            # the simplex, rescaled to sum 1.
            g = loss.map
            mean = np.einsum("k,kd->d", labels.weights, g.forward(labels.points))
            expected = g.inverse(mean)
            if simplex:
                expected = expected / expected.sum()
            np.testing.assert_array_equal(res.point, expected)

    def test_oracle_for_general_maps_and_plain_losses(self):
        # g-Bregman losses under constraints that no exact solver covers
        # reach the oracle with a warning: a log map on the simplex, and
        # alpha with an equality other than the simplex's alone.
        g_mahalanobis = make_g_mahalanobis(_log_mapping(), np.eye(2), Domain.simplex(2))
        alpha = catalog("alpha", alpha=0.5, dim=3, simplex=True)
        alpha.domain = Domain(3, np.zeros(3), np.ones(3), [[1, 1, 1], [1, -1, 0]], [1, 0])
        cases = [
            (g_mahalanobis, make_ensemble(*self.LABELS)),
            (alpha, make_ensemble([[0.3, 0.3, 0.4], [0.25, 0.25, 0.5]], [1, 1])),
        ]
        for loss, ens in cases:
            for solve in (central_label, central_prediction):
                with pytest.warns(UserWarning, match="brute-force"):
                    assert solve(loss, ens).method == "brute_force", loss.name
        l1 = catalog("l1", dim=1)
        assert central_prediction(l1, make_ensemble([[0.0], [1.0]], [1, 2])).method \
            == "brute_force"


class TestEnsembleSupport:
    def test_zero_weight_atom_is_not_in_the_support(self):
        # KL(x, 0) is infinite; an atom of weight 0 there must not count.
        kl = catalog("kl", dim=1)
        preds = make_ensemble([[0.0], [0.5]], [0, 1])
        np.testing.assert_array_equal(preds.points, [[0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for res in (brute_force_centroid(kl, preds, "first_arg"), central_prediction(kl, preds)):
                np.testing.assert_allclose(res.point, [0.5], atol=1e-12)
                assert res.objective == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "points, message",
        [
            ([[1.5, 0.5], [0.5, 0.5]], r"\[1\.5, 0\.5\] is infeasible"),
            ([[0.5, 0.5], [-0.2, 0.5]], r"\[-0\.2, 0\.5\] is infeasible"),
            ([[0.5], [0.2]], "dimension"),
        ],
        ids=["above-box", "below-box", "wrong-dimension"],
    )
    def test_ensemble_outside_the_domain_is_named(self, points, message):
        kl = catalog("kl", dim=2)
        ens = make_ensemble(points, [1, 1])
        for solve in (
            lambda: central_prediction(kl, ens),
            lambda: central_label(kl, ens),
            lambda: brute_force_centroid(kl, ens, "first_arg"),
        ):
            with pytest.raises(ValueError, match=message) as exc:
                solve()
            assert not isinstance(exc.value, InfeasibleMeanError)


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

    @pytest.mark.parametrize("epsilon", [1.25, 1.5])
    @pytest.mark.parametrize("side", ["first_arg", "second_arg"])
    def test_minkowski_matches_exact_root(self, rng, epsilon, side):
        # For 1 < epsilon < 2 the 1-D objective sum_i w_i |x - p_i|^epsilon
        # is strictly convex; its minimizer is the root of the derivative,
        # bracketed by the outermost support points. The loss is symmetric,
        # so both sides share it.
        loss = catalog("minkowski", epsilon=epsilon, dim=1)
        for _ in range(8):
            n = int(rng.integers(2, 7))
            ens = make_ensemble(rng.uniform(-8, 8, (n, 1)), rng.uniform(0.1, 1.0, n))
            p, w = ens.points[:, 0], ens.weights

            def slope(x):
                return np.sum(w * np.sign(x - p) * np.abs(x - p) ** (epsilon - 1))

            exact = scipy.optimize.brentq(slope, p.min(), p.max(), xtol=1e-15, rtol=1e-15)
            best = float(np.sum(w * np.abs(exact - p) ** epsilon))
            res = brute_force_centroid(loss, ens, side)
            assert abs(res.point[0] - exact) <= 1e-6
            assert res.objective == pytest.approx(best, rel=1e-12)
            assert not res.non_unique

    def test_import_loads_no_scipy(self):
        code = "import sys, bvd; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_unbounded_domain_rejected(self):
        loss = catalog("sq_euclidean", dim=1)
        loss.domain = Domain(1)
        with pytest.raises(ValueError, match="bounded"):
            brute_force_centroid(loss, make_ensemble([[0.0]], [1]), "first_arg")

    def test_oversized_grid_refused_before_allocation(self):
        # 41^5 grid points x 5 support points x d = 5 would need several GB.
        # Under a 2 GB address-space limit a regression raises MemoryError
        # here instead of exhausting the machine. A non-diagonal K makes the
        # loss non-separable, so the search needs the full grid.
        code = textwrap.dedent(
            """
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))
            import numpy as np
            from bvd import catalog, make_ensemble
            from bvd import centroids
            from bvd.centroids import brute_force_centroid

            rng = np.random.default_rng(0)
            ens = make_ensemble(rng.uniform(0.1, 0.9, (5, 5)), np.ones(5))
            loss = catalog("mahalanobis", K=np.eye(5) + 0.5 * np.ones((5, 5)))
            for side in ("first_arg", "second_arg"):
                try:
                    brute_force_centroid(loss, ens, side)
                except ValueError as exc:
                    print(exc)
            centroids.GRID_RESOLUTION = 9
            coarse = brute_force_centroid(loss, ens, "first_arg")
            print("coarse", coarse.method)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 3, proc.stdout
        for line in lines[:2]:
            assert "41^5 = 115856201 points" in line and "5 support points" in line
        assert lines[2] == "coarse brute_force"

    def test_d4_search_runs_in_bounded_memory(self):
        # The 41^4 grid x 5 support points x d = 4 is 5.7e7 floats (431 MiB
        # per temporary) if built at once; evaluated in blocks the search
        # fits under a 1 GiB address-space limit.
        code = textwrap.dedent(
            """
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
            import numpy as np
            from bvd import catalog, make_ensemble
            from bvd.centroids import brute_force_centroid

            rng = np.random.default_rng(0)
            P, w = rng.uniform(0.1, 0.9, (5, 4)), rng.uniform(0.1, 1.1, 5)
            res = brute_force_centroid(catalog("kl", dim=4), make_ensemble(P, w), "first_arg")
            print(np.max(np.abs(res.point - np.exp(w @ np.log(P) / w.sum()))))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) <= 1e-5

    @pytest.mark.parametrize(
        "name, params, points, side",
        [
            ("l1", {}, [[0.0], [1.0]], "first_arg"),
            ("zero_one_grid", {"levels": 3}, [[0, 0], [2, 2], [1, 0], [0, 2]], "first_arg"),
            ("kl", {"simplex": True}, [[0.2, 0.3, 0.5], [0.6, 0.3, 0.1], [0.1, 0.1, 0.8]],
             "first_arg"),
            ("kl", {"simplex": True}, [[0.2, 0.3, 0.5], [0.6, 0.3, 0.1], [0.1, 0.1, 0.8]],
             "second_arg"),
            ("minkowski", {"epsilon": 1.5}, [[-3.0, 1.0], [2.5, -0.5], [0.5, 4.0]], "first_arg"),
            ("sq_euclidean", {}, [[-1.38, -2.75], [-2.9, 1.88], [2.48, 0.64], [1.38, 0.26]],
             "first_arg"),
            ("kl", {}, [[0.2, 0.3, 0.5], [0.6, 0.3, 0.1], [0.1, 0.1, 0.8]], "second_arg"),
        ],
    )
    def test_blocks_do_not_change_answers(self, monkeypatch, name, params, points, side):
        ens = make_ensemble(points, np.ones(len(points)))
        loss = catalog(name, dim=ens.dim, **params)
        whole = brute_force_centroid(loss, ens, side)
        # Four rows per block: a 9-point stencil leaves one row in the last.
        monkeypatch.setattr(core, "BLOCK_FLOATS", 4 * ens.size * ens.dim)
        blocked = brute_force_centroid(loss, ens, side)
        assert blocked.point.tobytes() == whole.point.tobytes()
        assert repr(blocked.objective) == repr(whole.objective)
        assert blocked.non_unique == whole.non_unique
        assert whole.non_unique == (name in ("l1", "zero_one_grid"))

    @pytest.mark.parametrize("name, params, lo, hi", [
        ("minkowski", {"epsilon": 1.5}, -3.0, 3.0),
        ("sq_euclidean", {}, -3.0, 3.0),
        ("kl", {}, 0.1, 0.9),
    ], ids=["minkowski", "sq_euclidean", "kl"])
    def test_lone_rows_weigh_as_in_a_block(self, monkeypatch, name, params, lo, hi):
        # A one-float budget puts every candidate row of every pass alone in
        # its block. A BLAS product would weigh a lone row by a dot product,
        # which rounds unlike a block's matrix-vector product in the last bit
        # and steers the search elsewhere.
        rng = np.random.default_rng(7)
        loss = catalog(name, dim=2, **params)
        ens = make_ensemble(rng.uniform(lo, hi, (7, 2)), rng.random(7) + 0.1)
        whole = brute_force_centroid(loss, ens, "first_arg")
        monkeypatch.setattr(core, "BLOCK_FLOATS", 1)
        lone = brute_force_centroid(loss, ens, "first_arg")
        assert lone.point.tobytes() == whole.point.tobytes()
        assert repr(lone.objective) == repr(whole.objective)

    def test_wide_supports_do_not_depend_on_the_block_budget(self, monkeypatch):
        # From about 20 support points a BLAS matrix-vector product rounds a
        # row by its block's row count; the search's einsum sums do not.
        rng, default = np.random.default_rng(7), core.BLOCK_FLOATS
        for name, params, draw in [
            ("minkowski", {"epsilon": 1.5}, lambda n: rng.uniform(-3.0, 3.0, (n, 2))),
            ("sq_euclidean", {}, lambda n: rng.uniform(-3.0, 3.0, (n, 2))),
            ("kl", {}, lambda n: rng.uniform(0.1, 0.9, (n, 2))),
            ("kl", {"simplex": True}, lambda n: rng.dirichlet(np.ones(3), n)),  # null space
        ]:
            for size in (20, 60):
                P = draw(size)
                loss = catalog(name, dim=P.shape[1], **params)
                ens = make_ensemble(P, rng.random(size) + 0.1)
                monkeypatch.setattr(core, "BLOCK_FLOATS", default)
                whole = brute_force_centroid(loss, ens, "first_arg")
                for budget in (1, 4 * size * ens.dim):  # one-row, then four-row blocks
                    monkeypatch.setattr(core, "BLOCK_FLOATS", budget)
                    blocked = brute_force_centroid(loss, ens, "first_arg")
                    assert blocked.point.tobytes() == whole.point.tobytes(), (name, size, budget)
                    assert repr(blocked.objective) == repr(whole.objective)

    def test_no_finite_objective_is_named(self):
        # Every point of the simplex is feasible, but no point has a finite
        # KL to both vertices.
        kl = catalog("kl", dim=3, simplex=True)
        ens = make_ensemble([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1, 1])
        with pytest.raises(ValueError, match="no candidate with a finite objective"):
            brute_force_centroid(kl, ens, "first_arg")

    def test_bad_side_rejected(self):
        loss = catalog("sq_euclidean", dim=1)
        with pytest.raises(ValueError, match="side"):
            brute_force_centroid(loss, make_ensemble([[0.0]], [1]), "both")

    def test_restart_window_grows_past_duplicates(self, monkeypatch):
        # 200 copies of one support point tie with the grid point 0.5 and
        # use up the first window of restarts, so the window doubles.
        sizes, stable_prefix = [], centroids._stable_prefix

        def recording(vals, k):
            sizes.append(k)
            return stable_prefix(vals, k)

        monkeypatch.setattr(centroids, "_stable_prefix", recording)
        res = brute_force_centroid(catalog("l1", dim=1),
                                   make_ensemble([[0.5]] * 200, np.ones(200)), "first_arg")
        np.testing.assert_array_equal(res.point, [0.5])
        assert not res.non_unique
        assert len(sizes) > 1 and sizes[1] > sizes[0]

    def test_as_many_equalities_as_dimensions(self):
        # Two equality rows in 2-D leave one feasible point, the search none.
        dom = Domain(2, lower=np.zeros(2), upper=np.ones(2), eq_lhs=[[1.0, 1.0], [1.0, -1.0]],
                     eq_rhs=[1.0, 0.0])
        loss = CallableLoss(2, dom, lambda T, Y: np.sum((T - Y) ** 2, axis=-1))
        res = brute_force_centroid(loss, make_ensemble([[0.5, 0.5]], [1]), "first_arg")
        np.testing.assert_allclose(res.point, [0.5, 0.5], rtol=0, atol=1e-12)
        assert res.method == "brute_force"


def _poisoned(separable):
    """The summed |t - y|^1.5 on the unit square, infinite wherever either
    point's first coordinate is 0.3141 (off the grid): a search whose
    support holds such a point has no finite candidate."""

    def fn(T, Y):
        bad = (T[..., 0] == 0.3141) | (Y[..., 0] == 0.3141)
        return np.where(bad, np.inf, np.sum(np.abs(T - Y) ** 1.5, axis=-1))

    return CallableLoss(2, Domain.unit_box(2), fn, "poisoned", separable=separable)


class TestLockstepSearch:
    """A batch of searches on a loss and its reverse gives every job the
    bytes, or the exception, of a lone brute_force_centroid call."""

    @pytest.mark.parametrize("blocked", [False, True])
    @pytest.mark.parametrize("kind", ["separable", "full_grid", "simplex"])
    def test_batch_matches_lone_calls(self, monkeypatch, kind, blocked):
        rng = np.random.default_rng(len(kind))
        if kind == "simplex":  # a null-space search with edge directions
            loss, bad = catalog("kl", dim=3, simplex=True), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        else:
            loss, bad = _poisoned(kind == "separable"), [[0.3141, 0.5], [0.2, 0.7]]
        rev, jobs = loss.reverse(), []
        for n in [*range(1, 7), 5, 9, 13, 21]:  # sizes that straddle 8 too, both sides
            P = (rng.dirichlet(np.ones(3), n) if kind == "simplex"
                 else rng.uniform(0.05, 0.95, (n, 2)))
            jobs.append(((loss, rev)[n % 2], make_ensemble(P, rng.random(n) + 0.1)))
        jobs.insert(3, (loss, make_ensemble(bad, [1, 1])))
        if blocked:  # the four-row blocks of test_blocks_do_not_change_answers
            monkeypatch.setattr(core, "BLOCK_FLOATS", 4 * 21 * loss.dim)
        batch = centroids._brute_force_batch(jobs)
        assert len(batch) == len(jobs)
        for (job_loss, ens), got in zip(jobs, batch):
            try:
                want = brute_force_centroid(loss, ens, "first_arg" if job_loss is loss
                                            else "second_arg")
            except ValueError as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
                continue
            assert got.point.tobytes() == want.point.tobytes()
            assert np.isnan(got.objective)
            assert repr(side_expectation(job_loss, got.point, ens)) == repr(want.objective)
            assert got.non_unique == want.non_unique
        assert "no candidate with a finite objective" in str(batch[3])
        assert centroids._brute_force_batch([]) == []
        with pytest.raises(ValueError, match="side must be 'first_arg' or 'second_arg'"):
            brute_force_centroid(loss, jobs[0][1], "both")

    def test_power_mean_side_must_be_named(self):
        div = catalog("kl", dim=3, simplex=True)
        ens = make_ensemble([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]], [1, 1])
        with pytest.raises(ValueError, match="side must be 'first_arg' or 'second_arg'"):
            power_mean_centroids(div, ens, "both")

    def test_only_the_lone_call_scores(self, monkeypatch):
        # The batch returns unscored points: brute_force_centroid evaluates
        # one objective, decompose_generic and classify_loss none.
        calls = []

        def counting(*args):
            calls.append(args)
            return side_expectation(*args)

        monkeypatch.setattr(centroids, "side_expectation", counting)
        loss = catalog("l1", dim=1, bound=2.0)
        labels = make_ensemble([[0.1], [0.7], [-0.4]], [1, 2, 1])
        preds = make_ensemble([[0.3], [-0.2]], [1, 1])
        counts = []
        for run in (lambda: brute_force_centroid(loss, preds, "second_arg"),
                    lambda: decompose_generic(loss, labels, preds),
                    lambda: classify_loss(loss)):
            calls.clear()
            run()
            counts.append(len(calls))
        assert counts == [1, 0, 0]


def _full_grid_twin(loss):
    """The same evaluator, not declared separable: the oracle's full grid."""
    return CallableLoss(loss.dim, loss.domain, loss.eval_batch, f"full({loss.name})",
                        loss.has_diagonal_kinks)


def _separable_entry(name, d, rng):
    """A separable catalog loss of dimension d and a sampler of its points."""
    if name == "mahalanobis":
        return catalog("mahalanobis", K=np.diag(rng.uniform(0.5, 2.0, d))), (-3.0, 3.0)
    if name == "g_mahalanobis":
        K = np.diag(rng.uniform(0.5, 2.0, d))
        domain = Domain.box(0.05 * np.ones(d), 3.0 * np.ones(d))
        return make_g_mahalanobis(_log_mapping(), K, domain), (0.1, 2.5)
    if name in ("kl", "reverse_kl"):
        return catalog(name, dim=d), (0.1, 0.9)
    if name == "alpha":
        return catalog("alpha", alpha=0.3, dim=d), (0.1, 0.9)
    if name == "bernoulli_kl":
        return catalog("bernoulli_kl"), (0.1, 0.9)
    if name.startswith("minkowski"):
        return catalog("minkowski", epsilon=float(name.split("_")[1]), dim=d), (-3.0, 3.0)
    return catalog(name, dim=d), (-3.0, 3.0)


SEPARABLE_NAMES = ["sq_euclidean", "mahalanobis", "g_mahalanobis", "kl", "reverse_kl",
                   "alpha", "l1", "minkowski_1.5", "minkowski_1.25"]


class TestSeparableSearch:
    """The per-axis search of separable losses against the full grid, which
    a non-separable twin of the same evaluator gets."""

    @pytest.mark.parametrize("name", SEPARABLE_NAMES)
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_full_grid(self, name, d):
        rng = np.random.default_rng([d, SEPARABLE_NAMES.index(name)])
        loss, (lo, hi) = _separable_entry(name, d, rng)
        assert loss.separable
        twin = _full_grid_twin(loss)
        for side in ("first_arg", "second_arg"):
            for _ in range(2):
                n = int(rng.integers(2, 7))
                ens = make_ensemble(rng.uniform(lo, hi, (n, d)), rng.uniform(0.1, 1.1, n))
                fast = brute_force_centroid(loss, ens, side)
                full = brute_force_centroid(twin, ens, side)
                tol = 1e-9 if name == "l1" else 1e-6
                assert np.max(np.abs(fast.point - full.point)) <= tol, (side, ens.points)
                assert fast.objective <= full.objective + 1e-12 * (1 + abs(full.objective))
                assert fast.non_unique == full.non_unique

    @pytest.mark.parametrize("d", [2, 3])
    def test_flat_l1_ties_factor_per_axis(self, d):
        # Even supports with equal weights on grid values: every coordinate
        # has a flat interval of minimizers, and the full grid's
        # lexicographically smallest tie is the corner of their product.
        rng = np.random.default_rng(d)
        loss = catalog("l1", dim=d)
        for n in (2, 4, 4):
            ens = make_ensemble(rng.integers(-6, 7, (n, d)) / 2.0, np.ones(n))
            for side in ("first_arg", "second_arg"):
                fast = brute_force_centroid(loss, ens, side)
                full = brute_force_centroid(_full_grid_twin(loss), ens, side)
                lows = np.sort(ens.points, axis=0)[n // 2 - 1]
                assert np.max(np.abs(fast.point - full.point)) <= 1e-9
                np.testing.assert_array_equal(fast.point, lows)
                assert fast.objective <= full.objective + 1e-12 * (1 + abs(full.objective))
                assert fast.non_unique == full.non_unique == bool(
                    np.any(np.sort(ens.points, axis=0)[n // 2] > lows))

    def test_ties_resolve_among_evaluated_candidates(self):
        # Every point of [0.3, 0.9] x [0.2, 0.7] ties at objective 0.55. Per
        # axis the flat interval's ends are support coordinates, so the
        # search finds the corner [0.3, 0.2]; on the full grid that corner
        # is never a candidate, and the smallest evaluated tie is the atom
        # [0.3, 0.7].
        loss = catalog("l1", dim=2)
        ens = make_ensemble([[0.3, 0.7], [0.9, 0.2]], [1, 1])
        fast = brute_force_centroid(loss, ens, "first_arg")
        full = brute_force_centroid(_full_grid_twin(loss), ens, "first_arg")
        np.testing.assert_array_equal(fast.point, [0.3, 0.2])
        np.testing.assert_array_equal(full.point, [0.3, 0.7])
        for res in (fast, full):
            assert res.objective == pytest.approx(0.55, rel=1e-12)
            assert res.non_unique

    @pytest.mark.parametrize("name", SEPARABLE_NAMES + ["bernoulli_kl"])
    def test_one_axis_is_byte_identical(self, name):
        rng = np.random.default_rng(1)
        loss, (lo, hi) = _separable_entry(name, 1, rng)
        twin = _full_grid_twin(loss)
        for side in ("first_arg", "second_arg"):
            for n in (2, 5):
                ens = make_ensemble(rng.uniform(lo, hi, (n, 1)), rng.uniform(0.1, 1.1, n))
                fast = brute_force_centroid(loss, ens, side)
                full = brute_force_centroid(twin, ens, side)
                assert fast.point.tobytes() == full.point.tobytes()
                assert repr(fast.objective) == repr(full.objective)
                assert fast.non_unique == full.non_unique

    def test_kl_at_d5_runs_on_both_sides(self):
        rng = np.random.default_rng(5)
        P, w = rng.uniform(0.1, 0.9, (5, 5)), rng.uniform(0.1, 1.1, 5)
        ens = make_ensemble(P, w)
        kl = catalog("kl", dim=5)
        w = w / w.sum()
        prediction = brute_force_centroid(kl, ens, "first_arg")
        label = brute_force_centroid(kl, ens, "second_arg")
        np.testing.assert_allclose(prediction.point, np.exp(w @ np.log(P)), rtol=0, atol=1e-5)
        np.testing.assert_allclose(label.point, w @ P, rtol=0, atol=1e-5)

    def test_l1_at_d50_is_the_weighted_median(self):
        rng = np.random.default_rng(50)
        P, w = rng.uniform(-3, 3, (7, 50)), rng.uniform(0.1, 1.1, 7)
        ens = make_ensemble(P, w)
        res = brute_force_centroid(catalog("l1", dim=50), ens, "first_arg")
        order = np.argsort(P, axis=0)
        cum = np.cumsum(ens.weights[order], axis=0)
        median = P[order[np.argmax(cum >= 0.5, axis=0), np.arange(50)], np.arange(50)]
        np.testing.assert_array_equal(res.point, median)
        assert not res.non_unique
        assert res.objective == side_expectation(catalog("l1", dim=50), median, ens)

    def test_simplex_face_is_followed(self):
        # The minimizer [0.5, 0.5, 0] lies on a face of the box that the
        # null-space axes of the simplex cut obliquely.
        kl = catalog("kl", dim=3, simplex=True)
        ens = make_ensemble([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1, 1])
        res = brute_force_centroid(kl, ens, "second_arg")
        assert abs(res.objective - np.log(2)) <= 1e-9
        np.testing.assert_allclose(res.point, [0.5, 0.5, 0.0], atol=1e-6)

    def test_catalog_declares_separability(self):
        diag, full = np.diag([1.0, 2.0]), np.array([[2.0, 0.5], [0.5, 1.0]])
        box, simplex = Domain.box([0.05, 0.05], [3.0, 3.0]), Domain.simplex(2)
        separable = [
            catalog("l1", dim=2), catalog("minkowski", epsilon=1.5, dim=2),
            catalog("minkowski", epsilon=2.0, dim=2), catalog("sq_euclidean", dim=2),
            catalog("mahalanobis", K=diag), catalog("kl", dim=2),
            catalog("reverse_kl", dim=2), catalog("alpha", alpha=0.3, dim=2),
            catalog("bernoulli_kl"), make_g_mahalanobis(_log_mapping(), diag, box),
            make_g_mahalanobis(identity_mapping(), diag, box),
        ]
        coupled = [
            catalog("kl", dim=2, simplex=True), catalog("reverse_kl", dim=2, simplex=True),
            catalog("alpha", alpha=0.3, dim=2, simplex=True), catalog("mahalanobis", K=full),
            make_g_mahalanobis(_log_mapping(), full, box),
            make_g_mahalanobis(_log_mapping(), diag, simplex),
            make_g_mahalanobis(Mapping(np.log, np.exp), diag, box),
            catalog("gaussian_canonical"), catalog("zero_one_grid", dim=2),
        ]
        for loss in separable:
            assert loss.separable and loss.reverse().separable, loss
        for loss in coupled:
            assert not loss.separable and not loss.reverse().separable, loss


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

    @pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.7, 0.95])
    @pytest.mark.parametrize("d", [2, 3])
    def test_dispatcher_matches_oracle(self, rng, a, d):
        # The dispatcher's power mean is the exact constrained minimizer: the
        # oracle agrees to its own precision and never finds a lower objective.
        div = catalog("alpha", alpha=a, dim=d, simplex=True)
        for _ in range(2):
            ens = sample_simplex_ensemble(rng, int(rng.integers(2, 6)), d)
            for solve, side in ((central_prediction, "first_arg"), (central_label, "second_arg")):
                res = solve(div, ens)
                assert res.method == "closed_form"
                np.testing.assert_array_equal(res.point, power_mean_centroids(div, ens, side).point)
                oracle = brute_force_centroid(div, ens, side)
                np.testing.assert_allclose(res.point, oracle.point, rtol=0, atol=1e-5)
                assert res.objective <= oracle.objective + 1e-12 * (1 + abs(oracle.objective))

    def test_wrong_divergence_rejected(self):
        div = catalog("sq_euclidean", dim=2)
        div.domain = Domain.simplex(2)
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
