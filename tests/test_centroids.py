"""Tests for closed-form, constrained, and brute-force centroids."""

import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
import scipy.optimize

from bvd import Domain, InfeasibleMeanError, catalog, centroids, make_ensemble
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
from bvd.divergences import GBregmanDivergence, _log_mapping, make_g_mahalanobis

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
        ("reverse_kl", 3, True, "lagrange"),
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
            # The g-mean, computed here from the divergence's own map; for
            # alpha on the simplex, rescaled to sum 1.
            g = loss.map
            mean = np.einsum("k,kd->d", labels.weights, g.forward(labels.points))
            expected = g.inverse(mean)
            if name == "alpha" and simplex:
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
        # here instead of exhausting the machine.
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
            for side in ("first_arg", "second_arg"):
                try:
                    brute_force_centroid(catalog("kl", dim=5), ens, side)
                except ValueError as exc:
                    print(exc)
            centroids.GRID_RESOLUTION = 9
            coarse = brute_force_centroid(catalog("kl", dim=5), ens, "first_arg")
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
        ],
    )
    def test_blocks_do_not_change_answers(self, monkeypatch, name, params, points, side):
        ens = make_ensemble(points, np.ones(len(points)))
        loss = catalog(name, dim=ens.dim, **params)
        whole = brute_force_centroid(loss, ens, side)
        # Four rows per block: a 9-point stencil leaves one row in the last.
        monkeypatch.setattr(centroids, "BLOCK_FLOATS", 4 * ens.size * ens.dim)
        blocked = brute_force_centroid(loss, ens, side)
        assert blocked.point.tobytes() == whole.point.tobytes()
        assert repr(blocked.objective) == repr(whole.objective)
        assert blocked.non_unique == whole.non_unique
        assert whole.non_unique == (name in ("l1", "zero_one_grid"))

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
