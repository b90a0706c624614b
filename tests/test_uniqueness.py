"""Tests for mixed-derivative separability and the empirical classifier."""

import tracemalloc

import numpy as np
import pytest

from bvd import CallableLoss, Domain, catalog, core, decompose_generic, make_ensemble
from bvd import uniqueness as U
from bvd.uniqueness import (
    N_GAP_TRIALS,
    N_SEPARABILITY_TRIALS,
    GAP_THRESHOLD,
    ClassifierConfig,
    UnreliableHessianError,
    _sample_grid,
    classify_loss,
    mixed_hessian_fd,
    separability_rank_test,
)

from conftest import random_spd, sample_points


def minkowski_mixed(eps, t, y):
    """Analytic d2/(dy dt) of |t - y|^eps in one dimension."""
    return -eps * (eps - 1.0) * abs(t - y) ** (eps - 2.0)


class TestMixedHessianFixtures:
    def test_squared_error_constant(self, rng):
        loss = catalog("sq_euclidean", dim=1)
        for _ in range(5):
            t, y = rng.uniform(-3, 3, 2)
            s = mixed_hessian_fd(loss, [t], [y])
            assert s.matrix[0, 0] == pytest.approx(-2.0, rel=1e-6)
            assert s.reliable

    def test_kl_diagonal(self):
        loss = catalog("kl", dim=2)
        s = mixed_hessian_fd(loss, [0.3, 0.7], [0.5, 0.5])
        np.testing.assert_allclose(s.matrix, np.diag([-2.0, -2.0]), atol=2e-6)
        assert s.reliable

    def test_minkowski_interior_point(self):
        loss = catalog("minkowski", epsilon=1.5, dim=1)
        s = mixed_hessian_fd(loss, [0.0], [2.0])
        want = minkowski_mixed(1.5, 0.0, 2.0)
        assert want == pytest.approx(-0.530330, abs=1e-6)
        assert s.matrix[0, 0] == pytest.approx(want, rel=1e-5)

    def test_fd_matches_analytic_forms(self, rng):
        # Squared error, forward KL, and Minkowski interior points all have
        # closed-form mixed derivatives to compare against.
        kl = catalog("kl", dim=2)
        for _ in range(5):
            t = rng.uniform(0.2, 0.8, 2)
            y = rng.uniform(0.2, 0.8, 2)
            s = mixed_hessian_fd(kl, t, y)
            np.testing.assert_allclose(s.matrix, np.diag(-1.0 / y), rtol=1e-5)
        mk = catalog("minkowski", epsilon=1.5, dim=1)
        for _ in range(5):
            t = rng.uniform(-3, 0, 1)
            y = rng.uniform(1, 3, 1)
            s = mixed_hessian_fd(mk, t, y)
            assert s.matrix[0, 0] == pytest.approx(
                minkowski_mixed(1.5, t[0], y[0]), rel=1e-5
            )

    def test_mahalanobis_constant_minus_two_k(self, rng):
        K = random_spd(rng, 2)
        loss = catalog("mahalanobis", K=K)
        for _ in range(5):
            t = rng.uniform(-3, 3, 2)
            y = rng.uniform(-3, 3, 2)
            s = mixed_hessian_fd(loss, t, y)
            np.testing.assert_allclose(s.matrix, -2.0 * K, atol=1e-6)

    def test_near_kink_flagged_unreliable(self):
        loss = catalog("minkowski", epsilon=1.5, dim=1)
        s = mixed_hessian_fd(loss, [0.0], [2.5e-4], step=1e-4)
        assert not s.reliable

    def test_stencil_leaving_domain_rejected(self):
        loss = catalog("kl", dim=2)
        with pytest.raises(ValueError, match="stencil"):
            mixed_hessian_fd(loss, [0.5, 0.5], [1.0, 0.5])

    def test_bad_step_rejected(self):
        loss = catalog("sq_euclidean", dim=1)
        with pytest.raises(ValueError, match="step"):
            mixed_hessian_fd(loss, [0.0], [1.0], step=0.0)


class TestSeparability:
    def test_grid_of_another_dimension_is_named(self):
        loss = catalog("sq_euclidean", dim=2)
        with pytest.raises(ValueError, match="grid dimension mismatch"):
            separability_rank_test(loss, np.zeros((4, 2)), np.zeros((4, 3)))

    def test_sq_euclidean_rank_d(self, rng):
        loss = catalog("sq_euclidean", dim=2)
        grids = rng.uniform(-3, 3, (2, 5, 2))
        v = separability_rank_test(loss, grids[0], grids[1])
        assert v.separable and v.numerical_rank <= 2

    def test_kl_rank_d_with_tiny_tail(self, rng):
        loss = catalog("kl", dim=2)
        label_grid = rng.uniform(0.15, 0.85, (5, 2))
        pred_grid = rng.uniform(0.15, 0.85, (5, 2))
        v = separability_rank_test(loss, label_grid, pred_grid)
        assert v.separable
        sv = v.singular_values
        assert sv[2] / sv[0] < 1e-8

    def test_minkowski_determinant_witness(self):
        loss = catalog("minkowski", epsilon=1.5, dim=1)
        v = separability_rank_test(loss, [[0.0], [1.0]], [[2.0], [4.0]])
        assert not v.separable
        assert v.witness is not None
        want = (
            minkowski_mixed(1.5, 0.0, 2.0) * minkowski_mixed(1.5, 1.0, 4.0)
            - minkowski_mixed(1.5, 0.0, 4.0) * minkowski_mixed(1.5, 1.0, 2.0)
        )
        assert want == pytest.approx(-0.0516103, abs=1e-6)
        assert v.witness["determinant"] == pytest.approx(want, abs=1e-3)

    def test_sign_structure_in_one_dimension(self, rng):
        # Scalar mixed derivative of a divergence is strictly negative on
        # the interior: it equals -g'(t) f'(y) with both maps monotone.
        for name in ("sq_euclidean", "kl", "reverse_kl", "alpha", "bernoulli_kl"):
            if name == "bernoulli_kl":
                loss = catalog(name)
            elif name == "alpha":
                loss = catalog(name, alpha=0.5, dim=1)
            else:
                loss = catalog(name, dim=1)
            T = sample_points(name, rng, 6, 1)
            Y = sample_points(name, rng, 6, 1)
            for t, y in zip(T, Y):
                s = mixed_hessian_fd(loss, t, y)
                assert s.matrix[0, 0] < 0, name

    def test_grid_too_small_rejected(self):
        loss = catalog("sq_euclidean", dim=2)
        with pytest.raises(ValueError, match="at least"):
            separability_rank_test(loss, [[0.0, 0.0]], [[1.0, 1.0]])

    def test_unreliable_grid_withholds_verdict(self):
        # Grids straddling the L1 kink produce divergent stencils.
        loss = catalog("l1", dim=1)
        pts = np.linspace(0.0, 1e-3, 6)[:, None]
        with pytest.raises(UnreliableHessianError, match="withheld"):
            separability_rank_test(loss, pts, pts, step=1e-4)


def _stack_minor(scalar):
    """Reference witness search: np.argmax over the whole L(L - 1)/2 x K x K
    stack of 2 x 2 minors of ``scalar``."""
    l1s, l2s = np.triu_indices(scalar.shape[0], 1)
    dets = (scalar[l1s, :, None] * scalar[l2s, None, :]
            - scalar[l2s, :, None] * scalar[l1s, None, :])
    p, k1, k2 = np.unravel_index(np.argmax(np.abs(dets)), dets.shape)
    return float(dets[p, k1, k2]), int(k1), int(k2), int(l1s[p]), int(l2s[p])


class TestWitnessSearch:
    @pytest.mark.parametrize("budget", [1, 100, core.BLOCK_FLOATS], ids=["one_pair", "few_pairs", "default"])
    def test_chunks_match_the_whole_stack(self, rng, monkeypatch, budget):
        # Exact ties, all-zero stacks and NaNs: every chunking picks the
        # stack's first largest |det|, or its first NaN.
        monkeypatch.setattr(core, "BLOCK_FLOATS", budget)
        for i in range(400):
            L, K = rng.integers(2, 9, 2)
            scalar = [rng.normal(size=(L, K)), rng.integers(-2, 3, (L, K)).astype(float),
                      np.zeros((L, K)), rng.integers(-1, 2, (L, K)).astype(float)][i % 4]
            if i % 4 == 3:
                scalar[rng.random((L, K)) < 0.2] = np.nan
            assert repr(U._largest_minor(scalar)) == repr(_stack_minor(scalar))

    @pytest.mark.parametrize("budget", [1, core.BLOCK_FLOATS], ids=["one_pair", "default"])
    def test_minkowski_witness_matches_the_whole_stack(self, monkeypatch, budget):
        monkeypatch.setattr(core, "BLOCK_FLOATS", budget)
        loss = catalog("minkowski", epsilon=1.5, dim=1)
        T_grid = np.linspace(0.0, 1.0, 12)[:, None]
        Y_grid = np.linspace(2.0, 3.5, 10)[:, None]
        v = separability_rank_test(loss, T_grid, Y_grid)
        T = np.repeat(T_grid[None], 10, axis=0).reshape(-1, 1)  # pair (l, k)
        Y = np.repeat(Y_grid[:, None], 12, axis=1).reshape(-1, 1)
        det, k1, k2, l1, l2 = _stack_minor(U._mixed_hessians(loss, T, Y, None)[0].reshape(10, 12))
        assert v.witness == {"labels": [T_grid[k1, 0], T_grid[k2, 0]],
                             "predictions": [Y_grid[l1, 0], Y_grid[l2, 0]], "determinant": det}

    @pytest.mark.parametrize("labels_below", [True, False], ids=["labels_below", "labels_above"])
    def test_hundred_point_grids_stay_small(self, labels_below):
        # The whole stack of 4950 x 100 x 100 minors would take 763 MB.
        loss = catalog("minkowski", epsilon=1.5, dim=1)
        low, high = np.linspace(0.0, 1.0, 100)[:, None], np.linspace(2.0, 3.0, 100)[:, None]
        T_grid, Y_grid = (low, high) if labels_below else (high, low)
        tracemalloc.start()
        try:
            v = separability_rank_test(loss, T_grid, Y_grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        (t1, t2), (y1, y2) = v.witness["labels"], v.witness["predictions"]
        want = (minkowski_mixed(1.5, t1, y1) * minkowski_mixed(1.5, t2, y2)
                - minkowski_mixed(1.5, t2, y1) * minkowski_mixed(1.5, t1, y2))
        assert v.witness["determinant"] == pytest.approx(want, abs=1e-3)


class TestClassifier:
    def test_unbounded_domain_is_named(self):
        loss = CallableLoss(1, Domain(1), lambda T, Y: np.sum((T - Y) ** 2, axis=-1))
        with pytest.raises(ValueError, match="classification needs a bounded domain"):
            classify_loss(loss)

    def test_kl_consistent(self):
        result = classify_loss(catalog("kl", dim=2), ClassifierConfig(seed=3))
        assert result.verdict == "consistent_with_gbregman"
        assert result.evidence["separability"]
        assert all(s["separable"] for s in result.evidence["separability"])

    def test_l1_not_gbregman_via_gap(self):
        result = classify_loss(catalog("l1", dim=1), ClassifierConfig(seed=3))
        assert result.verdict == "not_gbregman"
        gaps = [g["gap"] for g in result.evidence["gap_search"]]
        assert any(abs(g) > 1e-3 for g in gaps)

    def test_minkowski_not_gbregman_via_determinant(self):
        result = classify_loss(
            catalog("minkowski", epsilon=1.5, dim=1), ClassifierConfig(seed=3)
        )
        assert result.verdict == "not_gbregman"
        non_separable = [
            s for s in result.evidence["separability"] if not s["separable"]
        ]
        assert non_separable and non_separable[0]["witness"] is not None

    def test_zero_one_grid_not_gbregman(self):
        result = classify_loss(catalog("zero_one_grid", dim=1, levels=2), ClassifierConfig(seed=5))
        assert result.verdict == "not_gbregman"

    def test_failing_evaluations_are_inconclusive(self):
        # A loss that is nan everywhere fails every probe: both separability
        # trials and all six gap trials.
        loss = CallableLoss(1, Domain.unit_box(1), lambda T, Y: np.nan * (T - Y)[..., 0])
        result = classify_loss(loss)
        assert result.verdict == "inconclusive"
        assert len(result.evidence["failures"]) == N_SEPARABILITY_TRIALS + N_GAP_TRIALS == 8

    def test_verdict_is_reproducible(self):
        loss = catalog("minkowski", epsilon=1.5, dim=1)
        a = classify_loss(loss, ClassifierConfig(seed=9))
        b = classify_loss(loss, ClassifierConfig(seed=9))
        assert a.to_json() == b.to_json()

    def test_evidence_carries_seeds_and_sizes(self):
        result = classify_loss(catalog("kl", dim=1), ClassifierConfig(seed=42))
        ev = result.evidence
        assert ev["seed"] == 42
        assert "grid_size" in ev and "gap_threshold" in ev


class TestEqualityConstrainedClassifier:
    """On a domain with equalities every probe point is drawn on the
    equality set, so the gap trials' ensembles are feasible."""

    @staticmethod
    def _max_relative_gap(result):
        return max(abs(g["gap"]) / abs(g["expected_loss"]) for g in result.evidence["gap_search"])

    @pytest.mark.parametrize("name, d", [("kl", 2), ("kl", 3), ("reverse_kl", 3)])
    def test_simplex_kl_consistent(self, name, d):
        result = classify_loss(catalog(name, dim=d, simplex=True))
        assert result.verdict == "consistent_with_gbregman"
        assert result.evidence["failures"] == []
        assert len(result.evidence["gap_search"]) == N_GAP_TRIALS
        for entry in result.evidence["gap_search"]:
            for side in ("labels", "preds"):
                sums = np.sum(entry[side]["points"], axis=1)
                np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)
        assert self._max_relative_gap(result) < 1e-6

    def test_simplex_alpha_not_gbregman(self):
        # The alpha divergence constrained to the simplex has no additive split.
        result = classify_loss(catalog("alpha", alpha=0.5, dim=3, simplex=True))
        assert result.verdict == "not_gbregman"
        assert result.evidence["failures"] == []
        assert self._max_relative_gap(result) > GAP_THRESHOLD

    def test_l1_on_simplex_not_gbregman(self):
        loss = CallableLoss(3, Domain.simplex(3), lambda T, Y: np.sum(np.abs(T - Y), axis=-1),
                            name="l1_simplex", has_diagonal_kinks=True, separable=True)
        result = classify_loss(loss, ClassifierConfig(seed=3))
        assert result.verdict == "not_gbregman"
        assert result.evidence["failures"] == []

    def test_box_domain_draws_are_plain_uniform(self):
        # Without equalities the grid is the uniform draw itself and takes
        # nothing more from the stream, so box-domain evidence is as before.
        lo, hi = np.array([0.1, -1.0]), np.array([0.9, 2.0])
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        X = _sample_grid(a, lo, hi, 5, Domain.box(lo - 0.1, hi + 0.1))
        np.testing.assert_array_equal(X, lo + (hi - lo) * b.random((5, 2)))
        assert a.random() == b.random()

    def test_empty_equality_set_in_box_fails_by_name(self):
        # x1 + x2 = 1.9 misses the shrunk box [0.08, 0.92]^2: the draws give
        # up after their attempts and every gap trial fails as infeasible.
        domain = Domain(2, np.zeros(2), np.ones(2), np.ones((1, 2)), np.array([1.9]))
        loss = CallableLoss(2, domain, lambda T, Y: np.sum((T - Y) ** 2, axis=-1))
        result = classify_loss(loss)
        assert result.verdict == "inconclusive"
        gap_failures = [f for f in result.evidence["failures"] if f.startswith("gap trial")]
        assert len(gap_failures) == N_GAP_TRIALS
        assert all("infeasible" in f for f in gap_failures)


def _scaled(loss, s):
    """s times ``loss`` as a plain callable with the same declared structure."""
    return CallableLoss(loss.dim, loss.domain, lambda T, Y: s * loss.eval_batch(T, Y),
                        name=f"{s:g}*{loss.name}", has_diagonal_kinks=loss.has_diagonal_kinks,
                        separable=loss.separable)


class TestScaleFreeGapWitness:
    """The gap witness is relative to the expected loss, so multiplying a
    loss by a large constant does not make it look non-Bregman, nor a small
    one hide a counterexample."""

    @pytest.mark.parametrize("name", ["sq_euclidean", "kl"])
    def test_scaled_gbregman_is_consistent(self, name):
        # 1e6 sq_euclidean is Mahalanobis with K = 1e6 I; its oracle gaps
        # are float noise of a large expected loss.
        result = classify_loss(_scaled(catalog(name, dim=2), 1e6))
        assert result.verdict == "consistent_with_gbregman"
        assert result.evidence["gap_threshold"] == 1e-3

    @pytest.mark.parametrize("scale", [1.0, 1e-6])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("name, params", [("l1", {}), ("minkowski", {"epsilon": 1.5})])
    def test_counterexamples_stay_not_gbregman(self, name, params, d, scale):
        loss = _scaled(catalog(name, dim=d, **params), scale)
        assert classify_loss(loss, ClassifierConfig(seed=3)).verdict == "not_gbregman"


def _sequential_classify(loss, seed):
    """The classifier with one decompose_generic call per gap trial, in
    trial order: the reference for the lockstep search of all trials."""
    rng, domain, d = np.random.default_rng(seed), loss.domain, loss.dim
    margin = U.INTERIOR_MARGIN * (domain.upper - domain.lower)
    lo, hi = domain.lower + margin, domain.upper - margin
    evidence = {"seed": seed, "grid_size": U.GRID_SIZE,
                "n_separability_trials": N_SEPARABILITY_TRIALS, "n_gap_trials": N_GAP_TRIALS,
                "gap_threshold": GAP_THRESHOLD, "separability": [], "gap_search": [],
                "failures": []}
    witness = False
    h_ref = U.DEFAULT_STEP_SCALE * (1.0 + float(np.max(np.abs([lo, hi]))))
    kink_margin = U.KINK_MARGIN_STEPS * h_ref
    for trial in range(N_SEPARABILITY_TRIALS):
        label_grid = _sample_grid(rng, lo, hi, max(U.GRID_SIZE, 2 * d), domain)
        pred_grid = _sample_grid(rng, lo, hi, max(U.GRID_SIZE, 2 * d), domain)
        if loss.has_diagonal_kinks:
            for row in range(pred_grid.shape[0]):
                for _ in range(200):
                    if np.all(np.min(np.abs(label_grid - pred_grid[row]), axis=1) >= kink_margin):
                        break
                    pred_grid[row] = _sample_grid(rng, lo, hi, 1, domain)[0]
        try:
            verdict = separability_rank_test(loss, label_grid, pred_grid)
        except (UnreliableHessianError, ValueError, ArithmeticError) as exc:
            evidence["failures"].append(f"separability trial {trial}: {exc}")
            continue
        evidence["separability"].append(verdict.to_json())
        witness = witness or not verdict.separable
    for trial in range(N_GAP_TRIALS):
        n = int(rng.integers(2, U.SUPPORT_SIZE + 1))
        labels = make_ensemble(_sample_grid(rng, lo, hi, n, domain), rng.random(n) + 0.1)
        m = int(rng.integers(2, U.SUPPORT_SIZE + 1))
        preds = make_ensemble(_sample_grid(rng, lo, hi, m, domain), rng.random(m) + 0.1)
        try:
            report = decompose_generic(loss, labels, preds)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            evidence["failures"].append(f"gap trial {trial}: {exc}")
            continue
        evidence["gap_search"].append({"labels": labels.to_json(), "preds": preds.to_json(),
                                       "gap": report.gap, "expected_loss": report.expected_loss})
        witness = witness or abs(report.gap) > GAP_THRESHOLD * abs(report.expected_loss)
    verdict = ("not_gbregman" if witness else "inconclusive" if evidence["failures"]
               else "consistent_with_gbregman")
    return U.ClassificationResult(verdict=verdict, evidence=evidence)


def _half_nan():
    """Squared error on [0, 1], nan wherever a point passes 0.7: the gap
    trials whose ensembles reach past it fail, the others do not."""
    return CallableLoss(1, Domain.unit_box(1), lambda T, Y: np.where(
        np.maximum(T, Y)[..., 0] > 0.7, np.nan, (T - Y)[..., 0] ** 2), "half_nan")


class TestLockstepClassifier:
    """Searching all gap trials' centroids in lockstep changes no evidence."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("name, params", [
        ("l1", {"dim": 2}), ("minkowski", {"epsilon": 1.5, "dim": 1}),
        ("zero_one_grid", {"levels": 3, "dim": 2}), ("kl", {"dim": 1}),
        ("sq_euclidean", {"dim": 2}), ("kl", {"dim": 3, "simplex": True}),
    ])
    def test_matches_sequential_trials(self, name, params, seed):
        loss = catalog(name, **params)
        got = classify_loss(loss, ClassifierConfig(seed=seed))
        assert got.to_json() == _sequential_classify(loss, seed).to_json()

    def test_failure_messages_stay_in_trial_order(self):
        got = classify_loss(_half_nan(), ClassifierConfig(seed=0))
        assert got.to_json() == _sequential_classify(_half_nan(), 0).to_json()
        failed = [int(f.split(":")[0].split()[-1]) for f in got.evidence["failures"]
                  if f.startswith("gap trial")]
        assert 0 < len(failed) < N_GAP_TRIALS and failed == sorted(failed)
        assert len(got.evidence["gap_search"]) == N_GAP_TRIALS - len(failed)

    def test_both_sides_failing_raise_the_label_side_error(self):
        # A label at 0.3141 makes each label-side evaluation raise, a
        # prediction at 0.2718 each prediction-side one; when both do, the
        # lockstep search runs each side alone and the label side's error wins.
        def fn(T, Y):
            if np.any(T[..., 0] == 0.3141):
                raise RuntimeError("label-side point")
            if np.any(Y[..., 0] == 0.2718):
                raise ArithmeticError("prediction-side point")
            return np.sum((T - Y) ** 2, axis=-1)

        loss = CallableLoss(1, Domain.unit_box(1), fn)
        labels, preds = make_ensemble([[0.3141], [0.6]], [1, 1]), make_ensemble([[0.2718]], [1])
        clean = make_ensemble([[0.5]], [1])
        with pytest.raises(RuntimeError, match="label-side point"):
            decompose_generic(loss, labels, preds)
        with pytest.raises(RuntimeError, match="label-side point"):
            decompose_generic(loss, labels, clean)
        with pytest.raises(ArithmeticError, match="prediction-side point"):
            decompose_generic(loss, clean, preds)
