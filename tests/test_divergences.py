"""Tests for the divergence engine and its catalog."""

import gc
import weakref

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.stats

from bvd import BoundaryError, Domain, catalog, decompose, make_ensemble
from bvd.centroids import central_label, central_prediction
from bvd.core import ConvexityError
from bvd.divergences import (
    GBregmanDivergence,
    Generator,
    _clamp,
    identity_mapping,
    make_mahalanobis,
    newton_invert,
    catalog_from_json,
)

from conftest import GBREGMAN_FAMILIES, make_entry, random_spd, sample_points


def assert_gradient_is_map(gen, mapping, grad_map, Y, label):
    """The central-difference gradient of ``gen.value`` at mapping(y) is
    grad_map(y), for each row y of Y, within 1e-6 relative or 1e-8."""
    U = np.asarray(mapping.forward(Y), dtype=float)
    want = np.asarray(grad_map.forward(Y), dtype=float)
    for j in range(U.shape[1]):
        E = np.zeros_like(U)
        E[:, j] = h = 1e-6 * (1 + np.abs(U[:, j]))
        fd = (gen.value(U + E) - gen.value(U - E)) / (2 * h)
        err = np.abs(fd - want[:, j])
        bad = np.flatnonzero(~(err <= np.maximum(1e-6 * np.abs(want[:, j]), 1e-8)))
        assert bad.size == 0, f"{label} coord {j}: {fd[bad[0]]!r} vs {want[bad[0], j]!r}"


def entries_for_properties(rng):
    out = []
    for name, dims in GBREGMAN_FAMILIES:
        for d in dims:
            out.append((f"{name}-d{d}", name, d, make_entry(name, d, rng)))
    return out


class TestEvalFixtures:
    def test_sq_euclidean_3_4_5(self):
        div = catalog("sq_euclidean", dim=2)
        assert div.eval([0, 0], [3, 4]) == pytest.approx(25.0, abs=1e-12)

    def test_kl_identity(self):
        div = catalog("kl", dim=2)
        assert div.eval([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_kl_zero_label_coordinate(self):
        div = catalog("kl", dim=2)
        assert div.eval([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2), rel=1e-12)

    def test_mahalanobis_identity_matrix(self):
        div = catalog("mahalanobis", K=np.eye(2))
        assert div.eval([0, 0], [3, 4]) == pytest.approx(25.0, abs=1e-12)

    def test_alpha_identity(self):
        div = catalog("alpha", alpha=0.5, dim=2)
        assert div.eval([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_mean_shift(self):
        div = catalog("gaussian_canonical")
        assert div.eval([0.0, 1.0], [1.0, 1.0]) == pytest.approx(0.5, rel=1e-12)


    @pytest.mark.parametrize("d", [1, 3, 50])
    def test_mahalanobis_direct_equals_defining(self, rng, d):
        div = catalog("mahalanobis", K=random_spd(rng, d))
        T, Y = rng.uniform(-3, 3, (2, 40, d))
        np.testing.assert_allclose(
            div.eval_batch(T, Y), div.eval_defining_batch(T, Y), rtol=1e-12, atol=0
        )

    def test_sq_euclidean_is_sum_of_squares(self, rng):
        div = catalog("sq_euclidean", dim=50)
        T, Y = rng.uniform(-3, 3, (2, 40, 50))
        np.testing.assert_allclose(
            div.eval_batch(T, Y), np.sum((T - Y) ** 2, -1), rtol=1e-14, atol=0
        )


class TestConciseFixtures:
    def test_sq_euclidean_concise(self):
        div = catalog("sq_euclidean", dim=1)
        assert div.eval_concise([0.0], [2.0]) == pytest.approx(4.0, abs=1e-12)

    def test_kl_concise_identity(self):
        div = catalog("kl", dim=2)
        assert div.eval_concise([0.3, 0.7], [0.3, 0.7]) == pytest.approx(0.0, abs=1e-12)

    def test_reverse_kl_concise_matches_direct(self):
        div = catalog("reverse_kl", dim=2)
        t, y = [0.5, 0.5], [0.25, 0.75]
        # Direct sum: y log(y/t) with the probability sums cancelling.
        direct = 0.25 * np.log(0.25 / 0.5) + 0.75 * np.log(0.75 / 0.5)
        assert direct == pytest.approx(0.130812, abs=1e-6)
        assert div.eval_concise(t, y) == pytest.approx(direct, rel=1e-12)
        assert div.eval(t, y) == pytest.approx(direct, rel=1e-12)


class TestDualPairFixtures:
    def test_sq_euclidean_dual(self, rng):
        div = catalog("sq_euclidean", dim=2)
        B, f = div.dual_pair()
        for _ in range(10):
            y = rng.uniform(-3, 3, 2)
            np.testing.assert_allclose(f.forward(y), 2 * y, rtol=1e-14)
            v = f.forward(y)
            assert B.value(v) == pytest.approx(np.sum(v**2) / 4, rel=1e-14)

    def test_sq_euclidean_wide_dual(self, rng):
        # K = I is its own inverse: the dual map is 2y and back, the dual
        # generator |v|^2 / 4.
        div = catalog("sq_euclidean", dim=200)
        B, f = div.dual_pair()
        Y = rng.uniform(-3, 3, (5, 200))
        V = f.forward(Y)
        np.testing.assert_allclose(V, 2 * Y, rtol=1e-15, atol=0)
        np.testing.assert_allclose(f.inverse(V), Y, rtol=1e-15, atol=0)
        np.testing.assert_allclose(B.value(V), np.sum(V**2, -1) / 4, rtol=1e-15, atol=0)

    def test_kl_dual_is_log_and_sum_exp(self, rng):
        div = catalog("kl", dim=3)
        B, f = div.dual_pair()
        for _ in range(10):
            y = rng.uniform(0.05, 0.95, 3)
            np.testing.assert_allclose(f.forward(y), np.log(y), rtol=1e-14)
            v = np.log(y)
            assert B.value(v) == pytest.approx(np.sum(np.exp(v)), rel=1e-14)

    def test_reverse_kl_dual_is_identity_and_neg_entropy(self, rng):
        div = catalog("reverse_kl", dim=2)
        B, f = div.dual_pair()
        assert f.is_identity
        for _ in range(10):
            v = rng.uniform(0.05, 0.95, 2)
            np.testing.assert_allclose(f.forward(v), v)
            assert B.value(v) == pytest.approx(np.sum(v * np.log(v) - v), rel=1e-13)

    def test_conjugate_matches_sup_form(self, rng):
        # B(f(y)) must equal sup_t { g(t) . f(y) - A(g(t)) }.
        for name in ("sq_euclidean", "kl", "reverse_kl", "alpha"):
            div = make_entry(name, 2, rng)
            B, f = div.dual_pair()
            lo = div.domain.lower + 0.02
            hi = div.domain.upper - 0.02
            for _ in range(3):
                y = sample_points(name, rng, 1, 2)[0]
                v = f.forward(y)

                def neg_obj(t):
                    return -(div.map.forward(t) @ v - div.gen.value(div.map.forward(t)))

                res = scipy.optimize.minimize(
                    neg_obj, y, bounds=list(zip(lo, hi)), method="L-BFGS-B"
                )
                assert B.value(v) == pytest.approx(-res.fun, rel=1e-6, abs=1e-8)


class TestReversal:
    def test_reverse_kl_value(self):
        kl = catalog("kl", dim=2)
        rev = kl.reverse()
        got = rev.eval([0.25, 0.75], [0.5, 0.5])
        want = 0.5 * np.log(0.5 / 0.25) + 0.5 * np.log(0.5 / 0.75)
        assert want == pytest.approx(0.143841, abs=1e-6)
        assert got == pytest.approx(want, rel=1e-10)

    def test_reverse_of_symmetric_is_itself(self, rng):
        div = catalog("sq_euclidean", dim=2)
        rev = div.reverse()
        for _ in range(20):
            t, y = rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2)
            assert rev.eval(t, y) == pytest.approx(div.eval(t, y), rel=1e-9, abs=1e-12)

    def test_double_reverse_is_identity(self, rng):
        for name in ("kl", "alpha", "gaussian_canonical"):
            d = 2
            div = make_entry(name, d, rng)
            rev2 = div.reverse().reverse()
            for _ in range(20):
                t, y = sample_points(name, rng, 2, d)
                a, b = div.eval(t, y), rev2.eval(t, y)
                assert b == pytest.approx(a, rel=1e-9, abs=1e-12)
                # The twice-swapped defining form is {A, g} again.
                assert rev2.eval_defining(t, y) == pytest.approx(a, rel=1e-9, abs=1e-12)

    def test_reverse_is_built_once_and_follows_renames(self, rng):
        kl = catalog("kl", dim=2)
        assert kl.reverse() is kl.reverse()
        # A rename after construction renames the reverse and its errors.
        kl.name = "foo"
        rev = kl.reverse()
        assert rev.name == "reverse(foo)"
        with pytest.raises(BoundaryError) as exc:
            rev.eval([0.0, 1.0], [0.5, 0.5])
        assert str(exc.value).startswith("reverse(foo): label coordinate 0 = 0 ")
        # reverse_kl is kl's reverse renamed; its own reverse is a new twin.
        assert catalog("reverse_kl", dim=2).reverse().name == "reverse(reverse_kl)"
        # The reverse shares params, also when they are set after construction.
        sq = catalog("sq_euclidean", dim=2)
        assert sq.reverse().to_json()["params"] == {"dim": 2, "bound": 10.0}
        sq.reverse()
        sq.params = {"dim": 2}
        assert sq.reverse().params is sq.params
        # A new domain or separability after a decompose is followed too:
        # the label side then decomposes as on a fresh loss with it.
        labels = make_ensemble(rng.dirichlet(np.ones(3), 5), rng.random(5) + 0.1)
        preds = make_ensemble(rng.dirichlet(np.ones(3), 9), rng.random(9) + 0.1)
        kl, fresh = catalog("kl", dim=3), catalog("kl", dim=3)
        decompose(kl, labels, preds)
        kl.domain = fresh.domain = Domain.simplex(3)
        assert kl.reverse().domain is kl.domain
        assert decompose(kl, labels, preds).to_json() == decompose(fresh, labels, preds).to_json()
        kl.separable = False
        assert kl.reverse().separable is False

    def test_reverse_swaps_arguments_all_entries(self, rng):
        for label, name, d, div in entries_for_properties(rng):
            rev = div.reverse()
            for _ in range(25):
                t, y = sample_points(name, rng, 2, d)
                fwd = div.eval(t, y)
                bwd = rev.eval(y, t)
                assert bwd == pytest.approx(fwd, rel=1e-9, abs=1e-9), label
                # rev.eval swaps div's own evaluator; the {B, f} defining
                # form is the paper's identity.
                dual = rev.eval_defining(y, t)
                assert dual == pytest.approx(fwd, rel=1e-9, abs=1e-9), label


class TestDivergenceProperties:
    def test_nonnegative_and_identity(self, rng):
        for label, name, d, div in entries_for_properties(rng):
            T = sample_points(name, rng, 1000, d)
            Y = sample_points(name, rng, 1000, d)
            vals = div.eval_batch(T, Y)
            assert np.all(vals >= 0), label
            diag = div.eval_batch(T, T)
            assert np.max(np.abs(diag)) <= 1e-12, label

    def test_defining_equals_concise(self, rng):
        for label, name, d, div in entries_for_properties(rng):
            for _ in range(50):
                t, y = sample_points(name, rng, 2, d)
                a = div.eval_defining(t, y)
                b = div.eval_concise(t, y)
                assert abs(a - b) <= 1e-9 * (1.0 + abs(a)), label

    def test_direct_equals_defining(self, rng):
        for label, name, d, div in entries_for_properties(rng):
            for _ in range(50):
                t, y = sample_points(name, rng, 2, d)
                a = div.eval_defining(t, y)
                b = div.eval(t, y)
                assert abs(a - b) <= 1e-9 * (1.0 + abs(a)), label

    def test_duality_round_trip(self, rng):
        # f(y) = grad A(g(y)) and g(y) = grad B(f(y)), the gradients taken by
        # central differences of the values A and B, which are stated apart
        # from the maps.
        for label, name, d, div in entries_for_properties(rng):
            B, f = div.dual_pair()
            Y = sample_points(name, rng, 50, d)
            assert_gradient_is_map(div.gen, div.map, f, Y, f"{label} grad A")
            assert_gradient_is_map(B, f, div.map, Y, f"{label} grad B")

    def test_mapping_bijectivity(self, rng):
        for label, name, d, div in entries_for_properties(rng):
            B, f = div.dual_pair()
            Y = sample_points(name, rng, 50, d)
            for mapping in (div.map, f):
                back = mapping.inverse(mapping.forward(Y))
                np.testing.assert_allclose(back, Y, rtol=1e-10, atol=1e-10, err_msg=label)

    def test_generator_strict_convexity(self, rng):
        for label, name, d, div in entries_for_properties(rng):
            B, f = div.dual_pair()
            for gen, mapping in ((div.gen, div.map), (B, f)):
                P = sample_points(name, rng, 40, d)
                U = np.asarray(mapping.forward(P), dtype=float)
                u, v = U[:20], U[20:]
                distinct = np.max(np.abs(u - v), axis=1) > 1e-6
                mid = gen.value(0.5 * (u + v))
                avg = 0.5 * (gen.value(u) + gen.value(v))
                assert np.all(mid[distinct] < avg[distinct] - 1e-14), label

    def test_generator_gradient_matches_fd(self, rng):
        # reverse() swaps the pairs and keeps each potential with the map
        # that is its gradient.
        for label, name, d, div in entries_for_properties(rng):
            rev = div.reverse()
            B, f = rev.dual_pair()
            Y = sample_points(name, rng, 5, d)
            assert_gradient_is_map(rev.gen, rev.map, f, Y, f"reverse {label} grad A")
            assert_gradient_is_map(B, f, rev.map, Y, f"reverse {label} grad B")

    def test_derived_dual_matches_closed_form(self, rng):
        # Strip the closed-form dual from the KL entry and let Newton
        # inversion rebuild it; values must agree with log / sum-exp.
        kl = catalog("kl", dim=2)
        stripped = GBregmanDivergence(
            gen=Generator(kl.gen.value, gradient=np.log), mapping=kl.map,
            domain=kl.domain, name="kl_stripped",
        )
        assert not stripped.dual_is_closed_form
        B, f = stripped.dual_pair()
        for _ in range(10):
            y = rng.uniform(0.1, 0.9, 2)
            np.testing.assert_allclose(f.forward(y), np.log(y), rtol=1e-10)
            np.testing.assert_allclose(f.inverse(np.log(y)), y, rtol=1e-9, atol=1e-11)
            assert B.value(np.log(y)) == pytest.approx(np.sum(y), rel=1e-10)
        rev = stripped.reverse()
        for _ in range(10):
            t, y = rng.uniform(0.1, 0.9, (2, 2))
            assert rev.eval(y, t) == pytest.approx(kl.eval(t, y), rel=1e-8, abs=1e-10)
            # The {B, f} form runs on the Newton-derived dual.
            assert rev.eval_defining(y, t) == pytest.approx(
                kl.eval(t, y), rel=1e-8, abs=1e-10
            )


class TestGaussianConsistency:
    def test_mean_variance_form_matches_canonical_chain(self, rng):
        # The (m, s) evaluation must equal the natural-parameter Bregman
        # value computed through the coordinate map, and both must equal
        # the actual KL divergence between the densities (quadrature).
        div = catalog("gaussian_canonical")
        for _ in range(10):
            mt, st = rng.uniform(-1, 1), rng.uniform(0.3, 2.0)
            my, sy = rng.uniform(-1, 1), rng.uniform(0.3, 2.0)
            val = div.eval([mt, st], [my, sy])
            chain = div.eval_defining([mt, st], [my, sy])
            assert chain == pytest.approx(val, rel=1e-9, abs=1e-12)

            def integrand(z):
                py = scipy.stats.norm.pdf(z, my, np.sqrt(sy))
                if py == 0.0:
                    return 0.0
                logpt = scipy.stats.norm.logpdf(z, mt, np.sqrt(st))
                return py * (np.log(py) - logpt)

            lo = my - 12 * np.sqrt(sy)
            hi = my + 12 * np.sqrt(sy)
            quad, _ = scipy.integrate.quad(integrand, lo, hi, limit=200)
            assert val == pytest.approx(quad, rel=1e-7, abs=1e-9)

    def test_nonnegativity_on_samples(self, rng):
        div = catalog("gaussian_canonical")
        P = sample_points("gaussian_canonical", rng, 500, 2)
        Q = sample_points("gaussian_canonical", rng, 500, 2)
        assert np.all(div.eval_batch(P, Q) >= 0)


class TestAlphaLimits:
    PROBES = [([0.3, 0.7], [0.6, 0.4]), ([0.2, 0.8], [0.5, 0.5]), ([0.7, 0.3], [0.2, 0.8])]

    def test_alpha_near_one_approaches_kl(self):
        kl = catalog("kl", dim=2)
        near = catalog("alpha", alpha=1 - 1e-4, dim=2)
        for t, y in self.PROBES:
            assert near.eval(t, y) == pytest.approx(kl.eval(t, y), abs=1e-3)

    def test_alpha_near_zero_approaches_reverse_kl(self):
        rkl = catalog("reverse_kl", dim=2)
        near = catalog("alpha", alpha=1e-4, dim=2)
        for t, y in self.PROBES:
            assert near.eval(t, y) == pytest.approx(rkl.eval(t, y), abs=1e-3)


def _user_built(name: str, derived_dual: bool) -> GBregmanDivergence:
    """The catalog entry's {A, g} and domain without its evaluator: with a
    Newton-derived dual pair (only grad A given), or with the closed-form
    dual pair but no ``direct_eval``."""
    entry = catalog(name, dim=2)
    if derived_dual:
        return GBregmanDivergence(Generator(entry.gen.value, gradient=np.log), entry.map,
                                  entry.domain)
    B, f = entry.dual_pair()
    return GBregmanDivergence(entry.gen, entry.map, entry.domain, dual_gen=B, dual_map=f)


class TestBoundariesAndErrors:
    def test_kl_boundary_prediction_names_coordinate(self):
        div = catalog("kl", dim=2)
        with pytest.raises(BoundaryError, match="coordinate 0"):
            div.eval([0.5, 0.5], [0.0, 1.0])

    def test_reverse_kl_boundary_label(self):
        div = catalog("reverse_kl", dim=2)
        with pytest.raises(BoundaryError, match="coordinate 1"):
            div.eval([0.5, 0.0], [0.5, 0.5])
        # Zero coordinates on the prediction side are fine (0 log 0 = 0).
        assert np.isfinite(div.eval([0.5, 0.5], [1.0, 0.0]))

    def test_gaussian_boundary_variance(self):
        div = catalog("gaussian_canonical", var_min=0.0)
        with pytest.raises(BoundaryError, match="variance"):
            div.eval([0.0, 0.0], [0.0, 1.0])

    @pytest.mark.parametrize(
        "div, t, y, message",
        [
            (catalog("kl", dim=2), [0.0, 1.0], [0.5, 0.5],
             "label coordinate 0 = 0 is at the domain boundary (needs > 0)"),
            (catalog("bernoulli_kl"), [0.0], [0.5], "label coordinate 0 = 0 is at the boundary of (0, 1)"),
            (catalog("gaussian_canonical", var_min=0.0), [0.0, 0.0], [0.0, 1.0],
             "label coordinate 1 (variance) = 0 must be > 0"),
        ],
        ids=["kl", "bernoulli_kl", "gaussian_canonical"],
    )
    def test_reversed_boundary_names_its_own_argument(self, div, t, y, message):
        # The zero is the reversed divergence's label and the forward one's
        # prediction; each error names its own divergence and argument.
        with pytest.raises(BoundaryError) as exc:
            div.reverse().eval(t, y)
        assert str(exc.value) == f"reverse({div.name}): {message}"
        with pytest.raises(BoundaryError) as exc:
            div.eval(y, t)
        assert str(exc.value) == f"{div.name}: {message.replace('label', 'prediction')}"

    def test_reverse_kl_boundary_message(self):
        with pytest.raises(BoundaryError) as exc:
            catalog("reverse_kl", dim=2).eval([0.5, 0.0], [0.5, 0.5])
        assert str(exc.value) == "reverse_kl: label coordinate 1 = 0 is at the domain boundary (needs > 0)"

    @pytest.mark.parametrize(
        "build",
        [lambda: catalog("kl", dim=2), lambda: catalog("reverse_kl", dim=2),
         lambda: catalog("gaussian_canonical"), lambda: catalog("bernoulli_kl"),
         lambda: _user_built("kl", derived_dual=True),
         lambda: _user_built("kl", derived_dual=False)],
        ids=["kl", "reverse_kl", "gaussian_canonical", "bernoulli_kl", "derived_dual",
             "no_direct_eval"],
    )
    def test_validated_divergence_is_freed_without_gc(self, build):
        # The boundary check is a method, and neither the default evaluator
        # nor a derived dual closes over the divergence, so reference
        # counting alone frees it and its cached reverse.
        gc.disable()
        try:
            div = build()
            refs = [weakref.ref(div), weakref.ref(div.reverse())]
            del div
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_shared_zero_coordinates_stay_finite(self):
        # Coordinates where both arguments vanish contribute nothing; the
        # boundary error fires only when the opposing argument is positive.
        kl = catalog("kl", dim=2)
        assert kl.eval([0.0, 1.0], [0.0, 1.0]) == 0.0
        assert np.isfinite(kl.eval([0.0, 0.5], [0.0, 0.4]))
        bern = catalog("bernoulli_kl")
        assert bern.eval([0.0], [0.0]) == 0.0
        assert bern.eval([1.0], [1.0]) == 0.0
        with pytest.raises(BoundaryError):
            bern.eval([0.5], [1.0])
        rkl = catalog("reverse_kl", dim=2)
        assert rkl.eval([0.3, 0.0], [0.7, 0.0]) == pytest.approx(
            0.7 * np.log(0.7 / 0.3) + 0.3 - 0.7, rel=1e-12
        )

    def test_infeasible_point_rejected(self):
        div = catalog("kl", dim=2)
        with pytest.raises(ValueError, match="infeasible"):
            div.eval([1.5, 0.5], [0.5, 0.5])

    def test_catalog_bad_parameters(self):
        with pytest.raises(ValueError, match="positive definite"):
            catalog("mahalanobis", K=np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError, match="alpha"):
            catalog("alpha", alpha=1.5, dim=2)
        with pytest.raises(ValueError, match="unknown"):
            catalog("nope", dim=2)
        with pytest.raises(ValueError, match="epsilon"):
            catalog("minkowski", epsilon=2.5, dim=1)
        with pytest.raises(ValueError, match="K must be a square matrix"):
            make_mahalanobis(np.ones((2, 3)))
        with pytest.raises(TypeError, match="simplex must be true or false, got 'no'"):
            catalog("kl", dim=2, simplex="no")

    def _g_mahalanobis_json(self, g):
        return {"name": "g_mahalanobis",
                "params": {"K": [[2.0, 0.5], [0.5, 1.0]], "g": g,
                           "domain": {"dim": 2, "lower": [-3.0, -3.0], "upper": [3.0, 3.0]}}}

    def test_g_mahalanobis_json_maps(self):
        with pytest.raises(ValueError, match="unknown g_mahalanobis map 'sqrt'"):
            catalog_from_json(self._g_mahalanobis_json("sqrt"))
        # With the identity map the loss is a Mahalanobis distance, whose
        # centroid is the arithmetic mean.
        loss = catalog_from_json(self._g_mahalanobis_json("identity"))
        assert loss.map.is_identity
        preds = make_ensemble([[0.5, -1.0], [2.0, 1.5], [-1.0, 0.25]], [1, 2, 1])
        mean = preds.weights @ preds.points
        np.testing.assert_allclose(central_prediction(loss, preds).point, mean, rtol=1e-12)
        np.testing.assert_allclose(central_label(loss, preds).point, mean, rtol=1e-12)


    @pytest.mark.parametrize(
        "vals, want",
        [
            ([0.5, np.nan, 0.0], [0.5, np.nan, 0.0]),  # nan passes through
            ([0.5, -np.inf], [0.5, -np.inf]),  # -inf is not clamped
            ([-1e-12, -1e-13, 0.25], [0.0, 0.0, 0.25]),  # noise in [-1e-12, 0) becomes 0
            ([0.5, -2e-12], ConvexityError),  # anything more negative raises
        ],
        ids=["nan", "minus_inf", "noise", "negative"],
    )
    def test_clamp(self, vals, want):
        if want is ConvexityError:
            with pytest.raises(ConvexityError, match="-2.000e-12"):
                _clamp(np.array(vals))
            return
        got = _clamp(np.array(vals))
        np.testing.assert_array_equal(got, want)
        assert not np.signbit(got[np.isfinite(got) & (got == 0)]).any()

    def test_non_symmetric_matrix_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            catalog("mahalanobis", K=np.array([[2.0, 0.5], [0.0, 1.0]]))


class TestNewtonInversion:
    def test_quartic_dual_requires_newton(self, rng):
        # A(u) = sum(u^4/4 + u^2/2) has no closed-form conjugate.
        gen = Generator(
            value=lambda u: np.sum(u**4 / 4 + u**2 / 2, axis=-1),
            gradient=lambda u: u**3 + u,
        )
        dom = Domain.box([-2, -2], [2, 2])
        div = GBregmanDivergence(gen, identity_mapping(), dom, name="quartic")
        B, f = div.dual_pair()
        for _ in range(10):
            y = rng.uniform(-1.8, 1.8, 2)
            v = f.forward(y)
            np.testing.assert_allclose(v, y**3 + y, rtol=1e-12)
            np.testing.assert_allclose(f.inverse(v), y, rtol=1e-9, atol=1e-10)
            assert B.value(v) == pytest.approx(y @ v - gen.value(y), rel=1e-9)
        rev = div.reverse()
        for _ in range(5):
            t, y = rng.uniform(-1.5, 1.5, (2, 2))
            assert rev.eval(y, t) == pytest.approx(div.eval(t, y), rel=1e-8, abs=1e-10)
            assert rev.eval_defining(y, t) == pytest.approx(
                div.eval(t, y), rel=1e-8, abs=1e-10
            )

    def test_generator_without_gradient_or_dual_rejected(self):
        gen = Generator(value=lambda u: np.sum(u**4 / 4 + u**2 / 2, axis=-1))
        with pytest.raises(ValueError, match="^quartic: the generator has no gradient"):
            GBregmanDivergence(gen, identity_mapping(), Domain.box([-2], [2]), name="quartic")

    @pytest.mark.parametrize("gradient", [np.log, None], ids=["gradient", "no_gradient"])
    @pytest.mark.parametrize("given", ["dual_gen", "dual_map"])
    def test_half_given_dual_pair_rejected(self, given, gradient):
        # Half a closed-form pair {B, f} names the missing half, whether or
        # not the generator has a gradient to derive a pair from.
        kl = catalog("kl", dim=2)
        half = dict(zip(("dual_gen", "dual_map"), kl.dual_pair()))
        missing = "dual_map" if given == "dual_gen" else "dual_gen"
        with pytest.raises(ValueError, match=f"^kl_half: .* lacks its {missing}$"):
            GBregmanDivergence(Generator(kl.gen.value, gradient=gradient), kl.map, kl.domain,
                               name="kl_half", **{given: half[given]})

    def test_bisection_fallback_on_singular_jacobian(self):
        # x^3 has a vanishing derivative at the start; Newton stalls and the
        # 1-D bisection fallback must take over.
        root = newton_invert(
            lambda x: x**3,
            np.array([8.0]),
            np.array([0.0]),
        )
        assert root[0] == pytest.approx(2.0, abs=1e-10)

    def test_non_convergence_reports_residual(self):
        from bvd import ConvergenceError

        # exp never reaches a negative target.
        with pytest.raises(ConvergenceError) as err:
            newton_invert(np.exp, np.array([-1.0]), np.array([0.0]))
        assert err.value.residual is not None and err.value.residual >= 1.0

    def test_minkowski_epsilon_two_is_bregman(self):
        div = catalog("minkowski", epsilon=2.0, dim=2)
        assert isinstance(div, GBregmanDivergence)
        loss = catalog("minkowski", epsilon=1.5, dim=2)
        assert not isinstance(loss, GBregmanDivergence)


class TestGMahalanobis:
    def _make(self):
        from bvd.divergences import _log_mapping, make_g_mahalanobis

        K = np.array([[2.0, 0.4], [0.4, 1.0]])
        domain = Domain.box([0.05, 0.05], [3.0, 3.0])
        return make_g_mahalanobis(_log_mapping(), K, domain), K

    def test_eval_is_quadratic_in_log_coordinates(self, rng):
        div, K = self._make()
        for _ in range(20):
            t, y = rng.uniform(0.1, 2.5, (2, 2))
            diff = np.log(t) - np.log(y)
            assert div.eval(t, y) == pytest.approx(diff @ K @ diff, rel=1e-12)

    def test_symmetric_and_reversible(self, rng):
        div, _ = self._make()
        rev = div.reverse()
        for _ in range(10):
            t, y = rng.uniform(0.1, 2.5, (2, 2))
            assert div.eval(t, y) == pytest.approx(div.eval(y, t), rel=1e-10)
            assert rev.eval(y, t) == pytest.approx(div.eval(t, y), rel=1e-9)
            assert rev.eval_defining(y, t) == pytest.approx(div.eval(t, y), rel=1e-9)

    def test_duality_round_trip(self, rng):
        div, _ = self._make()
        B, f = div.dual_pair()
        for _ in range(10):
            y = rng.uniform(0.1, 2.5, 2)
            np.testing.assert_allclose(f.inverse(f.forward(y)), y, rtol=1e-10)
            assert_gradient_is_map(B, f, div.map, y[None, :], "g_mahalanobis grad B")

    def test_additive_decomposition(self, rng):
        from bvd import make_ensemble
        from bvd.decomposition import decompose_gbregman

        div, _ = self._make()
        labels = make_ensemble(rng.uniform(0.2, 2.0, (4, 2)), rng.random(4) + 0.1)
        preds = make_ensemble(rng.uniform(0.2, 2.0, (5, 2)), rng.random(5) + 0.1)
        r = decompose_gbregman(div, labels, preds)
        assert abs(r.gap) <= 1e-9 * (1 + abs(r.expected_loss))

    def test_json_construction_with_named_map(self):
        spec = {
            "name": "g_mahalanobis",
            "params": {
                "K": [[2.0, 0.4], [0.4, 1.0]],
                "g": "log",
                "domain": {"dim": 2, "lower": [0.05, 0.05], "upper": [3.0, 3.0]},
            },
        }
        div = catalog_from_json(spec)
        t, y = np.array([0.5, 1.5]), np.array([1.2, 0.8])
        diff = np.log(t) - np.log(y)
        K = np.array(spec["params"]["K"])
        assert div.eval(t, y) == pytest.approx(diff @ K @ diff, rel=1e-12)


class TestCounterexampleLossBasics:
    def test_nonnegative_with_identity(self, rng):
        for loss, sampler in (
            (catalog("l1", dim=2), lambda n: rng.uniform(-3, 3, (n, 2))),
            (catalog("minkowski", epsilon=1.5, dim=2), lambda n: rng.uniform(-3, 3, (n, 2))),
            (catalog("zero_one_grid", dim=2, levels=3),
             lambda n: rng.integers(0, 3, (n, 2)).astype(float)),
        ):
            T, Y = sampler(200), sampler(200)
            vals = loss.eval_batch(T, Y)
            assert np.all(vals >= 0), loss.name
            assert np.all(loss.eval_batch(T, T) == 0), loss.name

    def test_counterexamples_carry_kink_flag(self):
        assert catalog("l1", dim=1).has_diagonal_kinks
        assert catalog("minkowski", epsilon=0.8, dim=1).has_diagonal_kinks
        assert catalog("zero_one_grid", dim=1).has_diagonal_kinks
        assert not catalog("kl", dim=1).has_diagonal_kinks


class TestSerialization:
    def test_catalog_json_round_trip(self):
        div = catalog("alpha", alpha=0.3, dim=2, simplex=True)
        spec = div.to_json()
        assert spec["metadata"]["dual"] == "closed_form"
        again = catalog_from_json(spec)
        assert again.name == "alpha"
        assert again.domain.n_constraints == 1
        t, y = [0.3, 0.7], [0.6, 0.4]
        assert again.eval(t, y) == div.eval(t, y)

    def test_mahalanobis_json_round_trip(self):
        K = np.array([[2.0, 0.5], [0.5, 1.0]])
        div = catalog("mahalanobis", K=K)
        again = catalog_from_json(div.to_json())
        assert again.eval([0.0, 0.0], [1.0, 1.0]) == div.eval([0.0, 0.0], [1.0, 1.0])


def _contract_cases():
    """Every catalog entry with a sampler of points inside its domain."""
    from bvd.divergences import _log_mapping, make_g_mahalanobis

    K = np.array([[2.0, 0.4, 0.0], [0.4, 1.0, 0.2], [0.0, 0.2, 1.5]])

    def inner(lo, hi, d):
        return lambda rng, n: rng.uniform(lo, hi, (n, d))

    def grid(rng, n):
        return rng.integers(0, 3, (n, 2)).astype(float)

    return [
        ("sq_euclidean", catalog("sq_euclidean", dim=3), inner(-3, 3, 3)),
        ("mahalanobis", catalog("mahalanobis", K=K), inner(-3, 3, 3)),
        ("kl", catalog("kl", dim=3), inner(0.1, 0.9, 3)),
        ("reverse_kl", catalog("reverse_kl", dim=3), inner(0.1, 0.9, 3)),
        ("alpha", catalog("alpha", alpha=0.3, dim=3), inner(0.1, 0.9, 3)),
        ("gaussian_canonical", catalog("gaussian_canonical"),
         lambda rng, n: np.column_stack([rng.uniform(-1, 1, n), rng.uniform(0.3, 2.5, n)])),
        ("bernoulli_kl", catalog("bernoulli_kl"), inner(0.1, 0.9, 1)),
        ("g_mahalanobis",
         make_g_mahalanobis(_log_mapping(), K, Domain.box(0.05 * np.ones(3), 3 * np.ones(3))),
         inner(0.1, 2.5, 3)),
        ("minkowski", catalog("minkowski", epsilon=1.5, dim=3), inner(-3, 3, 3)),
        ("l1", catalog("l1", dim=3), inner(-3, 3, 3)),
        ("zero_one_grid", catalog("zero_one_grid", dim=2, levels=3), grid),
    ]


CONTRACT_CASES = _contract_cases()


class TestBroadcastContract:
    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    @pytest.mark.parametrize("name,loss,sampler", CONTRACT_CASES,
                             ids=[c[0] for c in CONTRACT_CASES])
    def test_outer_product_equals_tiled(self, rng, name, loss, sampler, reverse):
        loss = loss.reverse() if reverse else loss
        T, Y = sampler(rng, 5), sampler(rng, 7)
        Y[0] = T[0]  # one pair on the diagonal
        outer = loss.eval_batch(T[:, None, :], Y[None, :, :])
        assert outer.shape == (5, 7)
        shape = (5, 7, loss.dim)
        tiled = loss.eval_batch(np.broadcast_to(T[:, None, :], shape),
                                np.broadcast_to(Y[None, :, :], shape))
        np.testing.assert_allclose(outer, tiled, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    @pytest.mark.parametrize("name,loss,sampler", CONTRACT_CASES,
                             ids=[c[0] for c in CONTRACT_CASES])
    def test_lists_and_integers_match_float_arrays(self, rng, name, loss, sampler, reverse):
        # Maps and potentials take float arrays as they are: the entry
        # points convert outside input once, so nested lists and integer
        # arrays give the float arrays' values bit for bit.
        loss = loss.reverse() if reverse else loss
        T, Y = sampler(rng, 4), sampler(rng, 4)
        forms = [(T.tolist(), Y.tolist())]
        if name in ("l1", "zero_one_grid"):  # domains that hold integer points
            T, Y = np.round(T), np.round(Y)
            forms = [(T.tolist(), Y.tolist()), (T.astype(int), Y.astype(int))]

        def values(T, Y):
            out = {"eval": [loss.eval(t, y) for t, y in zip(T, Y)],
                   "eval_batch": loss.eval_batch(T, Y)}
            if isinstance(loss, GBregmanDivergence):
                out["eval_concise"] = [loss.eval_concise(t, y) for t, y in zip(T, Y)]
                out["eval_defining_batch"] = loss.eval_defining_batch(T, Y)
            return out

        want = values(T, Y)
        for form in forms:
            got = values(*form)
            for key in want:
                assert np.array_equal(got[key], want[key]), (key, type(form[0]))
