"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from bvd import catalog, make_ensemble
from bvd.cli import main as cli_main
from bvd.core import pair_expectation
from bvd.centroids import (
    brute_force_centroid,
    constrained_central_prediction,
    constrained_central_label,
    f_mean_prediction,
    g_mean_label,
    power_mean_centroids,
)
from bvd.decomposition import (
    decompose_constrained_bregman,
    decompose_gbregman,
    decompose_generic,
    exp_family_loglik_decompose,
    gaussian_log_partition,
    ordering_violation_gap,
)
from bvd.uniqueness import mixed_hessian_fd, separability_rank_test

from conftest import make_entry, random_spd, sample_ensemble, sample_points

SPEC_DIR = Path(__file__).resolve().parent.parent / "demos" / "specs"


def ok(n, text):
    print(f"\nPASS criterion {n}: {text}")


def additivity_families(rng):
    fams = [
        ("sq_euclidean", lambda d: catalog("sq_euclidean", dim=d), (1, 2, 3, 4)),
        ("mahalanobis", lambda d: catalog("mahalanobis", K=random_spd(rng, d)), (1, 2, 3, 4)),
        ("kl", lambda d: catalog("kl", dim=d), (1, 2, 3, 4)),
        ("reverse_kl", lambda d: catalog("reverse_kl", dim=d), (1, 2, 3, 4)),
        ("alpha(0.3)", lambda d: catalog("alpha", alpha=0.3, dim=d), (1, 2, 3, 4)),
        ("alpha(0.5)", lambda d: catalog("alpha", alpha=0.5, dim=d), (1, 2, 3, 4)),
        ("alpha(0.7)", lambda d: catalog("alpha", alpha=0.7, dim=d), (1, 2, 3, 4)),
        ("gaussian_canonical", lambda d: catalog("gaussian_canonical"), (2,)),
    ]
    return fams


def sampler_name(name):
    return name.split("(")[0] if name.startswith("alpha") else name


def test_criterion_1_clean_additivity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for name, build, dims in additivity_families(rng):
        for _ in range(500):
            d = int(rng.choice(dims))
            div = build(d)
            labels = sample_ensemble(sampler_name(name), rng, int(rng.integers(1, 9)), d)
            preds = sample_ensemble(sampler_name(name), rng, int(rng.integers(1, 9)), d)
            r = decompose_gbregman(div, labels, preds)
            rel = abs(r.gap) / (1.0 + abs(r.expected_loss))
            worst = max(worst, rel)
            assert rel <= 1e-9, (name, d)
    ok(1, f"clean additivity over 8 x 500 random ensembles, worst |gap|/(1+E) = {worst:.2e}")


def test_criterion_2_constrained_kl_fixture():
    div = catalog("kl", dim=2, simplex=True)
    labels = make_ensemble([[0.5, 0.5]], [1])
    preds = make_ensemble([[0.2, 0.8], [0.8, 0.2]], [1, 1])
    r = decompose_constrained_bregman(div, labels, preds)
    np.testing.assert_allclose(r.central_prediction, [0.5, 0.5], atol=1e-10)
    assert r.variance == pytest.approx(-np.log(0.8), rel=1e-9)
    assert abs(r.gap) < 1e-12

    rdiv = catalog("reverse_kl", dim=2, simplex=True)
    m = decompose_constrained_bregman(rdiv, preds, labels)
    np.testing.assert_allclose(m.central_label, [0.5, 0.5], atol=1e-10)
    assert m.intrinsic_noise == pytest.approx(-np.log(0.8), rel=1e-9)
    assert abs(m.gap) < 1e-12
    ok(2, "constrained KL fixture: y* = (1/2, 1/2), variance = -log 0.8, "
          "gap < 1e-12; reverse-KL mirror agrees")


def test_criterion_3_centroid_oracle_equivalence():
    rng = np.random.default_rng(303)
    families = [
        ("sq_euclidean", (1, 2, 3)),
        ("mahalanobis", (1, 2, 3)),
        ("kl", (1, 2, 3)),
        ("reverse_kl", (1, 2, 3)),
        ("alpha", (1, 2, 3)),
        ("gaussian_canonical", (2,)),
        ("bernoulli_kl", (1,)),
    ]
    worst = 0.0
    for name, dims in families:
        for i in range(100):
            d = int(rng.choice(dims))
            div = make_entry(name, d, rng)
            ens = sample_ensemble(name, rng, int(rng.integers(2, 7)), d)
            if i % 2 == 0:
                closed = f_mean_prediction(div, ens)
                oracle = brute_force_centroid(div, ens, "first_arg")
            else:
                closed = g_mean_label(div, ens)
                oracle = brute_force_centroid(div, ens, "second_arg")
            err = float(np.max(np.abs(closed.point - oracle.point)))
            worst = max(worst, err)
            assert err <= 1e-5, (name, d, i)

    # Exact fixtures for each closed-form family of means.
    kl = catalog("kl", dim=2)
    preds = make_ensemble([[0.2, 0.8], [0.8, 0.2]], [1, 1])
    np.testing.assert_allclose(f_mean_prediction(kl, preds).point, [0.4, 0.4], rtol=1e-12)
    rkl = catalog("reverse_kl", dim=2)
    np.testing.assert_allclose(f_mean_prediction(rkl, preds).point, [0.5, 0.5], rtol=1e-12)
    alpha = catalog("alpha", alpha=0.5, dim=2, simplex=True)
    pm = power_mean_centroids(alpha, make_ensemble([[0.2, 0.8], [0.5, 0.5]], [1, 1]),
                              "first_arg")
    q = np.array([((np.sqrt(0.2) + np.sqrt(0.5)) / 2) ** 2,
                  ((np.sqrt(0.8) + np.sqrt(0.5)) / 2) ** 2])
    np.testing.assert_allclose(pm.point, q / q.sum(), rtol=1e-12)
    gauss = catalog("gaussian_canonical")
    np.testing.assert_allclose(
        g_mean_label(gauss, make_ensemble([[0, 1], [2, 3]], [1, 1])).point,
        [0.5, 1.5], rtol=1e-12)
    np.testing.assert_allclose(
        f_mean_prediction(gauss, make_ensemble([[0, 1], [2, 1]], [1, 1])).point,
        [1.0, 2.0], rtol=1e-12)
    ok(3, f"closed-form means match the brute-force oracle on 7 x 100 instances "
          f"(worst coordinate error {worst:.2e}); all mean fixtures exact")


def test_criterion_4_non_decomposability_witnesses():
    l1 = catalog("l1", dim=1)
    r = decompose_generic(l1, make_ensemble([[0.0]], [1]),
                          make_ensemble([[0.0], [1.0]], [1, 2]))
    assert r.gap == pytest.approx(-2 / 3, abs=1e-12)

    mink = catalog("minkowski", epsilon=1.5, dim=1)
    v = separability_rank_test(mink, [[0.0], [1.0]], [[2.0], [4.0]])
    analytic = (0.75**2) * (2.0**-0.5 * 3.0**-0.5 - 4.0**-0.5 * 1.0)
    assert analytic == pytest.approx(-0.0516, abs=1e-4)
    assert not v.separable
    assert v.witness["determinant"] == pytest.approx(analytic, abs=1e-3)

    alpha = catalog("alpha", alpha=0.5, dim=2, simplex=True)
    labels = make_ensemble([[0.2, 0.8], [0.8, 0.2]], [1, 3])
    preds = make_ensemble([[0.9, 0.1], [0.3, 0.7]], [1, 1])
    t_star = power_mean_centroids(alpha, labels, "second_arg")
    y_star = power_mean_centroids(alpha, preds, "first_arg")
    gap = (pair_expectation(alpha, labels, preds) - t_star.objective
           - alpha.eval(t_star.point, y_star.point) - y_star.objective)
    assert abs(gap) > 1e-3

    zo = catalog("zero_one_grid", dim=1, levels=2)
    rz = decompose_generic(zo, make_ensemble([[0.0]], [1]),
                           make_ensemble([[0.0], [1.0]], [1, 2]))
    assert abs(rz.gap) > 1e-3
    ok(4, f"witnesses: L1 gap = -2/3 (1e-12), Minkowski(1.5) determinant "
          f"{v.witness['determinant']:.4f} ~ {analytic:.4f}, alpha-on-simplex gap "
          f"{gap:.4f}, zero-one gap {rz.gap:.3f}")


def test_criterion_5_separability_of_catalog_entries():
    rng = np.random.default_rng(505)
    families = [
        ("sq_euclidean", (1, 2, 3)),
        ("mahalanobis", (1, 2, 3)),
        ("kl", (1, 2, 3)),
        ("reverse_kl", (1, 2, 3)),
        ("alpha", (1, 2, 3)),
        ("gaussian_canonical", (2,)),
        ("bernoulli_kl", (1,)),
    ]
    worst_ratio = 0.0
    for name, dims in families:
        for d in dims:
            div = make_entry(name, d, rng)
            label_grid = sample_points(name, rng, 20, d)
            pred_grid = sample_points(name, rng, 20, d)
            v = separability_rank_test(div, label_grid, pred_grid)
            assert v.separable and v.numerical_rank <= d, (name, d)
            sv = v.singular_values
            ratio = sv[d] / sv[0]
            worst_ratio = max(worst_ratio, ratio)
            assert ratio < 1e-6, (name, d, ratio)

    # Finite differences against closed forms where they exist.
    sq = catalog("sq_euclidean", dim=2)
    s = mixed_hessian_fd(sq, [0.5, -1.0], [1.5, 2.0])
    np.testing.assert_allclose(s.matrix, -2.0 * np.eye(2), atol=1e-5)
    kl = catalog("kl", dim=2)
    t, y = np.array([0.3, 0.7]), np.array([0.45, 0.55])
    s = mixed_hessian_fd(kl, t, y)
    np.testing.assert_allclose(s.matrix, np.diag(-1.0 / y), rtol=1e-5)
    mink = catalog("minkowski", epsilon=1.5, dim=1)
    s = mixed_hessian_fd(mink, [0.0], [2.0])
    assert s.matrix[0, 0] == pytest.approx(-0.75 * 2.0**-0.5, rel=1e-5)
    ok(5, f"rank <= d on 20x20 interior grids for every entry, d in 1..3 "
          f"(worst sigma_(d+1)/sigma_1 = {worst_ratio:.2e}); finite differences "
          f"match analytic mixed derivatives to 1e-5")


def test_criterion_6_duality_and_reversal():
    rng = np.random.default_rng(606)
    families = [
        ("sq_euclidean", 3), ("mahalanobis", 2), ("kl", 3), ("reverse_kl", 3),
        ("alpha", 2), ("gaussian_canonical", 2), ("bernoulli_kl", 1),
    ]
    for name, d in families:
        div = make_entry(name, d, rng)
        rev = div.reverse()
        T = sample_points(name, rng, 1000, d)
        Y = sample_points(name, rng, 1000, d)
        fwd = div.eval_batch(T, Y)
        bwd = rev.eval_batch(Y, T)
        np.testing.assert_allclose(bwd, fwd, rtol=1e-9, atol=1e-9, err_msg=name)
        # The reverse's {B, f} defining form: the paper's duality itself.
        dual = rev.eval_defining_batch(Y, T)
        np.testing.assert_allclose(dual, fwd, rtol=1e-9, atol=1e-9, err_msg=name)
        for _ in range(25):
            t, y = sample_points(name, rng, 2, d)
            a = div.eval_defining(t, y)
            b = div.eval_concise(t, y)
            assert abs(a - b) <= 1e-9 * (1.0 + abs(a)), name
    ok(6, "reverse(div)(y, t) = div(t, y) on 1000 pairs per entry; defining "
          "and mixed-form evaluations agree to 1e-9")


def test_criterion_7_ordering_and_uniqueness_probe():
    kl = catalog("kl", dim=2)
    labels = make_ensemble([[0.3, 0.7]], [1])
    preds = make_ensemble([[0.2, 0.8], [0.6, 0.4]], [1, 1])
    swapped = ordering_violation_gap(kl, labels, preds, swap=("bias",))
    assert abs(swapped) > 1e-6

    rng = np.random.default_rng(707)
    maha = catalog("mahalanobis", K=random_spd(rng, 2))
    ml = make_ensemble(rng.uniform(-2, 2, (3, 2)), rng.random(3) + 0.1)
    mp = make_ensemble(rng.uniform(-2, 2, (4, 2)), rng.random(4) + 0.1)
    for swap in (("noise",), ("bias",), ("variance",), ("noise", "bias", "variance")):
        assert abs(ordering_violation_gap(maha, ml, mp, swap=swap)) < 1e-12

    l1 = catalog("l1", dim=1)
    flat = brute_force_centroid(l1, make_ensemble([[0.0], [1.0]], [1, 1]), "first_arg")
    assert flat.non_unique
    ok(7, f"swapped-bias KL gap {swapped:.2e} > 1e-6; all Mahalanobis swaps "
          f"< 1e-12; L1 flat median flagged non-unique")


def test_criterion_8_alpha_limits():
    probes = [([0.3, 0.7], [0.6, 0.4]), ([0.2, 0.8], [0.5, 0.5]),
              ([0.7, 0.3], [0.2, 0.8])]
    kl = catalog("kl", dim=2)
    rkl = catalog("reverse_kl", dim=2)
    hi = catalog("alpha", alpha=1 - 1e-4, dim=2)
    lo = catalog("alpha", alpha=1e-4, dim=2)
    worst = 0.0
    for t, y in probes:
        da = abs(hi.eval(t, y) - kl.eval(t, y))
        db = abs(lo.eval(t, y) - rkl.eval(t, y))
        worst = max(worst, da, db)
        assert da <= 1e-3 and db <= 1e-3
    ok(8, f"alpha(1-1e-4) ~ KL and alpha(1e-4) ~ reverse KL on fixed probes "
          f"(worst deviation {worst:.2e})")


def test_criterion_9_gaussian_log_likelihood():
    B = gaussian_log_partition()
    preds = make_ensemble([[-1.0, -0.5], [1.0, -0.5]], [1, 1])
    r = exp_family_loglik_decompose(B, 0.0, preds)
    direct = 0.5 * (0.5 * np.log(2 * np.pi) + 0.5) * 2 + 0.0
    direct = np.mean([0.5 * np.log(2 * np.pi) + 0.5, 0.5 * np.log(2 * np.pi) + 0.5])
    assert r.expected_loss == pytest.approx(direct, rel=1e-12)
    assert abs(r.bias + r.variance - r.expected_loss) <= 1e-9
    assert abs(r.gap) <= 1e-9
    ok(9, f"two-component Gaussian fixture: bias {r.bias:.6f} + variance "
          f"{r.variance:.6f} = expected NLL {r.expected_loss:.6f} (gap {r.gap:.1e})")


def test_criterion_10_cli_determinism(tmp_path):
    specs = sorted(SPEC_DIR.glob("*.json"))
    assert specs, "shipped example specs missing"
    for spec in specs:
        command = json.loads(spec.read_text())["command"]
        out_a = tmp_path / f"{spec.stem}_a"
        out_b = tmp_path / f"{spec.stem}_b"
        assert cli_main([command, "--spec", str(spec), "--out", str(out_a)]) == 0
        assert cli_main([command, "--spec", str(spec), "--out", str(out_b)]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for nm in names:
            assert (out_a / nm).read_bytes() == (out_b / nm).read_bytes(), (spec.stem, nm)
    ok(10, f"byte-identical CSV/JSON/SVG on repeated runs of all "
           f"{len(specs)} shipped example specs")
