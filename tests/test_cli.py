"""Tests for the bvd batch front end."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bvd import cli
from bvd.cli import main

SPEC_DIR = Path(__file__).resolve().parent.parent / "demos" / "specs"
GOLDEN_DIR = SPEC_DIR.parent / "output"
SHIPPED_SPECS = sorted(SPEC_DIR.glob("*.json"))


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "bvd.cli", *args], capture_output=True, text=True
    )


def assert_numbers_close(fresh, golden, where, expected=0.0):
    """Numbers agree at rel 1e-9 (pytest's 1e-12 absolute floor covers exact
    zeros); a ``gap`` at abs 1e-9 * (1 + expected), since it is float noise
    for clean decompositions. ``expected`` is the sibling expected loss."""
    if where.endswith("gap"):
        assert fresh == pytest.approx(golden, rel=0, abs=1e-9 * (1 + abs(expected))), where
    else:
        assert fresh == pytest.approx(golden, rel=1e-9), where


def assert_json_close(fresh, golden, where="$"):
    assert type(fresh) is type(golden), where
    if isinstance(fresh, dict):
        assert sorted(fresh) == sorted(golden), where
        expected = fresh.get("expected_loss", 0.0)
        for key in fresh:
            if key == "gap":
                assert_numbers_close(fresh[key], golden[key], f"{where}.gap", expected)
            else:
                assert_json_close(fresh[key], golden[key], f"{where}.{key}")
    elif isinstance(fresh, list):
        assert len(fresh) == len(golden), where
        for i, (a, b) in enumerate(zip(fresh, golden)):
            assert_json_close(a, b, f"{where}[{i}]")
    elif isinstance(fresh, float):
        assert_numbers_close(fresh, golden, where)
    else:
        assert fresh == golden, where


def assert_csv_close(fresh, golden, name):
    fresh_lines, golden_lines = fresh.splitlines(), golden.splitlines()
    assert fresh_lines[0] == golden_lines[0] == cli.CSV_HEADER, name
    assert len(fresh_lines) == len(golden_lines), name
    keys = cli.CSV_HEADER.split(",")
    for fresh_row, golden_row in zip(fresh_lines[1:], golden_lines[1:]):
        row = dict(zip(keys, fresh_row.split(",")))
        ref = dict(zip(keys, golden_row.split(",")))
        for key in keys[:4]:  # divergence name and sizes
            assert row[key] == ref[key], (name, key)
        for key in keys[4:]:
            assert_numbers_close(float(row[key]), float(ref[key]),
                                 f"{name}:{row['divergence']}.{key}", float(row["expected"]))


def write_spec(tmp_path, obj, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


class TestDecomposeCommand:
    def test_kl_simplex_csv_row(self, tmp_path):
        rc = main(
            ["decompose", "--spec", str(SPEC_DIR / "kl_simplex_decompose.json"),
             "--out", str(tmp_path)]
        )
        assert rc == 0
        header, row = (tmp_path / "kl_simplex.csv").read_text().splitlines()
        assert header == "divergence,d,n_labels,n_preds,expected,noise,bias,variance,gap"
        fields = row.split(",")
        assert fields[0] == "kl" and fields[1] == "2"
        assert abs(float(fields[8])) < 1e-12
        assert float(fields[7]) == pytest.approx(-np.log(0.8), rel=1e-9)

    def test_json_report_round_trips(self, tmp_path):
        rc = main(
            ["decompose", "--spec", str(SPEC_DIR / "l1_decompose.json"),
             "--out", str(tmp_path)]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "l1_gap.json").read_text())
        assert payload["report"]["gap"] == pytest.approx(-2 / 3, abs=1e-12)
        assert payload["report"]["method"] == "brute_force"


class TestClassifyCommand:
    def test_minkowski_not_gbregman(self, tmp_path):
        rc = main(
            ["classify", "--spec", str(SPEC_DIR / "minkowski_classify.json"),
             "--out", str(tmp_path)]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "minkowski_verdict.json").read_text())
        assert payload["verdict"] == "not_gbregman"

    def test_kl_simplex_consistent(self, tmp_path):
        # The gap trials draw their ensembles on the simplex.
        spec = write_spec(tmp_path, {
            "command": "classify",
            "divergence": {"name": "kl", "params": {"dim": 3, "simplex": True}},
            "output": {"path": "kl_verdict.json", "format": "json"},
        })
        assert main(["classify", "--spec", str(spec), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "kl_verdict.json").read_text())
        assert payload["verdict"] == "consistent_with_gbregman"
        assert payload["evidence"]["failures"] == []

    def test_witness_ensembles_round_trip(self, tmp_path):
        # Gap witnesses stored in the verdict re-parse through the ensemble
        # schema and reproduce the recorded gap.
        from bvd import WeightedEnsemble, catalog
        from bvd.decomposition import decompose_generic

        main(["classify", "--spec", str(SPEC_DIR / "minkowski_classify.json"),
              "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "minkowski_verdict.json").read_text())
        entry = payload["evidence"]["gap_search"][0]
        labels = WeightedEnsemble.from_json(entry["labels"])
        preds = WeightedEnsemble.from_json(entry["preds"])
        loss = catalog("minkowski", epsilon=1.5, dim=1)
        report = decompose_generic(loss, labels, preds)
        assert report.gap == pytest.approx(entry["gap"], rel=1e-12)


    def test_unknown_classifier_field_rejected(self, tmp_path, capsys):
        # classify takes only "seed": any classifier block exits 1 by name,
        # including ones that used to raise TypeError or write a verdict.
        for block in (
            {"grid_resolution": 21},
            {"grid_size": "x"},
            {"gap_threshold": "a"},
            {"interior_margin": 0.6},
            {"grid_size": 8},
        ):
            spec = write_spec(
                tmp_path,
                {
                    "command": "classify",
                    "divergence": {"name": "l1", "params": {"dim": 1}},
                    "classifier": block,
                },
            )
            assert main(["classify", "--spec", str(spec), "--out", str(tmp_path)]) == 1, block
            err = capsys.readouterr().err
            assert "classifier" in err and "Traceback" not in err, block
            assert not (tmp_path / "classify.json").exists(), block

    @pytest.mark.parametrize("command", ["classify", "decompose"])
    @pytest.mark.parametrize("lower", [[1, 1], [float("nan"), 0]], ids=["inverted", "nan"])
    def test_inverted_or_nan_domain_named(self, tmp_path, capsys, command, lower):
        spec = {"command": command,
                "divergence": {"name": "sq_euclidean", "params": {"dim": 2}},
                "domain": {"dim": 2, "lower": lower, "upper": [0, 0]}}
        if command == "decompose":
            spec["labels"] = spec["preds"] = {"points": [[0.0, 0.0]], "weights": [1.0]}
        path = write_spec(tmp_path, spec)
        assert main([command, "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "field 'domain'" in err and "coordinate 0" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestSweepCommand:
    def test_alpha_sweep_gaps_stay_at_noise_level(self, tmp_path):
        rc = main(
            ["sweep", "--spec", str(SPEC_DIR / "alpha_sweep.json"),
             "--out", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "alpha_sweep.csv").read_text().splitlines()
        assert len(lines) == 10
        for line in lines[1:]:
            fields = line.split(",")
            assert abs(float(fields[8])) < 1e-9
        svg = (tmp_path / "alpha_sweep.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_alpha_sweep_on_a_100_class_simplex(self, tmp_path):
        # The power-mean centroids work at any d; the grid oracle would
        # refuse a 41^99-point grid.
        rng = np.random.default_rng(5)
        labels, preds = (rng.uniform(0.1, 0.9, (n, 100)) for n in (3, 4))
        values = [0.1, 0.5, 0.9]
        spec = write_spec(
            tmp_path,
            {
                "command": "sweep",
                "divergence": {"name": "alpha", "params": {"dim": 100, "simplex": True}},
                "labels": {"points": (labels / labels.sum(1, keepdims=True)).tolist(),
                           "weights": [1.0] * 3},
                "preds": {"points": (preds / preds.sum(1, keepdims=True)).tolist(),
                          "weights": [1.0] * 4},
                "sweep": {"param": "alpha", "values": values},
            },
        )
        assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == len(values)
        for row in rows:
            assert all(np.isfinite(float(x)) for x in row.split(",")[1:])


class TestCentroidCommand:
    def test_constrained_centroids_json(self, tmp_path):
        rc = main(
            ["centroid", "--spec", str(SPEC_DIR / "kl_centroid.json"),
             "--out", str(tmp_path)]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "kl_centroids.json").read_text())
        assert "central_label" in payload["results"]
        assert "central_prediction" in payload["results"]
        y_star = payload["results"]["central_prediction"]["point"]
        assert sum(y_star) == pytest.approx(1.0, abs=1e-9)
        # The normalized geometric mean, within one ulp of the exact point.
        assert payload["results"]["central_prediction"]["method"] == "closed_form"
        exact = np.array([1 / 3, 2 / 3])
        assert np.all(np.abs(np.array(y_star) - exact) <= np.spacing(exact))
        # KL has an identity map, so the label mean is exact and feasible.
        label = payload["results"]["central_label"]
        assert label["method"] == "closed_form"
        np.testing.assert_allclose(label["point"], [0.4, 0.6], rtol=0, atol=1e-12)


class TestDomainOverride:
    # The spec's top-level "domain" replaces the divergence's own.
    SIMPLEX = {"dim": 3, "lower": [0, 0, 0], "upper": [1, 1, 1],
               "eq": {"W": [[1, 1, 1]], "b": [1]}}

    def test_sq_euclidean_on_the_simplex(self, tmp_path):
        # The arithmetic mean of simplex points is on the simplex: the
        # Lagrange solve returns it with a zero multiplier.
        preds = np.array([[0.1, 0.1, 0.8], [0.3, 0.3, 0.4], [0.5, 0.25, 0.25]])
        weights = [1.0, 2.0, 3.0]
        spec = write_spec(
            tmp_path,
            {
                "command": "centroid",
                "divergence": {"name": "sq_euclidean", "params": {"dim": 3}},
                "domain": self.SIMPLEX,
                "labels": {"points": [[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]], "weights": [1, 3]},
                "preds": {"points": preds.tolist(), "weights": weights},
            },
        )
        assert main(["centroid", "--spec", str(spec), "--out", str(tmp_path)]) == 0
        results = json.loads((tmp_path / "centroid.json").read_text())["results"]
        prediction = results["central_prediction"]
        assert prediction["method"] == "lagrange"
        np.testing.assert_allclose(prediction["point"], np.average(preds, axis=0, weights=weights),
                                   rtol=0, atol=1e-15)
        assert results["central_label"]["method"] == "closed_form"

    def test_kl_under_two_equality_rows(self, tmp_path):
        W, b = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, -1.0]]), np.array([1.0, 0.1])
        spec = write_spec(
            tmp_path,
            {
                "command": "decompose",
                "divergence": {"name": "kl", "params": {"dim": 3}},
                "domain": {"dim": 3, "lower": [0, 0, 0], "eq": {"W": W.tolist(), "b": b.tolist()}},
                "labels": {"points": [[0.4, 0.3, 0.3], [0.35, 0.4, 0.25]], "weights": [1, 1]},
                "preds": {"points": [[0.3, 0.5, 0.2], [0.45, 0.2, 0.35], [0.4, 0.3, 0.3]],
                          "weights": [1, 2, 1]},
                "output": {"format": "json"},
            },
        )
        assert main(["decompose", "--spec", str(spec), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "decompose.json").read_text())["report"]
        assert abs(report["gap"]) <= 1e-9 * (1 + report["expected_loss"])
        np.testing.assert_allclose(W @ report["central_prediction"], b, rtol=0, atol=1e-10)


class TestReadme:
    def test_spec_format_example_runs(self, tmp_path):
        # The JSON block under "Spec format" in README.md is a working spec.
        readme = (SPEC_DIR.parent.parent / "README.md").read_text()
        block = readme.split("Spec format", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        spec = json.loads(block)
        path = write_spec(tmp_path, spec)
        assert main(["decompose", "--spec", str(path), "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / spec["output"]["path"]).read_text().splitlines()
        assert lines[0] == cli.CSV_HEADER


class TestDeterminism:
    @pytest.mark.parametrize("spec", SHIPPED_SPECS, ids=lambda p: p.stem)
    def test_byte_identical_reruns(self, spec, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        command = json.loads(spec.read_text())["command"]
        assert main([command, "--spec", str(spec), "--out", str(out_a)]) == 0
        assert main([command, "--spec", str(spec), "--out", str(out_b)]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        # The fresh outputs match the committed ones in demos/output/. SVGs
        # plot the float-noise gaps, so they are left out.
        for name in files_a:
            fresh, golden = (out_a / name).read_text(), (GOLDEN_DIR / name).read_text()
            if name.endswith(".json"):
                assert_json_close(json.loads(fresh), json.loads(golden), name)
            elif name.endswith(".csv"):
                assert_csv_close(fresh, golden, name)


class TestErrorHandling:
    def test_missing_field_exits_one(self, tmp_path):
        spec = write_spec(tmp_path, {"command": "decompose"})
        proc = run_cli(["decompose", "--spec", str(spec)])
        assert proc.returncode == 1
        assert "divergence" in proc.stderr

    def test_infeasible_ensemble_exits_one(self, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "command": "decompose",
                "divergence": {"name": "kl", "params": {"dim": 2, "simplex": True}},
                "labels": {"points": [[0.9, 0.9]], "weights": [1.0]},
                "preds": {"points": [[0.5, 0.5]], "weights": [1.0]},
            },
        )
        proc = run_cli(["decompose", "--spec", str(spec)])
        assert proc.returncode == 1
        assert "labels" in proc.stderr and "infeasible" in proc.stderr

    def test_bad_parameter_exits_one(self, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "command": "decompose",
                "divergence": {"name": "alpha", "params": {"alpha": 1.7, "dim": 2}},
                "labels": {"points": [[0.5, 0.5]], "weights": [1.0]},
                "preds": {"points": [[0.5, 0.5]], "weights": [1.0]},
            },
        )
        proc = run_cli(["decompose", "--spec", str(spec)])
        assert proc.returncode == 1

    def test_non_finite_pair_exits_two_naming_coordinate(self, tmp_path):
        # A prediction's zero against a positive label coordinate: KL is
        # infinite there, and the error names the coordinate.
        spec = write_spec(
            tmp_path,
            {
                "command": "decompose",
                "divergence": {"name": "kl", "params": {"dim": 2}},
                "labels": {"points": [[0.2, 0.4]], "weights": [1.0]},
                "preds": {"points": [[0.0, 0.5], [0.1, 0.3]], "weights": [1.0, 1.0]},
            },
        )
        proc = run_cli(["decompose", "--spec", str(spec), "--out", str(tmp_path / "out")])
        assert proc.returncode == 2
        assert "BoundaryError: kl: prediction coordinate 0" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_numerical_failure_exits_two(self, tmp_path):
        # Feasible points whose moment mean exceeds the variance box: the
        # closed-form central prediction fails numerically.
        spec = write_spec(
            tmp_path,
            {
                "command": "decompose",
                "divergence": {"name": "gaussian_canonical", "params": {}},
                "labels": {"points": [[0.0, 1.0]], "weights": [1.0]},
                "preds": {"points": [[-2.2, 2.4], [2.2, 2.4]], "weights": [1.0, 1.0]},
            },
        )
        proc = run_cli(["decompose", "--spec", str(spec)])
        assert proc.returncode == 2
        assert "decompose" in proc.stderr

    def test_unknown_command_rejected(self, tmp_path):
        spec = write_spec(tmp_path, {"command": "decompose"})
        proc = run_cli(["explode", "--spec", str(spec)])
        assert proc.returncode == 2  # argparse usage error

    @pytest.mark.parametrize("out_name", ["absolute", "../x.csv", ".", 5])
    def test_output_path_outside_out_dir_rejected(self, tmp_path, capsys, out_name):
        # "absolute" stands for tmp_path / "x.csv", which "../x.csv" also
        # names: both lie outside --out. "." is --out itself.
        out_dir = tmp_path / "out"
        if out_name == "absolute":
            out_name = str(tmp_path / "x.csv")
        spec = write_spec(
            tmp_path,
            {
                "command": "decompose",
                "divergence": {"name": "sq_euclidean", "params": {"dim": 1}},
                "labels": {"points": [[0.0]], "weights": [1.0]},
                "preds": {"points": [[1.0]], "weights": [1.0]},
                "output": {"path": out_name},
            },
        )
        assert main(["decompose", "--spec", str(spec), "--out", str(out_dir)]) == 1
        assert "output.path" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "field, override",
        [
            ("divergence", {"divergence": "kl"}),
            ("domain", {"domain": "x"}),
            ("output", {"output": "x"}),
            ("divergence.params", {"divergence": {"name": "kl", "params": {"dim": "2"}}}),
            ("divergence.params", {"divergence": {"name": "kl", "params": {"dim": 2, "k": 1}}}),
            ("divergence.params.domain",
             {"divergence": {"name": "g_mahalanobis", "params": {"K": [[1.0]], "domain": "x"}}}),
            ("divergence.params.domain",
             {"divergence": {"name": "g_mahalanobis",
                             "params": {"K": [[1.0, 0.0], [0.0, 1.0]],
                                        "domain": {"dim": 2, "lower": [3, 0.05],
                                                   "upper": [0.05, 3]}}}}),
            ("seed", {"command": "classify", "seed": "x"}),
            ("seed", {"command": "classify", "seed": 1.7}),
            ("seed", {"command": "classify", "seed": True}),
            ("divergence.params",
             {"divergence": {"name": "kl", "params": {"dim": 2, "simplex": "false"}}}),
            ("sweep.param", {"command": "sweep", "sweep": {"param": 5, "values": [0.5]}}),
            ("domain", {"divergence": {"name": "sq_euclidean", "params": {"dim": 2}},
                        "domain": {"dim": 2.7, "lower": [0, 0], "upper": [1, 1]}}),
            ("domain", {"domain": {"dim": 3, "lower": [0, 0, 0], "upper": [1, 1, 1]}}),
            ("divergence", {"divergence": {"name": "zero_one_grid",
                                           "params": {"dim": 2, "levels": 2.5}}}),
            ("plot", {"command": "sweep", "sweep": {"param": "dim", "values": [2]},
                      "plot": "no"}),
            ("output.format", {"command": "centroid", "output": {"format": "csv"}}),
            ("output.format", {"command": "classify", "output": {"format": "csv"}}),
            (None, [{"command": "decompose"}]),
            ("output.format", {"command": "sweep", "sweep": {"param": "dim", "values": [2]},
                               "output": {"format": "json"}}),
            ("output.format", {"command": "sweep", "sweep": {"param": "dim", "values": [2]},
                               "output": {"format": "svg"}}),
            ("sed", {"command": "classify", "sed": 3}),
            ("labels.weights", {"labels": {"points": [[0.5, 0.5]]}}),
            ("divergence.name", {"divergence": {"params": {"dim": 2}}}),
            ("domain", {"domain": {"dim": 2, "lowr": [0, 0], "upper": [1, 1]}}),
            ("domain", {"domain": {"dim": 2, "lower": [0, 0], "upper": [1, 1],
                                   "eq": {"W": [[1, 1]], "b": [1], "c": 1}}}),
            ("divergence.params",
             {"divergence": {"name": "g_mahalanobis",
                             "params": {"K": [[1.0, 0.0], [0.0, 1.0]], "gg": "log",
                                        "domain": {"dim": 2, "lower": [0.05, 0.05],
                                                   "upper": [3, 3]}}}}),
            ("sweep.values",
             {"command": "sweep", "plot": True,
              "divergence": {"name": "g_mahalanobis",
                             "params": {"K": [[1.0, 0.0], [0.0, 1.0]],
                                        "domain": {"dim": 2, "lower": [0.05, 0.05],
                                                   "upper": [3, 3]}}},
              "sweep": {"param": "g", "values": ["log", "identity"]}}),
        ],
        ids=["divergence", "domain", "output", "string_dim", "unknown_param",
             "g_mahalanobis_domain", "g_mahalanobis_inverted_domain", "string_seed",
             "float_seed", "bool_seed",
             "string_simplex", "int_sweep_param", "float_domain_dim", "domain_dim_mismatch",
             "float_levels",
             "string_plot", "centroid_csv", "classify_csv", "top_level_array",
             "sweep_json", "sweep_svg", "classify_typo", "labels_no_weights",
             "divergence_no_name", "domain_typo", "domain_eq_typo", "g_mahalanobis_typo",
             "plot_string_values"],
    )
    def test_malformed_field_named_without_traceback(self, tmp_path, field, override):
        # An override that is not an object replaces the whole spec; the
        # message then names the spec rather than a field.
        if isinstance(override, dict):
            spec = {
                "command": "decompose",
                "divergence": {"name": "kl", "params": {"dim": 2}},
                "labels": {"points": [[0.5, 0.5]], "weights": [1.0]},
                "preds": {"points": [[0.4, 0.6]], "weights": [1.0]},
                **override,
            }
            command = spec["command"]
        else:
            spec, command = override, "decompose"
        proc = run_cli([command, "--spec", str(write_spec(tmp_path, spec)),
                        "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert (f"field '{field}'" if field else "the spec must be a JSON object") in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, spec_text, message",
        [
            ("decompose", None, "spec file not found"),
            ("decompose", '{"command": "decompose",', "spec is not valid JSON"),
            ("centroid", json.dumps({"command": "centroid",
                                     "divergence": {"name": "kl", "params": {"dim": 2}}}),
             "centroid spec needs 'labels' and/or 'preds'"),
        ],
        ids=["missing_file", "invalid_json", "centroid_without_ensembles"],
    )
    def test_unusable_spec_named_without_traceback(self, tmp_path, command, spec_text, message):
        path = tmp_path / "spec.json"
        if spec_text is not None:  # None: no spec file
            path.write_text(spec_text)
        proc = run_cli([command, "--spec", str(path), "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert f"bvd: spec validation failed: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_out_of_memory_named_without_traceback(self, tmp_path, monkeypatch, capsys):
        def exhausted(spec, out_dir):
            raise MemoryError("Unable to allocate 8.00 TiB for an array with shape (2**40,)")

        monkeypatch.setitem(cli.COMMANDS, "sweep", exhausted)
        out = tmp_path / "out"
        assert main(["sweep", "--spec", str(SPEC_DIR / "alpha_sweep.json"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("bvd: sweep ran out of memory: Unable to allocate 8.00 TiB "
                       "for an array with shape (2**40,)\n")
        assert not out.exists()

    def test_null_means_absent(self, tmp_path):
        # null in each optional field writes the same bytes as leaving it out.
        shipped = SPEC_DIR / "kl_simplex_decompose.json"
        spec = json.loads(shipped.read_text())
        spec.update(domain=None, output={"path": "kl_simplex.csv", "format": None})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["decompose", "--spec", str(shipped), "--out", str(out_a)]) == 0
        assert main(["decompose", "--spec", str(write_spec(tmp_path, spec)),
                     "--out", str(out_b)]) == 0
        assert (out_a / "kl_simplex.csv").read_bytes() == (out_b / "kl_simplex.csv").read_bytes()

    def test_refused_oracle_grid_exits_one(self, tmp_path):
        # zero_one_grid is not g-Bregman, so its centroids come from the grid
        # oracle; a max over coordinates is not separable, so the oracle
        # needs the full grid and refuses 41^5 points with a ValueError
        # naming it.
        point = [[0.2, 0.2, 0.2, 0.2, 0.2]]
        spec = write_spec(
            tmp_path,
            {
                "command": "decompose",
                "divergence": {"name": "zero_one_grid", "params": {"dim": 5}},
                "labels": {"points": point, "weights": [1.0]},
                "preds": {"points": point, "weights": [1.0]},
            },
        )
        proc = run_cli(["decompose", "--spec", str(spec), "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert "brute-force grid of 41^5" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_separable_oracle_at_d5_exits_zero(self, tmp_path):
        # l1 is a sum over coordinates, so the oracle searches one axis at
        # a time and d = 5 runs; each coordinate's weighted median is an atom.
        spec = write_spec(
            tmp_path,
            {
                "command": "decompose",
                "divergence": {"name": "l1", "params": {"dim": 5}},
                "labels": {"points": [[0.2] * 5, [1.0] * 5, [3.0] * 5], "weights": [1, 1, 1]},
                "preds": {"points": [[0.5] * 5, [-1.0] * 5], "weights": [2, 1]},
                "output": {"format": "json"},
            },
        )
        proc = run_cli(["decompose", "--spec", str(spec), "--out", str(tmp_path / "out")])
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "out" / "decompose.json").read_text())["report"]
        assert report["central_label"] == [1.0] * 5
        assert report["central_prediction"] == [0.5] * 5

    def test_command_mismatch_rejected(self, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "command": "classify",
                "divergence": {"name": "l1", "params": {"dim": 1}},
            },
        )
        proc = run_cli(["decompose", "--spec", str(spec)])
        assert proc.returncode == 1
        assert "classify" in proc.stderr
