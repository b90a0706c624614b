"""Batch front end: ``bvd decompose|centroid|classify|sweep --spec FILE``.

One spec file drives one run. All randomness is seeded from the spec and
floats are serialized with shortest round-trip repr, so re-running a spec
byte-reproduces its outputs. Exit code 1 flags a validation problem (bad
spec, infeasible ensemble), exit code 2 a numerical failure, with the
offending field or operation named on stderr.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

import numpy as np

from .core import (
    BoundaryError,
    ConvergenceError,
    ConvexityError,
    Domain,
    InfeasibleMeanError,
    WeightedEnsemble,
)
from .divergences import catalog_from_json
from .centroids import central_label, central_prediction
from .decomposition import decompose
from .uniqueness import ClassifierConfig, classify_loss

CSV_HEADER = "divergence,d,n_labels,n_preds,expected,noise,bias,variance,gap"

NUMERICAL_ERRORS = (
    BoundaryError,
    ConvergenceError,
    ConvexityError,
    InfeasibleMeanError,
    ArithmeticError,
    np.linalg.LinAlgError,
)


class SpecError(ValueError):
    """The experiment spec failed validation."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _load_spec(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SpecError(f"spec file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec is not valid JSON ({exc})")


def _require(spec: dict, key: str):
    if key not in spec:
        raise SpecError(f"spec field '{key}' is required")
    return spec[key]


def _object(spec: dict, key: str, required: bool = True, field: str | None = None) -> dict:
    """The object at ``spec[key]`` (``{}`` if optional and absent); ``field`` names a nested one."""
    obj = _require(spec, key) if required else spec.get(key)
    if obj is None and not required:
        return {}
    if not isinstance(obj, dict):
        raise SpecError(f"field '{field or key}' must be a JSON object")
    return obj


def _build_loss(spec: dict):
    div_spec = _object(spec, "divergence")
    params = _object(div_spec, "params", required=False, field="divergence.params")
    if div_spec.get("name") == "g_mahalanobis":
        _object(params, "domain", field="divergence.params.domain")
    try:
        loss = catalog_from_json(div_spec)
    except (KeyError, ValueError) as exc:
        raise SpecError(f"field 'divergence': {exc}")
    except TypeError as exc:  # a parameter the entry does not take, or of a wrong type
        raise SpecError(f"field 'divergence.params': {exc}")
    if spec.get("domain") is not None:
        domain_spec = _object(spec, "domain")
        try:
            domain = Domain.from_json(domain_spec)
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"field 'domain': {exc}")
        if domain.dim != loss.dim:
            raise SpecError("field 'domain': dimension mismatch with divergence")
        loss.domain = domain
    return loss


def _build_ensemble(spec: dict, key: str, domain: Domain) -> WeightedEnsemble:
    obj = _require(spec, key)
    try:
        ens = WeightedEnsemble.from_json(obj)
        domain.require_points(ens.points)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"field '{key}': {exc}")
    return ens


def _csv_row(name: str, labels, preds, report) -> str:
    return ",".join(
        [
            name,
            str(labels.dim),
            str(labels.size),
            str(preds.size),
            _fmt(report.expected_loss),
            _fmt(report.intrinsic_noise),
            _fmt(report.bias),
            _fmt(report.variance),
            _fmt(report.gap),
        ]
    )


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _out_path(spec: dict, out_dir: Path, default_stem: str, ext: str) -> Path:
    name = _object(spec, "output", required=False).get("path", f"{default_stem}.{ext}")
    if not isinstance(name, str):
        raise SpecError("field 'output.path' must be a string")
    path = out_dir / name
    if out_dir.resolve() not in path.resolve().parents:
        raise SpecError(
            f"field 'output.path': {name!r} is not a file inside the output directory"
        )
    return path


def cmd_decompose(spec: dict, out_dir: Path) -> list[Path]:
    loss = _build_loss(spec)
    labels = _build_ensemble(spec, "labels", loss.domain)
    preds = _build_ensemble(spec, "preds", loss.domain)
    report = decompose(loss, labels, preds)
    fmt = _object(spec, "output", required=False).get("format", "csv")
    if fmt == "json":
        path = _out_path(spec, out_dir, "decompose", "json")
        payload = {"divergence": spec["divergence"], "report": report.to_json()}
        _write_text(path, _json_dumps(payload))
    elif fmt == "csv":
        path = _out_path(spec, out_dir, "decompose", "csv")
        _write_text(path, CSV_HEADER + "\n" + _csv_row(loss.name, labels, preds, report) + "\n")
    else:
        raise SpecError(f"field 'output.format': unsupported format {fmt!r}")
    return [path]


def _require_json_output(spec: dict):
    fmt = _object(spec, "output", required=False).get("format", "json")
    if fmt != "json":
        raise SpecError(f"field 'output.format': {spec['command']} writes only json, got {fmt!r}")


def cmd_centroid(spec: dict, out_dir: Path) -> list[Path]:
    _require_json_output(spec)
    loss = _build_loss(spec)
    results = {}
    if "labels" in spec:
        labels = _build_ensemble(spec, "labels", loss.domain)
        results["central_label"] = central_label(loss, labels).to_json()
    if "preds" in spec:
        preds = _build_ensemble(spec, "preds", loss.domain)
        results["central_prediction"] = central_prediction(loss, preds).to_json()
    if not results:
        raise SpecError("centroid spec needs 'labels' and/or 'preds'")
    path = _out_path(spec, out_dir, "centroid", "json")
    _write_text(path, _json_dumps({"divergence": spec["divergence"], "results": results}))
    return [path]


def cmd_classify(spec: dict, out_dir: Path) -> list[Path]:
    _require_json_output(spec)
    loss = _build_loss(spec)
    if "classifier" in spec:
        raise SpecError("field 'classifier' is not accepted: classify takes only 'seed'")
    seed = spec.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise SpecError(f"field 'seed' must be an integer, got {seed!r}")
    result = classify_loss(loss, ClassifierConfig(seed=seed))
    path = _out_path(spec, out_dir, "classify", "json")
    _write_text(path, _json_dumps({"divergence": spec["divergence"], **result.to_json()}))
    return [path]


def cmd_sweep(spec: dict, out_dir: Path) -> list[Path]:
    sweep = _object(spec, "sweep")
    param = _require(sweep, "param")
    if not isinstance(param, str):
        raise SpecError(f"field 'sweep.param' must be a string, got {param!r}")
    values = _require(sweep, "values")
    if not isinstance(values, list) or not values:
        raise SpecError("field 'sweep.values' must be a non-empty list")
    plot = spec.get("plot", False)
    if not isinstance(plot, bool):
        raise SpecError(f"field 'plot' must be true or false, got {plot!r}")

    rows, gaps = [], []
    for value in values:
        sub = copy.deepcopy(spec)
        div_spec = _object(sub, "divergence")
        params = _object(div_spec, "params", required=False, field="divergence.params")
        div_spec["params"] = {**params, param: value}
        loss = _build_loss(sub)
        labels = _build_ensemble(sub, "labels", loss.domain)
        preds = _build_ensemble(sub, "preds", loss.domain)
        report = decompose(loss, labels, preds)
        rows.append(_csv_row(f"{loss.name}[{param}={value!r}]", labels, preds, report))
        gaps.append(abs(report.gap))

    path = _out_path(spec, out_dir, "sweep", "csv")
    _write_text(path, CSV_HEADER + "\n" + "\n".join(rows) + "\n")
    written = [path]

    if _object(spec, "output", required=False).get("format") == "svg" or plot:
        svg_path = path.with_suffix(".svg")
        _write_text(svg_path, _gap_svg(param, [float(v) for v in values], gaps))
        written.append(svg_path)
    return written


def _gap_svg(param: str, xs: list[float], ys: list[float], width=640, height=400) -> str:
    """Minimal static line chart of |gap| against a swept parameter."""
    pad = 60.0
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(max(ys), 1e-300)
    span_x = (x_hi - x_lo) or 1.0
    span_y = (y_hi - y_lo) or 1.0

    def sx(x):
        return pad + (x - x_lo) / span_x * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / span_y * (height - 2 * pad)

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    ticks = []
    for x in (x_lo, x_hi):
        ticks.append(
            f'<text x="{sx(x):.2f}" y="{height - pad + 20:.2f}" '
            f'text-anchor="middle" font-size="12">{x:.6g}</text>'
        )
    for y in (y_lo, y_hi):
        ticks.append(
            f'<text x="{pad - 8:.2f}" y="{sy(y) + 4:.2f}" '
            f'text-anchor="end" font-size="12">{y:.3g}</text>'
        )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        f'stroke="black"/>\n'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>\n'
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="{pts}"/>\n'
        + "\n".join(ticks)
        + f'\n<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13">{param}</text>\n'
        f'<text x="16" y="{height / 2:.0f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {height / 2:.0f})">|gap|</text>\n'
        "</svg>\n"
    )


COMMANDS = {
    "decompose": cmd_decompose,
    "centroid": cmd_centroid,
    "classify": cmd_classify,
    "sweep": cmd_sweep,
}


def run(spec: dict, out_dir: Path) -> list[Path]:
    """Execute a parsed experiment spec; returns the written paths."""
    command = _require(spec, "command")
    if command not in COMMANDS:
        raise SpecError(f"field 'command': unknown command {command!r}")
    return COMMANDS[command](spec, out_dir)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bvd",
        description="Divergence decompositions, centroids, and loss classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run a {name} spec")
        p.add_argument("--spec", required=True, type=Path, help="experiment spec JSON")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    args = parser.parse_args(argv)

    try:
        spec = _load_spec(args.spec)
        if spec.get("command", args.command) != args.command:
            raise SpecError(
                f"spec file says command {spec.get('command')!r}, "
                f"but {args.command!r} was requested"
            )
        spec["command"] = args.command
        written = run(spec, args.out)
    except SpecError as exc:
        print(f"bvd: spec validation failed: {exc}", file=sys.stderr)
        return 1
    except NUMERICAL_ERRORS as exc:
        print(
            f"bvd: numerical failure in {args.command}: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        print(f"bvd: validation failed in {args.command}: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
