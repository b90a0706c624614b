"""Batch front end: ``bvd decompose|centroid|classify|sweep --spec FILE``.

One spec file drives one run. Before any command code runs, the spec is
checked once against its command's field table in ``SCHEMAS``: ``null``
counts as absent, an unknown field is an error, and messages name the
dotted field (``labels.weights``). All randomness is seeded from the spec
and floats are serialized with shortest round-trip repr, so re-running a
spec byte-reproduces its outputs. Exit code 1 flags a validation problem
(bad spec, infeasible ensemble) or a lack of memory, exit code 2 a
numerical failure, with the offending field or operation named on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .core import (
    BoundaryError,
    ConvergenceError,
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
    InfeasibleMeanError,
    ArithmeticError,
    np.linalg.LinAlgError,
)

# Each command's fields, as name -> (required, kind). A kind is a JSON type
# (``list`` a non-empty array), a tuple of allowed values, or the table of
# a nested object.
_ENSEMBLE = {"points": (True, list), "weights": (True, list)}
_COMMON = {"command": (True, str),
           "divergence": (True, {"name": (True, str), "params": (False, dict)}),
           "domain": (False, dict)}


def _output(*formats: str) -> tuple:
    return False, {"path": (False, str), "format": (False, formats)}


SCHEMAS = {
    "decompose": {**_COMMON, "labels": (True, _ENSEMBLE), "preds": (True, _ENSEMBLE),
                  "output": _output("csv", "json")},
    "centroid": {**_COMMON, "labels": (False, _ENSEMBLE), "preds": (False, _ENSEMBLE),
                 "output": _output("json")},
    "classify": {**_COMMON, "seed": (False, int), "output": _output("json")},
    "sweep": {**_COMMON, "labels": (True, _ENSEMBLE), "preds": (True, _ENSEMBLE),
              "sweep": (True, {"param": (True, str), "values": (True, list)}),
              "plot": (False, bool), "output": _output("csv")},
}
_KIND_NAMES = {dict: "a JSON object", list: "a non-empty array", str: "a string",
               int: "an integer", bool: "true or false"}


class SpecError(ValueError):
    """The experiment spec failed validation."""


def _load_spec(path: Path) -> dict:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        raise SpecError(f"spec file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec is not valid JSON ({exc})")
    if not isinstance(spec, dict):
        raise SpecError(f"the spec must be a JSON object, got {spec!r:.60}")
    return spec


def _check(obj: dict, table: dict, where: str = "") -> None:
    """Check ``obj`` against a field table, naming fields by dotted path.

    Listed fields come first and unknown ones last, so a spec with both
    faults names the listed field. A ``null`` field is dropped as absent.
    """
    for key, (required, kind) in table.items():
        field = f"{where}{key}"
        value = obj.get(key)
        if value is None:
            obj.pop(key, None)
            if required:
                raise SpecError(f"field '{field}' is required")
        elif isinstance(kind, tuple):
            if value not in kind:
                raise SpecError(f"field '{field}' must be one of {list(kind)}, got {value!r:.60}")
        else:
            json_type = dict if isinstance(kind, dict) else kind
            # JSON true/false load as bool, a subclass of int: neither stands for the other.
            if (not isinstance(value, json_type) or value == []
                    or isinstance(value, bool) != (json_type is bool)):
                raise SpecError(
                    f"field '{field}' must be {_KIND_NAMES[json_type]}, got {value!r:.60}")
            if isinstance(kind, dict):
                _check(value, kind, f"{field}.")
    unknown = [f"field '{where}{key}'" for key in obj if key not in table]
    if unknown:
        raise SpecError(f"unknown {', '.join(unknown)} (allowed: {', '.join(table)})")


def _domain(obj, field: str) -> Domain:
    try:
        return Domain.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"field '{field}': {exc}")


def _build_loss(spec: dict):
    div_spec = spec["divergence"]
    params = div_spec.get("params", {})
    if div_spec["name"] == "g_mahalanobis":
        if not isinstance(params.get("domain"), dict):
            raise SpecError("field 'divergence.params.domain' must be a JSON object")
        _domain(params["domain"], "divergence.params.domain")
    try:
        loss = catalog_from_json(div_spec)
    except (KeyError, ValueError) as exc:
        raise SpecError(f"field 'divergence': {exc}")
    except TypeError as exc:  # a parameter the entry does not take, or of a wrong type
        raise SpecError(f"field 'divergence.params': {exc}")
    if "domain" in spec:
        domain = _domain(spec["domain"], "domain")
        if domain.dim != loss.dim:
            raise SpecError("field 'domain': dimension mismatch with divergence")
        loss.domain = domain
    return loss


def _build_ensemble(spec: dict, key: str, domain: Domain) -> WeightedEnsemble:
    try:
        ens = WeightedEnsemble.from_json(spec[key])
        domain.require_points(ens.points)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"field '{key}': {exc}")
    return ens


def _csv_row(name: str, labels, preds, report) -> str:
    terms = (report.expected_loss, report.intrinsic_noise, report.bias, report.variance,
             report.gap)
    return ",".join([name, str(labels.dim), str(labels.size), str(preds.size),
                     *(repr(float(t)) for t in terms)])


def _write(out_dir: Path, name: str, content: str | dict) -> Path:
    """Write ``content`` (a dict as sorted, indented JSON) to ``out_dir / name``,
    which must lie inside ``out_dir``."""
    path = out_dir / name
    if out_dir.resolve() not in path.resolve().parents:
        raise SpecError(
            f"field 'output.path': {name!r} is not a file inside the output directory"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(content if isinstance(content, str)
                 else json.dumps(content, indent=2, sort_keys=True) + "\n")
    return path


def cmd_decompose(spec: dict, out_dir: Path) -> list[Path]:
    loss = _build_loss(spec)
    labels = _build_ensemble(spec, "labels", loss.domain)
    preds = _build_ensemble(spec, "preds", loss.domain)
    report = decompose(loss, labels, preds)
    fmt = spec.get("output", {}).get("format", "csv")
    if fmt == "json":
        content = {"divergence": spec["divergence"], "report": report.to_json()}
    else:
        content = CSV_HEADER + "\n" + _csv_row(loss.name, labels, preds, report) + "\n"
    return [_write(out_dir, spec.get("output", {}).get("path", f"decompose.{fmt}"), content)]


def cmd_centroid(spec: dict, out_dir: Path) -> list[Path]:
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
    content = {"divergence": spec["divergence"], "results": results}
    return [_write(out_dir, spec.get("output", {}).get("path", "centroid.json"), content)]


def cmd_classify(spec: dict, out_dir: Path) -> list[Path]:
    loss = _build_loss(spec)
    result = classify_loss(loss, ClassifierConfig(seed=spec.get("seed", 0)))
    content = {"divergence": spec["divergence"], **result.to_json()}
    return [_write(out_dir, spec.get("output", {}).get("path", "classify.json"), content)]


def cmd_sweep(spec: dict, out_dir: Path) -> list[Path]:
    param, values = spec["sweep"]["param"], spec["sweep"]["values"]
    if spec.get("plot") and not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise SpecError(f"field 'sweep.values' must hold only numbers when 'plot' is true, "
                        f"got {values!r:.60}")
    rows, gaps = [], []
    div_spec = spec["divergence"]
    for value in values:
        params = {**div_spec.get("params", {}), param: value}
        sub = {**spec, "divergence": {**div_spec, "params": params}}
        loss = _build_loss(sub)
        labels = _build_ensemble(sub, "labels", loss.domain)
        preds = _build_ensemble(sub, "preds", loss.domain)
        report = decompose(loss, labels, preds)
        rows.append(_csv_row(f"{loss.name}[{param}={value!r}]", labels, preds, report))
        gaps.append(abs(report.gap))

    name = spec.get("output", {}).get("path", "sweep.csv")
    written = [_write(out_dir, name, CSV_HEADER + "\n" + "\n".join(rows) + "\n")]
    if spec.get("plot"):
        svg = _gap_svg(param, [float(v) for v in values], gaps)
        written.append(_write(out_dir, str(Path(name).with_suffix(".svg")), svg))
    return written


def _gap_svg(param: str, xs: list[float], ys: list[float]) -> str:
    """Minimal static line chart of |gap| against a swept parameter."""
    width, height, pad = 640, 400, 60.0
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
    """Check a parsed spec against its command's table in ``SCHEMAS`` (which
    drops its null fields in place), then execute it; returns the written paths."""
    command = spec.get("command")
    if not isinstance(command, str) or command not in COMMANDS:
        raise SpecError(f"field 'command': unknown command {command!r}")
    _check(spec, SCHEMAS[command])
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
        if (said := spec.get("command")) not in (None, args.command):
            raise SpecError(f"spec file says command {said!r}, but {args.command!r} was requested")
        written = run({**spec, "command": args.command}, args.out)
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
    except MemoryError as exc:
        print(f"bvd: {args.command} ran out of memory: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
