#!/usr/bin/env python3
"""Print every answer a checkout gives on the benchmark's operations and specs.

    python3 tools/dump_outputs.py --root DIR --seed 7 --rounds 2 > DIR.txt

Imports ``DIR/src`` and ``DIR/bench/workloads.py`` (without writing byte
code there). For each of ``--rounds`` rounds of the ``ensembles_small``,
``ensembles_wide`` and ``oracle`` workloads at ``--seed``, it prints one
line per operation: the workload, the operation's kind, and ``json.dumps`` of its result's ``to_json()`` or the exception it
raised. Then it runs each ``DIR/demos/specs/*.json`` through
``bvd.cli.main`` into a temporary directory and prints the exit code and
the sha256 of each file written. Last it runs each of ``DIR/demos/01``-``05``
in a fresh interpreter on ``DIR/src`` and prints every line of its stdout,
then its exit code, each line prefixed with the demo's name. Two
checkouts give the same answers when ``cmp`` finds their outputs
identical.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("ensembles_small", "ensembles_wide", "oracle")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, required=True, help="checkout to import")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1)
    args = ap.parse_args()
    root = args.root.resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from bvd import cli

    for name in WORKLOADS:
        workload = workloads.WORKLOADS[name]
        state = workload.build(args.seed)
        for index in range(args.rounds):
            for op in workload.round(args.seed, index, state):
                try:
                    answer = json.dumps(op.run().to_json())
                except Exception as exc:
                    answer = f"{type(exc).__name__}: {exc}"
                print(name, op.kind, answer)

    for spec_path in sorted((root / "demos" / "specs").glob("*.json")):
        command = json.loads(spec_path.read_text())["command"]
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                rc = cli.main([command, "--spec", str(spec_path), "--out", out])
            print("spec", spec_path.name, "exit", rc, err.getvalue().strip())
            for path in sorted(Path(out).iterdir()):
                print("spec", spec_path.name, path.name,
                      hashlib.sha256(path.read_bytes()).hexdigest())

    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for demo in sorted((root / "demos").glob("0[1-5]_*.py")):
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                              env=env, cwd=root)
        for line in proc.stdout.splitlines():
            print("demo", demo.name, line)
        print("demo", demo.name, "exit", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
