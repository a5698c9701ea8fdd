#!/usr/bin/env python3
"""Fingerprint the CLI outputs of the 34 fits of the benchmark grid.

The grid is 50 points in dimensions 2-5, 100x4 and 200x3, seeds 0-1, in
vca, grad and coeff mode (no coeff 200x3), at epsilon 1e-6.  Each fit runs
``mavik fit --expand``, ``mavik evaluate`` on 1000 fresh points and
``mavik reduce`` in a temporary directory, and prints one line: the key,
the F and G profiles, and the sha256 of report.json, basis.json,
evaluation.json, reduction.json and reduced_basis.json.  A last line holds
the sha256 of the retrieval.json of ``mavik retrieval-test --variety V1
--runs 2 --scales 0.01,1,100``, the output that holds tuples.

Every file must be, byte for byte, the stdlib's ``json.dumps(obj,
indent=1, sort_keys=True)`` text of what it holds plus a newline; the
script stops at the first file that is not.  The hash is taken of that
text, without the newline, once the input paths recorded under ``meta``
are removed, so two source trees that write the same outputs print the
same lines.  mavik is
imported from the import path, so compare two trees with

    PYTHONPATH=<tree>/src python3 scripts/grid_outputs.py > <tree>.txt
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from mavik import cli
from mavik.datasets import sample_generic, save_points

SHAPES = [(50, 2), (50, 3), (50, 4), (50, 5), (100, 4), (200, 3)]
MODES = ["vca", "grad", "coeff"]
FILES = ["report.json", "basis.json", "evaluation.json", "reduction.json", "reduced_basis.json"]
FRESH = 1000
RETRIEVAL = ["--variety", "V1", "--runs", "2", "--scales", "0.01,1,100"]


def canonical(obj):
    return json.dumps(obj, indent=1, sort_keys=True)


def digest(path):
    """sha256 of a JSON output with the paths in its ``meta`` removed."""
    raw = path.read_bytes()
    obj = json.loads(raw)
    if raw != (canonical(obj) + "\n").encode():
        raise SystemExit(f"{path.name} is not the canonical JSON text of what it holds")
    for key in ("points_file", "reduced_from"):
        obj.get("meta", {}).pop(key, None)
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def run(argv):
    """Run one mavik command, keeping its own summary lines off stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"mavik {' '.join(argv)} exited {code}")


def fingerprint(work, count, dim, seed, mode):
    points, fresh, out = work / "points.csv", work / "fresh.csv", work / "out"
    save_points(sample_generic(count, dim, seed), points)
    save_points(sample_generic(FRESH, dim, 100 + seed), fresh)
    basis = str(out / "basis.json")
    run(["fit", "--points", str(points), "--mode", mode, "--eps", "1e-6", "--expand",
         "--out", str(out)])
    run(["evaluate", "--points", str(fresh), "--basis", basis, "--out", str(out)])
    run(["reduce", "--points", str(points), "--basis", basis, "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    hashes = " ".join(digest(out / name) for name in FILES)
    return f"{mode} {count}x{dim} seed {seed} F {report['f_counts']} G {report['g_counts']} {hashes}"


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for count, dim in SHAPES:
            for seed in (0, 1):
                for mode in MODES:
                    if mode == "coeff" and (count, dim) == (200, 3):
                        continue
                    work = Path(tmp) / f"{mode}-{count}x{dim}-{seed}"
                    work.mkdir()
                    print(fingerprint(work, count, dim, seed, mode), flush=True)
        out = Path(tmp) / "retrieval"
        run(["retrieval-test", *RETRIEVAL, "--out", str(out)])
        print(f"retrieval-test {' '.join(RETRIEVAL)} {digest(out / 'retrieval.json')}")


if __name__ == "__main__":
    main()
