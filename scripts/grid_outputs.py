#!/usr/bin/env python3
"""Fingerprint the CLI outputs of the 36 grid fits and the 18 variety fits.

The grid is 50 points in dimensions 2-5, 100x4 and 200x3, seeds 0-1, in
vca, grad and coeff mode, at epsilon 1e-6: it decides no G member by
epsilon.  The variety fits do: V1-V3, seeds s = 0-1, in the three modes at
epsilon 1e-2, each on the 50 points
``center_and_unitbox(perturb(sample_variety(v, 50, s), 0.01, 100 + s))``.
Each fit runs ``mavik fit --expand``, ``mavik evaluate`` on 1000 fresh
points (``sample_generic(1000, n, 100 + s)``) and ``mavik reduce`` in a
temporary directory, and prints one line: the key (its first four words,
such as ``vca 50x4 seed 0`` or ``vca V2x50 seed 0``), the F and G
profiles, and the sha256 of report.json, basis.json, evaluation.json,
reduction.json and reduced_basis.json.  A last line holds the sha256 of
the retrieval.json of ``mavik retrieval-test --variety V1 --runs 2
--scales 0.01,1,100``, the output that holds tuples.

Every file must be, byte for byte, ``serialize.json_bytes`` of what the
stdlib's ``json.loads`` reads from it (mavik's canonical text); the script
stops at the first file that is not.  The hash is taken of the
``json.dumps(obj, indent=1, sort_keys=True)`` text of what the file holds,
once the input paths recorded under ``meta`` are removed, so two source
trees that write the same content print the same lines whatever
whitespace and float spelling they write.
mavik is imported from the import path, so compare two trees with

    PYTHONPATH=<tree>/src python3 scripts/grid_outputs.py > <tree>.txt

or check a tree against lines printed earlier in one command:

    PYTHONPATH=<tree>/src python3 scripts/grid_outputs.py --against OLD.txt > new.txt

which, after the lines, writes to standard error how many hashes moved for
each mode and each file, and every fit whose F/G profile differs or that
only one side lists; any such fit makes the exit status 1.

BLAS runs on one thread, as in ``mavik.cli``, whatever the shell sets: the
bytes of the files depend on the thread count.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from mavik import cli, serialize  # noqa: E402
from mavik.datasets import (VARIETIES, center_and_unitbox, perturb, sample_generic,  # noqa: E402
                            sample_variety, save_points)

SHAPES = [(50, 2), (50, 3), (50, 4), (50, 5), (100, 4), (200, 3)]
MODES = ["vca", "grad", "coeff"]
VARIETY_COUNT = 50
FILES = ["report.json", "basis.json", "evaluation.json", "reduction.json", "reduced_basis.json"]
FRESH = 1000
RETRIEVAL = ["--variety", "V1", "--runs", "2", "--scales", "0.01,1,100"]


def digest(path):
    """sha256 of a JSON output with the paths in its ``meta`` removed."""
    raw = path.read_bytes()
    obj = json.loads(raw)
    if raw != serialize.json_bytes(obj):
        raise SystemExit(f"{path.name} is not the canonical JSON text of what it holds")
    for key in ("points_file", "reduced_from"):
        obj.get("meta", {}).pop(key, None)
    return hashlib.sha256(json.dumps(obj, indent=1, sort_keys=True).encode()).hexdigest()


def run(argv):
    """Run one mavik command, keeping its own summary lines off stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"mavik {' '.join(argv)} exited {code}")


def cases():
    """``(key, X, seed, mode, eps)`` of every fit, in print order."""
    for count, dim in SHAPES:
        for seed in (0, 1):
            X = sample_generic(count, dim, seed)
            for mode in MODES:
                yield f"{mode} {count}x{dim} seed {seed}", X, seed, mode, "1e-6"
    for variety in VARIETIES:
        for seed in (0, 1):
            X = sample_variety(variety, VARIETY_COUNT, seed)
            X = center_and_unitbox(perturb(X, 0.01, 100 + seed))
            for mode in MODES:
                yield f"{mode} {variety}x{VARIETY_COUNT} seed {seed}", X, seed, mode, "1e-2"


def fingerprint(work, key, X, seed, mode, eps):
    points, fresh, out = work / "points.csv", work / "fresh.csv", work / "out"
    save_points(X, points)
    save_points(sample_generic(FRESH, X.n, 100 + seed), fresh)
    basis = str(out / "basis.json")
    run(["fit", "--points", str(points), "--mode", mode, "--eps", eps, "--expand",
         "--out", str(out)])
    run(["evaluate", "--points", str(fresh), "--basis", basis, "--out", str(out)])
    run(["reduce", "--points", str(points), "--basis", basis, "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    hashes = " ".join(digest(out / name) for name in FILES)
    return f"{key} F {report['f_counts']} G {report['g_counts']} {hashes}"


def parse(lines):
    """Map each printed line's key to its profiles text and its hashes."""
    fits = {}
    for line in lines:
        words = line.split()
        if words[0] == "retrieval-test":
            fits[" ".join(words[:-1])] = ("", words[-1:])
        else:
            fits[" ".join(words[:4])] = (" ".join(words[4:-len(FILES)]), words[-len(FILES):])
    return fits


def compare(old_lines, new_lines):
    """``(summary, problems)`` of two runs' printed lines.

    ``summary`` has one line per mode (and one for the retrieval run) that
    counts, for each file, the fits whose hash moved; ``problems`` names
    every fit whose F/G profile differs or that only one run lists."""
    old, new = parse(old_lines), parse(new_lines)
    problems = [f"only in {side}: {key}"
                for side, ours, theirs in (("old", old, new), ("new", new, old))
                for key in ours if key not in theirs]
    moved = {}  # mode -> file -> [moved, fits]
    for key in (key for key in new if key in old):
        (old_profiles, old_hashes), (new_profiles, new_hashes) = old[key], new[key]
        if old_profiles != new_profiles:
            problems.append(f"profile differs: {key}: {old_profiles} -> {new_profiles}")
        mode = key.split()[0]
        names = ["retrieval.json"] if mode == "retrieval-test" else FILES
        for name, a, b in zip(names, old_hashes, new_hashes):
            tally = moved.setdefault(mode, {}).setdefault(name, [0, 0])
            tally[0] += a != b
            tally[1] += 1
    summary = [mode + " " + " ".join(f"{name} {m}/{n}" for name, (m, n) in files.items())
               for mode, files in moved.items()]
    return summary, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="lines printed by an earlier run")
    args = parser.parse_args(argv)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, case in enumerate(cases()):
            work = Path(tmp) / str(i)
            work.mkdir()
            lines.append(fingerprint(work, *case))
            print(lines[-1], flush=True)
        out = Path(tmp) / "retrieval"
        run(["retrieval-test", *RETRIEVAL, "--out", str(out)])
        lines.append(f"retrieval-test {' '.join(RETRIEVAL)} {digest(out / 'retrieval.json')}")
        print(lines[-1], flush=True)
    if args.against is None:
        return 0
    summary, problems = compare(args.against.read_text().splitlines(), lines)
    print("moved hashes (fits whose file hash differs / fits):", *summary, *problems,
          sep="\n", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
