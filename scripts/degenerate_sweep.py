#!/usr/bin/env python3
"""Fit vca, coeff and grad bases on degenerate point families and report what escapes.

Five synthetic families of m points in R^n, each drawn from a fresh
``np.random.default_rng(seed)``:

* generic: U(-1, 1)^(m x n);
* collinear: t d + 0.1 N(0, 1)^(1 x n), with t ~ U(-1, 1)^(m x 1) and
  d ~ N(0, 1)^(1 x n);
* clustered: three centres ~ U(-1, 1)^n, each point one of them plus
  1e-3 N(0, 1) noise;
* duplicate: m draws from max(2, m // 3) base points ~ U(-1, 1)^n;
* integer grid: the first m points of {0..k-1}^n in lexicographic order,
  k the smallest integer with k^n >= m (the same for every seed).

Shapes are 12x2, 20x3, 30x2 and 25x4, seeds 0-1 and scales 1e-6, 1e-3,
1, 1e3 and 1e6.  A sixth family holds the points of the varieties V1-V3
as sampled, with no rescale: ``sample_variety(v, m, seed)`` for m = 30,
50 and 100 and seeds 0-4 (V2 reaches |x| = 15.8).  Every set is fitted
in the three modes (z = 1) at epsilon 1e-6, times the scale in grad mode,
whose extents scale with the points: 735 fits.  A ``RuntimeWarning``
counts as an error.  Every basis a fit returns is saved as the CLI saves
it (``serialize.dump_json``), read back with the CLI's reader
(``serialize.load_json``) and loaded on its own points; a load whose values differ from the fit's in
any bit is a failure of kind ``load != fit``.  The script prints one
line per fit that raises, that returns more F members than points, or
whose load differs, then a summary of the failures by kind, family and
mode.  It exits 1 if any load differs,
else 0: fit failures are reported but do not change the exit status.

Usage: PYTHONPATH=src python scripts/degenerate_sweep.py
"""

import itertools
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from mavik import serialize
from mavik.core import PointSet
from mavik.datasets import VARIETIES, sample_variety
from mavik.engine import EngineConfig, NormalizationMode, fit

SHAPES = [(12, 2), (20, 3), (30, 2), (25, 4)]
SEEDS = [0, 1]
SCALES = [1e-6, 1e-3, 1.0, 1e3, 1e6]
VARIETY_COUNTS = [30, 50, 100]
VARIETY_SEEDS = range(5)
MODES = {
    "vca": NormalizationMode.vca_baseline(),
    "coeff": NormalizationMode.coefficient(),
    "grad": NormalizationMode.gradient(),
}
EPSILON = 1e-6


def generic(r, m, n):
    return r.uniform(-1.0, 1.0, (m, n))


def collinear(r, m, n):
    t = r.uniform(-1.0, 1.0, (m, 1))
    d = r.normal(size=(1, n))
    return t * d + 0.1 * r.normal(size=(1, n))


def clustered(r, m, n):
    centres = r.uniform(-1.0, 1.0, (3, n))
    return centres[r.integers(0, 3, m)] + 1e-3 * r.normal(size=(m, n))


def duplicate(r, m, n):
    base = r.uniform(-1.0, 1.0, (max(2, m // 3), n))
    return base[r.integers(0, len(base), m)]


def integer_grid(r, m, n):
    k = 1
    while k**n < m:
        k += 1
    return np.array(list(itertools.islice(itertools.product(range(k), repeat=n), m)), float)


FAMILIES = [generic, collinear, clustered, duplicate, integer_grid]


def point_sets():
    """``(family, key, X, scale)`` of every point set, in sweep order."""
    for family, (m, n), seed, alpha in itertools.product(FAMILIES, SHAPES, SEEDS, SCALES):
        X = PointSet(family(np.random.default_rng(seed), m, n) * alpha)
        yield family.__name__, f"{family.__name__} {m}x{n} seed {seed} x{alpha:g}", X, alpha
    for v, m, seed in itertools.product(VARIETIES, VARIETY_COUNTS, VARIETY_SEEDS):
        X = sample_variety(v, m, seed)
        yield v, f"{v} {m}x{X.n} seed {seed}", X, 1.0


def main():
    with tempfile.TemporaryDirectory() as tmp:
        return sweep(Path(tmp) / "basis.json")


def sweep(path):
    """Run the sweep, saving each basis to ``path``; return the exit status."""
    failures = Counter()
    fits = 0
    for family, prefix, X, alpha in point_sets():
        m = len(X)
        for name, mode in MODES.items():
            eps = EPSILON * alpha if name == "grad" else EPSILON
            key = f"{prefix} {name}"
            fits += 1
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    basis, report = fit(X, EngineConfig(epsilon=eps, mode=mode))
            except Exception as exc:  # the sweep reports whatever escapes
                failures[type(exc).__name__, family, name] += 1
                print(f"{key}: {type(exc).__name__}: {exc}")
                continue
            if sum(report.f_counts) > m:
                failures["|F| > |X|", family, name] += 1
                print(f"{key}: |F| = {sum(report.f_counts)} exceeds |X| = {m}")
            serialize.dump_json(serialize.basis_to_json(basis), path)
            loaded = serialize.basis_from_json(serialize.load_json(path, "basis"), X)
            pairs = zip(basis.f_polys() + basis.g_polys(), loaded.f_polys() + loaded.g_polys())
            if not all(p.eval.tobytes() == q.eval.tobytes() for p, q in pairs):
                failures["load != fit", family, name] += 1
                print(f"{key}: the loaded basis differs from the fit")

    print(f"{fits} fits, {sum(failures.values())} failed")
    for kind in sorted({k for k, _, _ in failures}):
        total = sum(c for (k, _, _), c in failures.items() if k == kind)
        parts = ", ".join(f"{fam} {mode} {c}" for (k, fam, mode), c in sorted(failures.items())
                          if k == kind)
        print(f"  {kind}: {total} ({parts})")
    return int(any(k == "load != fit" for k, _, _ in failures))


if __name__ == "__main__":
    sys.exit(main())
