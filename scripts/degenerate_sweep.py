#!/usr/bin/env python3
"""Fit vca, coeff and grad bases on degenerate point families and report what escapes.

Five families of m points in R^n, each drawn from a fresh
``np.random.default_rng(seed)``:

* generic: U(-1, 1)^(m x n);
* collinear: t d + 0.1 N(0, 1)^(1 x n), with t ~ U(-1, 1)^(m x 1) and
  d ~ N(0, 1)^(1 x n);
* clustered: three centres ~ U(-1, 1)^n, each point one of them plus
  1e-3 N(0, 1) noise;
* duplicate: m draws from max(2, m // 3) base points ~ U(-1, 1)^n;
* integer grid: the first m points of {0..k-1}^n in lexicographic order,
  k the smallest integer with k^n >= m (the same for every seed).

Shapes are 12x2, 20x3, 30x2 and 25x4, seeds 0-1, scales 1e-6, 1e-3, 1,
1e3 and 1e6, and every set is fitted in the three modes (z = 1) at
epsilon 1e-6, times the scale in grad mode, whose extents scale with the
points: 600 fits.  A ``RuntimeWarning`` counts as an error.  The script
prints one line per fit that raises, or that returns more F members than
points, then a summary of the failures by exception, family and mode.

Usage: PYTHONPATH=src python scripts/degenerate_sweep.py
"""

import itertools
import warnings
from collections import Counter

import numpy as np

from mavik.core import PointSet
from mavik.engine import EngineConfig, NormalizationMode, fit

SHAPES = [(12, 2), (20, 3), (30, 2), (25, 4)]
SEEDS = [0, 1]
SCALES = [1e-6, 1e-3, 1.0, 1e3, 1e6]
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


def main():
    failures = Counter()
    fits = 0
    for family, (m, n), seed, alpha in itertools.product(FAMILIES, SHAPES, SEEDS, SCALES):
        X = PointSet(family(np.random.default_rng(seed), m, n) * alpha)
        for name, mode in MODES.items():
            eps = EPSILON * alpha if name == "grad" else EPSILON
            key = f"{family.__name__} {m}x{n} seed {seed} x{alpha:g} {name}"
            fits += 1
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    _, report = fit(X, EngineConfig(epsilon=eps, mode=mode))
            except Exception as exc:  # the sweep reports whatever escapes
                failures[type(exc).__name__, family.__name__, name] += 1
                print(f"{key}: {type(exc).__name__}: {exc}")
                continue
            if sum(report.f_counts) > m:
                failures["|F| > |X|", family.__name__, name] += 1
                print(f"{key}: |F| = {sum(report.f_counts)} exceeds |X| = {m}")

    print(f"{fits} fits, {sum(failures.values())} failed")
    for kind in sorted({k for k, _, _ in failures}):
        total = sum(c for (k, _, _), c in failures.items() if k == kind)
        parts = ", ".join(f"{fam} {mode} {c}" for (k, fam, mode), c in sorted(failures.items())
                          if k == kind)
        print(f"  {kind}: {total} ({parts})")


if __name__ == "__main__":
    main()
