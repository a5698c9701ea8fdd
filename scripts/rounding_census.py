#!/usr/bin/env python3
"""Count the G members that rounding decides, per mode and degree class.

Every fit of ``grid_outputs.py`` (the 36 grid fits and the 18 variety
fits, with the CLI's mode settings) runs twice: on its points X and on X
moved up by one ulp in every coordinate, ``np.nextafter(X, inf)``.  When
the two fits have equal F and G profiles, their G members are paired in
order and evaluated on 300 fresh points (``sample_generic(300, n, 200 +
seed)``).  A member *moves* when its values change by more than 1e-6
relative, up to sign: min over s = +-1 of ||g - s g'|| / ||g||.

Each G member falls in one degree class of its fit's F profile:

* *fill*: the degree at which F reaches |X| members;
* *saturated*: the degree after it, where every candidate vanishes;
* *lower*: any degree below the fill degree (every degree of a fit whose F
  never reaches |X|).

The script prints one line per fit (moved members / members per class, or
the two profiles when they differ), then one line per fit set (grid,
variety) and mode with the totals and the largest relative move of each
class.  It takes a few seconds.

Usage: PYTHONPATH=src python scripts/rounding_census.py
"""

import sys

import numpy as np

from grid_outputs import cases  # pins BLAS to one thread before numpy loads
from mavik.core import PointSet
from mavik.datasets import sample_generic
from mavik.engine import EngineConfig, evaluate, fit
from mavik.retrieval import mode_from_kind

CLASSES = ("fill", "saturated", "lower")
FRESH = 300
MOVED = 1e-6


def degree_classes(f_counts, n_points):
    """The class of each degree of an F profile: fill, saturated or lower."""
    classes, total = [], 0
    for count in f_counts:
        if total == n_points:
            classes.append("saturated")
        else:
            total += count
            classes.append("fill" if total == n_points else "lower")
    return classes


def census(key, X, seed, kind, eps):
    """``{class: (moved, members, largest move)}`` of one fit, or None when
    the moved points give another profile; prints the fit's line."""
    config = EngineConfig(epsilon=float(eps), mode=mode_from_kind(kind, n_points=len(X)))
    fresh = sample_generic(FRESH, X.n, 200 + seed)
    basis, report = fit(X, config)
    moved_basis, moved_report = fit(PointSet(np.nextafter(X.points, np.inf)), config)
    profiles = [(r.f_counts, r.g_counts) for r in (report, moved_report)]
    if profiles[0] != profiles[1]:
        print(f"{key}: profiles differ: {profiles[0]} -> {profiles[1]}")
        return None
    G, G_moved = evaluate(basis, fresh)[1], evaluate(moved_basis, fresh)[1]
    moves = np.minimum(np.linalg.norm(G - G_moved, axis=0),
                       np.linalg.norm(G + G_moved, axis=0)) / np.linalg.norm(G, axis=0)
    labels = np.repeat(degree_classes(report.f_counts, len(X)), report.g_counts)
    row = {}
    for name in CLASSES:
        m = moves[labels == name]
        row[name] = (int(np.count_nonzero(m > MOVED)), m.size, float(m.max(initial=0.0)))
    print(key + ": " + " ".join(f"{name} {row[name][0]}/{row[name][1]}" for name in CLASSES))
    return row


def main():
    totals = {}  # (fit set, mode) -> class -> [moved, members, largest move]
    unpaired = 0
    for key, X, seed, kind, eps in cases():
        row = census(key, X, seed, kind, eps)
        if row is None:
            unpaired += 1
            continue
        fit_set = "variety" if key.split()[1].startswith("V") else "grid"
        tally = totals.setdefault((fit_set, kind), {name: [0, 0, 0.0] for name in CLASSES})
        for name, (moved, members, largest) in row.items():
            t = tally[name]
            t[0], t[1], t[2] = t[0] + moved, t[1] + members, max(t[2], largest)
    print(f"G members moved by more than {MOVED:g} relative on {FRESH} fresh points "
          f"(moved/members, largest move); {unpaired} fits with differing profiles")
    for (fit_set, kind), tally in totals.items():
        print(f"{fit_set} {kind}: " + ", ".join(
            f"{name} {m}/{n} ({big:.2g})" for name, (m, n, big) in tally.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
