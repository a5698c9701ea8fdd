#!/usr/bin/env python3
"""Time the saving, loading and evaluation of a grad basis, step by step.

For the 200x3 and 100x4 grad bases of ``sample_generic`` (seed 0, epsilon
1e-6) the script prints the median wall time, in milliseconds over
``REPEATS`` rounds that call every step once, each round starting one
step later than the one before, of the save and of each step a load
takes:

* ``serialize.dump_json`` of the basis object to a temporary file, the
  save of ``mavik fit``;
* the CLI's basis reader (``serialize.load_json``) and the stdlib's
  ``json.loads`` of the bytes that save wrote;
* ``core.replay`` of its node list on the training points and on
  ``FRESH`` fresh points (``sample_generic(FRESH, dim, 1)``);
* ``basis_from_json`` (which calls ``core.replay``) on the same two point
  sets;
* ``engine.evaluate`` of the fitted, in-memory basis on the fresh points,
  which runs the fit's per-degree matrices (``basis.chain``);
* the on-demand gradient replay of the loaded G members on the training
  points, the ``replay_many(..., grads=True)`` that ``mavik reduce``
  makes.

After the timed rounds it prints the ``tracemalloc`` heap peak, in MB, of
one call of each of four steps, the allocations a kernel change can move:

* load (``basis_from_json``) and ``engine.evaluate`` on the fresh points;
* ``engine.evaluate`` of the fitted, in-memory basis on the same points;
* load and ``postprocess.reduce_basis`` on the training points;
* one grad fit of the training points.

BLAS runs on one thread, as in ``mavik.cli``, whatever the shell sets.
mavik is imported from the import path, so time two trees with

    PYTHONPATH=<tree>/src python3 scripts/load_timing.py

Usage: python scripts/load_timing.py
"""

import gc
import json
import os
import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from mavik import core, postprocess, serialize  # noqa: E402
from mavik.datasets import sample_generic  # noqa: E402
from mavik.engine import EngineConfig, NormalizationMode, evaluate, fit  # noqa: E402

CASES = [(200, 3), (100, 4)]
FRESH = 1000
REPEATS = 21


def median_ms(steps):
    """Median wall time in milliseconds of each of the callables ``steps``
    over ``REPEATS`` rounds, each round calling every step once, so that a
    slow spell of the host slows every step alike.  Round r starts at step
    r mod the step count and goes round in order, so every step runs first,
    and after every other step, in some rounds.  An untimed
    ``gc.collect()`` before each call keeps the garbage one step leaves
    from being collected in the next one's timing."""
    times = [[] for _ in steps]
    for r in range(REPEATS):
        for i in range(len(steps)):
            j = (r + i) % len(steps)
            gc.collect()
            start = time.perf_counter()
            steps[j]()
            times[j].append(time.perf_counter() - start)
    return [1e3 * statistics.median(spent) for spent in times]


def peak_mb(fn):
    """The ``tracemalloc`` heap peak, in MB, of one call of ``fn``, counted
    from a collected heap and including what the call returns."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main():
    print(f"median ms of {REPEATS} rounds, one BLAS thread")
    with tempfile.TemporaryDirectory() as tmp:
        report(Path(tmp) / "basis.json")


def report(path):
    """Print the timings and heap peaks, saving each basis to ``path``."""
    config = EngineConfig(epsilon=1e-6, mode=NormalizationMode.gradient())
    for count, dim in CASES:
        X = sample_generic(count, dim, 0)
        X_new = sample_generic(FRESH, dim, 1)
        basis, _ = fit(X, config)
        saved = serialize.basis_to_json(basis, points=X)
        serialize.dump_json(saved, path)
        data = path.read_bytes()
        obj = serialize.load_json(path, "basis")
        loaded = serialize.basis_from_json(obj, X)
        g_polys = loaded.g_polys()
        print(f"{count}x{dim} grad: {len(obj['nodes'])} nodes, "
              f"{sum(len(rec.get('weights', ())) for rec in obj['nodes'])} weights, "
              f"{len(data)} bytes")
        steps = [
            ("serialize.dump_json", lambda: serialize.dump_json(saved, path)),
            ("serialize.load_json", lambda: serialize.load_json(path, "basis")),
            ("json.loads", lambda: json.loads(data)),
            (f"core.replay, {count} training points", lambda: core.replay(obj["nodes"], X)),
            (f"core.replay, {FRESH} fresh points", lambda: core.replay(obj["nodes"], X_new)),
            (f"basis_from_json, {count} training points",
             lambda: serialize.basis_from_json(obj, X)),
            (f"basis_from_json, {FRESH} fresh points",
             lambda: serialize.basis_from_json(obj, X_new)),
            (f"in-memory evaluate, {FRESH} fresh points", lambda: evaluate(basis, X_new)),
            (f"gradient replay of {len(g_polys)} G members",
             lambda: core.replay_many(g_polys, X.points, grads=True)),
        ]
        for (name, _), ms in zip(steps, median_ms([fn for _, fn in steps])):
            print(f"  {name:42s} {ms:8.2f}")
        peaks = [
            (f"load + evaluate, {FRESH} fresh points",
             lambda: evaluate(serialize.basis_from_json(obj, X_new), X_new)),
            (f"in-memory evaluate, {FRESH} fresh points", lambda: evaluate(basis, X_new)),
            (f"load + reduce_basis, {count} training points",
             lambda: postprocess.reduce_basis(serialize.basis_from_json(obj, X), X)),
            ("one grad fit", lambda: fit(X, config)),
        ]
        print("  heap peak MB (tracemalloc)")
        for name, fn in peaks:
            print(f"  {name:42s} {peak_mb(fn):8.2f}")


if __name__ == "__main__":
    main()
