"""The four workloads of the mavik benchmark.

``build(name, seed, sizes, workdir)`` makes a workload's inputs from the
seed and returns its measured pass as a list of :class:`Op`.  An operation
is one sequence of calls into mavik's public API, timed as a unit; its
``check`` then compares the output with invariants and with the references
in ``references.json`` (untimed).  Every call goes through the module
attribute (``engine.fit``, ``serialize.dump_json``, ...) so that the traced
run sees it.

Why four workloads: each ROADMAP item moves a different layer, and each
needs one workload that exercises it and one that bypasses it.

* ``fit-numeric`` -- ``vca`` and ``grad`` fits on the generic grid; the
  construction path (``core``/``linalg``), no symbolic expansion.
* ``fit-coeff`` -- the same grid in ``coeff`` mode; dominated by
  ``coefficients`` expansion.  200x3 is left out: one such fit alone takes
  about 10 s, longer than a whole measured run.
* ``replay`` -- save, reload and evaluate ``grad`` bases fitted in set-up,
  then reduce them; reads the construction DAG and never builds one.
* ``retrieval`` -- one-trial ``run_retrieval`` calls at 5 % noise; many
  small capped-degree fits and the epsilon scan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from mavik import engine, postprocess, retrieval, serialize
from mavik.datasets import sample_generic
from mavik.engine import EngineConfig, NormalizationMode

EPS = 1e-6  # the paper's generic-grid threshold
NOISE = 0.05  # retrieval noise level (5 %)
ORTHO_TOL = 1e-8  # largest |cosine| allowed between two F evaluation vectors
MATCH_RTOL = 1e-9  # agreement of replayed evaluations with the originals

MODES = {
    "vca": NormalizationMode.vca_baseline(),
    "grad": NormalizationMode.gradient(1.0),
    "coeff": NormalizationMode.coefficient(),
}

REFERENCES = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; ``FULL`` is the benchmark's."""

    fit_grid: tuple  # (count, dim) point sets of fit-numeric
    coeff_grid: tuple  # (count, dim) point sets of fit-coeff
    replay_cases: tuple  # (count, dim) of the grad bases replay works on
    replay_fresh: int  # fresh points each basis is evaluated on
    varieties: tuple
    scales: tuple
    trials_per_case: int  # trial seeds per (variety, scale) in one pass
    trial_points: int
    trial_pool: int  # trial seeds are drawn from range(trial_pool)


FULL = Sizes(
    fit_grid=((50, 2), (50, 3), (50, 4), (50, 5), (100, 4), (200, 3)),
    coeff_grid=((50, 2), (50, 3), (50, 4), (50, 5), (100, 4)),
    replay_cases=((200, 3), (100, 4)),
    replay_fresh=1000,
    varieties=("V1", "V2", "V3"),
    scales=(0.01, 1.0, 100.0),
    trials_per_case=3,
    trial_points=100,
    trial_pool=64,
)

# Reduced sizes for the smoke test: every code path, in about a second.
SMOKE = Sizes(
    fit_grid=((20, 2), (15, 3)),
    coeff_grid=((20, 2),),
    replay_cases=((30, 2),),
    replay_fresh=50,
    varieties=("V2",),
    scales=(1.0,),
    trials_per_case=1,
    trial_points=40,
    trial_pool=2,
)


@dataclass
class Op:
    """One timed operation: ``call()`` is measured, then ``check(out, ref)``
    returns a list of problems (empty when the output is correct) and
    ``record(out)`` gives the reference stored for ``key``."""

    kind: str
    key: str
    call: Callable
    check: Callable
    record: Callable


def load_json(path):
    """Read a JSON file, as ``mavik evaluate`` and ``mavik reduce`` do."""
    return json.loads(Path(path).read_text())


def load_references():
    return load_json(REFERENCES)


def _derive(seed, index):
    """Seed of the ``index``-th input of a run with workload seed ``seed``."""
    return seed * 1000 + index


# ---------------------------------------------------------------------------
# fit-numeric and fit-coeff
# ---------------------------------------------------------------------------


def _fit(X, config):
    return engine.fit(X, config)


def _record_fit(out):
    _, report = out
    return {"g_counts": report.g_counts, "f_counts": report.f_counts}


def _check_fit(out, ref, X):
    basis, report = out
    problems = []
    if _record_fit(out) != ref:
        problems.append(f"profile {_record_fit(out)} != reference {ref}")
    if report.termination == "f-empty" and report.f_total != len(X):
        problems.append(f"|F| = {report.f_total} != |X| = {len(X)}")
    E = np.column_stack([p.eval for p in basis.f_polys()])
    E = E / np.linalg.norm(E, axis=0)
    cos = np.abs(E.T @ E - np.eye(E.shape[1])).max()
    if cos > ORTHO_TOL:
        problems.append(f"F evaluations not orthogonal: max |cos| = {cos:.3e}")
    extents = basis.g_extents()
    if extents and max(extents) > EPS:
        problems.append(f"G extent {max(extents):.3e} above eps")
    return problems


def _fit_ops(grid, kinds, seed):
    ops = []
    for i, (count, dim) in enumerate(grid):
        X = sample_generic(count, dim, _derive(seed, i))
        for kind in kinds:
            config = EngineConfig(epsilon=EPS, mode=MODES[kind])
            ops.append(
                Op(
                    kind=f"fit.{kind}",
                    key=f"fit/{kind}/{count}x{dim}",
                    call=partial(_fit, X, config),
                    check=partial(_check_fit, X=X),
                    record=_record_fit,
                )
            )
    return ops


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def _save(basis, X, path):
    obj = serialize.basis_to_json(basis, points=X)
    serialize.dump_json(obj, path)
    return obj


def _evaluate(path, X_new):
    basis = serialize.basis_from_json(load_json(path), X_new)
    return engine.evaluate(basis, X_new)


def _reduce(path, X):
    basis = serialize.basis_from_json(load_json(path), X)
    reduction = postprocess.reduce_basis(basis, X)
    dims = postprocess.estimate_dimension(basis, X)
    return basis, reduction, dims


def _close(a, b):
    return a.shape == b.shape and np.allclose(
        a, b, rtol=MATCH_RTOL, atol=MATCH_RTOL * max(1.0, float(np.abs(b).max(initial=0)))
    )


def _record_save(out):
    return {"nodes": len(out["nodes"])}


def _check_save(out, ref, path):
    problems = []
    if _record_save(out) != ref:
        problems.append(f"saved {_record_save(out)} != reference {ref}")
    if Path(path).stat().st_size == 0:
        problems.append("empty basis file")
    return problems


def _check_evaluate(out, ref, expected):
    if all(_close(a, b) for a, b in zip(out, expected)):
        return []
    return ["evaluate of the reloaded basis disagrees with the in-memory basis"]


def _record_reduce(out):
    _, reduction, dims = out
    return {"removed": len(reduction.removed), "dims": list(dims)}


def _check_reduce(out, ref, original):
    reloaded = out[0]
    problems = []
    if _record_reduce(out) != ref:
        problems.append(f"reduction {_record_reduce(out)} != reference {ref}")
    for side in ("f_polys", "g_polys"):
        got = [p.eval for p in getattr(reloaded, side)()]
        want = [p.eval for p in getattr(original, side)()]
        if len(got) != len(want) or not all(_close(a, b) for a, b in zip(got, want)):
            problems.append(f"reloaded basis does not reproduce the training {side}")
    return problems


def _replay_ops(cases, fresh, seed, workdir):
    ops = []
    for i, (count, dim) in enumerate(cases):
        X = sample_generic(count, dim, _derive(seed, i))
        X_new = sample_generic(fresh, dim, _derive(seed, 500 + i))
        basis, _ = engine.fit(X, EngineConfig(epsilon=EPS, mode=MODES["grad"]))
        expected = engine.evaluate(basis, X_new)
        path = Path(workdir) / f"basis-{count}x{dim}.json"
        key = f"replay/{count}x{dim}"
        ops += [
            Op("save", key + "/save", partial(_save, basis, X, path),
               partial(_check_save, path=path), _record_save),
            Op("evaluate", key + "/evaluate", partial(_evaluate, path, X_new),
               partial(_check_evaluate, expected=expected), lambda out: None),
            Op("reduce", key + "/reduce", partial(_reduce, path, X),
               partial(_check_reduce, original=basis), _record_reduce),
        ]
    return ops


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------


def _trial(which, alpha, trial_seed, target, n_points):
    table = retrieval.run_retrieval(
        which, NOISE, [alpha], 1, "grad", target,
        base_seed=trial_seed, n_points=n_points, workers=1,
    )
    return table["runs"][float(alpha)][0]


def _record_trial(outcome):
    valid = outcome.valid_eps_range
    return {"success": outcome.success, "range": list(valid) if valid else None}


def _check_trial(outcome, ref):
    got = _record_trial(outcome)
    return [] if got == ref else [f"trial {got} != reference {ref}"]


def trial_seeds(seed, sizes):
    """Trial seeds of one run, taken from the pool that has references."""
    base = seed * sizes.trials_per_case
    return [(base + j) % sizes.trial_pool for j in range(sizes.trials_per_case)]


def _retrieval_ops(sizes, seed):
    targets = retrieval.load_target_profiles()
    ops = []
    for which in sizes.varieties:
        for alpha in sizes.scales:
            for ts in trial_seeds(seed, sizes):
                ops.append(
                    Op(
                        kind="trial",
                        key=f"retrieval/{which}/{alpha:g}/{ts}/{sizes.trial_points}",
                        call=partial(_trial, which, alpha, ts, targets[which], sizes.trial_points),
                        check=_check_trial,
                        record=_record_trial,
                    )
                )
    return ops


# ---------------------------------------------------------------------------


WORKLOADS = ("fit-numeric", "fit-coeff", "replay", "retrieval")


def build(name, seed, sizes, workdir):
    """Set-up of workload ``name``: its inputs and its measured pass.

    Set-up ends with one untimed call of the first operation of each kind
    (replay's set-up fits and evaluates instead), so that first-call costs
    stay out of the measured passes.
    """
    if name == "fit-numeric":
        ops = _fit_ops(sizes.fit_grid, ("vca", "grad"), seed)
    elif name == "fit-coeff":
        ops = _fit_ops(sizes.coeff_grid, ("coeff",), seed)
    elif name == "replay":
        return _replay_ops(sizes.replay_cases, sizes.replay_fresh, seed, workdir)
    elif name == "retrieval":
        ops = _retrieval_ops(sizes, seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    warmed = set()
    for op in ops:
        if op.kind not in warmed:
            warmed.add(op.kind)
            op.call()
    return ops
