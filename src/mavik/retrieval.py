"""Configuration-retrieval harness.

A run samples a parametric variety, normalizes it to the unit box, perturbs
it with Gaussian noise, rescales by alpha, and then searches a fixed
epsilon grid for thresholds at which the fitted vanishing strata match a
target per-degree profile.  The grid is scale-covariant: it always contains
the same number of points, at the same positions relative to alpha.

The scan exploits that a fit is a piecewise-constant function of epsilon:
classification decisions only flip when epsilon crosses one of the extents
of vanishing encountered during the run, so consecutive grid points
between breakpoints reuse the previous fit verbatim.  At a breakpoint the
scan does not refit from degree 1 either: one :class:`~mavik.engine.Fitter`
serves the whole trial, final fit included, and computes a degree only for
a split of the degrees below it that it has not seen.  The classification,
the size guards and the termination rules are the engine's own, so every
scanned profile and the final basis are those of a fresh fit at that
epsilon.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import datasets
from .engine import EngineConfig, Fitter, NormalizationMode, evaluate
from .engine import fit  # unused here, but the benchmark tracer wraps retrieval.fit
from .errors import ContractViolation

__all__ = [
    "GRID_LO_FRAC",
    "GRID_STEP_FRAC",
    "grid_epsilons",
    "scan_g_profiles",
    "mode_from_kind",
    "RetrievalOutcome",
    "run_retrieval",
    "load_target_profiles",
]

GRID_LO_FRAC = 1e-5
GRID_STEP_FRAC = 1e-3
DEFAULT_POINTS_PER_RUN = 100


def grid_epsilons(alpha):
    """The epsilon search grid for scale ``alpha``: [1e-5 a, a) step 1e-3 a."""
    if alpha <= 0:
        raise ContractViolation("alpha must be positive")
    count = math.ceil((1.0 - GRID_LO_FRAC) / GRID_STEP_FRAC)
    return alpha * (GRID_LO_FRAC + np.arange(count) * GRID_STEP_FRAC)


def mode_from_kind(kind, n_points=None, z=None):
    """Map a mode name (vca, coeff or grad) to a NormalizationMode.

    In gradient mode the harness normalizes the *mean per-point* gradient
    norm to one (z = sqrt(|X|)) rather than the norm of the full stacked
    gradient vector: extents of vanishing then sit at the per-point noise
    scale, which keeps the epsilon search grid (relative step 1e-3) fine
    enough to resolve the valid window.
    """
    if kind == "vca":
        return NormalizationMode.vca_baseline()
    if kind == "coeff":
        return NormalizationMode.coefficient()
    if kind == "grad":
        if z is None:
            z = math.sqrt(n_points) if n_points else 1.0
        return NormalizationMode.gradient(z=z)
    raise ContractViolation(f"unknown mode {kind!r}")


def _next_breakpoint(report, eps):
    """The smallest extent of ``report`` above ``eps`` (inf if none)."""
    extents = np.concatenate(report.extents)
    above = extents[extents > eps]
    return float(above.min()) if above.size else math.inf


def scan_g_profiles(fitter, mode, max_degree, epsilons):
    """Vanishing-stratum profiles of ``fitter``'s fits at each epsilon of a nondecreasing grid."""
    grid = np.asarray(epsilons, dtype=float)
    if not np.all(np.isfinite(grid)) or np.any(np.diff(grid) < 0):
        raise ContractViolation("epsilon grid must be finite and nondecreasing")
    profiles = []
    current = None
    next_bp = -math.inf
    for eps in grid:
        if current is None or eps >= next_bp:
            _, report = fitter.fit(
                EngineConfig(epsilon=float(eps), mode=mode, max_degree=max_degree)
            )
            current = tuple(report.g_counts)
            next_bp = _next_breakpoint(report, eps)
        profiles.append(current)
    return profiles


def _matches_target(profile, target):
    padded = list(profile) + [0] * max(0, len(target) - len(profile))
    return padded[: len(target)] == list(target)


def _contiguous_runs(indices):
    runs = []
    for i in indices:
        if runs and i == runs[-1][1] + 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    return runs


@dataclass
class RetrievalOutcome:
    """One retrieval run: did any searched threshold reproduce the target?

    ``success`` holds iff ``valid_eps_range`` is nonempty; the range is the
    widest contiguous block of working grid thresholds; ``trials`` counts
    the thresholds searched.  ``extent_at_unperturbed`` is the mean
    evaluation norm of the fitted vanishing polynomials at the scaled
    unperturbed points, and ``noncontiguous`` flags a fragmented valid set
    (the widest block is then reported)."""

    success: bool
    valid_eps_range: tuple | None
    extent_at_unperturbed: float | None
    trials: int
    noncontiguous: bool = False


def _single_trial(which, noise, alpha, run_seed, mode_kind, z, target, n_points):
    """Scan the grid, then fit the widest valid window's midpoint on the scan's fitter."""
    clean = datasets.center_and_unitbox(
        datasets.sample_variety(which, n_points, seed=run_seed)
    )
    perturbed = datasets.perturb(clean, noise, seed=run_seed + 7_000_003)
    X_run = datasets.scale(perturbed, alpha)
    X_ref = datasets.scale(clean, alpha)

    mode = mode_from_kind(mode_kind, n_points=len(X_run), z=z)
    max_degree = len(target) - 1
    eps_grid = grid_epsilons(alpha)
    fitter = Fitter(X_run)
    profiles = scan_g_profiles(fitter, mode, max_degree, eps_grid)
    matching = {p for p in set(profiles) if _matches_target(p, target)}
    hits = [i for i, p in enumerate(profiles) if p in matching]
    if not hits:
        return RetrievalOutcome(False, None, None, len(eps_grid))
    runs = _contiguous_runs(hits)
    widest = max(runs, key=lambda r: r[1] - r[0])
    lo, hi = float(eps_grid[widest[0]]), float(eps_grid[widest[1]])

    basis, _ = fitter.fit(
        EngineConfig(epsilon=0.5 * (lo + hi), mode=mode, max_degree=max_degree)
    )
    _, G_mat = evaluate(basis, X_ref)
    extent = float(np.mean(np.linalg.norm(G_mat, axis=0))) if G_mat.shape[1] else 0.0
    return RetrievalOutcome(True, (lo, hi), extent, len(eps_grid), len(runs) > 1)


def run_retrieval(
    which,
    noise,
    scales,
    runs,
    mode_kind,
    target,
    base_seed=0,
    z=None,
    n_points=DEFAULT_POINTS_PER_RUN,
    workers=None,
):
    """Retrieval table for one variety/mode.

    Returns {"runs": {alpha: [RetrievalOutcome, ...]}, "per_scale": {alpha:
    aggregate dict}} where the aggregate averages the valid range and the
    unperturbed extent over the successful runs.  The trials run one after
    another, alpha by alpha and run by run; ``workers`` may only be None or
    1, and any other value raises ContractViolation.
    """
    if runs < 1:
        raise ContractViolation("runs must be at least 1")
    if workers not in (None, 1):
        raise ContractViolation("retrieval trials run serially; workers must be 1")
    per_scale, per_run = {}, {}
    for alpha in map(float, scales):
        chunk = per_run[alpha] = [
            _single_trial(which, noise, alpha, base_seed + r, mode_kind, z, target, n_points)
            for r in range(runs)
        ]
        ok = [c for c in chunk if c.success]
        bounds = zip(*(c.valid_eps_range for c in ok))  # the lower ends, then the upper
        per_scale[alpha] = {
            "successes": len(ok),
            "runs": runs,
            "success_rate": len(ok) / runs,
            "valid_eps_range": tuple(float(np.mean(side)) for side in bounds) or None,
            "extent_at_unperturbed": (
                float(np.mean([c.extent_at_unperturbed for c in ok])) if ok else None
            ),
        }
    return {"per_scale": per_scale, "runs": per_run}


def load_target_profiles(path=None):
    """Per-variety target profiles (counts of vanishing polynomials by degree).

    Each profile must be a nonempty list of nonnegative integer counts.
    """
    try:
        if path is not None:
            text = Path(path).read_text()
        else:
            text = resources.files("mavik").joinpath("data/target_profiles.json").read_text()
    except (OSError, ValueError) as exc:
        raise ContractViolation(f"cannot read target profile file: {exc}") from exc
    try:
        profiles = json.loads(text)["profiles"].items()
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ContractViolation(f"malformed target profile file: {exc}") from exc
    for name, counts in profiles:
        if type(counts) is not list or not counts or not all(type(c) is int and c >= 0 for c in counts):
            raise ContractViolation(
                f"target profile {name!r} must be a nonempty list of nonnegative integer counts, "
                f"got {counts!r}"
            )
    return {name: counts for name, counts in profiles}
