"""Epsilon-grid scan semantics and the retrieval harness plumbing."""

import json

import numpy as np
import pytest

from conftest import rng_for
from mavik import engine
from mavik.core import PointSet
from mavik.datasets import center_and_unitbox, perturb, sample_variety
from mavik.engine import EngineConfig, fit
from mavik.errors import ContractViolation
from mavik.retrieval import (
    RetrievalOutcome,
    _matches_target,
    grid_epsilons,
    load_target_profiles,
    mode_from_kind,
    run_retrieval,
    scan_g_profiles,
)


def test_scan_equals_brute_force_per_epsilon_fits():
    # the memoized scan reuses a fit until epsilon crosses one of its
    # classification extents; this must be indistinguishable from fitting
    # at every grid point
    clean = center_and_unitbox(sample_variety("V1", 60, seed=4))
    X = perturb(clean, 0.05, seed=11)
    mode = mode_from_kind("grad", n_points=len(X))
    eps_grid = np.linspace(1e-4, 0.6, 97)
    scanned = scan_g_profiles(X, mode, 6, eps_grid)
    brute = []
    for eps in eps_grid:
        _, report = fit(X, EngineConfig(epsilon=float(eps), mode=mode, max_degree=6))
        brute.append(tuple(report.g_counts))
    assert scanned == brute


def test_scan_handles_threshold_exactly_at_extent():
    # classification sends an extent exactly equal to epsilon into the
    # vanishing side; feed the scan a grid point sitting on a breakpoint
    rng = rng_for(6)
    X = PointSet(rng.uniform(-1, 1, size=(12, 2)))
    mode = mode_from_kind("grad", n_points=len(X))
    _, report = fit(X, EngineConfig(epsilon=1e-9, mode=mode, max_degree=2))
    breakpoint_value = float(report.extents[1].max())
    eps_grid = np.array([breakpoint_value / 2, breakpoint_value, breakpoint_value * 1.5])
    scanned = scan_g_profiles(X, mode, 2, eps_grid)
    for eps, profile in zip(eps_grid, scanned):
        _, rep = fit(X, EngineConfig(epsilon=float(eps), mode=mode, max_degree=2))
        assert profile == tuple(rep.g_counts)


def _oracle_case():
    clean = center_and_unitbox(sample_variety("V1", 60, seed=4))
    return perturb(clean, 0.05, seed=11)


def _brute_force_reports(X, mode, max_degree, eps_grid):
    return [
        fit(X, EngineConfig(epsilon=float(eps), mode=mode, max_degree=max_degree))[1]
        for eps in eps_grid
    ]


@pytest.mark.parametrize("kind", ["vca", "coeff", "grad"])
def test_scan_equals_brute_force_in_every_mode_through_f_empty(kind):
    # the grid reaches past the largest degree-1 extent, so its upper part
    # stops with an empty F stratum at several degrees below max_degree
    X = _oracle_case()
    mode = mode_from_kind(kind, n_points=len(X))
    eps_grid = np.geomspace(1e-4, 5.0, 97)
    reports = _brute_force_reports(X, mode, 6, eps_grid)
    assert scan_g_profiles(X, mode, 6, eps_grid) == [tuple(r.g_counts) for r in reports]
    early = {len(r.g_counts) - 1 for r in reports if r.termination == "f-empty"}
    assert {1, 2, 3} <= early and min(early) < 6


def test_scan_makes_at_most_a_third_of_the_refitting_eigensolves(monkeypatch):
    # one eigensolve per degree step: resuming from the lowest degree whose
    # split flips must save at least 3x, both over fitting at every grid
    # point and over refitting from degree 1 wherever the scan reclassifies
    X = _oracle_case()
    mode = mode_from_kind("grad", n_points=len(X))
    eps_grid = np.linspace(1e-4, 0.6, 97)
    eig_calls, fit_eps = [], []
    counted_eig, counted_fit = engine.gen_eig_sym, engine.Fitter.fit

    def eig(*args, **kwargs):
        eig_calls.append(1)
        return counted_eig(*args, **kwargs)

    def refit(self, config):
        fit_eps.append(config.epsilon)
        return counted_fit(self, config)

    monkeypatch.setattr(engine, "gen_eig_sym", eig)
    monkeypatch.setattr(engine.Fitter, "fit", refit)
    scan_g_profiles(X, mode, 6, eps_grid)
    scanned, reclassified_at = len(eig_calls), list(fit_eps)
    eig_calls.clear()
    _brute_force_reports(X, mode, 6, eps_grid)
    every_point = len(eig_calls)
    eig_calls.clear()
    _brute_force_reports(X, mode, 6, reclassified_at)
    assert 0 < 3 * scanned <= min(every_point, len(eig_calls))


@pytest.mark.parametrize(
    "grid",
    [np.linspace(1e-4, 0.6, 97)[::-1], [1e-3, float("nan"), 0.1], [1e-3, float("inf")]],
)
def test_scan_rejects_descending_or_nonfinite_grid(grid):
    # a scan only moves its breakpoint upward: a descending grid would
    # silently repeat stale profiles
    X = _oracle_case()
    with pytest.raises(ContractViolation):
        scan_g_profiles(X, mode_from_kind("grad", n_points=len(X)), 6, grid)


def test_matches_target_compares_up_to_target_degree():
    assert _matches_target((0, 1), (0, 1, 0, 0))  # early termination pads zeros
    assert _matches_target((0, 1, 2), (0, 1))  # counts beyond T are ignored
    assert _matches_target((0, 1, 2, 9), (0, 1, 2))
    assert not _matches_target((0, 2), (0, 1, 0))


def test_grid_rejects_nonpositive_alpha():
    with pytest.raises(ContractViolation):
        grid_epsilons(0.0)


def test_outcome_invariant_success_iff_range():
    table = run_retrieval("V1", 0.05, [1.0], 3, "grad",
                          [0, 0, 0, 0, 0, 0, 1], base_seed=0)
    for outcome in table["runs"][1.0]:
        assert isinstance(outcome, RetrievalOutcome)
        assert outcome.success == (outcome.valid_eps_range is not None)
        assert outcome.trials == grid_epsilons(1.0).shape[0]


def test_trials_run_serially():
    with pytest.raises(ContractViolation, match="workers must be 1"):
        run_retrieval("V1", 0.05, [1.0], 1, "grad", [0, 0, 0, 0, 0, 0, 1], workers=2)


def test_mode_from_kind_rejects_unknown():
    # only the --mode choices are mode names
    for kind in ("fancy", "vca-baseline", "coefficient", "gradient"):
        with pytest.raises(ContractViolation):
            mode_from_kind(kind)


@pytest.mark.parametrize(
    "profiles",
    [{"V2": [0, "a"]}, {"V2": [0, -1]}, {"V2": [0, 1.5]}, {"V2": [0, True]},
     {"V2": []}, {"V2": "0101"}, ["V2"]],
)
def test_target_profiles_must_be_lists_of_nonnegative_counts(profiles, tmp_path):
    path = tmp_path / "target.json"
    path.write_text(json.dumps({"profiles": profiles}))
    with pytest.raises(ContractViolation):
        load_target_profiles(path)
