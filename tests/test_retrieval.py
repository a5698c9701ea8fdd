"""Epsilon-grid scan semantics and the retrieval harness plumbing."""

import json

import numpy as np
import pytest

from conftest import rng_for
from mavik import engine, retrieval
from mavik.core import PointSet
from mavik.datasets import center_and_unitbox, perturb, sample_variety, scale
from mavik.engine import EngineConfig, evaluate, fit
from mavik.errors import ContractViolation
from mavik.retrieval import (
    RetrievalOutcome,
    _matches_target,
    _matching_runs,
    grid_epsilons,
    load_target_profiles,
    mode_from_kind,
    run_retrieval,
    scan_g_profiles,
)


V1_TARGET = (0, 0, 0, 0, 0, 0, 1)


def _cut(g_counts, target):
    """G counts up to the first degree whose count differs from ``target``'s."""
    for t, (count, wanted) in enumerate(zip(g_counts, target)):
        if count != wanted:
            return tuple(g_counts[: t + 1])
    return tuple(g_counts)


def _brute_force_reports(X, mode, max_degree, eps_grid):
    return [
        fit(X, EngineConfig(epsilon=float(eps), mode=mode, max_degree=max_degree))[1]
        for eps in eps_grid
    ]


def _brute_force_cuts(X, mode, target, eps_grid):
    reports = _brute_force_reports(X, mode, len(target) - 1, eps_grid)
    return [_cut(r.g_counts, target) for r in reports]


def test_scan_equals_brute_force_per_epsilon_fits():
    # the scan reuses a fit until epsilon crosses an extent of the degrees
    # it ran, and stops a fit at the first degree that leaves the target;
    # this must be indistinguishable from a full fit at every grid point,
    # cut at that degree
    clean = center_and_unitbox(sample_variety("V1", 60, seed=4))
    X = perturb(clean, 0.05, seed=11)
    mode = mode_from_kind("grad", n_points=len(X))
    eps_grid = np.linspace(1e-4, 0.6, 97)
    scanned = scan_g_profiles(engine.Fitter(X), mode, V1_TARGET, eps_grid)
    brute = _brute_force_cuts(X, mode, V1_TARGET, eps_grid)
    assert scanned == brute
    assert V1_TARGET in brute and min(len(p) for p in brute) < len(V1_TARGET)


def test_scan_handles_threshold_exactly_at_extent():
    # classification sends an extent exactly equal to epsilon into the
    # vanishing side; feed the scan grid points sitting on both degree-1
    # extents, the lower of which is the breakpoint of the first fit
    rng = rng_for(6)
    X = PointSet(rng.uniform(-1, 1, size=(12, 2)))
    mode = mode_from_kind("grad", n_points=len(X))
    _, report = fit(X, EngineConfig(epsilon=1e-9, mode=mode, max_degree=2))
    lower, upper = np.sort(report.extents[0])
    eps_grid = np.array([upper / 2, lower, upper, upper * 1.5])
    for target in ((0, 0, 2), (0, 1, 0)):
        scanned = scan_g_profiles(engine.Fitter(X), mode, target, eps_grid)
        assert scanned == _brute_force_cuts(X, mode, target, eps_grid)


def test_scan_cuts_at_degree_0_for_a_target_with_a_constant():
    # no fit has a vanishing constant, so every profile leaves such a
    # target at degree 0
    X = _oracle_case()
    mode = mode_from_kind("grad", n_points=len(X))
    eps_grid = np.linspace(1e-4, 0.6, 9)
    scanned = scan_g_profiles(engine.Fitter(X), mode, (1, 0, 0), eps_grid)
    assert scanned == _brute_force_cuts(X, mode, (1, 0, 0), eps_grid) == [(0,)] * 9


def _oracle_case():
    clean = center_and_unitbox(sample_variety("V1", 60, seed=4))
    return perturb(clean, 0.05, seed=11)


@pytest.mark.parametrize("kind", ["vca", "coeff", "grad"])
def test_scan_equals_brute_force_in_every_mode_through_f_empty(kind):
    # the grid reaches past the largest degree-1 extent, so its upper part
    # stops with an empty F stratum at several degrees below max_degree
    X = _oracle_case()
    mode = mode_from_kind(kind, n_points=len(X))
    eps_grid = np.geomspace(1e-4, 5.0, 97)
    reports = _brute_force_reports(X, mode, 6, eps_grid)
    assert scan_g_profiles(engine.Fitter(X), mode, V1_TARGET, eps_grid) == [
        _cut(r.g_counts, V1_TARGET) for r in reports
    ]
    early = {len(r.g_counts) - 1 for r in reports if r.termination == "f-empty"}
    assert {1, 2, 3} <= early and min(early) < 6


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("alpha", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("which", ["V1", "V2", "V3"])
@pytest.mark.parametrize("kind", ["vca", "coeff", "grad"])
def test_scan_finds_the_grid_points_a_full_fit_matches(kind, which, alpha, seed):
    # the grid spans the extents of a fit at epsilon 0, and the target is
    # the full profile at its middle point, so the grid holds epsilons that
    # match it and epsilons whose fits leave it at some degree
    X = scale(perturb(center_and_unitbox(sample_variety(which, 40, seed=seed)), 0.05,
                      seed=seed + 100), alpha)
    mode = mode_from_kind(kind, n_points=len(X))
    max_degree = len(load_target_profiles()[which]) - 1
    extents = np.concatenate(_brute_force_reports(X, mode, max_degree, [0.0])[0].extents)
    eps_grid = np.geomspace(extents[extents > 0].min(), extents.max(), 61)
    fitter = engine.Fitter(X)  # full fits at every grid point, sharing their steps
    full = [fitter.fit(EngineConfig(epsilon=float(eps), mode=mode, max_degree=max_degree))[1]
            for eps in eps_grid]
    middle = full[len(full) // 2].g_counts
    target = tuple(middle) + (0,) * (max_degree + 1 - len(middle))
    brute = [i for i, r in enumerate(full) if _matches_target(r.g_counts, target)]
    assert brute and len(brute) < len(eps_grid)
    scanned = scan_g_profiles(engine.Fitter(X), mode, target, eps_grid)
    assert [i for i, p in enumerate(scanned) if _matches_target(p, target)] == brute


def _eig_counter(monkeypatch):
    eig_calls = []
    counted_eig = engine.gen_eig_sym

    def eig(*args, **kwargs):
        eig_calls.append(1)
        return counted_eig(*args, **kwargs)

    monkeypatch.setattr(engine, "gen_eig_sym", eig)
    return eig_calls


def test_scan_makes_at_most_a_third_of_the_refitting_eigensolves(monkeypatch):
    # one eigensolve per degree step: resuming from the lowest degree whose
    # split flips must save at least 3x, both over fitting at every grid
    # point and over refitting from degree 1 wherever the scan reclassifies
    X = _oracle_case()
    mode = mode_from_kind("grad", n_points=len(X))
    eps_grid = np.linspace(1e-4, 0.6, 97)
    fit_eps = []
    counted_degrees = engine.Fitter.degrees

    def degrees(self, config):
        fit_eps.append(config.epsilon)
        yield from counted_degrees(self, config)

    eig_calls = _eig_counter(monkeypatch)
    monkeypatch.setattr(engine.Fitter, "degrees", degrees)
    scan_g_profiles(engine.Fitter(X), mode, V1_TARGET, eps_grid)
    scanned, reclassified_at = len(eig_calls), list(fit_eps)
    eig_calls.clear()
    _brute_force_reports(X, mode, 6, eps_grid)
    every_point = len(eig_calls)
    eig_calls.clear()
    _brute_force_reports(X, mode, 6, reclassified_at)
    assert 0 < 3 * scanned <= min(every_point, len(eig_calls))


def test_pruned_scan_makes_at_most_half_the_eigensolves_of_full_fits(monkeypatch):
    # the same scan with every breakpoint fit run to max_degree, so that
    # its breakpoints come from all the fit's extents
    X = _oracle_case()
    mode = mode_from_kind("grad", n_points=len(X))
    eps_grid = grid_epsilons(1.0)
    eig_calls = _eig_counter(monkeypatch)
    scan_g_profiles(engine.Fitter(X), mode, V1_TARGET, eps_grid)
    pruned = len(eig_calls)
    eig_calls.clear()
    fitter, next_bp = engine.Fitter(X), -np.inf
    for eps in eps_grid:
        if eps >= next_bp:
            config = EngineConfig(epsilon=float(eps), mode=mode, max_degree=6)
            extents = np.concatenate(fitter.fit(config)[1].extents)
            next_bp = extents[extents > eps].min(initial=np.inf)
    assert 0 < 2 * pruned <= len(eig_calls)


@pytest.mark.parametrize("which, alpha", [("V1", 0.01), ("V3", 1.0), ("V1", 100.0)])
def test_final_fit_reuses_the_scan_and_matches_a_fresh_fit(monkeypatch, which, alpha):
    # the trial fits the valid window's midpoint on the scan's fitter: that
    # fit computes no eigensolve, and the outcome is the one a fresh fit at
    # the midpoint gives, bitwise
    eig_calls, after_scan = [], []
    counted_eig, counted_scan = engine.gen_eig_sym, retrieval.scan_g_profiles

    def eig(A, N):
        eig_calls.append(A.shape)
        return counted_eig(A, N)

    def scan(*args):
        out = counted_scan(*args)
        after_scan.append(len(eig_calls))
        return out

    monkeypatch.setattr(engine, "gen_eig_sym", eig)
    monkeypatch.setattr(retrieval, "scan_g_profiles", scan)
    target = load_target_profiles()[which]
    outcome = retrieval._single_trial(which, 0.05, alpha, 0, "grad", None, target, 100)
    assert outcome.success and after_scan == [len(eig_calls)] and eig_calls
    monkeypatch.undo()

    clean = center_and_unitbox(sample_variety(which, 100, seed=0))
    X_run = scale(perturb(clean, 0.05, seed=7_000_003), alpha)
    lo, hi = outcome.valid_eps_range
    mode = mode_from_kind("grad", n_points=len(X_run))
    config = EngineConfig(epsilon=0.5 * (lo + hi), mode=mode, max_degree=len(target) - 1)
    _, G_mat = evaluate(fit(X_run, config)[0], scale(clean, alpha))
    extent = float(np.mean(np.linalg.norm(G_mat, axis=0)))
    trials = len(grid_epsilons(alpha))
    assert outcome == RetrievalOutcome(True, (lo, hi), extent, trials, outcome.noncontiguous)


@pytest.mark.parametrize(
    "grid",
    [np.linspace(1e-4, 0.6, 97)[::-1], [1e-3, float("nan"), 0.1], [1e-3, float("inf")]],
)
def test_scan_rejects_descending_or_nonfinite_grid(grid):
    # a scan only moves its breakpoint upward: a descending grid would
    # silently repeat stale profiles
    X = _oracle_case()
    with pytest.raises(ContractViolation):
        scan_g_profiles(engine.Fitter(X), mode_from_kind("grad", n_points=len(X)), V1_TARGET, grid)


def test_matches_target_compares_up_to_target_degree():
    assert _matches_target((0, 1), (0, 1, 0, 0))  # early termination pads zeros
    assert _matches_target((0, 1, 2), (0, 1))  # counts beyond T are ignored
    assert _matches_target((0, 1, 2, 9), (0, 1, 2))
    assert not _matches_target((0, 2), (0, 1, 0))


def test_matching_runs_are_the_blocks_of_matching_grid_points():
    # a scan repeats each fit's profile object over the points it covers;
    # distinct neighbouring profiles that both match join into one block
    target = (0, 1, 0)
    rng = rng_for(31)
    pool = [(0, 1), (0, 1, 0), (0, 2), (1,), (0, 1, 0, 5)]
    profiles = []
    for _ in range(60):
        profiles += [pool[rng.integers(len(pool))]] * int(rng.integers(1, 6))
    blocks = []
    for i, p in enumerate(profiles):
        if _matches_target(p, target):
            if blocks and blocks[-1][1] == i - 1:
                blocks[-1][1] = i
            else:
                blocks.append([i, i])
    assert len(blocks) > 1
    assert _matching_runs(profiles, target) == blocks
    assert _matching_runs([(0, 2)] * 4, target) == []
    assert _matching_runs([], target) == []


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
