"""The degree-incremental fit: classification, normalization modes,
termination rules, replay, and the consistency/robustness guarantees."""

import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import fd_gradient, generic_points, rng_for
from mavik import core, engine, linalg, serialize
from mavik.core import PointSet, Poly, Rows, constant_poly, variables
from mavik.datasets import (center_and_unitbox, perturb, sample_generic, sample_variety, scale,
                            translate)
from mavik.engine import (
    EngineConfig,
    NormalizationMode,
    check_termination_dimension,
    dimension_bounds,
    evaluate,
    fit,
    normalization_gram,
)
from mavik.errors import ContractViolation, InternalInvariantViolation, ResourceLimitError
from mavik.coefficients import expand_many
from mavik.retrieval import mode_from_kind

GRAD = NormalizationMode.gradient()
CIRCLE4 = PointSet([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def circle_points(count=40, seed=0):
    theta = rng_for(seed).uniform(0.0, 2 * np.pi, size=count)
    return PointSet(np.column_stack([np.cos(theta), np.sin(theta)]))


class TestFitSmall:
    def test_single_point_terminates_at_degree_one(self):
        X = PointSet([[0.3, -0.7]])
        basis, report = fit(X, EngineConfig(epsilon=0.0, mode=GRAD))
        assert report.f_counts == [1, 0]
        assert report.g_counts == [0, 2]
        assert report.termination == "f-empty"

    def test_circle4_gradient_profile(self):
        basis, report = fit(CIRCLE4, EngineConfig(epsilon=1e-8, mode=GRAD))
        assert report.g_counts == [0, 0, 2, 2]
        assert report.g_total == 4

    def test_circle4_vca_without_dedup_keeps_spurious_member(self):
        _, report = fit(
            CIRCLE4,
            EngineConfig(
                epsilon=1e-8, mode=NormalizationMode.vca_baseline(), dedup_degree2=False
            ),
        )
        assert report.g_total == 5

    @pytest.mark.parametrize("mode", [
        NormalizationMode.vca_baseline(), NormalizationMode.coefficient(), GRAD,
    ], ids=["vca", "coeff", "grad"])
    def test_eps_zero_on_the_line_ends_where_f_spans_the_points(self, mode):
        # at degree |X| the F strata span R^|X|, so the one candidate is
        # rounding residue and vanishes even at epsilon 0
        _, report = fit(sample_generic(30, 1, 0), EngineConfig(epsilon=0.0, mode=mode))
        assert sum(report.f_counts) == 30
        assert report.g_counts[30] == 1

    def test_generic_3d_profile(self):
        X = generic_points(50, 3, seed=0)
        _, report = fit(X, EngineConfig(epsilon=1e-6, mode=GRAD))
        assert report.g_counts == [0, 0, 0, 0, 0, 6, 34]
        assert report.g_total == 40

    def test_empty_epsilon_rejected(self):
        with pytest.raises(ContractViolation):
            fit(CIRCLE4, EngineConfig(epsilon=-1.0, mode=GRAD))

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_epsilon_rejected(self, eps):
        with pytest.raises(ContractViolation):
            fit(CIRCLE4, EngineConfig(epsilon=eps, mode=GRAD))

    @pytest.mark.parametrize("mode", [GRAD, NormalizationMode.coefficient()], ids=["grad", "coeff"])
    def test_fitter_refits_match_fresh_fits_bitwise(self, monkeypatch, mode):
        # one fitter walked up and down an epsilon sequence, with changes of
        # max_degree and of the dimension rule in between, writes the files a
        # fresh fit writes; a return to an epsilon it has fitted under the
        # same configuration (marked True) computes no eigensolve.  In coeff
        # mode the fitter's Grams read the coefficient rows it has kept.
        X = sample_generic(30, 2, 0)
        fitter = engine.Fitter(X)
        eig_calls = []
        counted = engine.gen_eig_sym

        def eig(A, N):
            eig_calls.append(A.shape)
            return counted(A, N)

        monkeypatch.setattr(engine, "gen_eig_sym", eig)
        steps = ((1e-9, 6, None, False), (0.05, 6, None, False), (0.3, 6, None, False),
                 (1e-9, 6, None, True), (0.05, 6, None, True), (0.3, 6, None, True),
                 (0.05, 4, None, False), (1e-3, 6, None, False), (0.3, 6, None, False),
                 (1e-3, 6, None, True), (0.05, 6, 1, False), (0.3, 6, 1, False))
        computed = []
        for eps, max_degree, d_max, returning in steps:
            config = EngineConfig(epsilon=eps, mode=mode, max_degree=max_degree, d_max=d_max)
            eig_calls.clear()
            got = fitter.fit(config)
            computed.append(len(eig_calls))
            if returning:
                assert not eig_calls
            want = fit(X, config)
            assert serialize.report_to_json(got[1]) == serialize.report_to_json(want[1])
            assert json.dumps(serialize.basis_to_json(got[0], points=X)) == json.dumps(
                serialize.basis_to_json(want[0], points=X)
            )
        assert computed[0] == 6

    @pytest.mark.parametrize("count, dim", [(50, 2), (50, 3), (50, 4), (50, 5), (100, 4), (200, 3)])
    def test_coefficient_grams_from_kept_rows_match_fresh_grams_bitwise(
        self, monkeypatch, count, dim
    ):
        formed = []
        gram = engine.coeff_gram

        def capture(cands, **kwargs):
            assert kwargs["memo"] is not None
            N = gram(cands, **kwargs)
            formed.append((cands, N))
            return N

        monkeypatch.setattr(engine, "coeff_gram", capture)
        config = EngineConfig(epsilon=1e-6, mode=NormalizationMode.coefficient())
        _, report = fit(sample_generic(count, dim, 0), config)
        assert len(formed) == len(report.spectra) > 2
        for cands, N in formed:
            assert N.tobytes() == gram(cands).tobytes()

    def test_coefficient_mode_term_cap(self):
        X = generic_points(30, 4, seed=1)
        cfg = EngineConfig(
            epsilon=1e-6, mode=NormalizationMode.coefficient(), term_cap=3
        )
        with pytest.raises(ResourceLimitError):
            fit(X, cfg)

    @pytest.mark.parametrize("mode", [NormalizationMode.vca_baseline(),
                                      NormalizationMode.coefficient()], ids=["vca", "coeff"])
    @pytest.mark.parametrize("term_cap", [0, -5])
    def test_term_cap_below_one_is_rejected(self, mode, term_cap):
        with pytest.raises(ContractViolation, match="term_cap"):
            fit(sample_generic(20, 2, 0), EngineConfig(epsilon=1e-6, mode=mode, term_cap=term_cap))

    @pytest.mark.parametrize("fits, rejected", [(1e153, 1e154), (1e-154, 1e-155),
                                                (1e-154, 1e-162), (1e-154, float("nan"))])
    def test_constant_needs_a_normal_squared_norm(self, fits, rejected):
        # m^2 |X| on 20 points: inf from 1e154 up, subnormal from 1e-155 down
        X = sample_generic(20, 2, 0)
        assert fit(X, EngineConfig(epsilon=1e-6, mode=GRAD, m_constant=fits))[1].termination
        with pytest.raises(ContractViolation, match="m_constant") as info:
            fit(X, EngineConfig(epsilon=1e-6, mode=GRAD, m_constant=rejected))
        assert "rescale" not in str(info.value)

    def test_default_grad_constant_of_tiny_points_asks_for_a_rescale(self):
        X = scale(sample_generic(20, 2, 0), 1e-160)
        with pytest.raises(ContractViolation, match="rescale the points"):
            fit(X, EngineConfig(epsilon=1e-166, mode=GRAD))

    def test_deterministic_rerun(self):
        X = generic_points(25, 3, seed=2)
        b1, r1 = fit(X, EngineConfig(epsilon=1e-7, mode=GRAD))
        b2, r2 = fit(X, EngineConfig(epsilon=1e-7, mode=GRAD))
        assert r1.g_counts == r2.g_counts
        for p1, p2 in zip(b1.g_polys(), b2.g_polys()):
            np.testing.assert_array_equal(p1.eval, p2.eval)
            np.testing.assert_array_equal(p1.grad, p2.grad)


# Three modes on generic points, and a fit that the dimension rule stops.
RECORD_FITS = {
    kind: (sample_generic(20, 2, 0), EngineConfig(epsilon=1e-6, mode=mode_from_kind(kind)))
    for kind in ("vca", "coeff", "grad")
} | {"grad-dmax": (circle_points(30, seed=12), EngineConfig(epsilon=1e-6, mode=GRAD, d_max=1))}


def _per_degree_bytes(basis, report):
    """The per-degree lists of a fit, as bytes where they hold arrays."""
    return (report.f_counts, report.g_counts, [a.tobytes() for a in report.spectra],
            [a.tobytes() for a in report.extents], [a.tobytes() for a in basis.extents])


class TestYieldedRecord:
    """``Fitter.degrees`` yields the Basis and FitReport it fills in place."""

    @pytest.mark.parametrize("case", list(RECORD_FITS))
    def test_every_yield_is_the_fits_own_basis_and_report(self, case):
        X, config = RECORD_FITS[case]
        pairs = []
        for t, (basis, report) in enumerate(engine.Fitter(X).degrees(config), start=1):
            assert report.f_counts == basis.f_profile()
            assert report.g_counts == basis.g_profile()
            assert len(report.spectra) == len(report.extents) == t
            assert report.wall_time_s == 0
            pairs.append((basis, report))
        assert all(b is basis and r is report for b, r in pairs)
        want_basis, want_report = fit(X, config)
        assert want_report.wall_time_s > 0
        assert serialize.json_bytes(serialize.report_to_json(report)) == serialize.json_bytes(
            serialize.report_to_json(want_report))
        assert serialize.json_bytes(serialize.basis_to_json(basis, points=X)) == \
            serialize.json_bytes(serialize.basis_to_json(want_basis, points=X))

    @pytest.mark.parametrize("case", list(RECORD_FITS))
    def test_a_generator_stopped_at_degree_t_holds_a_max_degree_t_fit(self, case):
        X, config = RECORD_FITS[case]
        top = len(fit(X, config)[1].spectra)
        for t in range(1, top + 1):
            for basis, report in engine.Fitter(X).degrees(config):
                if len(report.spectra) == t:
                    break
            want = fit(X, dataclasses.replace(config, max_degree=t))
            assert _per_degree_bytes(basis, report) == _per_degree_bytes(*want)


class TestSquaredNorms:
    """The extents' batched row product is the per-row dot product, bitwise."""

    @pytest.mark.parametrize("magnitude", [1e-8, 1.0, 1e8])
    def test_random_rows(self, magnitude):
        rng = rng_for(31)
        for m in (1, 2, 3, 7, 50, 100, 200, 333, 1000):
            ev = rng.normal(size=(9, m)) * magnitude * np.exp(rng.normal(size=(9, 1)))
            want = np.array([math.sqrt(v.dot(v)) for v in ev])
            assert np.sqrt(engine._squared_norms(ev)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("count, dim", [(50, 3), (100, 4), (200, 3)])
    def test_grid_rows(self, count, dim):
        for kind in ("vca", "grad"):
            X = sample_generic(count, dim, 0)
            basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=mode_from_kind(kind)))
            for stratum in basis.F[1:] + basis.G[1:]:
                if stratum:
                    ev = np.array([p.eval for p in stratum])
                    want = np.array([math.sqrt(v.dot(v)) for v in ev])
                    assert np.sqrt(engine._squared_norms(ev)).tobytes() == want.tobytes()


# (count, dim) of generic point sets whose last degree is saturated: their F
# strata fill R^|X| through degree 5 (20 x 2) and degree 4 (50 x 4).
SATURATED_SHAPES = [(20, 2), (50, 4)]


class TestSaturatedDegree:
    """A degree whose lower F strata hold |X| members solves no eigenproblem of A."""

    @staticmethod
    def run(monkeypatch, kind, count, dim):
        """Fit, recording what the last degree's step runs.

        Returns the fit's basis and report, the shapes of the ``eigh`` calls,
        the ``(candidates, N)`` of the normalization Grams and the weights
        of the engine's combination calls, all of the last degree only."""
        X = sample_generic(count, dim, 0)
        config = EngineConfig(epsilon=1e-6, mode=mode_from_kind(kind, n_points=len(X)))
        eighs, grams, weights = [], [], []
        eigh, gram, combine = np.linalg.eigh, engine.normalization_gram, engine.linear_combine

        def counting_eigh(M):
            eighs.append(M.shape)
            return eigh(M)

        def capturing_gram(cands, *args, **kwargs):
            N = gram(cands, *args, **kwargs)
            grams.append((cands, N))
            return N

        def capturing_combine(polys, W, *args):
            weights.append(W)
            return combine(polys, W, *args)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(engine, "normalization_gram", capturing_gram)
        monkeypatch.setattr(engine, "linear_combine", capturing_combine)
        for basis, report in engine.Fitter(X).degrees(config):
            for record in (eighs, grams, weights):
                if report.termination != "f-empty":
                    record.clear()
        monkeypatch.undo()
        assert sum(report.f_counts[:-1]) == len(X) and report.f_counts[-1] == 0
        return X, config, basis, report, eighs, grams, weights

    @pytest.mark.parametrize("count, dim", SATURATED_SHAPES)
    @pytest.mark.parametrize("kind", ["vca", "coeff", "grad"])
    def test_the_step_runs_no_eigensolve_of_a(self, monkeypatch, kind, count, dim):
        # vca: none at all; coeff and grad: the eigendecomposition of N alone
        *_, eighs, grams, _ = self.run(monkeypatch, kind, count, dim)
        k = len(grams[0][0])
        assert eighs == ([] if kind == "vca" else [(k, k)])

    @pytest.mark.parametrize("count, dim", SATURATED_SHAPES)
    @pytest.mark.parametrize("kind", ["vca", "coeff", "grad"])
    def test_g_is_the_candidates_combined_by_the_whitening_of_n(self, monkeypatch, kind, count,
                                                               dim):
        X, config, basis, _, _, grams, weights = self.run(monkeypatch, kind, count, dim)
        ((cands, N),) = grams
        G = basis.G[-1]
        if kind == "vca":
            # no combination call: the members are the projected candidates
            assert weights == [] and len(G) == len(cands)
            assert [p.prov for p in G] == cands.provs
            assert all(p.eval.tobytes() == q.tobytes() for p, q in zip(G, cands.evals))
            return
        (W,) = weights
        assert W.tobytes() == linalg.whitening(N).tobytes() and W.shape == (len(cands), len(G))
        # N-orthonormal, as the generalized eigenvectors are
        got = normalization_gram(G, config.mode, term_cap=config.term_cap)
        assert np.abs(got - np.eye(len(G))).max() <= 1e-8

    @pytest.mark.parametrize("count, dim", SATURATED_SHAPES)
    @pytest.mark.parametrize("kind", ["vca", "coeff", "grad"])
    def test_spectra_are_the_squared_extents(self, monkeypatch, kind, count, dim):
        *_, basis, report, _, _, _ = self.run(monkeypatch, kind, count, dim)
        squares = np.array([p.eval.dot(p.eval) for p in basis.G[-1]])
        assert report.spectra[-1].tobytes() == squares.tobytes()
        assert np.sqrt(report.spectra[-1]).tobytes() == report.extents[-1].tobytes()
        assert basis.extents[-1].tobytes() == report.extents[-1].tobytes()

    @pytest.mark.parametrize("count, dim", SATURATED_SHAPES)
    @pytest.mark.parametrize("kind", ["vca", "coeff", "grad"])
    def test_a_saved_basis_replays_g_bitwise(self, monkeypatch, kind, count, dim):
        X, _, basis, _, _, grams, _ = self.run(monkeypatch, kind, count, dim)
        obj = json.loads(json.dumps(serialize.basis_to_json(basis, points=X)))
        loaded = serialize.basis_from_json(obj, X)
        G = basis.G[-1]
        assert [p.eval.tobytes() for p in loaded.G[-1]] == [p.eval.tobytes() for p in G]
        records = [obj["nodes"][g["root"]] for g in obj["g"][-len(G):]]
        if kind == "vca":
            # the projection call's columns: a lead product, weight 1.0
            assert all(rec["weights"][0] == 1.0 for rec in records)
            assert all(obj["nodes"][rec["children"][0]]["kind"] == "product" for rec in records)
        else:
            W = linalg.whitening(grams[0][1])
            assert [rec["weights"] for rec in records] == W.T.tolist()


class TestGradientsWhereRead:
    @pytest.mark.parametrize("mode, rule, eager", [
        (NormalizationMode.vca_baseline(), {}, False),
        (NormalizationMode.coefficient(), {}, False),
        (NormalizationMode.vca_baseline(), {"d_max": 0, "d_min": 0}, False),
        (GRAD, {}, True),
        (NormalizationMode.vca_baseline(), {"d_max": 1}, True),
        (NormalizationMode.coefficient(), {"d_min": 1}, True),
    ], ids=["vca", "coeff", "vca-rule-off", "grad", "vca-dmax", "coeff-dmin"])
    def test_a_fit_forms_gradients_only_for_grad_mode_or_a_dimension_rule(self, mode, rule,
                                                                             eager):
        X = circle_points(20, seed=21)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=mode, **rule))
        polys = basis.f_polys() + basis.g_polys()
        assert [p.grad is not None for p in polys] == [eager] * len(polys)


class TestNormalizationGram:
    def test_gradient_gram_of_coordinates_is_count_times_identity(self):
        X = generic_points(7, 2, seed=3)
        N = normalization_gram(variables(X), NormalizationMode.gradient(z=1.0))
        np.testing.assert_allclose(N, len(X) * np.eye(2), atol=1e-12)

    def test_z_scaling(self):
        X = generic_points(5, 2, seed=4)
        N1 = normalization_gram(variables(X), NormalizationMode.gradient(z=1.0))
        N2 = normalization_gram(variables(X), NormalizationMode.gradient(z=2.0))
        np.testing.assert_allclose(N2, N1 / 4.0)

    def test_coefficient_gram_example(self):
        from mavik.core import linear_combine

        X = generic_points(4, 2, seed=5)
        x, y = variables(X)
        C = linear_combine([x, y], [[1.0, 1.0], [1.0, -1.0]])
        N = normalization_gram(C, NormalizationMode.coefficient())
        np.testing.assert_allclose(N, [[2.0, 0.0], [0.0, 2.0]])

    @pytest.mark.parametrize("z", [float("inf"), float("nan"), 1e300, 1e-300, 0.0, -1.0])
    def test_z_whose_square_is_not_finite_positive_is_rejected(self, z):
        with pytest.raises(ContractViolation, match="z must be positive"):
            NormalizationMode.gradient(z=z)

    def test_vca_has_no_n(self):
        X = generic_points(4, 2, seed=6)
        assert normalization_gram(variables(X), NormalizationMode.vca_baseline()) is None

    def test_a_vca_fit_forms_and_whitens_no_n(self, monkeypatch):
        # every degree solves with N None; the eigh calls are those of A
        # alone, and the saturated last degree makes none
        Ns, eighs, whitened = [], [], []
        eig, eigh, whitening = engine.gen_eig_sym, np.linalg.eigh, engine.whitening

        def capture(A, N):
            Ns.append(N)
            return eig(A, N)

        def counting_eigh(M):
            eighs.append(M.shape)
            return eigh(M)

        monkeypatch.setattr(engine, "gen_eig_sym", capture)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(engine, "whitening", lambda N: whitened.append(N) or whitening(N))
        config = EngineConfig(epsilon=1e-6, mode=NormalizationMode.vca_baseline())
        _, report = fit(sample_generic(50, 4, 0), config)
        assert len(Ns) == len(report.f_counts) - 2 and all(N is None for N in Ns)
        assert len(eighs) == len(Ns) and whitened == []

    @pytest.mark.parametrize("as_list", [False, True], ids=["rows", "list"])
    def test_gradient_gram_matches_einsum_and_is_exactly_symmetric(self, monkeypatch, as_list):
        # every projected candidate stratum of a grad fit, as the kernel's
        # Rows or as a plain list of its rows
        captured = []
        gram = engine.normalization_gram

        def capture(cands, mode, **kwargs):
            captured.append(cands)
            return gram(cands, mode, **kwargs)

        monkeypatch.setattr(engine, "normalization_gram", capture)
        fit(sample_generic(50, 4, 0), EngineConfig(epsilon=1e-6, mode=GRAD))
        assert len(captured) == 5
        mode = NormalizationMode.gradient(z=3.0)
        for cands in captured:
            assert isinstance(cands, Rows)
            cands = list(cands) if as_list else cands
            stack = np.array([p.grad for p in cands])
            want = np.einsum("ixk,jxk->ij", stack, stack) / 9.0
            N = normalization_gram(cands, mode)
            assert (N == N.T).all()
            assert np.abs(N - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("kind", ["vca", "grad"])
    def test_both_grams_of_a_step_are_exactly_symmetric(self, monkeypatch, kind):
        pairs = []
        eig = engine.gen_eig_sym

        def capture(A, N):
            pairs.append((A, N))
            return eig(A, N)

        monkeypatch.setattr(engine, "gen_eig_sym", capture)
        for count, dim in ((50, 3), (100, 4)):
            X = sample_generic(count, dim, 1)
            fit(X, EngineConfig(epsilon=1e-6, mode=mode_from_kind(kind, n_points=len(X))))
        # six degrees per fit; the last, saturated one forms no A
        assert len(pairs) == 10
        for A, N in pairs:
            assert (A == A.T).all() and (N is None if kind == "vca" else (N == N.T).all())

    def test_gradient_gram_matches_finite_difference_stacks(self):
        X = generic_points(8, 2, seed=7)
        basis, _ = fit(X, EngineConfig(epsilon=1e-9, mode=GRAD, max_degree=2))
        stratum = basis.F[2]
        N = normalization_gram(stratum, NormalizationMode.gradient(z=1.0))
        stacks = [fd_gradient(p, X.points) for p in stratum]
        oracle = np.array(
            [[np.sum(a * b) for b in stacks] for a in stacks]
        )
        np.testing.assert_allclose(N, oracle, rtol=1e-5, atol=1e-5)


class TestLazyRows:
    """A fit makes Poly objects only for the members of its basis."""

    MODES = [NormalizationMode.vca_baseline(), NormalizationMode.coefficient(), GRAD]

    @staticmethod
    def count_made(monkeypatch):
        """The sizes of the row lists ``Rows`` makes, one entry per list."""
        made = []
        members = core.Rows._members

        def counting(rows):
            if rows._polys is None:
                made.append(len(rows))
            return members(rows)

        monkeypatch.setattr(core.Rows, "_members", counting)
        return made

    @pytest.mark.parametrize("mode", MODES, ids=["vca", "coeff", "grad"])
    def test_degree_step_makes_rows_only_for_its_retained_combinations(self, monkeypatch, mode):
        X = sample_generic(50, 3, 0)
        config = EngineConfig(epsilon=1e-6, mode=mode)
        basis, _ = fit(X, config)
        made = self.count_made(monkeypatch)
        step = engine._degree_step(X, config, basis.F[:3], 3, {})
        assert made == []
        polys = list(step.polys)
        assert made == [len(step.values)] == [len(polys)]
        assert all(p is q for p, q in zip(step.polys, polys)) and made == [len(polys)]

    @pytest.mark.parametrize("mode", MODES, ids=["vca", "coeff", "grad"])
    def test_a_fit_makes_rows_only_for_basis_members(self, monkeypatch, mode):
        made = self.count_made(monkeypatch)
        _, report = fit(sample_generic(50, 4, 1), EngineConfig(epsilon=1e-6, mode=mode))
        # the constant is made by its own constructor, and so are the
        # degree-1 candidates, the coordinates
        assert made == [f + g for f, g in zip(report.f_counts[1:], report.g_counts[1:])]


# F profile of each grid shape, and G profile per mode; both seeds agree.
GRID_PROFILES = {
    (50, 2): ([1, 2, 3, 4, 5, 6, 7, 8, 9, 5, 0], {
        "vca": [0, 0, 0, 2, 3, 4, 5, 6, 7, 13, 10],
        "grad": [0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 10],
        "coeff": [0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 10]}),
    (50, 3): ([1, 3, 6, 10, 15, 15, 0], {
        "vca": [0, 0, 0, 8, 15, 30, 45],
        "grad": [0, 0, 0, 0, 0, 6, 34],
        "coeff": [0, 0, 0, 0, 0, 6, 34]}),
    (50, 4): ([1, 4, 10, 20, 15, 0], {
        "vca": [0, 0, 0, 20, 65, 60],
        "grad": [0, 0, 0, 0, 20, 60],
        "coeff": [0, 0, 0, 0, 20, 60]}),
    (50, 5): ([1, 5, 15, 29, 0], {
        "vca": [0, 0, 0, 46, 145],
        "grad": [0, 0, 0, 6, 76],
        "coeff": [0, 0, 0, 6, 76]}),
    (100, 4): ([1, 4, 10, 20, 35, 30, 0], {
        "vca": [0, 0, 0, 20, 45, 110, 120],
        "grad": [0, 0, 0, 0, 0, 26, 110],
        "coeff": [0, 0, 0, 0, 0, 26, 110]}),
    (200, 3): ([1, 3, 6, 10, 15, 21, 28, 36, 45, 35, 0], {
        "vca": [0, 0, 0, 8, 15, 24, 35, 48, 63, 100, 105],
        "grad": [0, 0, 0, 0, 0, 0, 0, 0, 0, 20, 86],
        "coeff": [0, 0, 0, 0, 0, 0, 0, 0, 0, 20, 86]}),
}

# F and G profiles of the 18 variety fits of ``scripts/grid_outputs.py`` at
# epsilon 1e-2, per mode; they decide G members by epsilon.
VARIETY_PROFILES = {
    ("V1", 0): {
        "vca": ([1, 2, 3, 4, 5, 4, 5, 1, 0], [0, 0, 0, 2, 3, 6, 3, 9, 2]),
        "grad": ([1, 2, 3, 4, 5, 6, 7, 8, 5, 2, 0], [0, 0, 0, 0, 0, 0, 0, 0, 4, 8, 4]),
        "coeff": ([1, 2, 3, 4, 5, 3, 1, 0], [0, 0, 0, 0, 0, 3, 5, 2]),
    },
    ("V1", 1): {
        "vca": ([1, 2, 3, 4, 5, 4, 3, 2, 0], [0, 0, 0, 2, 3, 6, 5, 4, 4]),
        "grad": ([1, 2, 3, 4, 5, 6, 6, 7, 5, 5, 2, 1, 0], [0, 0, 0, 0, 0, 0, 1, 2, 6, 5, 8, 3, 2]),
        "coeff": ([1, 2, 3, 4, 5, 1, 1, 0], [0, 0, 0, 0, 0, 5, 1, 2]),
    },
    ("V2", 0): {
        "vca": ([1, 2, 3, 3, 2, 2, 1, 1, 0], [0, 1, 0, 3, 4, 2, 3, 1, 2]),
        "grad": ([1, 2, 3, 3, 3, 3, 3, 3, 2, 1, 1, 1, 1, 0],
                 [0, 1, 0, 1, 3, 3, 3, 3, 4, 3, 1, 1, 1, 2]),
        "coeff": ([1, 2, 3, 3, 1, 0], [0, 1, 0, 1, 5, 2]),
    },
    ("V2", 1): {
        "vca": ([1, 2, 3, 3, 2, 2, 0], [0, 1, 0, 3, 4, 2, 4]),
        "grad": ([1, 2, 3, 3, 3, 3, 3, 3, 2, 2, 1, 1, 0], [0, 1, 0, 1, 3, 3, 3, 3, 4, 2, 3, 1, 2]),
        "coeff": ([1, 2, 3, 3, 1, 0], [0, 1, 0, 1, 5, 2]),
    },
    ("V3", 0): {
        "vca": ([1, 3, 6, 10, 13, 7, 2, 0], [0, 0, 0, 8, 17, 32, 19, 6]),
        "grad": ([1, 3, 6, 10, 15, 11, 4, 0], [0, 0, 0, 0, 0, 10, 29, 12]),
        "coeff": ([1, 3, 6, 10, 10, 3, 1, 0], [0, 0, 0, 0, 5, 23, 8, 3]),
    },
    ("V3", 1): {
        "vca": ([1, 3, 6, 10, 11, 7, 1, 0], [0, 0, 0, 8, 19, 26, 20, 3]),
        "grad": ([1, 3, 6, 10, 15, 11, 3, 0], [0, 0, 0, 0, 0, 10, 30, 9]),
        "coeff": ([1, 3, 6, 10, 8, 3, 0], [0, 0, 0, 0, 7, 21, 9]),
    },
}


def _no_replay(*args, **kwargs):
    raise AssertionError("evaluate replayed a basis that holds its chain")


def assert_chain_is_replay(basis, X_new):
    """``evaluate`` of ``basis`` on ``X_new`` runs the chain, not the DAG
    walk, and gives ``core.replay_many``'s values bit for bit."""
    assert basis.F == basis.chain.F and basis.G == basis.chain.G
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "replay_many", _no_replay)
        F_mat, G_mat = evaluate(basis, X_new)
    polys = basis.f_polys() + basis.g_polys()
    replayed = np.column_stack([ev for ev, _ in core.replay_many(polys, X_new.points)])
    assert (F_mat.shape[1], G_mat.shape[1]) == (sum(basis.f_profile()), sum(basis.g_profile()))
    assert np.column_stack([F_mat, G_mat]).tobytes() == replayed.tobytes()


class TestGridProfiles:
    """The 36 fits of the benchmark grid (``scripts/grid_outputs.py``) at
    epsilon 1e-6, and its 18 variety fits at epsilon 1e-2, with the CLI's
    mode settings: a rounding change that moves a profile, or a change to
    the epsilon split, fails here, not only in the benchmark.  Each fitted
    basis runs its chain on 300 fresh points, bit for bit as the DAG
    replay."""

    @pytest.mark.parametrize("count, dim", list(GRID_PROFILES))
    def test_profiles_and_termination(self, count, dim):
        f_profile, g_profiles = GRID_PROFILES[(count, dim)]
        for seed in (0, 1):
            X = sample_generic(count, dim, seed)
            fresh = sample_generic(300, dim, 100 + seed)
            for kind, g_profile in g_profiles.items():
                mode = mode_from_kind(kind, n_points=len(X))
                basis, report = fit(X, EngineConfig(epsilon=1e-6, mode=mode))
                assert (report.f_counts, report.g_counts, report.termination) == (
                    f_profile, g_profile, "f-empty"), (kind, seed)
                assert_chain_is_replay(basis, fresh)

    @pytest.mark.parametrize("variety, seed", list(VARIETY_PROFILES))
    def test_variety_profiles_and_termination(self, variety, seed):
        X = center_and_unitbox(perturb(sample_variety(variety, 50, seed), 0.01, 100 + seed))
        fresh = sample_generic(300, X.n, 100 + seed)
        for kind, (f_profile, g_profile) in VARIETY_PROFILES[variety, seed].items():
            mode = mode_from_kind(kind, n_points=len(X))
            basis, report = fit(X, EngineConfig(epsilon=1e-2, mode=mode))
            assert (report.f_counts, report.g_counts, report.termination) == (
                f_profile, g_profile, "f-empty"), kind
            assert_chain_is_replay(basis, fresh)


class TestEvaluate:
    def test_replay_on_training_points_reproduces_stored(self):
        X = generic_points(20, 3, seed=8)
        basis, _ = fit(X, EngineConfig(epsilon=1e-7, mode=GRAD))
        F_mat, G_mat = evaluate(basis, X.points)
        np.testing.assert_allclose(
            F_mat, np.column_stack([p.eval for p in basis.f_polys()]), rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(
            G_mat, np.column_stack([p.eval for p in basis.g_polys()]), rtol=1e-9, atol=1e-12
        )

    def test_constant_column(self):
        X = PointSet([[0.5, 0.5]])
        basis, report = fit(X, EngineConfig(epsilon=0.0, mode=GRAD, m_constant=3.0))
        F_mat, _ = evaluate(basis, PointSet([[9.0, -4.0], [1.0, 2.0]]))
        np.testing.assert_allclose(F_mat[:, 0], [3.0, 3.0])

    def test_replay_matches_expansion_on_new_points(self):
        X = generic_points(12, 2, seed=9)
        basis, _ = fit(X, EngineConfig(epsilon=1e-7, mode=GRAD, max_degree=4))
        polys = basis.f_polys() + basis.g_polys()
        vecs = expand_many(polys)
        probe = rng_for(10).uniform(-1, 1, size=(5, 2))
        F_mat, G_mat = evaluate(basis, PointSet(probe))
        stacked = np.column_stack([F_mat, G_mat])
        for j, cv in enumerate(vecs):
            scale_j = max(1.0, np.abs(stacked[:, j]).max())
            np.testing.assert_allclose(
                stacked[:, j], cv.evaluate(probe), rtol=1e-9, atol=1e-9 * scale_j
            )

    def test_dimension_mismatch(self):
        basis, _ = fit(CIRCLE4, EngineConfig(epsilon=1e-8, mode=GRAD))
        with pytest.raises(ContractViolation):
            evaluate(basis, PointSet([[1.0, 2.0, 3.0]]))

    @pytest.mark.parametrize("points, message", [
        ([[0.1, np.nan], [0.2, 0.3]], "points must be finite"),
        ([[0.1, np.inf], [0.2, 0.3]], "points must be finite"),
        (np.zeros((0, 2)), "need at least one point and one coordinate"),
        (np.array([0.1, 0.2]), "points must be a 2-d array"),
        ([[0.1, 0.2, 0.3]], "new points must be m x n with the training n"),
        ([[[0.1, 0.2]], [[0.3, 0.4]]], "points must be a 2-d array"),
    ], ids=["nan", "inf", "empty", "1-d", "wrong-n", "nested-3-d"])
    def test_bad_points_raise_alike_on_both_paths(self, points, message):
        # checked before the fitted basis runs its chain and before the
        # loaded one replays its DAG
        X = sample_generic(30, 2, 0)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=GRAD))
        loaded = serialize.basis_from_json(serialize.basis_to_json(basis), X)
        assert basis.chain is not None and loaded.chain is None
        for b in (basis, loaded):
            with pytest.raises(ContractViolation, match=message):
                evaluate(b, points)

    def test_a_nested_list_is_its_array(self):
        X = sample_generic(30, 2, 0)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=GRAD))
        loaded = serialize.basis_from_json(serialize.basis_to_json(basis), X)
        fresh = sample_generic(20, 2, 1).points
        want = np.column_stack(evaluate(basis, PointSet(fresh)))
        for b in (basis, loaded):
            got = np.column_stack(evaluate(b, fresh.tolist()))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_points_raise_without_warnings(self):
        # the high-degree members overflow float64 on points 1e40 times the
        # training scale, replayed directly or through a loaded basis
        basis, _ = fit(sample_generic(30, 2, 0), EngineConfig(epsilon=1e-6, mode=GRAD))
        big = scale(sample_generic(40, 2, 5), 1e40)
        loaded = serialize.basis_from_json(serialize.basis_to_json(basis), big)
        for b in (basis, loaded):
            with pytest.raises(ContractViolation, match="overflow float64 on these points"):
                evaluate(b, big)


class TestChain:
    """A fitted basis evaluates new points through its chain of per-degree
    matrices, bit for bit as the DAG replay; any other basis replays."""

    FRESH = sample_generic(300, 3, 7)

    @pytest.mark.parametrize("kind", ["vca", "grad", "coeff"])
    def test_without_the_degree_2_dedup(self, kind):
        X = sample_generic(50, 3, 0)
        mode = mode_from_kind(kind, n_points=len(X))
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=mode, dedup_degree2=False))
        assert not basis.chain.dedup
        assert_chain_is_replay(basis, self.FRESH)

    @pytest.mark.parametrize("kind", ["vca", "grad", "coeff"])
    def test_a_max_degree_cap(self, kind):
        X = sample_generic(50, 3, 1)
        mode = mode_from_kind(kind, n_points=len(X))
        basis, report = fit(X, EngineConfig(epsilon=1e-6, mode=mode, max_degree=3))
        assert report.termination == "max-degree" and len(basis.chain.degrees) == 3
        assert_chain_is_replay(basis, self.FRESH)

    def test_a_fit_stopped_after_degree_2(self):
        X = sample_generic(50, 3, 2)
        for basis, _ in engine.Fitter(X).degrees(EngineConfig(epsilon=1e-6, mode=GRAD)):
            if len(basis.F) == 3:
                break
        assert len(basis.chain.degrees) == 2
        assert_chain_is_replay(basis, self.FRESH)

    def test_a_saturated_vca_degree(self):
        # 50 generic points in the plane: F reaches |X| at degree 9, so
        # degree 10's members are the projected candidates, with no V
        X = sample_generic(50, 2, 0)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=NormalizationMode.vca_baseline()))
        assert [V is None for _, V, _ in basis.chain.degrees][-1]
        assert_chain_is_replay(basis, sample_generic(300, 2, 7))

    def test_the_split_follows_the_mask(self):
        # a fitted mask is a prefix, F first in eigenvalue order, so reverse
        # the top degree's mask and its split lists together, in the chain
        # and in the basis: the lists still hold the chain's members, split
        # by the new mask
        basis, _ = fit(sample_generic(50, 3, 0), EngineConfig(epsilon=1e-6, mode=GRAD, max_degree=5))
        chain = basis.chain
        W, V, keep = chain.degrees[-1]
        members = [*chain.F[5], *chain.G[5]]
        assert keep[:len(chain.F[5])].all() and 0 < len(chain.F[5]) < len(members)
        flipped = keep[::-1].copy()
        chain.degrees[-1] = (W, V, flipped)
        chain.F[5] = [p for p, k in zip(members, flipped) if k]
        chain.G[5] = [p for p, k in zip(members, flipped) if not k]
        basis.F[5], basis.G[5] = chain.F[5][:], chain.G[5][:]
        assert_chain_is_replay(basis, self.FRESH)

    def count_replays(self, monkeypatch):
        calls = []
        real = engine.replay_many

        def counted(polys, points, grads=False):
            calls.append(len(polys))
            return real(polys, points, grads)

        monkeypatch.setattr(engine, "replay_many", counted)
        return calls

    def test_edited_lists_and_flat_copies_replay(self, monkeypatch):
        X = sample_generic(50, 3, 0)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=GRAD))
        flat = core.Basis.from_flat(basis.f_polys(), basis.g_polys(), basis.g_extents())
        edited, _ = fit(X, EngineConfig(epsilon=1e-6, mode=GRAD))
        edited.G[-1] = edited.G[-1][1:]
        edited.extents[-1] = edited.extents[-1][1:]
        calls = self.count_replays(monkeypatch)
        for b in (flat, edited):
            assert b.chain is None or (b.chain.F, b.chain.G) != (b.F, b.G)
            F_mat, G_mat = evaluate(b, self.FRESH)
            polys = b.f_polys() + b.g_polys()
            assert calls[-1] == len(polys) == F_mat.shape[1] + G_mat.shape[1]
        assert len(calls) == 2

    @pytest.mark.parametrize("edit", ["swap", "f-to-g", "flat"])
    def test_an_edited_or_flat_basis_replays_as_core(self, monkeypatch, edit):
        # the swap keeps every per-degree count, so only the lists
        # themselves tell the edited basis from the fitted one
        basis, _ = fit(sample_generic(50, 3, 0), EngineConfig(epsilon=1e-6, mode=GRAD))
        if edit == "swap":
            basis.G[6][0], basis.G[6][1] = basis.G[6][1], basis.G[6][0]
        elif edit == "f-to-g":
            basis.G[5].insert(0, basis.F[5].pop())
        else:
            basis = core.Basis.from_flat(basis.f_polys(), basis.g_polys(), basis.g_extents())
        polys = basis.f_polys() + basis.g_polys()
        replayed = np.column_stack([ev for ev, _ in core.replay_many(polys, self.FRESH.points)])
        calls = self.count_replays(monkeypatch)
        F_mat, G_mat = evaluate(basis, self.FRESH)
        assert calls == [len(polys)]
        assert np.column_stack([F_mat, G_mat]).tobytes() == replayed.tobytes()

    def test_the_chain_holds_the_provenance_nodes_arrays(self):
        basis, _ = fit(sample_generic(50, 3, 0), EngineConfig(epsilon=1e-6, mode=GRAD))
        for t, (W, V, keep) in enumerate(basis.chain.degrees, 1):
            members = [*basis.F[t], *basis.G[t]]
            combination = members[0].prov[0] if members else None
            if combination is not None:
                assert V is combination.weights
                assert W is combination.children[0][0].weights
            assert not W.flags.writeable and (V is None or not V.flags.writeable)
            assert keep.sum() == len(basis.F[t])


class TestDimensionTermination:
    def test_zero_targets_never_fire(self):
        X = circle_points(30, seed=11)
        _, full = fit(X, EngineConfig(epsilon=1e-6, mode=GRAD))
        _, zeroed = fit(X, EngineConfig(epsilon=1e-6, mode=GRAD, d_max=0, d_min=0))
        assert zeroed.g_counts == full.g_counts
        assert zeroed.termination == full.termination == "f-empty"

    def test_circle_with_dmax_one_stops_at_degree_two(self):
        X = circle_points(30, seed=12)
        basis, report = fit(X, EngineConfig(epsilon=1e-6, mode=GRAD, d_max=1))
        assert report.termination == "dimension-rule"
        assert len(report.g_counts) - 1 == 2
        assert report.g_counts[2] == 1

    def test_empty_basis_is_false(self):
        X = circle_points(10, seed=13)
        assert not check_termination_dimension([], X, d_max=1, d_min=None)

    def test_dmax_rule_needs_a_nonzero_gradient_stack(self):
        # a constant has zero gradients everywhere, so no point bounds the
        # dimension from above and the d_max rule does not fire, even at n
        X = circle_points(10, seed=13)
        assert not check_termination_dimension([constant_poly(1.0, X)], X, d_max=X.n)
        assert dimension_bounds([constant_poly(1.0, X).grad], X) == (X.n, X.n)

    def test_negligible_gradient_stack_has_rank_zero(self):
        # the third point's stack has full rank but sits 1e-9 below the
        # largest one, so it counts as zero and does not lower d_min
        X = PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        grads = np.array([[[1.0, 0.0]] * 3, [[2.0, 0.0]] * 3])
        grads[:, 2] = 1e-9 * np.eye(2)
        g_polys = [Poly(2, np.zeros(3), g, None, X) for g in grads]
        assert dimension_bounds(grads, X) == (1, 1)
        assert check_termination_dimension(g_polys, X, d_max=1)

    def test_rejects_out_of_range_targets(self):
        with pytest.raises(ContractViolation):
            fit(CIRCLE4, EngineConfig(epsilon=1e-8, mode=GRAD, d_max=5))


class TestStructuralInvariants:
    def test_f_strata_evaluations_orthogonal(self):
        X = generic_points(30, 2, seed=14)
        basis, _ = fit(X, EngineConfig(epsilon=1e-7, mode=GRAD))
        E = np.column_stack([p.eval for p in basis.f_polys()])
        gram = E.T @ E
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-8 * max(1.0, np.diag(gram).max())

    @pytest.mark.xfail(
        strict=True,
        raises=InternalInvariantViolation,
        reason="the one-pass projection loses F-orthogonality on three tight clusters "
        "(loss 1.8e-5 after degree 6), so degree 7 reports |F| = 31 > |X| = 30; "
        "a two-pass projection (ROADMAP item 3) keeps the loss at 1e-12",
    )
    def test_clustered_points_keep_f_within_the_point_count(self):
        r = np.random.default_rng(0)
        centres = r.uniform(-1, 1, (3, 2))
        X = PointSet(centres[r.integers(0, 3, 30)] + 1e-3 * r.normal(size=(30, 2)))
        _, report = fit(X, EngineConfig(epsilon=1e-6, mode=GRAD))
        assert sum(report.f_counts) <= len(X) and report.termination == "f-empty"

    @pytest.mark.xfail(
        strict=True,
        raises=InternalInvariantViolation,
        reason="on raw V2 (|x| up to 15.8) a rounding residue of extent 5.65e-6 clears the "
        "zero floor 1.94e-6 at degree 9 and enters F, so degree 10 reports |F| = 33 > "
        "|X| = 30; a zero floor that tells rounding from data is ROADMAP item 5",
    )
    def test_raw_v2_keeps_f_within_the_point_count_in_vca(self):
        X = sample_variety("V2", 30, 0)
        _, report = fit(X, EngineConfig(epsilon=1e-6, mode=NormalizationMode.vca_baseline()))
        assert sum(report.f_counts) <= len(X) and report.termination == "f-empty"

    def test_extent_bookkeeping(self):
        X = generic_points(30, 3, seed=15)
        basis, report = fit(X, EngineConfig(epsilon=1e-6, mode=GRAD))
        for stratum, extents in zip(basis.G, basis.extents):
            for p, e in zip(stratum, extents):
                assert np.linalg.norm(p.eval) == pytest.approx(e, abs=1e-8)
        # recorded extents agree with the eigenvalue square roots to within
        # the Gram matrix's resolution
        for lam, norms in zip(report.spectra, report.extents):
            scale = max(1.0, float(norms.max()))
            np.testing.assert_allclose(np.sqrt(lam), norms, atol=1e-7 * scale)

    def test_gradient_mode_retained_polys_have_norm_z(self):
        X = generic_points(25, 2, seed=16)
        for z in (1.0, 5.0):
            basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=NormalizationMode.gradient(z=z)))
            for p in basis.f_polys()[1:] + basis.g_polys():
                assert np.linalg.norm(p.grad) == pytest.approx(z, rel=1e-6)

    def test_gradient_norm_guard_checks_every_block_row(self):
        # one norm per retained polynomial, over its whole (|X|, n) block;
        # 0.5 z and 2 z are the edges of the accepted band
        grads = np.zeros((4, 3, 2))
        grads[:, 0, 0] = [0.5, 1.0, 2.0, -2.0]
        engine._verify_gradient_norms(grads, 1.0)
        engine._verify_gradient_norms(np.zeros((0, 3, 2)), 1.0)
        for bad in (0.49, 2.01, np.nan):
            broken = grads.copy()
            broken[2] = 0.0
            broken[2, 1, 1] = bad
            with pytest.raises(InternalInvariantViolation, match="gradient norm"):
                engine._verify_gradient_norms(broken, 1.0)

    def test_intra_degree_gradient_independence(self):
        # within one vanishing stratum there is always a point where two
        # members' gradients are linearly independent
        X = generic_points(30, 3, seed=17)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=GRAD))
        for stratum in basis.G:
            for i in range(len(stratum)):
                for j in range(i + 1, len(stratum)):
                    gi, gj = stratum[i].grad, stratum[j].grad
                    ranks = [
                        np.linalg.matrix_rank(np.stack([gi[k], gj[k]]), tol=1e-8)
                        for k in range(len(X))
                    ]
                    assert max(ranks) == 2

    def test_size_bounds_on_generic_runs(self):
        from math import comb

        for dim, seed in ((2, 0), (3, 1), (4, 2)):
            X = generic_points(50, dim, seed=seed)
            _, report = fit(X, EngineConfig(epsilon=1e-6, mode=GRAD))
            assert report.g_total <= dim * (50 - dim)
            for t in range(len(report.f_counts)):
                assert sum(report.f_counts[: t + 1]) <= comb(dim + t, dim)

    def test_more_f_than_points_is_an_invariant_violation(self, monkeypatch):
        # a projection that drops the earlier strata (a zero-weight call)
        # lets vca keep 36 nonorthogonal F members on 30 points by degree
        # 7; orthogonal nonzero vectors in R^30 cannot
        monkeypatch.setattr(engine, "orthogonal_project", lambda cands, f_prev: core.linear_combine(
            f_prev, np.zeros((len(f_prev), len(cands))), lead=cands))
        X = scale(sample_generic(30, 2, 0), 100.0)
        config = EngineConfig(epsilon=1e-4, mode=NormalizationMode.vca_baseline(), max_degree=8)
        with pytest.raises(InternalInvariantViolation, match="exceeds \\|X\\| = 30"):
            fit(X, config)

    def test_zero_floor_follows_the_unprojected_candidates(self):
        # once F spans R^30 every projected candidate is rounding residue; a
        # floor taken from the projected candidates shrank with that residue
        # and sent it into F (|F| > |X|).  This is the scale-1 profile.
        X = scale(sample_generic(30, 2, 0), 100.0)
        config = EngineConfig(epsilon=1e-4, mode=NormalizationMode.vca_baseline(), max_degree=8)
        _, report = fit(X, config)
        assert report.f_counts == [1, 2, 3, 4, 5, 6, 7, 2, 0]
        assert report.g_counts == [0, 0, 0, 2, 3, 4, 5, 12, 4]
        assert report.termination == "f-empty"


class TestConsistency:
    def test_translation_consistency(self):
        X = generic_points(20, 2, seed=18, centered=True)
        beta = np.array([0.7, -1.3])
        cfg = EngineConfig(epsilon=1e-9, mode=GRAD, m_constant=1.0)
        b0, r0 = fit(X, cfg)
        b1, r1 = fit(translate(X, -beta), cfg)
        assert r0.g_counts == r1.g_counts and r0.f_counts == r1.f_counts
        for p0, p1 in zip(b0.g_polys(), b1.g_polys()):
            np.testing.assert_allclose(p1.eval, p0.eval, atol=1e-8)

    def test_coefficient_and_gradient_profiles_agree_on_random_instances(self):
        # the two data-aware normalizations retain the same candidate span
        # (directions with polynomial content) and classify by the same
        # evaluation norms, so their configurations coincide
        rng = rng_for(60)
        for trial in range(8):
            dim = int(rng.integers(2, 4))
            count = int(rng.integers(8, 22))
            X = PointSet(rng.uniform(-1, 1, size=(count, dim)))
            _, r_grad = fit(X, EngineConfig(epsilon=1e-7, mode=GRAD))
            _, r_coeff = fit(
                X, EngineConfig(epsilon=1e-7, mode=NormalizationMode.coefficient())
            )
            assert r_coeff.g_counts == r_grad.g_counts
            assert r_coeff.f_counts == r_grad.f_counts

    def test_translation_profiles_hold_in_every_mode(self):
        # which candidate combinations vanish is decided by the evaluation
        # nullspace, which mean subtraction makes translation-invariant, so
        # the degree profiles agree in every normalization; full evaluation
        # matrices additionally agree in vca/gradient mode where the
        # normalization matrices themselves are translation-invariant
        X = generic_points(15, 2, seed=30, centered=True)
        beta = np.array([-0.4, 2.2])
        for mode in (
            NormalizationMode.vca_baseline(),
            NormalizationMode.coefficient(),
            NormalizationMode.gradient(),
        ):
            cfg = EngineConfig(epsilon=1e-9, mode=mode, m_constant=1.0)
            _, r0 = fit(X, cfg)
            _, r1 = fit(translate(X, -beta), cfg)
            assert r1.g_counts == r0.g_counts and r1.f_counts == r0.f_counts

    def test_max_degree_cap(self):
        X = generic_points(40, 2, seed=31)
        _, report = fit(X, EngineConfig(epsilon=1e-7, mode=GRAD, max_degree=3))
        assert report.termination == "max-degree"
        assert len(report.g_counts) - 1 == 3

    def test_scaling_consistency(self):
        X = generic_points(20, 3, seed=19, centered=True)
        eps = 1e-9
        b0, r0 = fit(X, EngineConfig(epsilon=eps, mode=GRAD))
        for alpha in (0.1, 10.0):
            b1, r1 = fit(scale(X, alpha), EngineConfig(epsilon=abs(alpha) * eps, mode=GRAD))
            assert r1.g_counts == r0.g_counts and r1.f_counts == r0.f_counts
            for p0, p1 in zip(b0.g_polys(), b1.g_polys()):
                np.testing.assert_allclose(
                    p1.eval, alpha * p0.eval, atol=1e-7 * abs(alpha)
                )

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_scaling_keeps_generic_profiles_from_1e_minus_6_to_1e6(self, dim):
        X = sample_generic(50, dim, 0)
        _, r0 = fit(X, EngineConfig(epsilon=1e-6, mode=GRAD))
        for alpha in (1e-6, 1e-3, 1e3, 1e6):
            _, r1 = fit(scale(X, alpha), EngineConfig(epsilon=1e-6 * alpha, mode=GRAD))
            assert (r1.f_counts, r1.g_counts) == (r0.f_counts, r0.g_counts), alpha

    @pytest.mark.parametrize("count, dim", [(50, 2), (50, 3), (30, 2)])
    @pytest.mark.parametrize("k", [-120, -100, -60, -30, -1, 1, 30, *(
        pytest.param(k, marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 2: the zero floor grows like the scale squared, extents like the "
            "scale, so large scales send members across it"))) for k in (40, 100, 200))])
    def test_power_of_two_scaling_scales_grad_extents_exactly(self, count, dim, k):
        # scaling by 2^k is exact, and so is every step of a grad fit whose
        # epsilon, constant and gradient norms scale with it
        X = sample_generic(count, dim, 0)
        alpha = 2.0**k
        _, r0 = fit(X, EngineConfig(epsilon=1e-6, mode=GRAD))
        _, r1 = fit(scale(X, alpha), EngineConfig(epsilon=1e-6 * alpha, mode=GRAD))
        assert (r1.f_counts, r1.g_counts) == (r0.f_counts, r0.g_counts)
        assert all(np.array_equal(e1, alpha * e0) for e0, e1 in zip(r0.extents, r1.extents))

    def test_perturbation_bound_spot_check(self):
        rng = rng_for(20)
        X_star = generic_points(25, 2, seed=21)
        delta = 1e-3
        dirs = rng.normal(size=X_star.points.shape)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        noise = dirs * (delta * rng.uniform(0.1, 1.0, size=(len(X_star), 1)))
        X = PointSet(X_star.points + noise)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=NormalizationMode.gradient(z=1.0)))
        _, G_star = evaluate(basis, X_star)
        for j, g in enumerate(basis.g_polys()):
            gap = np.linalg.norm(g.eval - G_star[:, j])
            assert gap <= 1.5 * delta
