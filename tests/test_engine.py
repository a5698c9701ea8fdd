"""The degree-incremental fit: classification, normalization modes,
termination rules, replay, and the consistency/robustness guarantees."""

import json

import numpy as np
import pytest

from conftest import fd_gradient, generic_points, rng_for
from mavik import core, engine, serialize
from mavik.core import PointSet, Poly, Rows, constant_poly, variables
from mavik.datasets import sample_generic, scale, translate
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

    @pytest.mark.parametrize("count, dim", [(50, 2), (50, 3), (50, 4), (50, 5), (100, 4)])
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

    def test_deterministic_rerun(self):
        X = generic_points(25, 3, seed=2)
        b1, r1 = fit(X, EngineConfig(epsilon=1e-7, mode=GRAD))
        b2, r2 = fit(X, EngineConfig(epsilon=1e-7, mode=GRAD))
        assert r1.g_counts == r2.g_counts
        for p1, p2 in zip(b1.g_polys(), b2.g_polys()):
            np.testing.assert_array_equal(p1.eval, p2.eval)
            np.testing.assert_array_equal(p1.grad, p2.grad)


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

    def test_vca_is_identity(self):
        X = generic_points(4, 2, seed=6)
        N = normalization_gram(variables(X), NormalizationMode.vca_baseline())
        np.testing.assert_array_equal(N, np.eye(2))

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
        assert len(pairs) == 12
        for A, N in pairs:
            assert (A == A.T).all() and (N == N.T).all()

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
        "grad": [0, 0, 0, 0, 0, 0, 0, 0, 0, 20, 86]}),
}


class TestGridProfiles:
    """The 34 fits of the benchmark grid (``scripts/grid_outputs.py``) at
    epsilon 1e-6, with the CLI's mode settings: a rounding change that moves
    a profile fails here, not only in the benchmark."""

    @pytest.mark.parametrize("count, dim", list(GRID_PROFILES))
    def test_profiles_and_termination(self, count, dim):
        f_profile, g_profiles = GRID_PROFILES[(count, dim)]
        for seed in (0, 1):
            X = sample_generic(count, dim, seed)
            for kind, g_profile in g_profiles.items():
                mode = mode_from_kind(kind, n_points=len(X))
                _, report = fit(X, EngineConfig(epsilon=1e-6, mode=mode))
                assert (report.f_counts, report.g_counts, report.termination) == (
                    f_profile, g_profile, "f-empty"), (kind, seed)


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
        # a projection that drops the earlier strata lets vca keep 36
        # nonorthogonal F members on 30 points by degree 7; orthogonal
        # nonzero vectors in R^30 cannot
        monkeypatch.setattr(engine, "orthogonal_project", lambda cands, f_prev: list(cands))
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
