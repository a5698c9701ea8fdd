"""Matrix kernels: projection, generalized eigensolver, numerical rank."""

import numpy as np
import pytest
import scipy.linalg

from conftest import generic_points, random_poly, rng_for
from mavik.core import PointSet, constant_poly, flatten, linear_combine, variable_poly, variables
from mavik.errors import ContractViolation, InternalInvariantViolation
from mavik.linalg import gen_eig_sym, numerical_rank, orthogonal_project


def random_psd(d, seed, rank=None):
    rng = rng_for(seed)
    B = rng.normal(size=(d, rank or d))
    return B @ B.T


class TestGenEigSym:
    def test_identity_normalization_diagonal(self):
        res = gen_eig_sym(np.diag([4.0, 1.0]), np.eye(2))
        np.testing.assert_allclose(res.values, [4.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(res.vectors), np.eye(2), atol=1e-12)

    def test_null_normalization_direction_dropped(self):
        res = gen_eig_sym(np.diag([2.0, 5.0]), np.diag([1.0, 0.0]))
        assert res.retained_rank == 1
        np.testing.assert_allclose(res.values, [2.0], atol=1e-12)

    def test_zero_normalization_matrix(self):
        res = gen_eig_sym(np.eye(3), np.zeros((3, 3)))
        assert res.retained_rank == 0
        assert res.vectors.shape == (3, 0)

    def test_random_pair_against_cholesky_reduction_oracle(self):
        for seed in range(5):
            A = random_psd(6, seed)
            N = random_psd(6, 100 + seed) + 1e-3 * np.eye(6)
            res = gen_eig_sym(A, N)
            assert res.retained_rank == 6
            resid = np.linalg.norm(A @ res.vectors - N @ res.vectors @ np.diag(res.values))
            assert resid / np.linalg.norm(A) < 1e-8

            L = np.linalg.cholesky(N)
            M = np.linalg.solve(L, np.linalg.solve(L, A.T).T)
            oracle = np.sort(np.linalg.eigvalsh(M))[::-1]
            np.testing.assert_allclose(res.values, oracle, rtol=1e-8, atol=1e-10)

    def test_n_orthonormal_and_rayleigh_bookkeeping(self):
        A = random_psd(5, 42, rank=3)
        N = random_psd(5, 43)
        res = gen_eig_sym(A, N)
        V = res.vectors
        np.testing.assert_allclose(V.T @ N @ V, np.eye(res.retained_rank), atol=1e-8)
        for i, lam in enumerate(res.values):
            assert V[:, i] @ A @ V[:, i] == pytest.approx(lam, abs=1e-8)

    def test_identity_agrees_with_plain_eigh(self):
        A = random_psd(7, 3)
        res = gen_eig_sym(A, np.eye(7))
        oracle = np.sort(np.linalg.eigvalsh(A))[::-1]
        np.testing.assert_allclose(res.values, oracle, atol=1e-10)

    def test_rejects_asymmetric_input(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ContractViolation):
            gen_eig_sym(A, np.eye(2))

    def test_deterministic_sign_convention(self):
        A = random_psd(4, 8)
        N = random_psd(4, 9) + 1e-2 * np.eye(4)
        r1 = gen_eig_sym(A, N)
        r2 = gen_eig_sym(A.copy(), N.copy())
        np.testing.assert_array_equal(r1.vectors, r2.vectors)
        for j in range(r1.vectors.shape[1]):
            col = r1.vectors[:, j]
            lead = np.argmax(np.abs(col) > 1e-12 * np.abs(col).max())
            assert col[lead] > 0


class TestOrthogonalProject:
    def test_already_orthogonal_candidate_unchanged(self):
        X = generic_points(6, 2, seed=1)
        f = constant_poly(1.0, X)
        (c,) = linear_combine(variables(X), [[1.0], [-0.5]])
        (centered,) = linear_combine([c, f], [[1.0], [-float(c.eval.mean())]])
        out = orthogonal_project([centered], [f])[0]
        np.testing.assert_allclose(out.eval, centered.eval, atol=1e-12)

    def test_projection_against_constant_is_mean_removal(self):
        X = generic_points(9, 3, seed=2)
        c = random_poly(X, 2, rng_for(3))
        out = orthogonal_project([c], [constant_poly(2.5, X)])[0]
        assert abs(out.eval.mean()) < 1e-12

    def test_matches_qr_least_squares_residual(self):
        X = generic_points(5, 2, seed=4)
        rng = rng_for(5)
        f_prev = [constant_poly(1.0, X)]
        # orthogonalize two random polys to build a legal projection basis
        for d in (1, 2):
            cand = orthogonal_project([random_poly(X, d, rng)], f_prev)[0]
            f_prev.append(cand)
        c = random_poly(X, 3, rng)
        out = orthogonal_project([c], f_prev)[0]
        E = np.column_stack([f.eval for f in f_prev])
        oracle = c.eval - E @ scipy.linalg.lstsq(E, c.eval, lapack_driver="gelsy")[0]
        np.testing.assert_allclose(out.eval, oracle, atol=1e-9)

    def test_idempotent(self):
        X = generic_points(8, 3, seed=6)
        f_prev = [constant_poly(1.0, X)]
        c = random_poly(X, 2, rng_for(7))
        once = orthogonal_project([c], f_prev)[0]
        twice = orthogonal_project([once], f_prev)[0]
        assert np.max(np.abs(twice.eval - once.eval)) < 1e-10

    def test_gradients_follow_same_combination(self):
        X = generic_points(7, 2, seed=8)
        f = constant_poly(1.0, X)
        c = random_poly(X, 2, rng_for(9))
        out = orthogonal_project([c], [f])[0]
        # constant has zero gradient, so the gradient must be untouched
        np.testing.assert_allclose(out.grad, c.grad, atol=1e-14)

    def test_zero_evaluation_vector_rejected(self):
        X = generic_points(4, 2, seed=10)
        (zero,) = linear_combine(variables(X), [[0.0], [0.0]])
        with pytest.raises(InternalInvariantViolation):
            orthogonal_project([variable_poly(0, X)], [zero])

    def test_multiple_of_basis_member_cancels_exactly(self):
        # On one point every candidate is a multiple of the constant.  The
        # candidate is added after the weighted sum of f_prev, as in
        # c + (-w * f), so the cancellation is exact; folding c into the
        # same product would leave the product's rounding error behind.
        X = PointSet([[0.3, -0.7]])
        f = constant_poly(0.7, X)
        (double,) = linear_combine([f], [[2.0]])
        for cands in ([double], variables(X), [double] + variables(X)):
            out = orthogonal_project(cands, [f])
            assert all(np.all(p.eval == 0.0) for p in out)
            np.testing.assert_array_equal(out[-1].grad, cands[-1].grad)

    def test_children_are_candidate_then_basis(self):
        X = generic_points(8, 3, seed=13)
        rng = rng_for(14)
        f_prev = [constant_poly(1.0, X)]
        for d in (1, 2):
            f_prev.append(orthogonal_project([random_poly(X, d, rng)], f_prev)[0])
        cands = [random_poly(X, 3, rng) for _ in range(3)]
        for c, out in zip(cands, orthogonal_project(cands, f_prev)):
            records, ids = flatten([p.prov for p in [c] + f_prev] + [out.prov])
            assert records[ids[-1]]["children"] == ids[:-1]
            assert records[ids[-1]]["weights"][0] == 1.0
            assert out.degree == 3

    def test_empty_basis_is_identity(self):
        X = generic_points(4, 2, seed=11)
        c = variable_poly(0, X)
        assert orthogonal_project([c], [])[0] is c


class TestNumericalRank:
    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 4)), 1e-12) == 0

    def test_rank_one_outer_product(self):
        rng = rng_for(12)
        M = np.outer(rng.normal(size=5), rng.normal(size=3))
        assert numerical_rank(M, 1e-12) == 1

    def test_dependent_column_drops_rank(self):
        rng = rng_for(13)
        M = rng.normal(size=(4, 3))
        M[:, 2] = M[:, 0] + M[:, 1]
        assert numerical_rank(M, 1e-10) == 2
        s = np.linalg.svd(M, compute_uv=False)
        assert np.count_nonzero(s > 1e-10 * s[0]) == 2

    def test_rejects_nonfinite(self):
        with pytest.raises(ContractViolation):
            numerical_rank(np.array([[np.nan, 0.0]]), 1e-12)

    def test_stack_matches_one_matrix_at_a_time(self):
        # zero matrices, rank-deficient ones and full-rank ones in one stack
        rng = rng_for(14)
        stack = rng.normal(size=(9, 4, 3))
        stack[1] = 0.0
        stack[2, :, 2] = stack[2, :, 0] - 2.0 * stack[2, :, 1]
        stack[3] = np.outer(rng.normal(size=4), rng.normal(size=3))
        stack[4] *= 1e-300
        ranks = numerical_rank(stack, 1e-10)
        assert ranks.shape == (9,) and ranks.dtype.kind == "i"
        assert ranks.tolist() == [numerical_rank(M, 1e-10) for M in stack]
        assert ranks[:4].tolist() == [3, 0, 2, 1]
        assert numerical_rank(stack.reshape(3, 3, 4, 3), 1e-10).tolist() == (
            ranks.reshape(3, 3).tolist()
        )
        assert numerical_rank(np.zeros((0, 4, 3))).shape == (0,)
