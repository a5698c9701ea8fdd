"""Matrix kernels: projection, generalized eigensolver, numerical rank."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from conftest import generic_points, random_poly, rng_for
from mavik.core import PointSet, constant_poly, flatten, linear_combine, variable_poly, variables
from mavik.errors import ContractViolation, InternalInvariantViolation
from mavik import linalg
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


def gen_eig_whitened(A, N):
    """Reference: ``gen_eig_sym`` through the whitening, whatever N is.

    N is always eigendecomposed and A whitened by W = Q / sqrt(s), the
    path ``gen_eig_sym`` takes for every N matrix.
    """
    A = linalg._check_symmetric(np.atleast_2d(np.asarray(A, dtype=float)), "A")
    N = linalg._check_symmetric(np.atleast_2d(np.asarray(N, dtype=float)), "N")
    d = A.shape[0]
    s, Q = np.linalg.eigh(N)
    smax = float(s[-1]) if s.size else 0.0
    if smax <= 0.0:
        return linalg.GenEigResult(np.zeros((d, 0)), np.zeros(0), 0)
    keep = s > linalg.RANK_TOL * smax
    r = int(np.count_nonzero(keep))
    if r == 0:
        return linalg.GenEigResult(np.zeros((d, 0)), np.zeros(0), 0)
    s_min = float(s[keep].min())
    W = Q[:, keep] / np.sqrt(s[keep])
    M = W.T @ A @ W
    M = 0.5 * (M + M.T)
    lam, U = np.linalg.eigh(M)
    lam_max = float(lam[-1]) if lam.size else 0.0
    window = max(linalg.NEGATIVE_EIG_TOL * max(1.0, lam_max),
                 1e-12 * float(np.linalg.norm(A)) / s_min)
    assert not np.any(lam < -window)
    lam = np.where(lam < 0.0, 0.0, lam)
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    V = W @ U[:, order]
    gram = V.T @ N @ V
    diag = np.diag(gram).copy()
    V = linalg._fix_column_signs(V / np.sqrt(diag))
    return linalg.GenEigResult(V, lam / diag, r)


class TestIdentityNormalization:
    """N None (the identity) is not whitened, and gives the whitened identity's bits."""

    @pytest.mark.parametrize("d", [1, 2, 3, 20, 45, 135])
    @pytest.mark.parametrize("case", ["psd", "rank-deficient", "zero"])
    def test_bitwise_equal_to_the_whitened_path(self, d, case):
        if case == "psd":
            A = random_psd(d, 50 + d)
        elif case == "rank-deficient":
            A = random_psd(d, 60 + d, rank=max(1, d // 3))
        else:
            A = np.zeros((d, d))
        got = gen_eig_sym(A, None)
        want = gen_eig_whitened(A, np.eye(d))
        assert got.retained_rank == want.retained_rank == d
        for a, b in ((got.vectors, want.vectors), (got.values, want.values)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert a.flags.c_contiguous == b.flags.c_contiguous

    @pytest.mark.parametrize("d", [1, 4, 30])
    @pytest.mark.parametrize("case", ["diagonal", "tied", "wide-range"])
    def test_bitwise_equal_on_exact_zeros_ties_and_wide_magnitudes(self, d, case):
        # the in-place orthonormality check and the sign multiply see
        # eigenvectors with exact zeros, tied eigenvalues and entries from
        # 1e-8 to 1e8 relative to each other
        rng = rng_for(130 + d)
        if case == "diagonal":
            A = np.diag(rng.uniform(0.0, 1.0, d))
        elif case == "tied":
            A = np.diag(np.resize([2.0, 1.0, 1.0], d))
        else:
            D = np.diag(10.0 ** rng.uniform(-8.0, 8.0, d))
            A = D @ random_psd(d, 140 + d) @ D
            A = 0.5 * (A + A.T)
        got = gen_eig_sym(A, None)
        want = gen_eig_whitened(A, np.eye(d))
        for a, b in ((got.vectors, want.vectors), (got.values, want.values)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("r", [1, 5, 40])
    @pytest.mark.parametrize("identity", [True, False], ids=["identity", "whitened"])
    def test_in_place_check_matches_the_out_of_place_test(self, r, identity):
        # the diagonal is copied before the check subtracts 1 from it in
        # place, and the check accepts and rejects as |V^T N V - I| does
        rng = rng_for(150 + r)
        Q = np.linalg.qr(rng.normal(size=(r, r)))[0]
        N = None if identity else random_psd(r, 160 + r) + r * np.eye(r)
        s, P = np.linalg.eigh(np.eye(r) if identity else N)
        base = Q if identity else (P / np.sqrt(s)) @ Q
        for size in (1e-12, 0.3e-8, 3e-8):
            V = base * (1.0 + size * rng.uniform(-1.0, 1.0, r))
            gram = np.ascontiguousarray(V.T) @ V if identity else V.T @ N @ V
            tol = max(linalg.ORTHONORMALITY_TOL, 100.0 * np.finfo(float).eps * s[-1] / s[0])
            if np.abs(gram - np.eye(r)).max() > tol:
                with pytest.raises(InternalInvariantViolation):
                    linalg._n_normalize(V.copy(), N, s[-1], s[0])
                continue
            diag = gram.diagonal().copy()
            got, got_diag = linalg._n_normalize(V.copy(), N, s[-1], s[0])
            assert got_diag.tobytes() == diag.tobytes()
            assert got.tobytes() == linalg._fix_column_signs(V / np.sqrt(diag)).tobytes()

    def test_only_n_none_skips_the_eigendecomposition_of_n(self, monkeypatch):
        # an N matrix is whitened even when it is exactly the identity
        calls = []
        eigh = np.linalg.eigh

        def counting(M):
            calls.append(M.shape)
            return eigh(M)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        for N, eighs in ((None, 1), (np.eye(5), 2), (2.0 * np.eye(5), 2)):
            calls.clear()
            gen_eig_sym(random_psd(5, 70), N)
            assert calls == [(5, 5)] * eighs

    def test_overflowing_norm_of_a_raises_no_warning(self):
        A = np.full((3, 3), 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = gen_eig_sym(A, np.eye(3))
        assert res.values[0] == pytest.approx(3e300)


class TestWhitening:
    """N's whitening: the combinations of a step that keeps every direction."""

    @pytest.mark.parametrize("d", [1, 5, 30])
    @pytest.mark.parametrize("n_rank", ["full", "deficient"])
    def test_n_orthonormal_in_descending_eigenvalue_order(self, d, n_rank):
        rank = d if n_rank == "full" else max(1, d // 2)
        N = random_psd(d, 170 + d, rank=rank)
        V = linalg.whitening(N)
        assert V.shape == (d, rank)
        assert np.abs(V.T @ N @ V - np.eye(rank)).max() <= 1e-10
        # N V = V diag(s), with N's kept eigenvalues s descending
        s = np.sort(np.linalg.eigvalsh(N))[::-1][:rank]
        np.testing.assert_allclose(N @ V, V * s, atol=1e-10 * s[0] * np.abs(V).max())
        mag = np.abs(V)
        lead = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
        assert (V[lead, np.arange(rank)] > 0).all()

    def test_is_the_eigenvectors_of_a_zero_a_in_reverse(self):
        # gen_eig_sym of A = 0 keeps its whitening in eigh's ascending order
        N = random_psd(6, 180)
        np.testing.assert_allclose(linalg.whitening(N),
                                   gen_eig_sym(np.zeros((6, 6)), N).vectors[:, ::-1],
                                   rtol=1e-12, atol=1e-12)

    def test_identity_is_whitened_as_any_n(self):
        # eigh's ascending order, reversed: the identity's columns in reverse
        assert linalg.whitening(np.eye(4)).tobytes() == np.eye(4)[:, ::-1].tobytes()
        assert linalg.whitening(2.0 * np.eye(4)).shape == (4, 4)

    def test_zero_n_keeps_nothing(self):
        assert linalg.whitening(np.zeros((3, 3))).shape == (3, 0)

    def test_bad_n_raises(self):
        with pytest.raises(ContractViolation):
            linalg.whitening(np.array([[1.0, np.nan], [np.nan, 1.0]]))
        with pytest.raises(ContractViolation):
            linalg.whitening(np.array([[1.0, 0.5], [0.0, 1.0]]))


def gen_eig_reference(A, N):
    """Reference: ``gen_eig_sym`` as it was before its checks were trimmed.

    Every check runs in full: the symmetric part is always formed, the
    negative-eigenvalue window always reads ||A||, the orthonormality test
    takes one reduction for the diagonal and one for the rest, and the sign
    fix always writes.
    """

    def symmetric_part(M, name):
        scale = max(1.0, float(np.max(np.abs(M))) if M.size else 0.0)
        if M.size and np.max(np.abs(M - M.T)) > linalg.SYMMETRY_TOL * scale:
            raise ContractViolation(f"{name} is not symmetric within tolerance")
        return 0.5 * (M + M.T)

    A = symmetric_part(np.atleast_2d(np.asarray(A, dtype=float)), "A")
    N = symmetric_part(np.atleast_2d(np.asarray(N, dtype=float)), "N")
    d = A.shape[0]
    if d and np.array_equal(N, np.eye(d)):
        W, M, r, smax, s_min = None, A, d, 1.0, 1.0
    else:
        s, Q = np.linalg.eigh(N)
        smax = float(s[-1]) if s.size else 0.0
        if smax <= 0.0:
            return linalg.GenEigResult(np.zeros((d, 0)), np.zeros(0), 0)
        keep = s > linalg.RANK_TOL * smax
        r = int(np.count_nonzero(keep))
        s_min = float(s[keep].min())
        W = Q[:, keep] / np.sqrt(s[keep])
        M = W.T @ A @ W
        M = 0.5 * (M + M.T)
    lam, U = np.linalg.eigh(M)
    lam_max = float(lam[-1]) if lam.size else 0.0
    amax = float(np.max(np.abs(A)))
    norm_a = amax * float(np.linalg.norm(A / amax)) if amax > 0.0 else 0.0
    window = max(linalg.NEGATIVE_EIG_TOL * max(1.0, lam_max), 1e-12 * norm_a / s_min)
    if np.any(lam < -window):
        raise InternalInvariantViolation("eigenvalue far below zero")
    lam = np.where(lam < 0.0, 0.0, lam)
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    V = np.add(U[:, order], 0.0, order="C") if W is None else W @ U[:, order]
    gram = V.T @ N @ V
    diag = np.diag(gram).copy()
    tol = max(linalg.ORTHONORMALITY_TOL, 100.0 * np.finfo(float).eps * smax / s_min)
    if np.any(np.abs(diag - 1.0) > tol) or (
        r > 1 and np.max(np.abs(gram - np.diag(diag))) > tol
    ):
        raise InternalInvariantViolation("eigenvectors lost N-orthonormality")
    V = V / np.sqrt(diag)
    mag = np.abs(V)
    lead = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    flip = V[lead, np.arange(V.shape[1])] < 0
    V[:, flip] = -V[:, flip]
    return linalg.GenEigResult(V, lam / diag, r)


def assert_same_result(got, want):
    assert got.retained_rank == want.retained_rank
    for a, b in ((got.vectors, want.vectors), (got.values, want.values)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert a.flags.c_contiguous == b.flags.c_contiguous


class TestTrimmedChecks:
    """The solver's checks are cheaper than the reference's, not weaker."""

    @pytest.mark.parametrize("d", [1, 2, 3, 9, 20, 30])
    @pytest.mark.parametrize("case", ["psd", "rank-deficient", "zero"])
    @pytest.mark.parametrize("n_rank", ["full", "deficient"])
    def test_whitened_path_bitwise_equal_to_the_reference(self, d, case, n_rank):
        if case == "psd":
            A = random_psd(d, 80 + d)
        elif case == "rank-deficient":
            A = random_psd(d, 90 + d, rank=max(1, d // 3))
        else:
            A = np.zeros((d, d))
        N = random_psd(d, 110 + d, rank=None if n_rank == "full" else max(1, d // 2))
        got, want = gen_eig_sym(A, N), gen_eig_reference(A, N)
        assert got.retained_rank > 0
        assert_same_result(got, want)

    @pytest.mark.parametrize("which", ["A with N = I", "A", "N"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(1, 1), (1, 2)], ids=["diagonal", "off-diagonal"])
    def test_nonfinite_input_raises_without_warnings(self, which, bad, entry):
        # before the check, a NaN in A with N = I gave NaN vectors, a NaN in
        # N gave rank 0, and an inf in A gave RuntimeWarnings and NaN values
        A = random_psd(4, 120)
        N = np.eye(4) if which == "A with N = I" else random_psd(4, 121)
        M = N if which == "N" else A
        M[entry] = M[entry[::-1]] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ContractViolation, match=f"{which[0]} has a non-finite entry"):
                gen_eig_sym(A, N)

    @pytest.mark.parametrize("which", ["A", "N"])
    def test_asymmetry_beyond_tolerance_raises(self, which):
        A, N = random_psd(5, 130), random_psd(5, 131)
        M = A if which == "A" else N
        M[0, 3] += 10.0 * linalg.SYMMETRY_TOL * np.abs(M).max()
        with pytest.raises(ContractViolation, match="not symmetric"):
            gen_eig_sym(A, N)

    @pytest.mark.parametrize("n_kind", ["identity", "psd"])
    def test_asymmetry_within_tolerance_solves_the_symmetric_part(self, n_kind):
        A = random_psd(6, 140)
        N = np.eye(6) if n_kind == "identity" else random_psd(6, 141)
        A_skew, N_skew = A.copy(), N.copy()
        A_skew[1, 4] += 1e-3 * linalg.SYMMETRY_TOL * np.abs(A).max()
        if n_kind == "psd":
            N_skew[2, 5] += 1e-3 * linalg.SYMMETRY_TOL * np.abs(N).max()
        assert not np.array_equal(A_skew, A_skew.T)
        got = gen_eig_sym(A_skew, N_skew)
        want = gen_eig_sym(0.5 * (A_skew + A_skew.T), 0.5 * (N_skew + N_skew.T))
        assert_same_result(got, want)
        assert_same_result(got, gen_eig_reference(A_skew, N_skew))

    @pytest.mark.parametrize("N", [np.eye(3), 2.0 * np.eye(3)], ids=["identity", "whitened"])
    def test_negative_eigenvalue_raises(self, N):
        A = np.diag([1.0, 0.5, -0.25])
        with pytest.raises(InternalInvariantViolation, match="far below zero"):
            gen_eig_sym(A, N)

    @pytest.mark.parametrize("loss", ["diagonal", "off-diagonal"])
    def test_lost_orthonormality_raises(self, monkeypatch, loss):
        # the inner eigensolve returns vectors that are off by 1e-3 in one
        # column's norm, or (normalized) 1e-3 apart from orthogonal
        eigh = np.linalg.eigh

        def skewed(M):
            lam, U = eigh(M)
            if M.shape == (4, 4) and not np.array_equal(M, N):
                U = U.copy()
                if loss == "diagonal":
                    U[:, 0] *= 1.0 + 1e-3
                else:
                    U[:, 0] += 1e-3 * U[:, 1]
                    U[:, 0] /= np.linalg.norm(U[:, 0])
            return lam, U

        A, N = random_psd(4, 150), random_psd(4, 151)
        monkeypatch.setattr(np.linalg, "eigh", skewed)
        with pytest.raises(InternalInvariantViolation, match="orthonormality"):
            gen_eig_sym(A, N)

    def test_rounding_sized_negative_eigenvalues_are_clipped(self):
        A = np.diag([1.0, 0.5, -1e-13])
        res = gen_eig_sym(A, np.eye(3))
        assert res.values.tolist() == [1.0, 0.5, 0.0]


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
