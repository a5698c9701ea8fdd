"""The three matrix kernels the basis construction consumes.

* :func:`orthogonal_project` -- remove the span of earlier strata from a
  batch of candidate polynomials, on the evaluation side, updating gradients
  with the same combination weights; one matrix product for the weights and
  one stratum-level combination for the results.
* :func:`gen_eig_sym` -- symmetric-definite generalized eigenproblem
  ``A V = N V Lambda`` restricted to the numerical range of ``N``, returning
  N-orthonormal eigenvectors.
* :func:`numerical_rank` -- SVD rank with a relative cutoff, of one matrix
  or of a whole stack at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import linear_combine
from .errors import ContractViolation, InternalInvariantViolation

__all__ = ["GenEigResult", "gen_eig_sym", "orthogonal_project", "numerical_rank"]

SYMMETRY_TOL = 1e-10
# Normalization-matrix eigenvalues at or below this fraction of the largest
# one span the numerical nullspace that gen_eig_sym drops.
RANK_TOL = 1e-12
# Eigenvalues of the whitened problem this far below zero (relative to the
# problem scale) indicate a broken Gram computation rather than rounding.
NEGATIVE_EIG_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-8


@dataclass(frozen=True)
class GenEigResult:
    """Eigenpairs of A V = N V Lambda on the N-nonnull subspace.

    ``vectors`` is d x r with N-orthonormal columns, ``values`` the matching
    nonnegative eigenvalues sorted descending, ``retained_rank`` = r.
    """

    vectors: np.ndarray
    values: np.ndarray
    retained_rank: int


def _check_symmetric(M, name):
    scale = max(1.0, float(np.max(np.abs(M))) if M.size else 0.0)
    if M.size and np.max(np.abs(M - M.T)) > SYMMETRY_TOL * scale:
        raise ContractViolation(f"{name} is not symmetric within tolerance")
    return 0.5 * (M + M.T)


def _fix_column_signs(V):
    # First component of nonnegligible magnitude made positive, per column
    # (a zero column has no such component and stays as it is).
    mag = np.abs(V)
    lead = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    flip = V[lead, np.arange(V.shape[1])] < 0
    V[:, flip] = -V[:, flip]
    return V


def gen_eig_sym(A, N):
    """Solve A V = N V Lambda for symmetric PSD A, N, dropping the N-nullspace.

    The normalization matrix is eigendecomposed, directions with eigenvalue
    <= RANK_TOL * max eigenvalue are discarded, the remainder is whitened and
    an ordinary symmetric eigendecomposition finishes the job.  Returned
    vectors satisfy V^T N V = I and V^T A V = diag(values).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    N = np.atleast_2d(np.asarray(N, dtype=float))
    if A.shape != N.shape or A.shape[0] != A.shape[1]:
        raise ContractViolation("A and N must be square matrices of equal size")
    d = A.shape[0]
    A = _check_symmetric(A, "A")
    N = _check_symmetric(N, "N")

    s, Q = np.linalg.eigh(N)
    smax = float(s[-1]) if s.size else 0.0
    if smax <= 0.0:
        # Nothing survives normalization; the caller treats this stratum as
        # contributing no polynomials.
        return GenEigResult(np.zeros((d, 0)), np.zeros(0), 0)
    keep = s > RANK_TOL * smax
    r = int(np.count_nonzero(keep))
    if r == 0:
        return GenEigResult(np.zeros((d, 0)), np.zeros(0), 0)

    s_min = float(s[keep].min())
    W = Q[:, keep] / np.sqrt(s[keep])
    M = W.T @ A @ W
    M = 0.5 * (M + M.T)
    lam, U = np.linalg.eigh(M)

    # Rounding in forming M is bounded by eps * ||A|| / s_min, which can
    # exceed the plain 1e-10 window when retained directions sit close to
    # the rank cutoff; only eigenvalues below both signal a broken Gram.
    lam_max = float(lam[-1]) if lam.size else 0.0
    norm_a = float(np.linalg.norm(A))
    window = max(NEGATIVE_EIG_TOL * max(1.0, lam_max), 1e-12 * norm_a / s_min)
    if np.any(lam < -window):
        raise InternalInvariantViolation(
            f"generalized eigenproblem produced eigenvalue {lam.min():0.3e} "
            "far below zero; the Gram matrices are inconsistent"
        )
    lam = np.where(lam < 0.0, 0.0, lam)

    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    V = W @ U[:, order]

    # Verification of V^T N V = I is itself limited to eps * smax / s_min,
    # so the tolerance widens with the retained condition number.  The
    # diagonal is rescaled to exactly 1 so downstream norm bookkeeping
    # (extents, gradient-norm guards) stays sharp.
    gram = V.T @ N @ V
    diag = np.diag(gram).copy()
    cond_floor = 100.0 * np.finfo(float).eps * smax / s_min
    tol = max(ORTHONORMALITY_TOL, cond_floor)
    if np.any(np.abs(diag - 1.0) > tol) or (
        r > 1 and np.max(np.abs(gram - np.diag(diag))) > tol
    ):
        raise InternalInvariantViolation("eigenvectors lost N-orthonormality")
    V = _fix_column_signs(V / np.sqrt(diag))
    lam = lam / diag
    return GenEigResult(V, lam, r)


def orthogonal_project(cands, f_prev):
    """Project candidate evaluations orthogonally to span of ``f_prev`` evals.

    ``f_prev`` must have pairwise-orthogonal nonzero evaluation vectors (true
    by construction for completed strata), so the least-squares coefficients
    reduce to scaled inner products against a diagonal Gram.  The whole
    stratum is projected at once: the coefficients are one matrix product,
    ``-(E^T C) / diag``, and the projected candidates one
    :func:`linear_combine` of ``f_prev`` with the candidates as lead terms,
    so each result is ``c - sum_j w_j f_j`` with provenance ``[c] + f_prev``.
    Gradients and provenance follow the same linear combination.
    """
    if not f_prev or not cands:
        return list(cands)
    E = np.column_stack([f.eval for f in f_prev])
    diag = np.sum(E * E, axis=0)
    if np.any(diag == 0.0):
        raise InternalInvariantViolation(
            "projection basis contains a zero evaluation vector"
        )
    C = np.column_stack([c.eval for c in cands])
    W = -(E.T @ C) / diag[:, None]
    return linear_combine(f_prev, W, lead=cands)


def numerical_rank(M, tol=1e-12):
    """Number of singular values above ``tol`` times the largest one.

    ``M`` is one matrix, giving an int, or a stack of shape (..., r, c),
    giving an integer array of one rank per matrix from one stacked SVD.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if not np.all(np.isfinite(M)):
        raise ContractViolation("matrix entries must be finite")
    if M.size == 0:
        ranks = np.zeros(M.shape[:-2], dtype=int)
    else:
        s = np.linalg.svd(M, compute_uv=False)
        ranks = np.count_nonzero(s > tol * s[..., :1], axis=-1)
    return int(ranks) if M.ndim == 2 else ranks
