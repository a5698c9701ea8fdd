"""The three matrix kernels the basis construction consumes.

* :func:`projection_weights` -- the weights that remove the span of earlier
  strata from a block of candidate evaluations, one matrix product, which
  :func:`orthogonal_project` applies to polynomials by one combination.
* :func:`gen_eig_sym` -- symmetric-definite generalized eigenproblem
  ``A V = N V Lambda`` restricted to the numerical range of ``N``, returning
  N-orthonormal eigenvectors; ``N`` None is the identity, with nothing to
  whiten.
* :func:`whitening` -- an N-orthonormal basis of N's numerical range, the
  combinations of a step whose every direction is kept (no A to solve).
* :func:`numerical_rank` -- SVD rank with a relative cutoff, of one matrix
  or of a whole stack at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _evals, linear_combine
from .errors import ContractViolation, InternalInvariantViolation

__all__ = ["GenEigResult", "gen_eig_sym", "whitening", "projection_weights", "orthogonal_project",
           "numerical_rank"]

SYMMETRY_TOL = 1e-10
# Normalization-matrix eigenvalues at or below this fraction of the largest
# one span the numerical nullspace that gen_eig_sym drops.
RANK_TOL = 1e-12
# Eigenvalues of the whitened problem this far below zero (relative to the
# problem scale) indicate a broken Gram computation rather than rounding.
NEGATIVE_EIG_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-8
_EPS = float(np.finfo(float).eps)


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
    # One pass gives the scale and the finiteness test: a NaN or an infinity
    # makes the largest magnitude non-finite.
    amax = float(np.abs(M).max()) if M.size else 0.0
    if not math.isfinite(amax):
        raise ContractViolation(f"{name} has a non-finite entry")
    # An exactly symmetric M is its own symmetric part, bit for bit.
    if (M == M.T).all():
        return M
    if np.abs(M - M.T).max() > SYMMETRY_TOL * max(1.0, amax):
        raise ContractViolation(f"{name} is not symmetric within tolerance")
    return 0.5 * (M + M.T)


def _fix_column_signs(V):
    # First component of nonnegligible magnitude made positive, per column
    # (a zero column has no such component and stays as it is), by one
    # multiply with +-1, in place.
    mag = np.abs(V)
    lead = (mag > 1e-12 * mag.max(axis=0)).argmax(axis=0)
    V *= np.where(V[lead, np.arange(V.shape[1])] < 0, -1.0, 1.0)
    return V


def _whiten(N):
    """``(W, smax, s_min)``: N's whitening over its numerical range.

    W = Q / sqrt(s) over the eigenpairs of N above ``RANK_TOL * smax``, in
    eigh's ascending order, and s_min the smallest kept eigenvalue; W is
    None when N has no positive eigenvalue.  The masked copy of Q is the
    layout the callers' products were rounded in.
    """
    s, Q = np.linalg.eigh(N)
    smax = float(s[-1]) if s.size else 0.0
    if smax <= 0.0:
        return None, smax, 0.0
    # eigh's eigenvalues ascend, so the r kept ones are the last r, and smax
    # itself is always kept.
    keep = s > RANK_TOL * smax
    s_min = float(s[len(s) - int(np.count_nonzero(keep))])
    return Q[:, keep] / np.sqrt(s[keep]), smax, s_min


def _n_normalize(V, N, smax, s_min):
    """Check V^T N V = I, then rescale V's columns to unit N-norm and pin signs.

    ``N`` None stands for the identity, whose gram is V^T V.  Verification
    is itself limited to eps * smax / s_min, so the tolerance widens with
    the retained condition number.  The diagonal is rescaled to exactly 1
    so downstream norm bookkeeping (extents, gradient-norm guards) stays
    sharp.  Returns the new V and the gram's diagonal.
    """
    gram = np.ascontiguousarray(V.T) @ V if N is None else V.T @ N @ V
    diag = gram.diagonal().copy()
    gram.flat[:: len(diag) + 1] -= 1.0
    cond_floor = 100.0 * _EPS * smax / s_min
    if np.abs(gram, out=gram).max() > max(ORTHONORMALITY_TOL, cond_floor):
        raise InternalInvariantViolation("eigenvectors lost N-orthonormality")
    return _fix_column_signs(V / np.sqrt(diag)), diag


def gen_eig_sym(A, N):
    """Solve A V = N V Lambda for symmetric PSD A, N, dropping the N-nullspace.

    The normalization matrix is eigendecomposed, directions with eigenvalue
    <= RANK_TOL * max eigenvalue are discarded, the remainder is whitened and
    an ordinary symmetric eigendecomposition finishes the job.  Returned
    vectors satisfy V^T N V = I and V^T A V = diag(values).  A non-finite
    or asymmetric (beyond SYMMETRY_TOL) A or N raises ContractViolation.

    ``N`` None stands for the identity (plain VCA): nothing is whitened,
    and V holds the eigenvectors of A itself, checked for orthonormality.
    An N matrix is always whitened, an exact identity included, which
    gives the same bits.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    d = A.shape[0]
    N = None if N is None else np.atleast_2d(np.asarray(N, dtype=float))
    if A.shape != (d, d) or (N is not None and N.shape != A.shape):
        raise ContractViolation("A and N must be square matrices of equal size")
    A = _check_symmetric(A, "A")

    if N is None:
        W, M, smax, s_min = None, A, 1.0, 1.0
    else:
        N = _check_symmetric(N, "N")
        W, smax, s_min = _whiten(N)
        if W is None:
            # Nothing survives normalization; the caller treats this stratum
            # as contributing no polynomials.
            return GenEigResult(np.zeros((d, 0)), np.zeros(0), 0)
        M = W.T @ A @ W
        M = 0.5 * (M + M.T)
    lam, U = np.linalg.eigh(M)

    # lam ascends: lam[0] is the smallest eigenvalue.  Rounding in forming M
    # is bounded by eps * ||A|| / s_min, which can exceed the plain 1e-10
    # window when retained directions sit close to the rank cutoff; only
    # eigenvalues below both signal a broken Gram.  ||A|| is needed only
    # past the first window, and is taken as amax * ||A / amax||, which
    # does not overflow while A is finite.
    if lam[0] < -NEGATIVE_EIG_TOL * max(1.0, float(lam[-1])):
        amax = float(np.abs(A).max())
        norm_a = amax * float(np.linalg.norm(A / amax)) if amax > 0.0 else 0.0
        if lam[0] < -1e-12 * norm_a / s_min:
            raise InternalInvariantViolation(
                f"generalized eigenproblem produced eigenvalue {lam[0]:0.3e} "
                "far below zero; the Gram matrices are inconsistent"
            )
    if lam[0] < 0.0:
        lam = np.where(lam < 0.0, 0.0, lam)

    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    # W @ U with W = I gives U in C order with -0.0 turned to +0.0, and so
    # does adding 0.0 in C order: the checks below and the caller's
    # products see the same bits in the same layout.
    V = np.add(U[:, order], 0.0, order="C") if W is None else W @ U[:, order]
    V, diag = _n_normalize(V, N, smax, s_min)
    return GenEigResult(V, lam / diag, len(lam))


def whitening(N):
    """An N-orthonormal basis of N's numerical range, for a step with no A.

    Where every direction is kept whatever its A-eigenvalue, the
    generalized eigensolve of :func:`gen_eig_sym` has nothing to choose:
    this returns the d x r matrix V of its whitening, W = Q / sqrt(s) over
    the eigenpairs of N above ``RANK_TOL`` times the largest, in descending
    eigenvalue order, with the same N-orthonormality check, diagonal
    rescale and sign rule, so V^T N V = I.  An N with no positive
    eigenvalue gives a d x 0 matrix.  A non-finite or asymmetric N raises
    ContractViolation.
    """
    N = _check_symmetric(np.atleast_2d(np.asarray(N, dtype=float)), "N")
    W, smax, s_min = _whiten(N)
    if W is None:
        return np.zeros((N.shape[0], 0))
    return _n_normalize(W[:, ::-1], N, smax, s_min)[0]


def projection_weights(F, C):
    """The weights W = -(F C^T) / diag projecting the (r, m) candidate block ``C``.

    ``F`` is the (k, m) block of pairwise-orthogonal nonzero evaluations
    (true by construction for completed strata), so the least-squares
    coefficients reduce to inner products over its diagonal Gram, diag:
    ``C_j + sum_i W[i, j] F_i`` is candidate j without its part in F's
    span.  W is one product of (m, k) and (m, r) C-order copies.  A zero
    row of ``F`` raises ``InternalInvariantViolation``, and a non-finite
    weight ``ContractViolation``.
    """
    E = np.ascontiguousarray(F.T)
    diag = np.sum(E * E, axis=0)
    if np.any(diag == 0.0):
        raise InternalInvariantViolation(
            "projection basis contains a zero evaluation vector"
        )
    W = -(E.T @ np.ascontiguousarray(C.T)) / diag[:, None]
    if not np.isfinite(W).all():
        raise ContractViolation("weights must be finite")
    return W


def orthogonal_project(cands, f_prev):
    """Project candidate polynomials orthogonally to the span of ``f_prev``.

    One :func:`linear_combine` of ``f_prev`` with the candidates as leads
    and the :func:`projection_weights` of their evaluations (read with
    core's ``_evals``) as weights: each result is ``c - sum_j w_j f_j``,
    gradients (when every input carries them) and provenance included.
    The fit projects its blocks with the weights directly.
    """
    if not f_prev or not cands:
        return list(cands)
    return linear_combine(f_prev, projection_weights(_evals(f_prev), _evals(cands)), lead=cands)


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
