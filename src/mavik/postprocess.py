"""Gradient-based basis post-processing.

Two consumers of the stored per-point gradients, each a stacked kernel over
a (points x members x n) gradient array: removal of redundant basis
polynomials (a vanishing polynomial whose gradient lies, at every data
point, in the span of the gradients of the kept lower-degree ones behaves
identically to an ideal member of those up to first order and is dropped),
and estimation of the dimension of the underlying variety from per-point
tangent-space codimensions (:func:`mavik.engine.dimension_bounds`, the one
rank-to-dimension rule, shared with the fit's dimension stopping rule).

The reduction works one degree at a time: one stacked pseudo-inverse of the
kept lower-degree gradients, one per point, and the residuals of every
member of the degree against it at once.  Removed members carry their
worst relative residual; residuals below :data:`RESIDUAL_FLOOR` are
rounding noise and the reduction report writes them as the floor, so
``reduction.json`` does not change with the summation order of a replay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import dimension_bounds
from .errors import ContractViolation

__all__ = ["RESIDUAL_FLOOR", "ReductionReport", "reduce_basis", "estimate_dimension"]

PINV_RANK_TOL = 1e-12

# Relative gradient residuals this small are the rounding noise of the
# least-squares fit (at most about 1e-13 on the generic benchmark grid); the
# reduction report writes any smaller residual as this value.
RESIDUAL_FLOOR = 1e-12


@dataclass
class ReductionReport:
    """Outcome of a reduction pass: kept members, removed members with their
    worst relative gradient residual, and the threshold used."""

    kept: list
    removed: list  # (Poly, max relative residual over X)
    threshold: float

    def kept_profile(self):
        top = max((p.degree for p in self.kept), default=0)
        counts = [0] * (top + 1)
        for p in self.kept:
            counts[p.degree] += 1
        return counts


def _g_polys(basis):
    return basis.g_polys() if hasattr(basis, "g_polys") else list(basis)


def reduce_basis(basis, X, threshold=1e-6):
    """Drop vanishing polynomials generable from kept lower-degree ones.

    Degrees are processed in ascending order; the candidate pool for a
    degree-t member is every already-kept polynomial of degree < t (members
    of one degree are mutually independent under gradient normalization, so
    no reduction is attempted within a degree).  A polynomial is removed iff
    at every point the least-squares residual of its gradient against the
    pool gradients is at most ``threshold`` times its own gradient norm; a
    zero gradient has residual 0, and against an empty pool every nonzero
    gradient has residual 1.
    """
    if not 0 <= threshold < 1:
        raise ContractViolation("threshold must lie in [0, 1)")
    g_polys = _g_polys(basis)
    kept, removed = [], []
    for degree in sorted({g.degree for g in g_polys}):
        members = [g for g in g_polys if g.degree == degree]
        T = np.stack([g.grad for g in members], axis=1)  # (|X|, k, n)
        R = T
        if kept:
            S = np.stack([p.grad for p in kept], axis=1)  # (|X|, |pool|, n)
            R = T - (T @ np.linalg.pinv(S, rcond=PINV_RANK_TOL)) @ S
        norms = np.linalg.norm(T, axis=2)
        resid = np.divide(
            np.linalg.norm(R, axis=2), norms, out=np.zeros_like(norms), where=norms > 0
        )
        for g, r in zip(members, resid.max(axis=0).tolist()):
            if r <= threshold:
                removed.append((g, r))
            else:
                kept.append(g)
    return ReductionReport(kept=kept, removed=removed, threshold=threshold)


def estimate_dimension(basis, X):
    """Estimate (d_min, d_max) of the variety carved out by the G polynomials
    of ``basis`` (a Basis or a list of polynomials) from per-point
    tangent-space codimensions, by :func:`mavik.engine.dimension_bounds`.
    An empty basis gives (n, n)."""
    return dimension_bounds(_g_polys(basis), X)
