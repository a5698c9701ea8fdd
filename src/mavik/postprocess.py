"""Gradient-based basis post-processing.

Two consumers of the per-point gradients of the G members, each a stacked
kernel over a (points x members x n) gradient array: removal of redundant
basis polynomials (a vanishing polynomial whose gradient lies, at every data
point, in the span of the gradients of the kept lower-degree ones behaves
identically to an ideal member of those up to first order and is dropped),
and estimation of the dimension of the underlying variety from per-point
tangent-space codimensions (:func:`mavik.engine.dimension_bounds`, the one
rank-to-dimension rule, shared with the fit's dimension stopping rule).

Members that carry their gradients (a grad fit's, or any fit's with a
dimension rule) are read as they are.  Values-only members -- a vca or
coeff fit's, or any loaded basis's -- get theirs from one replay on their
points with gradients, through ``engine.replay_many``: it re-runs the
kernel calls that built them, so the gradients are bitwise those the same
calls form with gradients.  Gradients formed for a member are kept until
the member is collected (see :func:`_g_grads`), so a reduction and a
dimension estimate of one basis, or of one list of members, share one
replay.  Both functions return the caller's own polynomials.

The reduction works one degree at a time: one stacked pseudo-inverse of the
kept lower-degree gradients, one per point, and the residuals of every
member of the degree against it at once.  Removed members carry their
worst relative residual, as computed; the reduction report
(:func:`mavik.serialize.reduction_to_json`) writes those below
:data:`mavik.serialize.RESIDUAL_FLOOR`, rounding noise, as the floor.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from . import engine
from .core import Basis
from .errors import ContractViolation

__all__ = ["ReductionReport", "reduce_basis", "estimate_dimension"]

PINV_RANK_TOL = 1e-12


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


# values-only G member -> its (|X|, n) gradients; an entry is dropped when
# its member is collected.
_FORMED = weakref.WeakKeyDictionary()


def _g_grads(basis):
    """The G members of ``basis`` (a Basis or a list of polynomials) and
    their (|X|, n) gradients, formed on demand.

    A member's own ``grad`` is read as it is; the values-only members not
    in ``_FORMED`` are replayed together once with gradients, and what the
    replay formed is kept there until the member is collected, so later
    calls on the same members, as a Basis or a list, replay nothing.
    """
    g_polys = basis.g_polys() if isinstance(basis, Basis) else list(basis)
    missing = [g for g in g_polys if g.grad is None and g not in _FORMED]
    if missing:
        # Looked up at call time, so the benchmark's tracer sees the replay.
        pairs = engine.replay_many(missing, missing[0].points.points, grads=True)
        _FORMED.update((g, gr) for g, (_, gr) in zip(missing, pairs))
    return g_polys, [_FORMED[g] if g.grad is None else g.grad for g in g_polys]


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
    g_polys, grads = _g_grads(basis)
    kept, pool, removed = [], [], []  # pool: the kept members' gradients
    for degree in sorted({g.degree for g in g_polys}):
        members = [(g, gr) for g, gr in zip(g_polys, grads) if g.degree == degree]
        T = np.stack([gr for _, gr in members], axis=1)  # (|X|, k, n)
        R = T
        if kept:
            S = np.stack(pool, axis=1)  # (|X|, |pool|, n)
            R = T - (T @ np.linalg.pinv(S, rcond=PINV_RANK_TOL)) @ S
        norms = np.linalg.norm(T, axis=2)
        resid = np.divide(
            np.linalg.norm(R, axis=2), norms, out=np.zeros_like(norms), where=norms > 0
        )
        for (g, gr), r in zip(members, resid.max(axis=0).tolist()):
            if r <= threshold:
                removed.append((g, r))
            else:
                kept.append(g)
                pool.append(gr)
    return ReductionReport(kept=kept, removed=removed, threshold=threshold)


def estimate_dimension(basis, X):
    """Estimate (d_min, d_max) of the variety carved out by the G polynomials
    of ``basis`` (a Basis or a list of polynomials) from per-point
    tangent-space codimensions, by :func:`mavik.engine.dimension_bounds`.
    An empty basis gives (n, n)."""
    return engine.dimension_bounds(_g_grads(basis)[1], X)
