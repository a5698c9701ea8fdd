"""Dense monomial-coefficient expansion of construction trees.

The basis construction itself never touches monomials; this module exists
for the coefficient-normalization mode and to report the terms of a fitted
basis.  It reads construction trees through :func:`mavik.core.walk`, like
an in-memory replay, and expands every kernel call into a block of dense
coefficient rows over the monomials of degree <= ``top``, the largest
construction degree among the roots, in graded lexicographic order.  A
column of higher degree under the roots is reached only through zero
weights, so its cut-off row adds nothing.  A product's left factor has
degree 1, so the product is the right factor's row times the left factor's
constant plus its shifts by each variable, weighted by that variable's
coefficient.

A :class:`~mavik.engine.Fitter` in coefficient mode hands :func:`coeff_gram`
one walk memo, which keeps every node's rows for the fitter's lifetime
(until a configuration that differs in more than epsilon drops its steps),
so each node is expanded once and every later degree's Gram reuses its
rows.  Rows kept from a lower degree are narrower, and are read
zero-padded to the current width.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations_with_replacement

import numpy as np

from .core import _degrees, _points, _provs, walk
from .errors import ContractViolation, ResourceLimitError

__all__ = ["CoeffVec", "expand", "expand_many", "coeff_gram"]

PRUNE_TOL = 1e-14
DEFAULT_TERM_CAP = 10**6


def _grlex_key(exps):
    return (sum(exps), exps)


class CoeffVec:
    """Sparse map from exponent vectors to coefficients, in n indeterminates."""

    __slots__ = ("terms", "n")

    def __init__(self, terms, n):
        self.n = int(n)
        pruned = {}
        for exps, c in terms.items():
            if abs(c) < PRUNE_TOL:
                continue
            key = tuple(int(e) for e in exps)
            if len(key) != self.n or any(e < 0 for e in key):
                raise ContractViolation("exponent vectors must be length-n nonnegative")
            pruned[key] = float(c)
        self.terms = pruned

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))

    def evaluate(self, points):
        """Evaluate the expansion at an (m, n) array of points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.n:
            raise ContractViolation("point dimension does not match expansion")
        out = np.zeros(pts.shape[0])
        for exps, c in self.terms.items():
            out += c * np.prod(pts ** np.array(exps), axis=1)
        return out

    def to_json_obj(self):
        return [{"exps": list(e), "coef": c} for e, c in self.sorted_terms()]

    def __eq__(self, other):
        return isinstance(other, CoeffVec) and self.n == other.n and self.terms == other.terms

    def __repr__(self):
        return f"CoeffVec(n={self.n}, terms={len(self.terms)})"


@functools.lru_cache(maxsize=None)
def _monomials(n, top):
    """Exponent vectors of degree <= ``top`` in grlex order, and the shifts.

    ``shifts[k, i]`` is the column of monomial i times x_k, for each of the
    monomials of degree < ``top``; ``shifts[k, 0]`` is the column of x_k.
    """
    exps = []
    for d in range(top + 1):
        exps += sorted(
            tuple(c.count(k) for k in range(n))
            for c in combinations_with_replacement(range(n), d)
        )
    column = {e: i for i, e in enumerate(exps)}
    lower = exps[: math.comb(n + top - 1, n)]
    shifts = np.array(
        [[column[e[:k] + (e[k] + 1,) + e[k + 1 :]] for e in lower] for k in range(n)],
        dtype=np.intp,
    )
    return exps, shifts


def _pruned(rows):
    rows[np.abs(rows) < PRUNE_TOL] = 0.0
    return rows


def _padded(rows, width):
    """Stack ``rows`` into a (len(rows), ``width``) block, each zero-padded or cut to ``width``."""
    block = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        block[i, : len(row)] = row[:width]
    return block


def _coeff_rows(polys, term_cap, memo=None):
    """Dense coefficient rows of ``polys`` and the exponent vector of each column.

    ``polys`` is a list of polynomials or a kernel's :class:`~mavik.core.Rows`,
    whose degrees and provenance are read without making its rows.

    A :func:`mavik.core.walk` whose outputs are rows.  A product node
    shifts its right factors' rows by their degree-1 left factors in one
    vectorized step; a combination node starts every column from its lead
    (or zero) and adds the children one at a time in stored order, as a
    record-by-record sum over the children with nonzero weight would.
    Entries below ``PRUNE_TOL`` are zeroed in every node's rows.

    ``memo`` is the walk's memo; a caller that keeps it across calls (a
    fit does) computes each node's rows once.  Rows kept from a call with a
    lower ``top`` are narrower and are read zero-padded; a combination adds
    a child into its leading columns.  The columns are a prefix-stable
    grlex list and pruned zeros are +0.0, so each column is the same
    arithmetic at any width and the rows are the memo-less rows bitwise,
    as long as no node under a call's roots has a higher degree than its
    highest root (a fit builds its nodes in degree order).
    """
    n, top = _points(polys).n, max(_degrees(polys))
    if math.comb(n + top, n) > term_cap:
        raise ResourceLimitError(
            f"expansion exceeded the term cap ({term_cap} terms): degree {top} "
            f"in {n} variables has {math.comb(n + top, n)} monomials"
        )
    exps, shifts = _monomials(n, max(top, 1))  # a variable may sit under zero weights
    width, lower = len(exps), shifts.shape[1]

    def product(lefts, rights):
        left, right = _padded(lefts, n + 1), _padded(rights, lower)
        rows = np.zeros((len(left), width))
        rows[:, :lower] = left[:, :1] * right
        for k in range(n):
            rows[:, shifts[k]] += left[:, shifts[k, 0], None] * right
        return _pruned(rows)

    def combine(children, weights, leads):
        rows = _padded(leads, width) if leads else np.zeros((weights.shape[1], width))
        for w, child in zip(weights, children):
            child = child[:width]
            rows[:, : len(child)] += w[:, None] * child
        return _pruned(rows)

    rows = walk(_provs(polys), const=lambda value: _pruned(value * np.eye(1, width)),
                var=lambda index: np.eye(1, width, shifts[index, 0]),
                product=product, combine=combine, memo=memo)
    return _padded(rows, width), exps


def expand(poly, term_cap=DEFAULT_TERM_CAP):
    """Exact symbolic expansion of a polynomial's construction tree."""
    return expand_many([poly], term_cap=term_cap)[0]


def expand_many(polys, term_cap=DEFAULT_TERM_CAP):
    """Expand several polynomials; a shared subtree is expanded once.

    Raises ``ResourceLimitError`` when the monomials of degree up to the
    largest construction degree outnumber ``term_cap``.
    """
    if not polys:
        return []
    rows, exps = _coeff_rows(polys, term_cap)
    n = polys[0].points.n
    return [CoeffVec({exps[i]: row[i] for i in np.flatnonzero(row)}, n) for row in rows]


def coeff_gram(polys, term_cap=DEFAULT_TERM_CAP, memo=None):
    """Gram matrix of the polynomials' coefficient vectors.

    ``memo``, if given, keeps every node's rows for later calls over the
    same construction DAG (see :func:`_coeff_rows`).
    """
    if not polys:
        return np.zeros((0, 0))
    rows, _ = _coeff_rows(polys, term_cap, memo)
    # One syrk on the freshly padded C-contiguous rows: exactly symmetric.
    return rows @ rows.T
