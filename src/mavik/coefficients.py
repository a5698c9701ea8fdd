"""Sparse symbolic expansion of construction trees into monomial coefficients.

The basis construction itself never touches monomials; this module exists for
the coefficient-normalization mode, for the degree-wise rescaling transform,
and as an independent oracle against which the evaluation representation can
be checked.  It reads construction trees only through the flattened records
of :func:`mavik.core.flatten`, the node format of basis files.  Exponent
vectors are fixed-length integer tuples; iteration order is graded
lexicographic, purely as a storage/serialization convention.
"""

from __future__ import annotations

import numpy as np

from .core import flatten
from .errors import ContractViolation, ResourceLimitError

__all__ = ["CoeffVec", "expand", "expand_many", "coeff_gram", "degreewise_rescale"]

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


def _add_scaled(acc, terms, w):
    for exps, c in terms.items():
        acc[exps] = acc.get(exps, 0.0) + w * c


def _mul(a, b, cap):
    prod = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            prod[key] = prod.get(key, 0.0) + ca * cb
            if len(prod) > cap:
                raise ResourceLimitError(
                    f"expansion exceeded the term cap ({cap} terms)"
                )
    return prod


def expand(poly, term_cap=DEFAULT_TERM_CAP):
    """Exact symbolic expansion of a polynomial's construction tree."""
    return expand_many([poly], term_cap=term_cap)[0]


def expand_many(polys, term_cap=DEFAULT_TERM_CAP):
    """Expand several polynomials; a shared subtree is expanded once.

    Works through the :func:`mavik.core.flatten` records, children first,
    with the same rules as the fit: a product multiplies its factors'
    terms and a combination adds its children's terms in stored order.
    """
    if not polys:
        return []
    n = polys[0].points.n
    records, root_ids = flatten([p.prov for p in polys])
    expanded = []
    for rec in records:
        kind = rec["kind"]
        if kind == "const":
            terms = {(0,) * n: rec["value"]}
        elif kind == "var":
            exps = [0] * n
            exps[rec["index"]] = 1
            terms = {tuple(exps): 1.0}
        elif kind == "product":
            terms = _mul(expanded[rec["left"]], expanded[rec["right"]], term_cap)
        else:
            terms = {}
            for j, w in zip(rec["children"], rec["weights"]):
                _add_scaled(terms, expanded[j], w)
            if len(terms) > term_cap:
                raise ResourceLimitError(f"expansion exceeded the term cap ({term_cap} terms)")
        expanded.append({e: c for e, c in terms.items() if abs(c) >= PRUNE_TOL})
    return [CoeffVec(expanded[i], n) for i in root_ids]


def coeff_gram(polys, term_cap=DEFAULT_TERM_CAP):
    """Gram matrix of coefficient vectors over the union of their monomials."""
    if not polys:
        return np.zeros((0, 0))
    vecs = expand_many(polys, term_cap=term_cap)
    monomials = sorted({e for v in vecs for e in v.terms}, key=_grlex_key)
    index = {e: i for i, e in enumerate(monomials)}
    M = np.zeros((len(monomials), len(vecs)))
    for j, v in enumerate(vecs):
        for e, c in v.terms.items():
            M[index[e], j] = c
    gram = M.T @ M
    return 0.5 * (gram + gram.T)


def degreewise_rescale(cv, alpha, t):
    """Scale each total-degree-tau monomial by alpha**(t - tau)."""
    if alpha == 0:
        raise ContractViolation("alpha must be nonzero")
    scaled = {
        exps: c * float(alpha) ** (t - sum(exps)) for exps, c in cv.terms.items()
    }
    return CoeffVec(scaled, cv.n)
