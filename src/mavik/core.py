"""Points and polynomials in evaluation representation.

A polynomial is not stored by its terms.  It is stored as the vector of its
values on a fixed point set, the matrix of its gradient values on the same
points, and a construction tree (constants, variables, products, linear
combinations) that can be replayed to evaluate the polynomial -- values and
gradients -- on any other point set.  All basis construction happens through
the two operations :func:`linear_combine` and :func:`multiply`; gradients are
propagated through them with the product/linearity rules and are never
obtained by symbolic differentiation.

Both operations work on whole strata at once: :func:`linear_combine` forms
r combinations of k polynomials as one matrix product over their stacked
evaluations and one over their stacked gradients, and :func:`multiply`
forms every product of a list of factor pairs by one broadcast.  The
provenance stays per polynomial: one ``PLin`` or ``PProd`` node for each
output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation

__all__ = [
    "PointSet",
    "PConst",
    "PVar",
    "PProd",
    "PLin",
    "Poly",
    "Basis",
    "constant_poly",
    "variable_poly",
    "variables",
    "linear_combine",
    "multiply",
    "replay",
    "replay_many",
]


class PointSet:
    """An ordered set of points in R^n plus a free-form transform log.

    The point array is frozen after construction; every transform helper in
    :mod:`mavik.datasets` returns a new instance with an extended log.
    """

    __slots__ = ("points", "provenance")

    def __init__(self, points, provenance=()):
        pts = np.array(points, dtype=float)
        if pts.ndim != 2:
            raise ContractViolation("points must be a 2-d array (rows = points)")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ContractViolation("need at least one point and one coordinate")
        if not np.all(np.isfinite(pts)):
            raise ContractViolation("points must be finite")
        pts.setflags(write=False)
        self.points = pts
        self.provenance = tuple(provenance)

    @property
    def n(self):
        """Ambient dimension."""
        return self.points.shape[1]

    def __len__(self):
        return self.points.shape[0]

    def derive(self, points, note):
        """New PointSet with ``note`` appended to the transform log."""
        return PointSet(points, self.provenance + (note,))

    def __repr__(self):
        return f"PointSet(|X|={len(self)}, n={self.n})"


# ---------------------------------------------------------------------------
# Construction trees.  Nodes are shared by reference, so a basis is a DAG and
# replay memoizes on node identity.
# ---------------------------------------------------------------------------


class PConst:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)


class PVar:
    __slots__ = ("index",)

    def __init__(self, index):
        self.index = int(index)


class PProd:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class PLin:
    __slots__ = ("children", "weights")

    def __init__(self, children, weights):
        w = np.array(weights, dtype=float)
        if len(children) != w.shape[0]:
            raise ContractViolation("children/weights length mismatch")
        if not np.all(np.isfinite(w)):
            raise ContractViolation("combination weights must be finite")
        w.setflags(write=False)
        self.children = tuple(children)
        self.weights = w


def replay(prov, points, _cache=None):
    """Evaluate a construction tree on ``points`` ((m, n) array).

    Returns ``(values, grads)`` with shapes (m,) and (m, n).  A shared cache
    may be passed to amortize work across trees with common subtrees.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ContractViolation("points must be a 2-d array")
    m, n = pts.shape
    cache = {} if _cache is None else _cache

    def rec(node):
        key = id(node)
        hit = cache.get(key)
        if hit is not None:
            return hit
        if isinstance(node, PConst):
            out = (np.full(m, node.value), np.zeros((m, n)))
        elif isinstance(node, PVar):
            if not 0 <= node.index < n:
                raise ContractViolation(
                    f"variable index {node.index} out of range for n={n}"
                )
            g = np.zeros((m, n))
            g[:, node.index] = 1.0
            out = (pts[:, node.index].copy(), g)
        elif isinstance(node, PProd):
            ev_l, gr_l = rec(node.left)
            ev_r, gr_r = rec(node.right)
            out = (ev_l * ev_r, ev_r[:, None] * gr_l + ev_l[:, None] * gr_r)
        elif isinstance(node, PLin):
            ev = np.zeros(m)
            gr = np.zeros((m, n))
            for child, w in zip(node.children, node.weights):
                ev_c, gr_c = rec(child)
                ev += w * ev_c
                gr += w * gr_c
            out = (ev, gr)
        else:
            raise ContractViolation(f"unknown provenance node {type(node)!r}")
        cache[key] = out
        return out

    return rec(prov)


def replay_many(polys, points):
    """Replay several polynomials with a shared subtree cache."""
    cache = {}
    return [replay(p.prov, points, _cache=cache) for p in polys]


class Poly:
    """A polynomial over a fixed :class:`PointSet`, in evaluation form.

    ``eval`` is h(X), ``grad`` is the |X| x n matrix of per-point gradients,
    ``degree`` is the construction degree and ``prov`` the construction tree.
    Instances are immutable.
    """

    __slots__ = ("degree", "eval", "grad", "prov", "points")

    def __init__(self, degree, eval_vec, grad_mat, prov, points):
        ev = np.asarray(eval_vec, dtype=float)
        gr = np.asarray(grad_mat, dtype=float)
        if ev.shape != (len(points),) or gr.shape != (len(points), points.n):
            raise ContractViolation("eval/grad shapes do not match the point set")
        ev = ev.copy()
        gr = gr.copy()
        ev.setflags(write=False)
        gr.setflags(write=False)
        self.degree = int(degree)
        self.eval = ev
        self.grad = gr
        self.prov = prov
        self.points = points

    def replay(self, points):
        """Re-evaluate on an (m, n) array: returns (values, grads)."""
        return replay(self.prov, points)

    def __repr__(self):
        return f"Poly(degree={self.degree}, |X|={len(self.eval)})"


def constant_poly(value, pointset):
    """The constant polynomial ``value`` on ``pointset``."""
    if value == 0:
        raise ContractViolation("constant polynomial must be nonzero")
    m = len(pointset)
    return Poly(
        0,
        np.full(m, float(value)),
        np.zeros((m, pointset.n)),
        PConst(value),
        pointset,
    )


def variable_poly(index, pointset):
    """The coordinate polynomial x_index on ``pointset``."""
    if not 0 <= index < pointset.n:
        raise ContractViolation(f"variable index {index} out of range")
    m = len(pointset)
    grad = np.zeros((m, pointset.n))
    grad[:, index] = 1.0
    return Poly(1, pointset.points[:, index], grad, PVar(index), pointset)


def variables(pointset):
    """All coordinate polynomials x_1 .. x_n."""
    return [variable_poly(k, pointset) for k in range(pointset.n)]


def _same_points(polys):
    first = polys[0].points
    for p in polys[1:]:
        if p.points is not first:
            raise ContractViolation("polynomials live on different point sets")
    return first


def linear_combine(polys, weights, lead=None):
    """Weighted sums of polynomials: evals, grads and provenance combine linearly.

    ``weights`` of shape (k,) gives one polynomial; shape (k, r) gives a list
    of r, one per column.  All columns are formed by one matrix product over
    the stacked evaluations and one over the stacked gradients.  ``lead``,
    if given, holds r polynomials added to the columns with weight 1 after
    the product; each goes first in its column's provenance node.

    Degree is the maximum over children with a nonzero weight (0 if all
    weights vanish).  Children with an exactly-zero weight are dropped from
    the provenance node.
    """
    W = np.asarray(weights, dtype=float)
    single = W.ndim == 1
    if single:
        W = W[:, None]
    if len(polys) < 1 or W.ndim != 2 or W.shape[0] != len(polys):
        raise ContractViolation("weights must have len(polys) >= 1 rows")
    if not np.all(np.isfinite(W)):
        raise ContractViolation("weights must be finite")
    lead = [] if lead is None else list(lead)
    if lead and len(lead) != W.shape[1]:
        raise ContractViolation("need one lead polynomial per weight column")
    pointset = _same_points(list(polys) + lead)
    k, r = W.shape
    m, n = len(pointset), pointset.n

    ev = W.T @ np.stack([p.eval for p in polys])
    gr = (W.T @ np.stack([p.grad for p in polys]).reshape(k, m * n)).reshape(r, m, n)
    if lead:
        ev = np.stack([p.eval for p in lead]) + ev
        gr = np.stack([p.grad for p in lead]) + gr

    provs = [p.prov for p in polys]
    degrees = np.array([p.degree for p in polys])
    out = []
    for j in range(r):
        col = W[:, j]
        kept = np.flatnonzero(col)
        children = [provs[i] for i in kept.tolist()]
        kept_weights = col[kept]
        degree = int(degrees[kept].max()) if kept.size else 0
        if lead:
            children.insert(0, lead[j].prov)
            kept_weights = np.concatenate(([1.0], kept_weights))
            degree = max(degree, lead[j].degree)
        out.append(Poly(degree, ev[j], gr[j], PLin(children, kept_weights), pointset))
    return out[0] if single else out


def multiply(p, q):
    """Products of degree-1 polynomials with other polynomials.

    ``p`` and ``q`` are single polynomials, giving one product, or equally
    long sequences, giving the list of pairwise products ``p[i] * q[i]``.
    Evaluations and product-rule gradients, q(x) * grad p(x) + p(x) *
    grad q(x), are formed for all pairs at once by broadcasting.
    """
    single = isinstance(p, Poly)
    ps, qs = ([p], [q]) if single else (list(p), list(q))
    if len(ps) != len(qs):
        raise ContractViolation("need as many left factors as right factors")
    if not ps:
        return []
    if any(a.degree != 1 for a in ps):
        raise ContractViolation("left factor must have degree 1")
    pointset = _same_points(ps + qs)
    p_ev = np.stack([a.eval for a in ps])
    q_ev = np.stack([b.eval for b in qs])
    ev = p_ev * q_ev
    gr = (q_ev[:, :, None] * np.stack([a.grad for a in ps])
          + p_ev[:, :, None] * np.stack([b.grad for b in qs]))
    out = [
        Poly(a.degree + b.degree, ev[i], gr[i], PProd(a.prov, b.prov), pointset)
        for i, (a, b) in enumerate(zip(ps, qs))
    ]
    return out[0] if single else out


@dataclass
class Basis:
    """Degree-stratified output of a fit.

    ``F[t]`` / ``G[t]`` hold the nonvanishing / vanishing polynomials of
    degree t; ``extents[t]`` holds the recorded ||g(X)|| for each member of
    ``G[t]`` in order.
    """

    F: list = field(default_factory=list)
    G: list = field(default_factory=list)
    extents: list = field(default_factory=list)

    @property
    def n(self):
        return self.F[0][0].points.n

    @property
    def pointset(self):
        return self.F[0][0].points

    def f_profile(self):
        return [len(s) for s in self.F]

    def g_profile(self):
        return [len(s) for s in self.G]

    def f_polys(self):
        return [p for stratum in self.F for p in stratum]

    def g_polys(self):
        return [p for stratum in self.G for p in stratum]

    def g_extents(self):
        return [e for stratum in self.extents for e in stratum]

    @property
    def max_degree(self):
        return len(self.F) - 1
