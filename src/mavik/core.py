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
forms every product of a list of factor pairs by one broadcast.  A call's
outputs are the rows of those blocks, and its provenance is one node: a
``PLin`` holds the call's weight matrix, a ``PProd`` its two factor lists,
and each output's ``prov`` is the pair ``(node, column)``.  The outputs come
back as :class:`Rows`, which holds the blocks, checked and made read-only
once per call, with the node, the degrees and the point set.  The next
kernel and the fit's Grams read the blocks, provenance and degrees off a
``Rows`` without stacking or making rows; the :class:`Poly` rows, views of
the blocks, are made lazily, only when something reads an element.

In memory, :func:`walk` runs every node under some roots once, children
first, and its callbacks make all the columns of a node at once, so
:func:`replay_many` re-runs every kernel call of the fit whole and gives
the fit's values bitwise.  For files, :func:`flatten` lists each distinct
(node, column) once as JSON-ready records (the ``nodes`` of a basis file),
and :func:`replay` checks the records and rebuilds them on another point
set with one kernel call per group of sibling records.
"""

from __future__ import annotations

import math
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
    "Rows",
    "Basis",
    "constant_poly",
    "variable_poly",
    "variables",
    "rows_of",
    "linear_combine",
    "multiply",
    "walk",
    "flatten",
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
# Construction trees.  A polynomial's provenance is a pair (node, column):
# one node per kernel call, the column picking the call's output.  Nodes are
# shared by reference, so a basis is a DAG; :func:`flatten` lists each
# shared (node, column) once.
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
    """Column j is ``left[j] * right[j]``."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class PLin:
    """Column j is ``lead[j] + sum_i weights[i, j] * children[i]``.

    ``weights`` is the read-only (k, r) matrix :func:`linear_combine`
    checked; ``lead`` is empty or holds r provenance pairs.
    """

    __slots__ = ("children", "weights", "lead")

    def __init__(self, children, weights, lead):
        self.children = children
        self.weights = weights
        self.lead = lead


class Poly:
    """A polynomial over a fixed :class:`PointSet`, in evaluation form.

    ``eval`` is h(X), ``grad`` is the |X| x n matrix of per-point gradients,
    ``degree`` is the construction degree and ``prov`` the ``(node, column)``
    pair of the construction tree.  Instances are immutable; ``eval`` and
    ``grad`` are read-only.  The constructor checks their shapes; a kernel
    output is made by its :class:`Rows` instead, as views of one row of the
    call's blocks, which are checked once for all rows.
    """

    __slots__ = ("degree", "eval", "grad", "prov", "points")

    def __init__(self, degree, eval_vec, grad_mat, prov, points):
        ev = np.asarray(eval_vec, dtype=float)
        gr = np.asarray(grad_mat, dtype=float)
        if ev.shape != (len(points),) or gr.shape != (len(points), points.n):
            raise ContractViolation("eval/grad shapes do not match the point set")
        ev.setflags(write=False)
        gr.setflags(write=False)
        self.degree = int(degree)
        self.eval = ev
        self.grad = gr
        self.prov = prov
        self.points = points

    def __repr__(self):
        return f"Poly(degree={self.degree}, |X|={len(self.eval)})"


class Rows:
    """The outputs of one kernel call, held as their stacked blocks.

    ``evals`` is the read-only, C-contiguous (r, m) block of the outputs'
    evaluations and ``grads`` the (r, m, n) block of their gradients: the
    values and layout stacking the rows gives, so BLAS returns the same
    bits.  ``degrees`` lists the r construction degrees, ``points`` is the
    point set and ``provs`` gives the r provenance pairs: ``(node, j)`` for
    row j of a kernel call, the members' own for :func:`rows_of` a list.

    Kernels and Grams read these without making any :class:`Poly`: a fit's
    candidates and projected candidates never become objects.  The rows are
    made once, on first element access, as views of one row of each block,
    and kept, so a row is the same object whenever it is read.  A ``Rows``
    is a read-only sequence, never changed after it is made; slices are
    plain lists.  Nothing but the ``Rows`` and its rows refers to its blocks
    (no provenance node does), so a kernel's blocks do not outlive them.
    """

    __slots__ = ("evals", "grads", "degrees", "points", "_node", "_polys")

    def __init__(self, degrees, evals, grads, node, points):
        r, m = len(degrees), len(points)
        if evals.shape != (r, m) or grads.shape != (r, m, points.n):
            raise ContractViolation("eval/grad blocks do not match the point set")
        evals.setflags(write=False)
        grads.setflags(write=False)
        self.degrees, self.evals, self.grads, self.points = degrees, evals, grads, points
        self._node, self._polys = node, None

    @property
    def provs(self):
        """The provenance pair of each row, without making the rows."""
        if self._node is None:
            return [p.prov for p in self._polys]
        node = self._node
        return [(node, j) for j in range(len(self.degrees))]

    def _members(self):
        """The :class:`Poly` rows, made on the first call and kept."""
        if self._polys is None:
            ev, gr, node, points = self.evals, self.grads, self._node, self.points
            polys = []
            for j, d in enumerate(self.degrees):
                p = Poly.__new__(Poly)
                p.degree, p.eval, p.grad, p.prov, p.points = d, ev[j], gr[j], (node, j), points
                polys.append(p)
            self._polys = polys
        return self._polys

    def __len__(self):
        return len(self.degrees)

    def __getitem__(self, i):
        return (self._polys or self._members())[i]

    def __iter__(self):
        return iter(self._polys or self._members())


def _evals(polys):
    """The (k, m) evaluation block of ``polys``: a :class:`Rows`'s own, or stacked."""
    return polys.evals if isinstance(polys, Rows) else np.array([p.eval for p in polys])


def _grads(polys):
    """The (k, m, n) gradient block of ``polys``: a :class:`Rows`'s own, or stacked."""
    return polys.grads if isinstance(polys, Rows) else np.array([p.grad for p in polys])


def _degrees(polys):
    """The construction degrees of ``polys``: a :class:`Rows`'s own, or read off each."""
    return polys.degrees if isinstance(polys, Rows) else [p.degree for p in polys]


def _provs(polys):
    """The provenance pairs of ``polys``: a :class:`Rows`'s own, or read off each."""
    return polys.provs if isinstance(polys, Rows) else [p.prov for p in polys]


def _points(polys):
    """The point set of the nonempty ``polys``: a :class:`Rows`'s own, or the
    one every member lives on."""
    if isinstance(polys, Rows):
        return polys.points
    first = polys[0].points
    for p in polys[1:]:
        if p.points is not first:
            raise ContractViolation("polynomials live on different point sets")
    return first


def rows_of(polys):
    """``polys`` as :class:`Rows`: itself if it is one, else its nonempty
    list of members stacked, with the members as its rows."""
    if isinstance(polys, Rows):
        return polys
    rows = Rows(_degrees(polys), _evals(polys), _grads(polys), None, _points(polys))
    rows._polys = list(polys)
    return rows


def constant_poly(value, pointset):
    """The constant polynomial ``value`` on ``pointset``."""
    if value == 0 or not math.isfinite(value):
        raise ContractViolation("constant polynomial must be finite and nonzero")
    m = len(pointset)
    return Poly(
        0,
        np.full(m, float(value)),
        np.zeros((m, pointset.n)),
        (PConst(value), 0),
        pointset,
    )


def variable_poly(index, pointset):
    """The coordinate polynomial x_index on ``pointset``."""
    if not 0 <= index < pointset.n:
        raise ContractViolation(f"variable index {index} out of range")
    m = len(pointset)
    grad = np.zeros((m, pointset.n))
    grad[:, index] = 1.0
    return Poly(1, pointset.points[:, index], grad, (PVar(index), 0), pointset)


def variables(pointset):
    """All coordinate polynomials x_1 .. x_n."""
    return [variable_poly(k, pointset) for k in range(pointset.n)]


def linear_combine(polys, weights, lead=()):
    """Weighted sums of polynomials: evals, grads and provenance combine linearly.

    ``weights`` of shape (k, r) gives a list of r outputs, one per column:
    the rows of one matrix product over the stacked evaluations and one
    over the stacked gradients.  ``lead``, if given, holds r polynomials
    added to the columns with weight 1 after the product.  The call records
    one ``PLin`` node for all columns.  A column's degree is the largest of
    its lead's and its nonzero-weight children's (0 if there are none).
    Returns :class:`Rows`; a ``Rows`` passed as ``polys`` or ``lead`` gives
    its blocks, degrees and provenance without making its rows, any other
    list is stacked.
    """
    W = np.array(weights, dtype=float)
    if len(polys) < 1 or W.ndim != 2 or W.shape[0] != len(polys):
        raise ContractViolation("weights must be a (len(polys), r) matrix with len(polys) >= 1")
    if not np.all(np.isfinite(W)):
        raise ContractViolation("weights must be finite")
    if lead and len(lead) != W.shape[1]:
        raise ContractViolation("need one lead polynomial per weight column")
    pointset = _points(polys)
    if lead and _points(lead) is not pointset:
        raise ContractViolation("polynomials live on different point sets")
    m, n = len(pointset), pointset.n

    # A list that is not a Rows is stacked for its own product only, so at
    # most one stacked copy is alive at a time.
    ev = W.T @ _evals(polys)
    gr = (W.T @ _grads(polys).reshape(len(polys), m * n)).reshape(-1, m, n)
    degrees = np.where(W != 0.0, np.array(_degrees(polys))[:, None], 0).max(axis=0)
    if lead:
        ev = _evals(lead) + ev
        gr = _grads(lead) + gr
        degrees = np.maximum(degrees, _degrees(lead))
    W.setflags(write=False)
    node = PLin(_provs(polys), W, _provs(lead) if lead else [])
    return Rows(degrees.tolist(), ev, gr, node, pointset)


def multiply(ps, qs):
    """Products of degree-1 polynomials with other polynomials.

    ``ps`` and ``qs`` are equally long lists or :class:`Rows`; the result
    is the list of the pairwise products ``ps[i] * qs[i]``, the rows of one
    evaluation and one gradient block.  Product-rule gradients, q(x) *
    grad p(x) + p(x) * grad q(x), are formed for all pairs at once by
    broadcasting.  The call records one ``PProd`` node for all pairs and
    returns :class:`Rows`.
    """
    if len(ps) != len(qs):
        raise ContractViolation("need as many left factors as right factors")
    if not ps:
        return []
    if any(d != 1 for d in _degrees(ps)):
        raise ContractViolation("left factor must have degree 1")
    pointset = _points(ps)
    if _points(qs) is not pointset:
        raise ContractViolation("polynomials live on different point sets")
    p_ev, q_ev = _evals(ps), _evals(qs)
    ev = p_ev * q_ev
    gr = q_ev[:, :, None] * _grads(ps) + p_ev[:, :, None] * _grads(qs)
    node = PProd(_provs(ps), _provs(qs))
    return Rows([1 + d for d in _degrees(qs)], ev, gr, node, pointset)


def walk(roots, const, var, product, combine, memo=None):
    """Run every provenance node under ``roots`` once, children first.

    ``roots`` are ``prov`` pairs.  A node goes to the callback of its kind
    with its children's outputs -- ``const(value)``, ``var(index)``,
    ``product(lefts, rights)`` or ``combine(children, weights, leads)``,
    with the node's read-only (k, r) ``weights`` and no leads or r -- and
    the callback returns the outputs of all the node's columns.  Returns
    the output of each root.

    ``memo`` maps a node to its callback's outputs.  A caller's dict is
    read and filled, so a node it already holds is not run again, and is
    left filled; without one the walk uses its own, and clears it.
    """
    own = memo is None
    if own:
        memo = {}

    def run(prov):
        node, j = prov
        if node not in memo:
            if isinstance(node, PConst):
                memo[node] = const(node.value)
            elif isinstance(node, PVar):
                memo[node] = var(node.index)
            elif isinstance(node, PProd):
                memo[node] = product(list(map(run, node.left)), list(map(run, node.right)))
            else:
                memo[node] = combine(list(map(run, node.children)), node.weights,
                                     list(map(run, node.lead)))
        return memo[node][j]

    outs = list(map(run, roots))
    if own:
        memo.clear()  # run refers to itself, so the memo would wait for the cyclic GC
    return outs


def flatten(roots):
    """List the construction DAG under ``roots``, children before parents.

    ``roots`` are ``prov`` pairs.  Returns ``(records, root_ids)``: one
    JSON-ready dict per distinct (node, column), in depth-first order, whose
    children are indices of earlier records, and the record index of each
    root.  A ``lincomb`` record lists its column's lead first, with weight
    1.0, then the children whose weight is not exactly zero, in order.  The
    records are the node list of a basis file, which :func:`replay` reads.
    A ``PLin`` node's child is visited once, by the first column that weights
    it; the node's other columns reuse its record index.
    """
    records = []
    ids = {}
    child_ids = {}  # id of a PLin node -> {row: record id} of its visited children

    def visit(prov):
        node, j = prov
        key = (id(node), j)
        if key in ids:
            return ids[key]
        if isinstance(node, PConst):
            rec = {"kind": "const", "value": node.value}
        elif isinstance(node, PVar):
            rec = {"kind": "var", "index": node.index}
        elif isinstance(node, PProd):
            rec = {"kind": "product", "left": visit(node.left[j]), "right": visit(node.right[j])}
        elif isinstance(node, PLin):
            lead = [visit(node.lead[j])] if node.lead else []
            column = node.weights[:, j]
            rows = np.flatnonzero(column).tolist()
            kids = child_ids.setdefault(id(node), {})
            for i in sorted(set(rows).difference(kids)):  # children no column visited yet
                kids[i] = visit(node.children[i])
            rec = {"kind": "lincomb", "children": [*lead, *map(kids.__getitem__, rows)],
                   "weights": [1.0] * len(lead) + column[rows].tolist()}
        else:
            raise ContractViolation(f"unknown provenance node {type(node)!r}")
        ids[key] = len(records)
        records.append(rec)
        return ids[key]

    root_ids = [visit(r) for r in roots]
    return records, root_ids


def _field(rec, key, i, types=None):
    try:
        value = rec[key]
    except (KeyError, TypeError):
        raise ContractViolation(f"node {i} has no {key!r} field") from None
    if types and type(value) not in types:
        raise ContractViolation(f"node {i}: {key!r} field {value!r} has the wrong type")
    return value


_NUMBER = {int, float}


def _earlier(js, i):
    """The child indices ``js`` of record ``i``, each an int in [0, i)."""
    if js and not (set(map(type, js)) == {int} and min(js) >= 0 and max(js) < i):
        j = next(j for j in js if type(j) is not int or not 0 <= j < i)
        raise ContractViolation(f"node {i}: child index {j!r} is not in [0, {i})")
    return js


def _finite(values, i, key):
    try:
        finite = all(map(math.isfinite, values))
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ContractViolation(f"node {i}: {key} must be finite")


def replay(records, pointset):
    """Rebuild every record of :func:`flatten` on ``pointset``.

    Returns one :class:`Poly` per record, formed by the construction
    kernels, so values, gradients, degrees and provenance follow the fit's
    rules.  A first pass checks every record before any kernel runs: child
    indices must point to earlier records, and every field must have its
    JSON type (numbers for values and weights, an int variable index, lists
    of children and of as many finite weights).  It builds the constants
    and variables and groups the other records by level (one above the
    highest child): the products of a level, and the ``lincomb`` records
    of a level that share their children.  A ``lincomb`` whose first weight
    is exactly 1.0 takes its first child as its lead, as :func:`flatten`
    writes a lead, so the columns of one fitted call fall back into one
    group.  A second pass makes one kernel call per group, level by level:
    :func:`multiply` or :func:`linear_combine`.  A ``lincomb`` without
    children is the zero polynomial of degree 0.
    """
    if not isinstance(records, list):
        raise ContractViolation("the node list is not a list")
    built = [None] * len(records)
    levels = [0] * len(records)
    groups = {}  # (level, kind[, lead?, shared children]) -> [(record, arguments)]
    for i, rec in enumerate(records):
        kind = _field(rec, "kind", i)
        if kind == "const":
            value = _field(rec, "value", i, _NUMBER)
            _finite([value], i, "value")
            built[i] = constant_poly(value, pointset)
            continue
        if kind == "var":
            built[i] = variable_poly(_field(rec, "index", i, (int,)), pointset)
            continue
        if kind == "product":
            kids = _earlier([_field(rec, "left", i), _field(rec, "right", i)], i)
            key, args = (kind,), kids
        elif kind == "lincomb":
            kids = _earlier(_field(rec, "children", i, (list,)), i)
            weights = _field(rec, "weights", i, (list,))
            if not set(map(type, weights)) <= _NUMBER:
                raise ContractViolation(f"node {i}: weights must be numbers")
            if len(weights) != len(kids):
                raise ContractViolation(f"node {i}: {len(kids)} children but {len(weights)} weights")
            _finite(weights, i, "weights")
            lead = kids[:1] if weights[:1] == [1.0] else []
            key = (kind, bool(lead), tuple(kids[len(lead):]))
            args = (lead, weights[len(lead):])
        else:
            raise ContractViolation(f"node {i}: unknown kind {kind!r}")
        levels[i] = 1 + max(map(levels.__getitem__, kids), default=0)
        groups.setdefault((levels[i], *key), []).append((i, args))

    for key in sorted(groups, key=lambda key: key[0]):  # ties keep their first-seen order
        members, args = zip(*groups[key])
        if key[1] == "product":
            outs = multiply([built[a] for a, _ in args], [built[b] for _, b in args])
        else:
            lead = [built[j] for head, _ in args for j in head]
            kids = [built[j] for j in key[3]]
            W = np.array([w for _, w in args], dtype=float).T
            if not kids:  # zero polynomials, or leads alone
                kids, W = [constant_poly(1.0, pointset)], np.zeros((1, len(args)))
            outs = linear_combine(kids, W, lead)
        for i, p in zip(members, outs):
            built[i] = p
    return built


def replay_many(polys, points):
    """Values and gradients of ``polys`` on an (m, n) array of points.

    A :func:`walk` with the construction kernels: every kernel call under
    ``polys`` runs once, whole, so a polynomial's values do not depend on
    the others asked for and on the fit's points are the fit's, bitwise.
    Returns one ``(values, grads)`` pair per polynomial, shaped (m,), (m, n).
    """
    X = PointSet(points)
    built = walk([p.prov for p in polys], const=lambda value: [constant_poly(value, X)],
                 var=lambda index: [variable_poly(index, X)], product=multiply,
                 combine=linear_combine)
    return [(p.eval, p.grad) for p in built]


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

    @classmethod
    def from_flat(cls, f_polys, g_polys, g_extents):
        """Bucket flat F and G lists (and the G extents) by degree."""
        top = max((p.degree for p in f_polys + g_polys), default=0)
        F, G, extents = ([[] for _ in range(top + 1)] for _ in range(3))
        for p in f_polys:
            F[p.degree].append(p)
        for p, e in zip(g_polys, g_extents):
            G[p.degree].append(p)
            extents[p.degree].append(e)
        return cls(F=F, G=G, extents=[np.array(e) for e in extents])

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
