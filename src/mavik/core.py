"""Points and polynomials in evaluation representation.

A polynomial is not stored by its terms.  It is stored as the vector of its
values on a fixed point set, optionally the matrix of its gradient values on
the same points, and a construction tree (constants, variables, products,
linear combinations) that can be replayed to evaluate the polynomial --
values, and gradients if asked for -- on any other point set.  Every node
of a tree is a call of one of the two operations :func:`linear_combine`
and :func:`multiply` (the fit forms their arithmetic itself, see below);
gradients are propagated through them with the product/linearity rules
and are never obtained by symbolic differentiation.

Gradients travel with the data.  :func:`constant_poly` and
:func:`variable_poly` carry them unless called with ``grads=False``, and a
kernel forms its gradient block only when every input carries one; any other
output is values-only, with ``grad`` (and ``Rows.grads``) ``None``.  The
gradient block is n times the size of the value block, so a fit that reads
no gradient starts from a values-only constant, :func:`replay` forms values
alone, and :func:`replay_many` does unless called with ``grads=True``.
Running the same kernel calls with gradients gives the values of the
values-only calls and the gradients an eager run forms, bit for bit.

Both operations work on whole strata at once: :func:`linear_combine` forms
r combinations of k polynomials as one matrix product over their stacked
evaluations and one over their stacked gradients, and :func:`multiply`
forms the products of a list of factor pairs by one elementwise product.
A call's outputs are the rows of those blocks, and its provenance is one
node: a ``PLin`` holds the call's weight matrix, a ``PProd`` its two
factor lists, and each output's ``prov`` is the pair ``(node, column)``.
The outputs come back as :class:`Rows`, which holds the blocks, checked and
made read-only once per call, with the node, the degrees and the point
set.  A kernel reads each input once, through ``_blocks``: a ``Rows``
gives its own blocks, degrees, provenance and point set without making
rows, and any other list is stacked for that call only.  ``_evals`` reads
evaluations alone, and ``_grads`` the gradient block, raising
``ContractViolation`` on values-only members.  The :class:`Poly` rows,
views of the blocks, are made lazily, only when something reads one.

The fit (``engine._degree_step``) does not call these kernels.  It forms
its blocks with the same arithmetic (``_product_rule`` for the products,
``_combined_grads`` for the gradients of a combination) and records the
nodes a kernel call would, so the kernels run only the DAG's replays: a
replay of a fit's nodes gives the fit's values and gradients bit for bit.

:func:`walk` runs every node under some roots once, children first, and
its callbacks make all the columns of a node at once.  In memory,
:func:`replay_many` re-runs every kernel call of the DAG whole and gives
the fit's values bitwise.  For files, :func:`flatten` writes every column
of every call as JSON-ready records (the ``nodes`` of a basis file), and
:func:`replay` reads them in file order and rebuilds them on another
point set, checking a stored call's columns at once and running its
kernel as soon as its run of records ends: the fit's own arithmetic, so a
loaded basis gives the fit's values bitwise too (see :func:`replay` for
the one exception).

Who reads the DAG: :func:`flatten` for the save, the coefficient
expansion (:mod:`mavik.coefficients`), :func:`replay_many` for the
gradients that the post-processing reads, and ``engine.evaluate`` of a
basis whose lists are not its fit's chain's (a loaded, hand-built,
``from_flat`` or edited one); each replay runs core's kernels.  A fitted
basis evaluates new points through its ``chain``, the fit's per-degree
matrices (``engine.Chain``), with the same bits: the constant and each
degree's projection weights, eigenvectors and F mask, from which every
candidate row follows (degree 2's by the width of its weights).
"""

from __future__ import annotations

import contextlib
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
# shared by reference, so a basis is a DAG; :func:`walk` runs each shared
# node once.
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
    or None for a values-only polynomial, ``degree`` is the construction
    degree and ``prov`` the ``(node, column)`` pair of the construction
    tree.  Instances are immutable; ``eval`` and ``grad`` are read-only.
    The constructor checks their shapes; a kernel output is made by its
    :class:`Rows` instead, as views of one row of the call's blocks, which
    are checked once for all rows.
    """

    __slots__ = ("degree", "eval", "grad", "prov", "points", "__weakref__")

    def __init__(self, degree, eval_vec, grad_mat, prov, points):
        ev = np.asarray(eval_vec, dtype=float)
        gr = None if grad_mat is None else np.asarray(grad_mat, dtype=float)
        m, n = len(points), points.n
        if ev.shape != (m,) or (gr is not None and gr.shape != (m, n)):
            raise ContractViolation("eval/grad shapes do not match the point set")
        ev.setflags(write=False)
        if gr is not None:
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
    evaluations and ``grads`` the (r, m, n) block of their gradients, or
    None for values-only outputs: the values and layout stacking the rows
    gives, so BLAS returns the same bits.  ``degrees`` lists the r
    construction degrees, ``points`` is the point set, ``node`` the call's
    provenance node and ``provs`` the r provenance pairs, ``(node, j)``
    for row j.

    Kernels and Grams read these without making any :class:`Poly`: a fit's
    candidates and projected candidates never become objects.  The rows are
    made once, on first element access, as views of one row of each block,
    and kept, so a row is the same object whenever it is read.  A ``Rows``
    is a read-only sequence, never changed after it is made; slices are
    plain lists.  Nothing but the ``Rows`` and its rows refers to its blocks
    (no provenance node does), so a kernel's blocks do not outlive them.
    """

    __slots__ = ("evals", "grads", "degrees", "points", "node", "_polys")

    def __init__(self, degrees, evals, grads, node, points):
        r, m = len(degrees), len(points)
        if evals.shape != (r, m) or (grads is not None and grads.shape != (r, m, points.n)):
            raise ContractViolation("eval/grad blocks do not match the point set")
        evals.setflags(write=False)
        if grads is not None:
            grads.setflags(write=False)
        self.degrees, self.evals, self.grads, self.points = degrees, evals, grads, points
        self.node, self._polys = node, None

    @property
    def provs(self):
        """The provenance pair of each row, without making the rows."""
        node = self.node
        return [(node, j) for j in range(len(self.degrees))]

    def _members(self):
        """The :class:`Poly` rows, made on the first call and kept."""
        if self._polys is None:
            ev, gr, node, points = self.evals, self.grads, self.node, self.points
            polys = []
            for j, d in enumerate(self.degrees):
                p = Poly.__new__(Poly)
                p.degree, p.eval, p.prov, p.points = d, ev[j], (node, j), points
                p.grad = None if gr is None else gr[j]
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


def _blocks(polys):
    """``(evals, grads, degrees, provs, points)`` of the nonempty ``polys``.

    A :class:`Rows` gives its own, without making its rows.  Any other list
    is stacked once, for the caller's kernel call only: ``grads`` is None
    when a member is values-only, and every member must live on one point
    set."""
    if isinstance(polys, Rows):
        return polys.evals, polys.grads, polys.degrees, polys.provs, polys.points
    points = polys[0].points
    if any(p.points is not points for p in polys):
        raise ContractViolation("polynomials live on different point sets")
    grads = [p.grad for p in polys]
    grads = None if any(g is None for g in grads) else np.array(grads)
    return (np.array([p.eval for p in polys]), grads, [p.degree for p in polys],
            [p.prov for p in polys], points)


def _grads(polys):
    """The (k, m, n) gradient block of ``polys``: a :class:`Rows`'s own, or stacked.

    Raises ``ContractViolation`` when a member is values-only."""
    block = polys.grads if isinstance(polys, Rows) else _blocks(polys)[1]
    if block is None:
        raise ContractViolation(
            "these polynomials carry no gradients; build them, or replay_many them, "
            "with grads=True")
    return block


def constant_poly(value, pointset, grads=True):
    """The constant polynomial ``value`` on ``pointset``; values-only
    without ``grads``."""
    if value == 0 or not math.isfinite(value):
        raise ContractViolation("constant polynomial must be finite and nonzero")
    m = len(pointset)
    grad = np.zeros((m, pointset.n)) if grads else None
    return Poly(0, np.full(m, float(value)), grad, (PConst(value), 0), pointset)


def variable_poly(index, pointset, grads=True):
    """The coordinate polynomial x_index on ``pointset``; values-only
    without ``grads``."""
    if not 0 <= index < pointset.n:
        raise ContractViolation(f"variable index {index} out of range")
    grad = None
    if grads:
        grad = np.zeros((len(pointset), pointset.n))
        grad[:, index] = 1.0
    return Poly(1, pointset.points[:, index], grad, (PVar(index), 0), pointset)


def variables(pointset):
    """All coordinate polynomials x_1 .. x_n."""
    return [variable_poly(k, pointset) for k in range(pointset.n)]


def linear_combine(polys, weights, lead=()):
    """Weighted sums of polynomials: evals, grads and provenance combine linearly.

    ``weights`` of shape (k, r) gives a list of r outputs, one per column:
    the rows of one matrix product over the stacked evaluations and, when
    every input and lead carries gradients, one over the stacked gradients;
    otherwise the outputs are values-only.  ``lead``, if given, holds r
    polynomials added to the columns with weight 1 after the product.  The
    call records one ``PLin`` node for all columns.  ``weights`` is copied
    in C order, the layout of the fit's weights, so a call :func:`replay`
    rebuilds from its transposed records rounds as the fit's did.  A
    column's degree is the largest of its lead's and its nonzero-weight
    children's (0 if there are none).  Returns :class:`Rows`.  ``polys``
    and ``lead`` are each read by one ``_blocks`` call; a plain list's
    stacked blocks are dropped after the product, before the lead's are
    stacked, so at most one list's copies are alive at a time.
    """
    W = np.array(weights, dtype=float, order="C")
    if len(polys) < 1 or W.ndim != 2 or W.shape[0] != len(polys):
        raise ContractViolation("weights must be a (len(polys), r) matrix with len(polys) >= 1")
    if not np.all(np.isfinite(W)):
        raise ContractViolation("weights must be finite")
    if lead and len(lead) != W.shape[1]:
        raise ContractViolation("need one lead polynomial per weight column")
    ev, gr, degrees, provs, pointset = _blocks(polys)
    ev = W.T @ ev
    gr = _combined_grads(W, gr)
    degrees = np.where(W != 0.0, np.array(degrees)[:, None], 0).max(axis=0)
    lead_provs = []
    if lead:
        lead_ev, lead_gr, lead_degrees, lead_provs, lead_points = _blocks(lead)
        if lead_points is not pointset:
            raise ContractViolation("polynomials live on different point sets")
        ev = lead_ev + ev
        gr = None if gr is None or lead_gr is None else lead_gr + gr
        degrees = np.maximum(degrees, lead_degrees)
    W.setflags(write=False)
    return Rows(degrees.tolist(), ev, gr, PLin(provs, W, lead_provs), pointset)


def _combined_grads(W, gr):
    """W^T times the (k, m, n) gradient block ``gr``, as an (r, m, n) block.

    One product over the (k, m n) reshape, the gradients of
    :func:`linear_combine`'s columns before their leads; None for None.
    """
    if gr is None:
        return None
    k, m, n = gr.shape
    return (W.T @ gr.reshape(k, m * n)).reshape(-1, m, n)


def _product_rule(p_ev, p_gr, q_ev, q_gr):
    """Values and gradients of the products p * q of broadcastable factor blocks.

    Values are (..., m) blocks and gradients (..., m, n) blocks or None; the
    products come back as an (r, m) and an (r, m, n) block.  The gradients,
    q(x) * grad p(x) + p(x) * grad q(x), are formed when both factors carry
    them, over (..., m n) blocks: each value repeated n times lets every
    operand run contiguously over the points and coordinates.
    """
    m, gr = p_ev.shape[-1], None
    if p_gr is not None and q_gr is not None:
        n = p_gr.shape[-1]
        gr = np.repeat(q_ev, n, axis=-1) * p_gr.reshape(p_gr.shape[:-2] + (-1,))
        gr += np.repeat(p_ev, n, axis=-1) * q_gr.reshape(q_gr.shape[:-2] + (-1,))
        gr = gr.reshape(-1, m, n)
    return (p_ev * q_ev).reshape(-1, m), gr


def multiply(ps, qs):
    """Pairwise products ``ps[i] * qs[i]`` of degree-1 polynomials with others.

    ``ps`` and ``qs`` are equally long lists or :class:`Rows`, each read by
    one ``_blocks`` call.  The products are the rows of one evaluation and
    one gradient block: product-rule gradients are formed for all pairs at
    once, when every factor carries gradients; otherwise the products are
    values-only.  The call records one ``PProd`` node with the pairs'
    factors.  Returns :class:`Rows`.
    """
    if len(ps) != len(qs):
        raise ContractViolation("need as many left factors as right factors")
    if not ps:
        return []
    p_ev, p_gr, p_degrees, p_provs, pointset = _blocks(ps)
    if any(d != 1 for d in p_degrees):
        raise ContractViolation("left factor must have degree 1")
    q_ev, q_gr, q_degrees, q_provs, q_points = _blocks(qs)
    if q_points is not pointset:
        raise ContractViolation("polynomials live on different point sets")
    ev, gr = _product_rule(p_ev, p_gr, q_ev, q_gr)
    return Rows([1 + d for d in q_degrees], ev, gr, PProd(p_provs, q_provs), pointset)


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

    ``roots`` are ``prov`` pairs.  Returns ``(records, root_ids)``: JSON-ready
    dicts whose children are indices of earlier records, and the record
    index of each root.  A :func:`walk` writes one record per column of
    every kernel call under the roots, a call's columns together and in
    order, after its children's records.  A ``lincomb`` record lists its
    column's lead, if any, with weight 1.0, then every child of the call
    with its weight, zeros included, so :func:`replay` reads the call's
    columns as one call.  The records are the node list of a basis file.
    """
    records = []

    def write(recs):
        start = len(records)
        records.extend(recs)
        return range(start, len(records))

    def combine(children, weights, leads):
        return write({"kind": "lincomb", "children": [*leads[j:j + 1], *children],
                      "weights": [1.0] * bool(leads) + column}
                     for j, column in enumerate(weights.T.tolist()))

    root_ids = walk(roots, const=lambda value: write([{"kind": "const", "value": value}]),
                    var=lambda index: write([{"kind": "var", "index": index}]),
                    product=lambda lefts, rights: write(
                        {"kind": "product", "left": a, "right": b} for a, b in zip(lefts, rights)),
                    combine=combine)
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


def _finite(rows, first, key):
    """The float block of the number lists ``rows``, of the records from ``first`` on."""
    with contextlib.suppress(OverflowError):  # an int beyond the float range
        if np.isfinite(block := np.array(rows, dtype=float)).all():
            return block
    if len(rows) == 1:
        raise ContractViolation(f"node {first}: {key} must be finite")
    for i, row in enumerate(rows, first):  # the first record at fault raises
        _finite([row], i, key)


def replay(records, pointset):
    """Rebuild every record of :func:`flatten` on ``pointset``, values only.

    Returns one values-only :class:`Poly` per record, formed by the
    construction kernels; :func:`replay_many` with ``grads=True`` gives
    their gradients.  One pass checks the records in file order: child
    indices must point to earlier records, and every field must have its
    JSON type (numbers for values and weights, an int variable index, lists
    of children and of as many finite weights), and a product's left factor
    must have degree 1.  A *call* is a run of consecutive records of one
    kind whose inputs come before the run: ``product`` records, or
    ``lincomb`` records with the same children after the lead.  A first
    weight of exactly 1.0 opens a lead call (the first child is the lead, as
    :func:`flatten` writes it), which goes on only with such records; a
    lead-less call goes on with any record of its children.  A call's shared
    children are checked once and its weights as one block, and its kernel
    runs when the run ends: the first record at fault is named, after the
    calls before it have run.  A fitted call's columns are one run, so the
    call is the fit's unless a lead-less call's first column starts with
    1.0; a call whose records are not consecutive makes one call per run.  A
    ``lincomb`` without children is zero.
    """
    if not isinstance(records, list):
        raise ContractViolation("the node list is not a list")
    built = [None] * len(records)
    rows = []  # the open call's (left, right) pairs or weight lists, from record start on
    for i, rec in enumerate([*records, None]):  # the None closes the last call
        if rows and type(rec) is dict and rec.get("kind") == kind:  # does it go on?
            if kind == "product":
                a, b = rec.get("left"), rec.get("right")
                if type(a) is type(b) is int and 0 <= a < start and 0 <= b < start:
                    rows.append((a, b))
                    continue
            elif (type(kids := rec.get("children")) is list
                  and type(weights := rec.get("weights")) is list
                  and len(weights) == len(kids) and kids[n:] == shared
                  and set(map(type, kids)) <= {int} and set(map(type, weights)) <= _NUMBER
                  and (not n or weights[:1] == [1.0] and 0 <= kids[0] < start)):
                rows.append(weights)
                continue
        if rows and kind == "product":
            lefts, rights = zip(*rows)
            if bad := [j for j, a in enumerate(lefts, start) if built[a].degree != 1]:
                raise ContractViolation(f"node {bad[0]}: left factor must have degree 1")
            built[start:i] = multiply([built[a] for a in lefts], [built[b] for b in rights])
        elif rows:
            W = _finite(rows, start, "weights")[:, n:].T
            lead = [built[records[j]["children"][0]] for j in range(start, i)] if n else []
            kids = [built[j] for j in shared]
            if not kids:  # zero polynomials, or leads alone
                kids, W = [constant_poly(1.0, pointset, grads=False)], np.zeros((1, i - start))
            built[start:i] = linear_combine(kids, W, lead)
        if i == len(records):
            return built
        start, rows, kind = i, [], _field(rec, "kind", i)
        if kind == "const":
            value = _field(rec, "value", i, _NUMBER)
            _finite([[value]], i, "value")
            if not value:
                raise ContractViolation(f"node {i}: constant polynomial must be finite and nonzero")
            built[i] = constant_poly(value, pointset, grads=False)
        elif kind == "var":
            index = _field(rec, "index", i, (int,))
            if not 0 <= index < pointset.n:
                raise ContractViolation(f"node {i}: variable index {index} out of range")
            built[i] = variable_poly(index, pointset, grads=False)
        elif kind == "product":
            rows = [_earlier([_field(rec, "left", i), _field(rec, "right", i)], i)]
        elif kind == "lincomb":
            kids = _earlier(_field(rec, "children", i, (list,)), i)
            weights = _field(rec, "weights", i, (list,))
            if not set(map(type, weights)) <= _NUMBER:
                raise ContractViolation(f"node {i}: weights must be numbers")
            if len(weights) != len(kids):
                raise ContractViolation(f"node {i}: {len(kids)} children but {len(weights)} weights")
            n = int(weights[:1] == [1.0])  # 1 if the first child is a lead
            shared, rows = kids[n:], [weights]
        else:
            raise ContractViolation(f"node {i}: unknown kind {kind!r}")


def replay_many(polys, points, grads=False):
    """Values, and with ``grads`` gradients, of ``polys`` on an (m, n) array of points.

    A :func:`walk` with the construction kernels: every kernel call under
    ``polys`` runs once, whole, so a polynomial's values and gradients do
    not depend on the others asked for, and on the fit's points are the
    fit's, bitwise -- also the gradients of a values-only fit, which are
    those its kernel calls form with gradients.  Returns one ``(values,
    grads)`` pair per polynomial, shaped (m,), (m, n); ``grads`` is None
    without ``grads``.
    """
    X = PointSet(points)
    built = walk([p.prov for p in polys], const=lambda value: [constant_poly(value, X, grads)],
                 var=lambda index: [variable_poly(index, X, grads)], product=multiply,
                 combine=linear_combine)
    return [(p.eval, p.grad) for p in built]


@dataclass
class Basis:
    """Degree-stratified output of a fit.

    ``F[t]`` / ``G[t]`` hold the nonvanishing / vanishing polynomials of
    degree t; ``extents[t]`` holds the recorded ||g(X)|| for each member of
    ``G[t]`` in order.  ``chain`` is the fit's per-degree matrices and
    split lists (:class:`mavik.engine.Chain`), which ``engine.evaluate``
    runs on new points while ``F`` and ``G`` are those lists; a basis that
    no fit built (:meth:`from_flat`, a loaded or hand-built one) has None.
    """

    F: list = field(default_factory=list)
    G: list = field(default_factory=list)
    extents: list = field(default_factory=list)
    chain: object = field(default=None, repr=False, compare=False)

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
