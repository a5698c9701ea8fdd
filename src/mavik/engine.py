"""Degree-incremental basis construction with pluggable normalization.

Starting from a nonzero constant, each degree t generates candidate
polynomials as products of the degree-1 and degree-(t-1) nonvanishing
strata, removes the span of everything already built (orthogonal projection
of evaluation vectors), and solves a generalized symmetric eigenproblem

    C_t(X)^T C_t(X) V = N(C_t) V Lambda

whose normalization matrix N depends on the chosen mode: the identity
(plain VCA, passed as None), the Gram of coefficient vectors, or the Gram
of stacked per-point gradients.  Each surviving combination g = C_t v has
extent of vanishing ||g(X)|| (equal to sqrt(lambda), and computed directly
from the assembled evaluation vector for precision) and is classified as
vanishing iff the extent is <= epsilon.  Directions in the numerical nullspace of N
are dropped entirely: with the coefficient or gradient normalization these
are exactly the combinations with no polynomial content (or none visible
at the data), which is what keeps the basis free of spuriously vanishing
members.

Once the F strata below degree t hold |X| members they span R^|X|, and
every candidate of degree t vanishes whatever epsilon is.  Such a
*saturated* degree solves no eigenproblem: its G members are the projected
candidates themselves (vca) or the candidates combined by N's whitening,
N-orthonormal either way, and its spectrum is their squared extents.

Each degree is one step that never reads epsilon (candidates, projection,
Grams, eigensolve, combination), followed by the epsilon-dependent split,
size guards and termination rules, in the one loop of
:meth:`Fitter.degrees`.  That loop fills one :class:`~mavik.core.Basis`
and one :class:`FitReport` in place and yields the pair after each degree;
:func:`fit` returns the pair of the last degree, with the wall time set.
The step works on each F stratum's ``(values, gradients)`` block, with the
block functions :meth:`Chain.values` runs (:func:`_candidates`,
:func:`_combine`), and records the nodes core's kernels would: those
kernels run only replays of the DAG.

Only gradient normalization and the dimension rule read gradients.  A fit
in either starts from a constant that carries them, so every block carries
them; a vca or coeff fit without a dimension rule starts from a values-only
constant, so its polynomials are values-only (``Poly.grad`` is None).
Their gradients, if wanted, come from :func:`replay_many` with
``grads=True`` on the fit's points, which replays the fit's nodes with
gradients and gives, bitwise, what the fit would have formed.
:func:`evaluate` forms values only: a fitted basis whose lists are the
ones its fit split runs its :class:`Chain`, the fit's matrices, one block
per degree, and any other basis replays its provenance DAG; both give the
fit's values, bit for bit.  The chain's values read the
constant and each degree's W_t, V_t and F mask alone: the masks give the
strata sizes and W_2's width the degree-2 dedup, and its member lists only
tell :func:`evaluate` whether a basis still holds them.

In gradient mode the step is covariant under scaling of the points: its
zero floor grows like the extents, and its eigenproblem is solved on E and
N scaled by a power of two when E^T E would leave the float range (see
``ZERO_EXTENT_REL`` and :func:`_gradient_scale`).

:class:`Fitter` keeps every step it computes and every split of it, so
fits of one point set at several epsilons share every degree whose lower
degrees they split alike.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .coefficients import DEFAULT_TERM_CAP, coeff_gram
from .core import (Basis, PLin, PointSet, PProd, PVar, Rows, _combined_grads, _grads,
                   _product_rule, constant_poly, replay_many)
# The fit forms its blocks itself and calls none of these kernels; they stay
# importable here, where the benchmark's tracer wraps them.
from .core import linear_combine, multiply  # noqa: F401
from .errors import ContractViolation, InternalInvariantViolation
from .linalg import gen_eig_sym, numerical_rank, projection_weights, whitening
from .linalg import orthogonal_project  # noqa: F401  (not called by the fit, as above)

__all__ = [
    "NormalizationMode",
    "EngineConfig",
    "FitReport",
    "Fitter",
    "fit",
    "normalization_gram",
    "evaluate",
    "check_termination_dimension",
    "dimension_bounds",
]

# Rank cutoff used when estimating tangent-space dimensions from gradient
# stacks; independent of both epsilon and the whitening cutoff
# ``linalg.RANK_TOL``.
DIM_RANK_TOL = 1e-6

# Extents this far below the stratum's evaluation scale are floating-point
# zeros and always classified as vanishing, so that epsilon = 0 behaves like
# exact arithmetic instead of sending rounding noise into the nonvanishing
# side (where its near-zero norm would poison later projections).  The scale
# is the norm of the candidates before projection, since a floor taken from
# the projected ones would shrink with them.  Once the F strata hold |X|
# members they span R^|X|, every projected candidate is rounding residue, and
# the floor is infinite: all of them vanish.
#
# In gradient mode the floor is ZERO_EXTENT_REL * ||C_pre|| * max_j ||v_j||_1
# over the step's eigenvectors v_j.  Each projected candidate c_i carries a
# rounding error of a few ulps of ||C_pre|| (the projection only shrinks
# it), so g = C v = sum_i v_i c_i is off by at most about
# eps * ||C_pre|| * ||v||_1, which the factor 1e-12 ~ 4500 eps bounds with
# room.  Under points scaled by alpha, the candidates' values grow like
# alpha^2 and the N-normalized v like 1/alpha, so this floor grows like
# alpha, as the extents do; ||C_pre|| alone grows like alpha^2, and from
# about x1e10 it sends members of nonzero extent into G.  The other modes
# keep ||C_pre||, whose v are unit vectors or coefficient-normalized.
ZERO_EXTENT_REL = 1e-12

# A grad step's eigenproblem is solved on E and N scaled by powers of two
# when the candidates' gradient norm lies outside [2^-64, 2^64], where
# E^T E, which grows like the fourth power of the points' scale, would
# underflow or overflow; nearer 1 it is solved as it is (see
# :func:`_gradient_scale`).
_SCALE_FREE_EXPONENT = 64


@dataclass(frozen=True)
class NormalizationMode:
    """One of the three normalizations: ``vca``, ``coefficient``, ``gradient``.

    ``z`` is the positive constant dividing the gradient norm in gradient
    mode (ignored by the other modes).  The Gram divides by z², so z² must
    be a finite positive float.
    """

    kind: str
    z: float = 1.0

    def __post_init__(self):
        if self.kind not in ("vca", "coefficient", "gradient"):
            raise ContractViolation(f"unknown normalization mode {self.kind!r}")
        if not (self.z > 0 and 0 < self.z * self.z < math.inf):
            raise ContractViolation(
                f"z must be positive with a finite nonzero square, got {self.z!r}")

    @staticmethod
    def vca_baseline():
        return NormalizationMode("vca")

    @staticmethod
    def coefficient():
        return NormalizationMode("coefficient")

    @staticmethod
    def gradient(z=1.0):
        return NormalizationMode("gradient", z=float(z))


@dataclass(frozen=True)
class EngineConfig:
    epsilon: float
    mode: NormalizationMode
    m_constant: float | None = None  # None -> mode-dependent default
    max_degree: int | None = None  # None -> |X| safety cap
    d_max: int | None = None  # dimension rule; None or 0 disables
    d_min: int | None = None
    dedup_degree2: bool = True
    term_cap: int = DEFAULT_TERM_CAP

    def echo(self):
        """Every field, with ``mode`` as its kind and the mode's ``z`` beside it."""
        # A dataclass instance's dict holds its fields, in field order.
        return {**vars(self), "mode": self.mode.kind, "z": self.mode.z}


@dataclass
class FitReport:
    """Run record: counts, spectra, termination and configuration echo.

    ``spectra`` holds the per-degree generalized eigenvalues; ``extents``
    holds the per-degree evaluation norms of the retained polynomials (the
    values actually compared against epsilon -- they agree with
    sqrt(eigenvalue) up to the Gram matrix's numerical resolution but stay
    accurate far below it).  A saturated degree (see :func:`_degree_step`)
    solves no eigenproblem: its G members are the candidates, or their
    combinations by N's whitening, and its ``spectra`` entry holds the
    squared extents, whose square roots are its ``extents`` bit for bit.
    """

    config: dict
    n: int
    n_points: int
    m_constant: float
    f_counts: list = field(default_factory=list)
    g_counts: list = field(default_factory=list)
    spectra: list = field(default_factory=list)  # per-degree eigenvalues, t >= 1
    extents: list = field(default_factory=list)  # per-degree classification norms
    termination: str = ""
    wall_time_s: float = 0.0

    @property
    def g_total(self):
        return sum(self.g_counts)

    @property
    def f_total(self):
        return sum(self.f_counts)


def default_m_constant(pointset, mode):
    """Mode-dependent constant polynomial value, chosen for cross-mode
    comparability: unit evaluation-vector norm for plain VCA, unit
    coefficient for coefficient mode, and the mean max-norm of the points
    (which scales linearly with the data) for gradient mode."""
    if mode.kind == "vca":
        return 1.0 / math.sqrt(len(pointset))
    if mode.kind == "coefficient":
        return 1.0
    m = float(np.mean(np.max(np.abs(pointset.points), axis=1)))
    return m if m > 0 else 1.0


def normalization_gram(cands, mode, term_cap=DEFAULT_TERM_CAP, memo=None):
    """Normalization matrix N for a candidate stratum under ``mode``.

    vca has no N to form and gives None, which stands for the identity.  In
    gradient mode N = R R^T / z^2, where row i of R is candidate i's
    (|X|, n) gradient block flattened: the C-contiguous (k, |X| n) reshape
    of the block core's ``_grads`` reads, so the product is one BLAS syrk,
    which writes one triangle and mirrors it, and N is exactly symmetric.
    ``memo`` is the coefficient rows' walk memo of coefficient mode (see
    :func:`mavik.coefficients.coeff_gram`); the other modes ignore it.
    """
    if mode.kind == "vca":
        return None
    if mode.kind == "coefficient":
        return coeff_gram(cands, term_cap=term_cap, memo=memo)
    R = _grads(cands).reshape(len(cands), -1)
    return (R @ R.T) / (mode.z**2)


def dimension_bounds(grads, X):
    """(d_min, d_max) of the variety cut out by polynomials on ``X``.

    ``grads`` holds the polynomials' (|X|, n) gradients, as a list or one
    (k, |X|, n) array.  Per point, the numerical rank of the stacked
    gradients is the codimension of the tangent space.  A stack counts as
    zero when its Frobenius norm is negligible relative to the largest
    stack over all points, and then has rank 0.  d_min is n minus the largest rank over
    all points; d_max is n minus the smallest rank over points with a
    nonzero stack, or n when every stack vanishes.  Hence d_min < n exactly
    when some point has a nonzero stack.  No polynomials give (n, n).
    """
    n = X.n
    if not len(grads):
        return n, n
    stacks = np.asarray(grads, dtype=float)  # (|G|, |X|, n)
    fro = np.sqrt(np.sum(stacks**2, axis=(0, 2)))
    fmax = float(fro.max())
    nonzero = fro > DIM_RANK_TOL * fmax if fmax > 0 else np.zeros(len(X), dtype=bool)
    ranks = np.where(nonzero, numerical_rank(stacks.transpose(1, 0, 2), DIM_RANK_TOL), 0)
    d_min = n - int(ranks.max())
    d_max = n - int(ranks[nonzero].min()) if np.any(nonzero) else n
    return d_min, d_max


def _dimension_rule(config):
    """Whether ``config`` sets a dimension rule (a nonzero d_max or d_min)."""
    return bool(config.d_max) or bool(config.d_min)


def check_termination_dimension(g_polys, X, d_max=None, d_min=None):
    """Dimension-based stopping rule from per-point tangent-space codimension.

    Fires when the estimated variety dimension (:func:`dimension_bounds`)
    has been pushed down to the requested target: with ``d_max`` set, once
    n - rank <= d_max at every point with a nonzero gradient stack (and
    some point has one); with ``d_min`` set, once n - rank <= d_min at some
    point.  A target of 0 (or None) disables the corresponding rule so the
    full basis is computed.
    """
    d_max = None if not d_max else int(d_max)
    d_min = None if not d_min else int(d_min)
    if (d_max is None and d_min is None) or not g_polys:
        return False
    lo, hi = dimension_bounds(_grads(g_polys), X)
    if d_max is not None and lo < X.n and hi <= d_max:
        return True
    return d_min is not None and lo <= d_min


def _verify_size_bounds(f_total, t, n, m):
    # F evaluations are nonzero and mutually orthogonal in R^m.
    if f_total > m:
        raise InternalInvariantViolation(
            f"|F^({t})| = {f_total} exceeds |X| = {m}; "
            "nonvanishing evaluations are no longer orthogonal"
        )
    if f_total > math.comb(n + t, n):
        raise InternalInvariantViolation(
            f"|F^({t})| = {f_total} exceeds C({n}+{t},{n}); "
            "nonvanishing strata are no longer independent"
        )


def _verify_gradient_norms(grads, z):
    # One norm per retained polynomial over its whole (|X|, n) gradient
    # block; a NaN norm fails the test as well.
    norms = np.sqrt(np.einsum("ixk,ixk->i", grads, grads))
    bad = ~((0.5 * z <= norms) & (norms <= 2.0 * z))
    if bad.any():
        raise InternalInvariantViolation(
            f"retained polynomial has gradient norm {norms[bad][0]:0.3e}, "
            f"expected {z:0.3e}; normalization is broken"
        )


def _squared_norms(ev):
    """v . v of every row v of the (r, m) block ``ev``, by one batched product.

    Each row's product is the dot product ``v.dot(v)`` forms, bit for bit.
    """
    return (ev[:, None, :] @ ev[:, :, None]).ravel()


def _candidates(F1, Fp, rows=None):
    """Degree t's candidates from F_1's and F_(t-1)'s ``(values, gradients)`` blocks.

    Every product of an F_1 row with an F_(t-1) row, F_1 major, by one
    broadcast through ``core._product_rule`` (gradients when both blocks
    carry them), or only the products ``rows`` (:func:`_factor_pairs`):
    each the product core's pairwise ``multiply`` forms, bit for bit.
    """
    (p_ev, p_gr), (q_ev, q_gr) = F1, Fp
    ev, gr = _product_rule(p_ev[:, None], None if p_gr is None else p_gr[:, None],
                           q_ev[None], None if q_gr is None else q_gr[None])
    if rows is None:
        return ev, gr
    return ev[rows], None if gr is None else gr[rows]


@lru_cache(maxsize=1024)
def _factor_pairs(k, kp, dedup):
    """``(lefts, rights, rows)`` of the candidates from |F_1| = k, |F_(t-1)| = kp.

    Candidate c is F_1[lefts[c]] * F_(t-1)[rights[c]].  ``rows`` is None
    for all k kp products, and under degree 2's dedup the read-only rows
    i k + j, j >= i, that it keeps of them.  Cached, so every part is
    immutable.
    """
    pairs = [(i, j) for i in range(k) for j in range(i if dedup else 0, kp)]
    rows = None
    if dedup:
        rows = np.array([i * kp + j for i, j in pairs], dtype=np.intp)
        rows.setflags(write=False)
    return tuple(i for i, _ in pairs), tuple(j for _, j in pairs), rows


def _combine(W, block, lead=None):
    """W^T times the ``[values, gradients]`` list ``block``, plus the ``lead`` pair.

    ``linear_combine``'s products on blocks (``core._combined_grads`` for
    the gradients, None where the block or the lead has none), with the
    lead added in place: with C-order operands, its rows bit for bit.  The
    list is emptied, each block dropped once its product is formed, as
    ``linear_combine`` drops a stacked list.  Returns a ``(values,
    gradients)`` pair.
    """
    ev = W.T @ block.pop(0)
    gr = _combined_grads(W, block.pop())
    if lead is None:
        return ev, gr
    ev += lead[0]
    if gr is None or lead[1] is None:
        return ev, None
    gr += lead[1]
    return ev, gr


@dataclass
class _Split:
    """One degree's F/G split, kept on its step in the :class:`Fitter` tree.

    ``keep`` is the read-only F mask, ``F``/``G`` the member lists and
    ``extents`` G's extents, which fits copy before handing them out.
    ``block`` is F_t's ``(values, gradients)`` block, a view of the step's
    members when the mask is a prefix (every fitted mask is), and
    ``provs`` its provenance pairs; ``next`` is degree t + 1's step.
    """

    keep: np.ndarray | None
    F: list
    G: list
    extents: np.ndarray
    block: tuple
    provs: list
    next: _Step | None = None


@dataclass
class _Step:
    """One degree of the construction before its F/G split.

    ``members`` are the combinations the normalization retains, in
    eigenvalue order (at a saturated degree, in candidate or whitening
    order), as one :class:`~mavik.core.Rows`; ``extents`` their evaluation
    norms, ``values`` the generalized eigenvalues (at a saturated degree,
    the squared extents) and ``zero_floor`` the extent below which a
    combination is a floating-point zero.  ``weights`` is the projection's
    weight matrix W_t (|F_<t| x k_t) and ``vectors`` the combination's V_t
    (k_t x r_t), None at a saturated vca degree, whose members are the
    projected candidates themselves: the read-only arrays of the two
    ``PLin`` nodes.  ``splits`` holds a :class:`_Split` per retained count,
    which fixes the mask: F takes the members whose extents exceed the
    threshold.
    """

    members: Rows
    extents: np.ndarray
    values: np.ndarray
    zero_floor: float
    weights: np.ndarray
    vectors: np.ndarray | None
    splits: dict = field(default_factory=dict)

    def __post_init__(self):
        # np.sort puts NaN extents, never above a threshold, last: drop them.
        self._ascending = np.sort(self.extents).tolist()
        while self._ascending and math.isnan(self._ascending[-1]):
            self._ascending.pop()

    def split(self, eps):
        """The split at ``eps``, made on first use and kept per retained count."""
        threshold = max(eps, self.zero_floor)
        f = len(self._ascending) - bisect_right(self._ascending, threshold)
        if f not in self.splits:
            members, keep = self.members, self.extents > threshold
            keep.setflags(write=False)
            if keep[:f].all():  # a prefix: F_t's block is a view
                rows, F, G = slice(f), members[:f], members[f:]
            else:
                rows, flags = keep, keep.tolist()
                F = [p for p, k in zip(members, flags) if k]
                G = [p for p, k in zip(members, flags) if not k]
            block = members.evals[rows], None if members.grads is None else members.grads[rows]
            self.splits[f] = _Split(keep, F, G, self.extents[~keep], block, [p.prov for p in F])
        return self.splits[f]


@dataclass
class Chain:
    """A fit's per-degree matrices, which :func:`evaluate` runs on new points.

    ``const`` is the constant's value and ``degrees[t - 1]`` degree t's
    ``(W, V, keep)``: the projection weights W_t and the combination V_t of
    its :class:`_Step` (the provenance nodes' own arrays, so the chain
    copies nothing) and its F mask.  These fix the values: the masks give
    the strata sizes, and degree t's candidates are every product of an
    F_1 member with an F_(t-1) member, F_1 major, at degree 2 under the
    dedup only those from the same position on, as W_2's width tells:
    k(k+1)/2 columns for k = |F_1| against k² (one either way at k = 1).
    ``F`` and ``G`` copy the lists the fit split, constant included, and
    serve only :func:`evaluate`'s check that a basis still holds them.
    The fit and :meth:`values` run the same per-degree block functions,
    :func:`_candidates` and :func:`_combine`.
    """

    const: float
    F: list
    G: list
    degrees: list = field(default_factory=list)

    def values(self, pts):
        """The (r, m) block of the basis's values on the finite (m, n) ``pts``.

        Its rows are the F strata, then the G strata, each in stratum order.
        Per degree: the candidates (:func:`_candidates` of F_1's block and
        F_(t-1)'s), the projection ``C_t + W_t^T F_<t`` and the combination
        ``V_t^T P_t`` (:func:`_combine`), and the split by the mask.  Every
        block has the values and the C layout of the fit's, so BLAS returns
        its bits; F_<t is a leading slice of the block.
        """
        m = len(pts)
        # F_t is out[f_ends[t - 1]:f_ends[t]], G_t out[g_ends[t - 1]:g_ends[t]]
        f_ends = list(accumulate((np.count_nonzero(k) for *_, k in self.degrees), initial=1))
        g_sizes = (len(k) - np.count_nonzero(k) for *_, k in self.degrees)
        g_ends = list(accumulate(g_sizes, initial=f_ends[-1]))
        out = np.empty((g_ends[-1], m))
        out[0] = self.const
        for t, (W, V, keep) in enumerate(self.degrees, 1):
            if t == 1:
                C = np.ascontiguousarray(pts.T), None
            else:
                F1, Fp = out[1:f_ends[1]], out[f_ends[t - 2]:f_ends[t - 1]]
                dedup = W.shape[1] < len(F1) * len(Fp)  # degree 2 with the dedup
                C = _candidates((F1, None), (Fp, None), _factor_pairs(len(F1), len(Fp), dedup)[2])
            members = _combine(W, [out[:f_ends[t - 1]], None], lead=C)
            if V is not None:
                members = _combine(V, list(members))
            out[f_ends[t - 1]:f_ends[t]] = members[0][keep]
            out[g_ends[t - 1]:g_ends[t]] = members[0][~keep]
        return out


def _gradient_scale(N, z):
    """The power of two c by which a grad step scales its evaluations.

    c = 2^-e for e the binary exponent of the candidates' gradient norm
    z sqrt(trace N), so that E c, N c² and the eigenvectors' V c are exact
    and E^T E c² stays in range; 1.0 while |e| <= ``_SCALE_FREE_EXPONENT``,
    and also when trace N is zero, subnormal or infinite or c² would not be
    a normal float, where nothing exact can be gained.
    """
    trace = float(N.trace())
    if not np.finfo(float).tiny <= trace < math.inf:
        return 1.0
    e = math.frexp(z * math.sqrt(trace))[1]
    return math.ldexp(1.0, -e) if _SCALE_FREE_EXPONENT < abs(e) <= 511 else 1.0


def _degree_step(X, config, path, coeff_memo):
    """Build degree t = ``len(path)`` from the splits ``path`` of degrees 0 to t - 1.

    On the splits' F blocks, gradients included where they carry them: the
    candidates C_t (the coordinates at degree 1), the weights W_t of
    :func:`~mavik.linalg.projection_weights` against the F_<t block, the
    projected candidates ``P_t = C_t + W_t^T F_<t`` and the members ``V_t^T
    P_t`` (:func:`_combine`); F_<t and C_t are dropped once P_t is formed.
    Two Grams and a generalized eigensolve pick V_t; both Grams (vca has no
    N) are single syrk products and come out exactly symmetric.  Nothing
    here reads epsilon.  ``coeff_memo`` is the coefficient rows' walk memo
    of the fit's tree of steps.

    The step records the nodes core's kernels would: a ``PProd`` of the
    candidates' factors, a ``PLin`` of the projection (F_<t as children,
    W_t, the candidates as leads) and a ``PLin`` of the combination (V_t),
    whose replays give the fit's values and gradients bit for bit.  Every
    member has degree t, as ``linear_combine`` gives a nonzero column.  The
    projected candidates and the members are :class:`~mavik.core.Rows`, so
    the only :class:`~mavik.core.Poly` rows made are the members', when a
    split reads them.

    A *saturated* degree is one whose lower F strata hold |X| members.
    They then span R^|X|, every projected candidate is rounding residue,
    and every combination vanishes whatever epsilon is, so there is nothing
    for an eigensolve of A to choose: the step forms no A.  Its members
    are the projected candidates themselves in vca, which has no N, and
    otherwise the candidates combined by N's whitening
    (:func:`~mavik.linalg.whitening`), which are N-orthonormal as the
    eigenvectors are.  Its ``values`` are the squared extents.
    """
    t, m, n = len(path), len(X), X.n
    with_grads = path[0].block[1] is not None
    if t == 1:
        gr = None
        if with_grads:  # the coordinates' gradients, unit vectors
            gr = np.zeros((n, m, n))
            gr[np.arange(n), :, np.arange(n)] = 1.0
        C = np.ascontiguousarray(X.points.T), gr
        leads = [(PVar(k), 0) for k in range(n)]
    else:
        F1, Fp = path[1], path[t - 1]
        lefts, rights, rows = _factor_pairs(len(F1.provs), len(Fp.provs),
                                            t == 2 and config.dedup_degree2)
        C = _candidates(F1.block, Fp.block, rows)
        product = PProd([F1.provs[i] for i in lefts], [Fp.provs[j] for j in rights])
        leads = [(product, c) for c in range(len(lefts))]
    # Every entry of the evaluation Gram is bounded by the square of this norm.
    with np.errstate(over="ignore"):
        scale = float(np.linalg.norm(C[0]))
    if not math.isfinite(scale * scale):
        raise ContractViolation(f"degree-{t} evaluations overflow float64; rescale the points")
    below = [np.concatenate([s.block[0] for s in path]),
             np.concatenate([s.block[1] for s in path]) if with_grads else None]
    W = projection_weights(below[0], C[0])
    P = _combine(W, below, lead=C)  # empties below
    del C
    W.setflags(write=False)
    children = [prov for s in path for prov in s.provs]
    cands = Rows([t] * len(leads), *P, PLin(children, W, leads), X)
    N = normalization_gram(cands, config.mode, term_cap=config.term_cap, memo=coeff_memo)
    saturated = len(children) == m
    grad = config.mode.kind == "gradient"
    if saturated:
        V = None if N is None else whitening(N)
    else:
        # The (|X|, k) C-contiguous layout makes E^T E one syrk.
        E = np.ascontiguousarray(cands.evals.T)
        c = _gradient_scale(N, config.mode.z) if grad else 1.0
        if c != 1.0:  # A V = N V Lambda for V = V' c, where A c² V' = N c² V' Lambda
            E, N = E * c, N * (c * c)
        res = gen_eig_sym(E.T @ E, N)
        V = res.vectors if c == 1.0 else res.vectors * c
    if V is None:
        members = cands
    else:
        V = np.ascontiguousarray(V)  # the layout replay gives the node's weights
        V.setflags(write=False)
        members = Rows([t] * V.shape[1], *_combine(V, [cands.evals, cands.grads]),
                       PLin(cands.provs, V, []), X)
    if grad:
        _verify_gradient_norms(members.grads, config.mode.z)

    # Extents taken directly from the assembled evaluation vectors: the
    # Gram eigenvalues can only resolve extents down to sqrt(eps)*scale.
    squares = _squared_norms(members.evals)
    norms = np.sqrt(squares)
    if saturated:
        return _Step(members, norms, squares, math.inf, W, V)
    floor = ZERO_EXTENT_REL * scale
    if grad:  # in the units of the extents (see ZERO_EXTENT_REL)
        floor *= float(np.abs(V).sum(axis=0).max(initial=0.0))
    return _Step(members, norms, res.values, floor, W, V)


class Fitter:
    """Fits of one point set that share their per-degree steps.

    Degree t depends on epsilon only through the F masks (which retained
    combinations went to F) of the degrees below it.  A fitter keeps every
    step it computes in a tree: a :class:`_Step` keeps its splits by
    retained count, and a :class:`_Split` its lists, F block and the next
    degree's step.  A fit computes a step only where its path leaves the
    tree, and walks a kept degree with no numpy compare and no list
    comprehension; memory is bounded by the steps already computed.  In
    coefficient mode it keeps every provenance node's coefficient rows
    beside the steps, so each degree's Gram expands only the nodes no
    earlier Gram reached; the rows belong to nodes the kept steps hold, so
    memory is still bounded by the nodes built.  A
    configuration that differs in more than epsilon starts a new tree.
    Every fit returns what a fresh :func:`fit` returns, bitwise: the kept
    steps are the ones a fresh fit would compute.  The fit's loop is the
    generator :meth:`degrees`, which yields the fit's ``(Basis,
    FitReport)`` after each degree, so a caller that needs only the lower
    degrees (the retrieval scan) stops it there; :meth:`fit` runs it to the
    end.
    """

    def __init__(self, X):
        if len(X) < 1:
            raise ContractViolation("point set is empty")
        self.X = X
        self._key = None  # the fields of the kept steps' configuration, epsilon aside

    def _start(self, config):
        """Check ``config``, epsilon aside, and drop the kept steps and rows."""
        X = self.X
        for name, d in (("d_max", config.d_max), ("d_min", config.d_min)):
            if d is not None and not 0 <= d <= X.n:
                raise ContractViolation(f"{name} must lie in [0, n]")
        if config.term_cap < 1:
            raise ContractViolation(f"term_cap must be at least 1, got {config.term_cap!r}")
        m_const = (
            float(config.m_constant)
            if config.m_constant is not None
            else default_m_constant(X, config.mode)
        )
        # m²|X|, the constant's evaluation Gram entry, divides its projection.
        # The default's is at most the points' squared norm, whose overflow
        # the degree-1 step reports, so only a given constant's can overflow.
        norm2 = m_const * m_const * len(X)
        if norm2 < np.finfo(float).tiny or (config.m_constant is not None and not norm2 < math.inf):
            hint = "; rescale the points" if config.m_constant is None else ""
            raise ContractViolation(f"m_constant {m_const!r} gives m^2 |X| = {norm2!r}, "
                                    f"outside the normal float64 range{hint}")
        max_degree = config.max_degree if config.max_degree is not None else len(X)
        if max_degree < 1:
            raise ContractViolation("max_degree must be at least 1")
        # The constant is shared with the kept steps' provenance, so it is
        # kept with them: a saved basis then lists it once.  Its gradients,
        # formed only where something reads them, decide every kernel's.
        grads = config.mode.kind == "gradient" or _dimension_rule(config)
        const = self._const = constant_poly(m_const, X, grads)
        self._m_const, self._max_degree = m_const, max_degree
        # Degree 0's split, the root of the tree: its next step is degree 1.
        self._root = _Split(None, [const], [], np.zeros(0),
                            (const.eval[None], None if const.grad is None else const.grad[None]),
                            [const.prov])
        self._coeff_memo = {}  # provenance node -> coefficient rows, in coefficient mode

    def degrees(self, config):
        """Run the basis construction at ``config`` one degree at a time.

        A generator: after each degree t it yields ``(basis, report)``, the
        same :class:`~mavik.core.Basis` and :class:`FitReport` each time,
        updated in place to hold degrees 0 to t; ``report.wall_time_s``
        stays 0 until :meth:`fit` sets it.  Per degree it looks up or
        computes the step, splits it into F and G by epsilon, records the
        degree in ``basis.chain`` (every yielded basis holds its chain),
        checks the size bounds and tests the termination rules.  Once a
        rule fires it sets ``report.termination``, checks the |G| bound of a finished
        fit, yields, and stops.  A caller that stops iterating after degree
        t has run exactly the checks of degrees 1 to t, and holds the lists
        of a ``max_degree=t`` fit.
        """
        X = self.X
        eps = float(config.epsilon)
        if not math.isfinite(eps):
            raise ContractViolation("epsilon must be finite")
        if eps < 0:
            raise ContractViolation("epsilon must be nonnegative")
        key = {**vars(config), "epsilon": None}
        if key != self._key:
            self._start(config)
            self._key = key
        n, m = X.n, len(X)
        dimension_rule = _dimension_rule(config)
        # The n(|X|-n) output bound holds once the point count reaches the
        # quadratic saturation threshold C(n+2, n); below it, genuine
        # vanishing quadrics exist and legitimate bases can exceed the bound
        # (e.g. 10 generic points in R^4 give |G| = 25 > 24), so the guard
        # is scoped.
        scoped = config.mode.kind in ("coefficient", "gradient") and m > n
        g_bound = n * (m - n) if scoped and m >= math.comb(n + 2, n) else math.inf

        chain = Chain(self._m_const, F=[[self._const]], G=[[]])
        basis = Basis(F=[[self._const]], G=[[]], extents=[np.zeros(0)], chain=chain)
        report = FitReport(config=config.echo(), n=n, n_points=m, m_constant=self._m_const,
                           f_counts=[1], g_counts=[0])
        F, G = basis.F, basis.G
        path = [self._root]  # the splits of degrees 0 to t - 1
        while not report.termination:
            t = len(path)
            if path[-1].next is None:
                path[-1].next = _degree_step(X, config, path, self._coeff_memo)
            step = path[-1].next
            split = step.split(eps)
            path.append(split)
            chain.F.append(split.F[:])
            chain.G.append(split.G[:])
            chain.degrees.append((step.weights, step.vectors, split.keep))
            F.append(split.F[:])
            G.append(split.G[:])
            basis.extents.append(split.extents.copy())
            report.f_counts.append(len(split.F))
            report.g_counts.append(len(split.G))
            report.spectra.append(step.values)
            report.extents.append(step.extents)
            _verify_size_bounds(report.f_total, t, n, m)

            if not F[t]:
                report.termination = "f-empty"
            elif t >= self._max_degree:
                report.termination = "max-degree"
            elif dimension_rule and check_termination_dimension(
                basis.g_polys(), X, config.d_max, config.d_min
            ):
                report.termination = "dimension-rule"
            if report.termination and report.g_total > g_bound:
                raise InternalInvariantViolation(
                    f"|G| = {report.g_total} exceeds n(|X|-n) = {n * (m - n)}"
                )
            yield basis, report

    def fit(self, config):
        """Run the basis construction at ``config``; returns (Basis, FitReport).

        The pair :meth:`degrees` yields last, with ``report.wall_time_s``
        set.  The loop is deterministic: candidate order is fixed,
        eigenvalues are sorted descending with stable tie-breaks, and
        eigenvector signs are pinned, so repeated runs on one platform are
        bitwise identical.
        """
        t_start = time.perf_counter()
        for basis, report in self.degrees(config):
            pass
        report.wall_time_s = time.perf_counter() - t_start
        return basis, report


def fit(X, config):
    """Run the basis construction on ``X``; returns (Basis, FitReport).

    Each degree runs as one step on whole-stratum blocks
    (:func:`_degree_step`), then splits its combinations into F and G by
    epsilon; see :meth:`Fitter.degrees`, whose loop this is and whose last
    yielded pair this returns, with ``report.wall_time_s`` set.
    """
    return Fitter(X).fit(config)


def evaluate(basis, X_new):
    """Values of every basis polynomial on new points.

    Returns (F_matrix, G_matrix) whose columns follow the degree-stratified
    order of the basis: the stored evaluation vectors when ``X_new`` is the
    basis's point set (a basis loaded on those points, or the training
    set).  On other points a fitted basis runs its :class:`Chain`, one
    block per degree, when its F and G lists are the chain's, member for
    member (by identity: ``Poly`` has no ``==``); any other basis (a
    loaded, hand-built, ``from_flat`` or edited one) is replayed through
    its provenance DAG (:func:`replay_many`).  Both give the fit's kernel
    calls' values, bit for bit.  ``X_new`` is checked as :class:`PointSet`
    checks points, whichever way it goes: points that are empty,
    non-finite, not 2-d or not in the training n, or so far beyond the
    training scale that a value overflows float64, raise
    ``ContractViolation``.
    """
    f_polys = basis.f_polys()
    polys = f_polys + basis.g_polys()
    if X_new is basis.pointset:
        E = np.column_stack([p.eval for p in polys])
    else:
        pts = (X_new if isinstance(X_new, PointSet) else PointSet(X_new)).points
        if pts.shape[1] != basis.n:
            raise ContractViolation("new points must be m x n with the training n")
        chain = basis.chain
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
            if chain is not None and basis.F == chain.F and basis.G == chain.G:
                E = np.ascontiguousarray(chain.values(pts).T)
            else:
                E = np.column_stack([ev for ev, _ in replay_many(polys, pts)])
    if not np.isfinite(E).all():
        raise ContractViolation("evaluations overflow float64 on these points; rescale the points")
    return E[:, : len(f_polys)], E[:, len(f_polys) :]
