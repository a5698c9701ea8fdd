"""Degree-incremental basis construction with pluggable normalization.

Starting from a nonzero constant, each degree t generates candidate
polynomials as products of the degree-1 and degree-(t-1) nonvanishing
strata, removes the span of everything already built (orthogonal projection
of evaluation vectors), and solves a generalized symmetric eigenproblem

    C_t(X)^T C_t(X) V = N(C_t) V Lambda

whose normalization matrix N depends on the chosen mode: the identity
(plain VCA), the Gram of coefficient vectors, or the Gram of stacked
per-point gradients.  Each surviving combination g = C_t v has extent of
vanishing ||g(X)|| (equal to sqrt(lambda), and computed directly from the
assembled evaluation vector for precision) and is classified as vanishing
iff the extent is <= epsilon.  Directions in the numerical nullspace of N
are dropped entirely: with the coefficient or gradient normalization these
are exactly the combinations with no polynomial content (or none visible
at the data), which is what keeps the basis free of spuriously vanishing
members.

Each degree is one step that never reads epsilon (candidates, projection,
Grams, eigensolve, combination), followed by the epsilon-dependent split,
size guards and termination rules.

Only gradient normalization and the dimension rule read gradients.  A fit
in either starts from a constant that carries them, so every kernel forms
them; a vca or coeff fit without a dimension rule starts from a values-only
constant, so its polynomials are values-only (``Poly.grad`` is None).
Their gradients, if wanted, come from :func:`replay_many` with
``grads=True`` on the fit's points, which re-runs the fit's kernel calls
with gradients and gives, bitwise, what the fit would have formed.
:func:`evaluate` replays values only.

:class:`Fitter` keeps every step it computes, so fits of one point set at
several epsilons share every degree whose lower degrees they split alike.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .coefficients import DEFAULT_TERM_CAP, coeff_gram
from .core import (Basis, _evals, _grads, constant_poly, linear_combine, multiply, replay_many,
                   variables)
from .errors import ContractViolation, InternalInvariantViolation
from .linalg import gen_eig_sym, numerical_rank, orthogonal_project

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
ZERO_EXTENT_REL = 1e-12


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
    accurate far below it).
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

    In gradient mode N = R R^T / z^2, where row i of R is candidate i's
    (|X|, n) gradient block flattened: the C-contiguous (k, |X| n) reshape
    of the block core's ``_grads`` reads, so the product is one BLAS syrk,
    which writes one triangle and mirrors it, and N is exactly symmetric.
    ``memo`` is the coefficient rows' walk memo of coefficient mode (see
    :func:`mavik.coefficients.coeff_gram`); the other modes ignore it.
    """
    k = len(cands)
    if mode.kind == "vca":
        return np.eye(k)
    if mode.kind == "coefficient":
        return coeff_gram(cands, term_cap=term_cap, memo=memo)
    R = _grads(cands).reshape(k, -1)
    return (R @ R.T) / (mode.z**2)


def _candidate_products(f1, f_prev, dedup_pairs):
    """All degree-t candidates x f, built by one stratum-level ``multiply``.

    Pairs run over ``f1`` in order, each with every member of ``f_prev``
    (or, with ``dedup_pairs``, only members from the same position on).
    """
    lefts, rights = [], []
    for i, p in enumerate(f1):
        for q in f_prev[i:] if dedup_pairs else f_prev:
            lefts.append(p)
            rights.append(q)
    return multiply(lefts, rights)


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


@dataclass(frozen=True)
class _Step:
    """One degree of the construction before its F/G split.

    ``polys`` are the combinations the normalization retains, in eigenvalue
    order; ``extents`` their evaluation norms, ``values`` the generalized
    eigenvalues and ``zero_floor`` the extent below which a combination is
    a floating-point zero.
    """

    polys: list
    extents: np.ndarray
    values: np.ndarray
    zero_floor: float


def _degree_step(X, config, F, t, coeff_memo):
    """Build degree t from the nonvanishing strata ``F[0..t-1]``.

    One ``multiply`` builds all candidate products, one
    ``orthogonal_project`` removes the earlier strata from them, two Grams
    and a generalized eigensolve pick the combinations, and one
    ``linear_combine`` with the eigenvector matrix builds them.  Each
    kernel's :class:`~mavik.core.Rows` feeds the next one and the Grams
    through core's block readers, which stack only the plain lists (the
    variables, the flattened F strata) one block at a time.  No kernel
    reads a candidate as a :class:`~mavik.core.Poly`, so the only rows ever
    made are the retained combinations', when the caller splits them into
    F and G.  Both Grams are single syrk products and come out exactly
    symmetric.  Nothing here reads epsilon.  ``coeff_memo`` is the
    coefficient rows' walk memo of the fit's tree of steps.
    """
    if t == 1:
        cands_pre = variables(X)
    else:
        cands_pre = _candidate_products(
            F[1], F[t - 1], dedup_pairs=(t == 2 and config.dedup_degree2)
        )
    # Every entry of the evaluation Gram is bounded by the square of this norm.
    with np.errstate(over="ignore"):
        scale = float(np.linalg.norm(_evals(cands_pre)))
    if not math.isfinite(scale * scale):
        raise ContractViolation(f"degree-{t} evaluations overflow float64; rescale the points")
    f_flat = [f for stratum in F for f in stratum]
    cands = orthogonal_project(cands_pre, f_flat)

    # The (|X|, k) C-contiguous layout makes E^T E one syrk.
    E = np.ascontiguousarray(_evals(cands).T)
    A = E.T @ E
    N = normalization_gram(cands, config.mode, term_cap=config.term_cap, memo=coeff_memo)
    res = gen_eig_sym(A, N)

    new_polys = linear_combine(cands, res.vectors)
    if config.mode.kind == "gradient":
        _verify_gradient_norms(new_polys.grads, config.mode.z)

    # Extents taken directly from the assembled evaluation vectors: the
    # Gram eigenvalues can only resolve extents down to sqrt(eps)*scale.
    norms = np.array([math.sqrt(v.dot(v)) for v in new_polys.evals])
    zero_floor = math.inf if len(f_flat) == len(X) else ZERO_EXTENT_REL * scale
    return _Step(new_polys, norms, res.values, zero_floor)


class Fitter:
    """Fits of one point set that share their per-degree steps.

    Degree t depends on epsilon only through the F masks (which retained
    combinations went to F) of the degrees below it.  A fitter keeps every
    step it computes in a tree keyed by mask history, a node being ``(step,
    {F mask of this degree: next node})``, so a fit computes a step only
    where its path leaves the tree, and memory is bounded by the steps
    already computed.  In coefficient mode it keeps every provenance node's
    coefficient rows beside the steps, so each degree's Gram expands only
    the nodes no earlier Gram reached; the rows belong to nodes the kept
    steps hold, so memory is still bounded by the nodes built.  A
    configuration that differs in more than epsilon starts a new tree.
    Every fit returns what a fresh :func:`fit` returns, bitwise: the kept
    steps are the ones a fresh fit would compute.
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
        m_const = (
            float(config.m_constant)
            if config.m_constant is not None
            else default_m_constant(X, config.mode)
        )
        if m_const == 0:
            raise ContractViolation("m_constant must be nonzero")
        max_degree = config.max_degree if config.max_degree is not None else len(X)
        if max_degree < 1:
            raise ContractViolation("max_degree must be at least 1")
        # The constant is shared with the kept steps' provenance, so it is
        # kept with them: a saved basis then lists it once.  Its gradients,
        # formed only where something reads them, decide every kernel's.
        grads = config.mode.kind == "gradient" or _dimension_rule(config)
        self._const = constant_poly(m_const, X, grads)
        self._m_const, self._max_degree = m_const, max_degree
        self._tree = {}  # {(): the degree-1 node}
        self._coeff_memo = {}  # provenance node -> coefficient rows, in coefficient mode

    def fit(self, config):
        """Run the basis construction at ``config``; returns (Basis, FitReport).

        The loop is deterministic: candidate order is fixed, eigenvalues
        are sorted descending with stable tie-breaks, and eigenvector signs
        are pinned, so repeated runs on one platform are bitwise identical.
        """
        t_start = time.perf_counter()
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
        max_degree = self._max_degree
        dimension_rule = _dimension_rule(config)

        F = [[self._const]]
        G = [[]]
        extents = [np.zeros(0)]
        spectra = []
        extent_arrays = []
        termination = None
        t = 0
        f_total = 1
        children, mask = self._tree, ()
        while termination is None:
            t += 1
            if mask not in children:
                children[mask] = (_degree_step(X, config, F, t, self._coeff_memo), {})
            step, children = children[mask]
            keep = step.extents > max(eps, step.zero_floor)
            mask = tuple(keep.tolist())
            F.append([p for p, k in zip(step.polys, mask) if k])
            G.append([p for p, k in zip(step.polys, mask) if not k])
            extents.append(step.extents[~keep])
            spectra.append(step.values)
            extent_arrays.append(step.extents)
            f_total += len(F[t])
            _verify_size_bounds(f_total, t, n, m)

            if not F[t]:
                termination = "f-empty"
            elif t >= max_degree:
                termination = "max-degree"
            elif dimension_rule and check_termination_dimension(
                [g for stratum in G for g in stratum], X, config.d_max, config.d_min
            ):
                termination = "dimension-rule"

        basis = Basis(F=F, G=G, extents=extents)
        g_total = sum(len(s) for s in G)
        # The n(|X|-n) output bound holds once the point count reaches the
        # quadratic saturation threshold C(n+2, n); below it, genuine
        # vanishing quadrics exist and legitimate bases can exceed the bound
        # (e.g. 10 generic points in R^4 give |G| = 25 > 24), so the guard
        # is scoped.
        if (
            config.mode.kind in ("coefficient", "gradient")
            and m > n
            and m >= math.comb(n + 2, n)
        ):
            if g_total > n * (m - n):
                raise InternalInvariantViolation(
                    f"|G| = {g_total} exceeds n(|X|-n) = {n * (m - n)}"
                )
        report = FitReport(
            config=config.echo(),
            n=n,
            n_points=m,
            m_constant=self._m_const,
            f_counts=[len(s) for s in F],
            g_counts=[len(s) for s in G],
            spectra=spectra,
            extents=extent_arrays,
            termination=termination,
            wall_time_s=time.perf_counter() - t_start,
        )
        return basis, report


def fit(X, config):
    """Run the basis construction on ``X``; returns (Basis, FitReport).

    Each degree runs as a short chain of stratum-level kernels
    (:func:`_degree_step`), then splits its combinations into F and G by
    epsilon; see :class:`Fitter`, whose loop this is.
    """
    return Fitter(X).fit(config)


def evaluate(basis, X_new):
    """Values of every basis polynomial on new points.

    Returns (F_matrix, G_matrix) whose columns follow the degree-stratified
    order of the basis: the stored evaluation vectors when ``X_new`` is the
    basis's point set (a basis loaded on those points, or the training
    set), else a replay.  An empty or non-finite ``X_new`` (checked by
    :class:`PointSet`), or points so far beyond the training scale that a
    value overflows float64, raise ``ContractViolation``.
    """
    f_polys = basis.f_polys()
    polys = f_polys + basis.g_polys()
    if X_new is basis.pointset:
        values = [p.eval for p in polys]
    else:
        pts = X_new.points if hasattr(X_new, "points") else np.asarray(X_new, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != basis.n:
            raise ContractViolation("new points must be m x n with the training n")
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
            values = [ev for ev, _ in replay_many(polys, pts)]
    E = np.column_stack(values)
    if not np.isfinite(E).all():
        raise ContractViolation("evaluations overflow float64 on these points; rescale the points")
    return E[:, : len(f_polys)], E[:, len(f_polys) :]
