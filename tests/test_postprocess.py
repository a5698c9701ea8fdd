"""Basis reduction and variety-dimension estimation."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eager_gradients, generic_points, rng_for
from mavik import engine, postprocess, serialize
from mavik.coefficients import expand
from mavik.core import Basis, PointSet, Poly, linear_combine, multiply, variable_poly
from mavik.datasets import sample_generic, scale
from mavik.engine import EngineConfig, NormalizationMode, fit
from mavik.postprocess import estimate_dimension, reduce_basis

GRAD = NormalizationMode.gradient()
CIRCLE4 = PointSet([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def circle_points(count=40, seed=0):
    theta = rng_for(seed).uniform(0.0, 2 * np.pi, size=count)
    return PointSet(np.column_stack([np.cos(theta), np.sin(theta)]))


def reference_reduce(g_polys, threshold):
    """The per-point reduction loop: one pseudo-inverse per point per member.

    Returns (kept, removed) in the order of :func:`reduce_basis`, with the
    worst relative residual of each removed member.
    """
    order = sorted(range(len(g_polys)), key=lambda i: (g_polys[i].degree, i))
    kept, removed = [], []
    for idx in order:
        g = g_polys[idx]
        pool = [p for p in kept if p.degree < g.degree]
        residuals = []
        for i, target in enumerate(g.grad):
            norm = np.linalg.norm(target)
            if norm == 0.0:
                residuals.append(0.0)
            elif not pool:
                residuals.append(1.0)
            else:
                S = np.stack([p.grad[i] for p in pool])
                v = target @ np.linalg.pinv(S, rcond=1e-12)
                residuals.append(np.linalg.norm(target - v @ S) / norm)
        if max(residuals) <= threshold:
            removed.append((g, float(max(residuals))))
        else:
            kept.append(g)
    return kept, removed


def gradient_member(X, degree, grad):
    # reduce_basis reads only degrees and gradients
    return Poly(degree, np.zeros(len(X)), grad, None, X)


def random_gradient_basis(rng):
    """G members of degrees 2..4 whose gradients are, per member, random,
    copies of an earlier member, or per-point combinations of lower-degree
    members (exactly or up to relative noise 1e-9 or 1e-3), and zero at
    some or all points.  Pools with more members than n, or with copied
    members, are rank-deficient."""
    m, n = int(rng.integers(4, 12)), int(rng.integers(2, 5))
    X = PointSet(rng.uniform(-1.0, 1.0, size=(m, n)))
    members = []
    for degree in (2, 3, 4):
        for _ in range(int(rng.integers(1, 5))):
            kind = rng.choice(["random", "span", "span+1e-9", "span+1e-3", "copy"])
            grad = rng.normal(size=(m, n))
            lower = [g.grad for g in members if g.degree < degree]
            if kind == "copy" and members:
                grad = members[int(rng.integers(len(members)))].grad.copy()
            elif kind.startswith("span") and lower:
                lower = np.stack(lower, axis=1)
                grad = np.einsum("ik,ikn->in", rng.normal(size=lower.shape[:2]), lower)
                if kind != "span":
                    noise = rng.normal(size=(m, n))
                    scale_i = np.linalg.norm(grad, axis=1, keepdims=True)
                    grad = grad + float(kind[5:]) * scale_i * noise / np.linalg.norm(
                        noise, axis=1, keepdims=True
                    )
            grad[rng.random(m) < 0.2] = 0.0
            if rng.random() < 0.1:
                grad[:] = 0.0
            members.append(gradient_member(X, degree, grad))
    order = rng.permutation(len(members))
    return X, [members[i] for i in order]


def coeff_vector(poly, monomials):
    cv = expand(poly)
    return np.array([cv.terms.get(m, 0.0) for m in monomials])


class TestReduceBasis:
    def test_circle4_keeps_the_two_degree2_generators(self):
        basis, _ = fit(CIRCLE4, EngineConfig(epsilon=1e-8, mode=GRAD))
        report = reduce_basis(basis, CIRCLE4, threshold=1e-6)
        assert len(report.kept) == 2
        assert sorted(p.degree for p in report.kept) == [2, 2]
        assert all(p.degree == 3 for p, _ in report.removed)

        # kept members span {x^2 + y^2 - 1, x y} in coefficient space
        monomials = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        targets = np.array(
            [[-1.0, 0.0, 0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]]
        )
        for p in report.kept:
            vec = coeff_vector(p, monomials)
            vec = vec / np.linalg.norm(vec)
            sol, *_ = np.linalg.lstsq(targets.T, vec, rcond=None)
            assert np.linalg.norm(vec - targets.T @ sol) < 1e-8

    def test_singleton_kept(self):
        X = circle_points(20, seed=1)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=GRAD, d_max=1))
        assert len(basis.g_polys()) == 1
        report = reduce_basis(basis, X, threshold=1e-6)
        assert len(report.kept) == 1 and not report.removed

    def test_planted_composite_removed_with_zero_residual(self):
        basis, _ = fit(CIRCLE4, EngineConfig(epsilon=1e-8, mode=GRAD))
        g1, g2 = basis.G[2]
        x = variable_poly(0, CIRCLE4)
        y = variable_poly(1, CIRCLE4)
        (composite,) = linear_combine(multiply([x, y], [g1, g2]), [[1.0], [1.0]])
        stack = Basis(
            F=basis.F[:3],
            G=[[], [], [g1, g2], [composite]],
            extents=[np.zeros(0), np.zeros(0), basis.extents[2], np.zeros(1)],
        )
        report = reduce_basis(stack, CIRCLE4, threshold=1e-6)
        assert [p.degree for p in report.kept] == [2, 2]
        assert len(report.removed) == 1
        assert report.removed[0][1] < 1e-10

    def test_soundness_no_removal_above_threshold(self):
        X = generic_points(30, 2, seed=2)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=GRAD))
        report = reduce_basis(basis, X, threshold=1e-6)
        for _, max_resid in report.removed:
            assert max_resid <= 1e-6

    def test_order_stable_under_same_degree_permutation(self):
        basis, _ = fit(CIRCLE4, EngineConfig(epsilon=1e-8, mode=GRAD))
        flipped = Basis(
            F=basis.F,
            G=[list(s) for s in basis.G],
            extents=basis.extents,
        )
        flipped.G[3] = flipped.G[3][::-1]
        base = reduce_basis(basis, CIRCLE4, threshold=1e-6)
        perm = reduce_basis(flipped, CIRCLE4, threshold=1e-6)
        assert len(base.kept) == len(perm.kept)
        assert {id(p) for p in base.kept} == {id(p) for p in perm.kept}

    def test_idempotent(self):
        X = circle_points(25, seed=3)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=GRAD))
        first = reduce_basis(basis, X, threshold=1e-6)
        again = reduce_basis(first.kept, X, threshold=1e-6)
        assert not again.removed
        assert len(again.kept) == len(first.kept)

    def test_empty_basis(self):
        report = reduce_basis([], CIRCLE4, threshold=1e-6)
        assert report.kept == [] and report.removed == []

    def test_pool_spans_nearly_parallel_gradients(self):
        # pool gradients e1 and e1 + 1e-8 e2 are distinct at the 1e-12
        # pseudo-inverse cutoff, so a degree-3 gradient e2 is in their span
        X = PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        e1, e2 = np.tile([1.0, 0.0], (3, 1)), np.tile([0.0, 1.0], (3, 1))
        pool = [gradient_member(X, 2, e1), gradient_member(X, 2, e1 + 1e-8 * e2)]
        target = gradient_member(X, 3, e2)
        report = reduce_basis(pool + [target], X, threshold=1e-6)
        assert report.kept == pool
        assert [p for p, _ in report.removed] == [target]

    def test_stacked_kernel_matches_per_point_loop(self):
        n_removed = n_kept = 0
        for seed in range(60):
            X, g_polys = random_gradient_basis(rng_for(seed))
            report = reduce_basis(g_polys, X, threshold=1e-6)
            kept, removed = reference_reduce(g_polys, 1e-6)
            assert [id(p) for p in report.kept] == [id(p) for p in kept]
            assert [id(p) for p, _ in report.removed] == [id(p) for p, _ in removed]
            np.testing.assert_allclose(
                [r for _, r in report.removed], [r for _, r in removed], rtol=0, atol=1e-12
            )
            n_removed += len(removed)
            n_kept += len(kept)
        assert n_removed > 50 and n_kept > 50

    @settings(max_examples=15, deadline=None)
    @given(
        dim=st.integers(2, 3),
        count=st.integers(20, 40),
        radius=st.floats(0.5, 2.0),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_variable_times_kept_member_is_removed(self, dim, count, radius, seed, data):
        # points on a sphere; up to degree 3 its G members vanish exactly
        # on X, so grad(x_k g) = x_k grad g at every point
        rng = rng_for(seed)
        d = rng.normal(size=(count, dim))
        X = PointSet(rng.uniform(-1, 1, dim) + radius * d / np.linalg.norm(d, axis=1)[:, None])
        basis, _ = fit(X, EngineConfig(epsilon=1e-9, mode=GRAD, max_degree=3))
        kept = reduce_basis(basis, X, threshold=1e-6).kept
        assert kept
        g = data.draw(st.sampled_from(kept))
        (product,) = multiply([variable_poly(data.draw(st.integers(0, dim - 1)), X)], [g])
        report = reduce_basis(kept + [product], X, threshold=1e-6)
        assert [p for p, _ in report.removed] == [product]
        assert report.kept == kept

    @settings(max_examples=10, deadline=None)
    @given(
        dim=st.integers(2, 3),
        count=st.integers(12, 25),
        seed=st.integers(0, 2**16),
        log_alpha=st.floats(-3.0, 3.0),
    )
    def test_grad_mode_kept_set_is_scale_invariant(self, dim, count, seed, log_alpha):
        X = generic_points(count, dim, seed=seed)

        def kept_positions(alpha):
            Xa = scale(X, alpha)
            basis, _ = fit(Xa, EngineConfig(epsilon=1e-6 * alpha, mode=GRAD))
            pos = {id(p): i for i, p in enumerate(basis.g_polys())}
            return [pos[id(p)] for p in reduce_basis(basis, Xa, threshold=1e-6).kept]

        assert kept_positions(10.0**log_alpha) == kept_positions(1.0)


class TestGradientsOnDemand:
    """Values-only G members get their gradients from one replay, kept per member."""

    @staticmethod
    def counting_replays(monkeypatch):
        calls = []
        replay_many = engine.replay_many

        def counted(polys, points, **kwargs):
            calls.append(len(polys))
            return replay_many(polys, points, **kwargs)

        monkeypatch.setattr(engine, "replay_many", counted)
        return calls

    @pytest.mark.parametrize("mode", [NormalizationMode.vca_baseline(),
                                      NormalizationMode.coefficient()], ids=["vca", "coeff"])
    def test_on_demand_gradients_are_the_eager_fits_bitwise(self, mode, monkeypatch):
        X = sample_generic(50, 3, 0)
        config = EngineConfig(epsilon=1e-6, mode=mode)
        basis, _ = fit(X, config)
        with eager_gradients():
            eager, _ = fit(X, config)
        calls = self.counting_replays(monkeypatch)
        g_polys, grads = postprocess._g_grads(basis)
        assert calls == [len(g_polys)] and all(g.grad is None for g in g_polys)
        assert g_polys == basis.g_polys()
        assert eager.g_profile() == basis.g_profile()
        eager_g = eager.g_polys()
        assert len(eager_g) == len(grads) and all(q.grad is not None for q in eager_g)
        for grad, q in zip(grads, eager_g):
            assert grad.tobytes() == q.grad.tobytes()

    def test_reduce_and_dimension_share_one_replay(self, monkeypatch):
        X = circle_points(30, seed=7)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=NormalizationMode.vca_baseline(),
                                       max_degree=4))
        calls = self.counting_replays(monkeypatch)
        report = reduce_basis(basis, X)
        dims = estimate_dimension(basis, X)
        assert calls == [len(basis.g_polys())]
        assert report.kept and report.removed and dims == (1, 1)
        ids = {id(g) for g in basis.g_polys()}
        assert {id(p) for p in report.kept} | {id(p) for p, _ in report.removed} == ids
        # the gradients are kept per member, so a list of them shares the replay
        reduce_basis(basis.g_polys(), X)
        assert len(calls) == 1
        # and an entry goes when its member is collected
        members = [weakref.ref(g) for g in basis.g_polys()]
        assert all(m() in postprocess._FORMED for m in members)
        held = len(postprocess._FORMED)
        del basis, report
        gc.collect()
        assert all(m() is None for m in members)
        assert len(postprocess._FORMED) <= held - len(members)

    def test_loaded_basis_reduces_as_an_eagerly_loaded_one(self, monkeypatch):
        X = sample_generic(60, 3, 0)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=GRAD))
        obj = serialize.basis_to_json(basis, points=X)
        plain = serialize.basis_from_json(obj, X)
        with eager_gradients():
            eager = serialize.basis_from_json(obj, X)
        assert all(g.grad is not None for g in eager.g_polys())
        assert all(g.grad is None for g in plain.g_polys())
        calls = self.counting_replays(monkeypatch)
        got, want = reduce_basis(plain, X), reduce_basis(eager, X)
        assert calls == [len(plain.g_polys())]
        pos = {id(g): i for i, g in enumerate(plain.g_polys())}
        pos.update({id(g): i for i, g in enumerate(eager.g_polys())})
        assert [pos[id(p)] for p in got.kept] == [pos[id(p)] for p in want.kept]
        assert [(pos[id(p)], r) for p, r in got.removed] == [
            (pos[id(p)], r) for p, r in want.removed]
        assert estimate_dimension(plain, X) == estimate_dimension(eager, X)
        assert len(calls) == 1


class TestEstimateDimension:
    def test_generic_zero_dimensional(self):
        for dim, seed in ((2, 0), (3, 1)):
            X = generic_points(50, dim, seed=seed)
            basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=GRAD))
            assert estimate_dimension(basis, X) == (0, 0)

    def test_single_circle_generator(self):
        X = circle_points(30, seed=4)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=GRAD, d_max=1))
        assert estimate_dimension(basis, X) == (1, 1)

    def test_redundant_members_do_not_change_estimate(self):
        # cap the fit below the degree where the finite sample's own
        # zero-dimensional ideal appears; the extra strata are then all
        # multiples of the circle and leave the per-point ranks at 1
        X = circle_points(30, seed=5)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=GRAD, max_degree=6))
        assert sum(len(s) for s in basis.G) > 1
        assert estimate_dimension(basis, X) == (1, 1)

    def test_empty_basis_returns_ambient(self):
        X = generic_points(5, 3, seed=6)
        assert estimate_dimension([], X) == (3, 3)
