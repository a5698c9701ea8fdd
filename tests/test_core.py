"""Evaluation-representation algebra: combination, product, replay."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eager_gradients, fd_gradient, generic_points, random_poly, rng_for
from mavik import coefficients, core, engine
from mavik.core import (
    PointSet,
    constant_poly,
    flatten,
    linear_combine,
    multiply,
    replay,
    replay_many,
    variable_poly,
    variables,
    walk,
)
from mavik.datasets import sample_generic
from mavik.engine import EngineConfig, NormalizationMode, fit
from mavik.errors import ContractViolation
from mavik.linalg import orthogonal_project


class TestPointSet:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ContractViolation):
            PointSet(np.zeros((0, 2)))
        with pytest.raises(ContractViolation):
            PointSet([[np.inf, 0.0]])
        with pytest.raises(ContractViolation):
            PointSet([1.0, 2.0])

    def test_points_frozen(self):
        X = PointSet([[1.0, 2.0]])
        with pytest.raises(ValueError):
            X.points[0, 0] = 3.0

    def test_derive_extends_log(self):
        X = PointSet([[1.0, 2.0]], ({"kind": "seed"},))
        Y = X.derive(X.points * 2, {"kind": "scale"})
        assert [n["kind"] for n in Y.provenance] == ["seed", "scale"]


class TestLinearCombine:
    def test_two_variables_on_one_point(self):
        X = PointSet([[1.0, 2.0]])
        (p,) = linear_combine(variables(X), [[2.0], [3.0]])
        assert p.eval == pytest.approx([8.0])
        assert p.grad[0] == pytest.approx([2.0, 3.0])
        assert p.degree == 1

    def test_all_zero_weights(self):
        X = generic_points(4, 2, seed=1)
        (p,) = linear_combine(variables(X), [[0.0], [0.0]])
        assert np.all(p.eval == 0.0) and np.all(p.grad == 0.0)
        assert p.degree == 0

    def test_matches_dense_matmul_oracle(self):
        X = generic_points(5, 3, seed=2)
        rng = rng_for(7)
        H = [random_poly(X, 2, rng) for _ in range(3)]
        w = rng.normal(size=3)
        (combo,) = linear_combine(H, w[:, None])
        oracle = np.column_stack([h.eval for h in H]) @ w
        np.testing.assert_allclose(combo.eval, oracle, rtol=1e-12, atol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.floats(-3, 3, allow_nan=False),
        b=st.floats(-3, 3, allow_nan=False),
        seed=st.integers(0, 50),
    )
    def test_linearity(self, a, b, seed):
        X = generic_points(6, 2, seed=3)
        rng = rng_for(seed)
        H = [random_poly(X, 2, rng) for _ in range(3)]
        u = rng.normal(size=3)
        v = rng.normal(size=3)
        lhs = linear_combine(H, (a * u + b * v)[:, None])[0].eval
        rhs = a * linear_combine(H, u[:, None])[0].eval + b * linear_combine(H, v[:, None])[0].eval
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_rejects_mismatched_pointsets(self):
        X, Y = generic_points(4, 2, seed=1), generic_points(4, 2, seed=2)
        with pytest.raises(ContractViolation):
            linear_combine([variable_poly(0, X), variable_poly(0, Y)], [[1.0], [1.0]])


def assert_same_combination(got, want):
    """``got`` equals ``want`` to rounding, with the same provenance record."""
    scale = max(1.0, np.abs(want.eval).max())
    np.testing.assert_allclose(got.eval, want.eval, rtol=1e-12, atol=1e-12 * scale)
    scale = max(1.0, np.abs(want.grad).max())
    np.testing.assert_allclose(got.grad, want.grad, rtol=1e-12, atol=1e-12 * scale)
    assert got.degree == want.degree
    # flattened together, shared children get one record: equal records
    # mean the same children, in the same order, with the same weights
    records, (g, w) = flatten([got.prov, want.prov])
    assert records[g] == records[w]


class TestLinearCombineMatrix:
    """One output per weight column, as a call with that column alone gives."""

    def polys(self):
        X = generic_points(7, 3, seed=4)
        rng = rng_for(21)
        return X, [random_poly(X, d, rng) for d in (0, 1, 2, 3, 2)], rng

    def test_columns_match_one_dimensional_calls(self):
        _, H, rng = self.polys()
        W = rng.normal(size=(len(H), 4))
        W[1, 0] = 0.0  # exact zeros are dropped from that column only
        W[3, 2] = 0.0
        out = linear_combine(H, W)
        assert isinstance(out, core.Rows) and len(out) == 4
        for j, p in enumerate(out):
            assert_same_combination(p, linear_combine(H, W[:, j : j + 1])[0])
            # reference: one axpy per child with a nonzero weight
            ev, gr = np.zeros_like(H[0].eval), np.zeros_like(H[0].grad)
            for h, w in zip(H, W[:, j]):
                if w != 0.0:
                    ev += w * h.eval
                    gr += w * h.grad
            np.testing.assert_allclose(p.eval, ev, rtol=1e-12, atol=1e-12 * np.abs(ev).max())
            np.testing.assert_allclose(p.grad, gr, rtol=1e-12, atol=1e-12 * np.abs(gr).max())
        records, ids = flatten([h.prov for h in H] + [out[0].prov])
        assert records[ids[-1]]["children"] == [ids[i] for i in range(len(H)) if i != 1]
        assert out[2].degree == 2  # the degree-3 child has weight 0

    def test_all_zero_column(self):
        X, H, rng = self.polys()
        W = rng.normal(size=(len(H), 2))
        W[:, 1] = 0.0
        zero = linear_combine(H, W)[1]
        assert np.all(zero.eval == 0.0) and np.all(zero.grad == 0.0)
        assert zero.degree == 0
        assert flatten([zero.prov])[0] == [{"kind": "lincomb", "children": [], "weights": []}]

    def test_no_columns(self):
        _, H, _ = self.polys()
        assert list(linear_combine(H, np.zeros((len(H), 0)))) == []

    def test_lead_goes_first_with_weight_one(self):
        X, H, rng = self.polys()
        lead = [random_poly(X, 4, rng), variable_poly(2, X)]
        W = rng.normal(size=(len(H), 2))
        W[0, 1] = 0.0
        out = linear_combine(H, W, lead=lead)
        for j, p in enumerate(out):
            keep = np.flatnonzero(W[:, j])
            (want,) = linear_combine([lead[j]] + [H[i] for i in keep],
                                     np.concatenate(([1.0], W[keep, j]))[:, None])
            assert_same_combination(p, want)
            records, (i_lead, i_p) = flatten([lead[j].prov, p.prov])
            assert records[i_p]["children"][0] == i_lead
            assert records[i_p]["weights"][0] == 1.0
        assert out[0].degree == 4 and out[1].degree == 3

    def test_shape_mismatch(self):
        X, H, rng = self.polys()
        with pytest.raises(ContractViolation):
            linear_combine(H, rng.normal(size=(len(H) + 1, 2)))
        with pytest.raises(ContractViolation):
            linear_combine(H, rng.normal(size=len(H)))
        with pytest.raises(ContractViolation):
            linear_combine(H, rng.normal(size=(len(H), 2, 1)))
        with pytest.raises(ContractViolation):
            linear_combine(H, rng.normal(size=(len(H), 2)), lead=[variable_poly(0, X)])
        with pytest.raises(ContractViolation):
            linear_combine(H, np.full((len(H), 2), np.nan))
        Y = generic_points(7, 3, seed=5)
        with pytest.raises(ContractViolation):
            linear_combine(H, rng.normal(size=(len(H), 1)), lead=[variable_poly(0, Y)])


class TestMultiply:
    def test_square_in_one_variable(self):
        X = PointSet([[2.0]])
        x = variable_poly(0, X)
        (p,) = multiply([x], [x])
        assert p.eval == pytest.approx([4.0])
        assert p.grad[0] == pytest.approx([4.0])
        assert p.degree == 2

    def test_xy_on_two_points(self):
        X = PointSet([[1.0, 2.0], [3.0, 4.0]])
        (p,) = multiply([variable_poly(0, X)], [variable_poly(1, X)])
        np.testing.assert_allclose(p.eval, [2.0, 12.0])
        np.testing.assert_allclose(p.grad, [[2.0, 1.0], [4.0, 3.0]])

    def test_degree3_gradient_matches_finite_differences(self):
        X = generic_points(10, 3, seed=5)
        p = random_poly(X, 3, rng_for(11))
        fd = fd_gradient(p, X.points)
        np.testing.assert_allclose(
            p.grad, fd, rtol=1e-5, atol=1e-5 * max(1.0, np.abs(p.grad).max())
        )

    def test_left_factor_must_be_linear(self):
        X = generic_points(4, 2, seed=1)
        (q,) = multiply([variable_poly(0, X)], [variable_poly(1, X)])
        with pytest.raises(ContractViolation):
            multiply([q], [q])
        with pytest.raises(ContractViolation):
            multiply([variable_poly(0, X), q], [q, q])

    def test_sequences_match_pairwise_products_bitwise(self):
        X = generic_points(9, 3, seed=6)
        rng = rng_for(17)
        lefts = [random_poly(X, 1, rng) for _ in range(4)]
        rights = [random_poly(X, d, rng) for d in (0, 1, 2, 3)]
        out = multiply(lefts, rights)
        assert len(out) == 4
        for p, a, b in zip(out, lefts, rights):
            # the per-pair product rule, row by row
            np.testing.assert_array_equal(p.eval, a.eval * b.eval)
            rule = b.eval[:, None] * a.grad + a.eval[:, None] * b.grad
            np.testing.assert_array_equal(p.grad, rule)
            (single,) = multiply([a], [b])
            np.testing.assert_array_equal(p.grad, single.grad)
            assert p.degree == single.degree == b.degree + 1
            records, (i_a, i_b, i_p) = flatten([a.prov, b.prov, p.prov])
            assert records[i_p] == {"kind": "product", "left": i_a, "right": i_b}

    def test_sequences_must_pair_up(self):
        X = generic_points(4, 2, seed=1)
        x, y = variables(X)
        assert multiply([], []) == []
        with pytest.raises(ContractViolation):
            multiply([x, y], [x])


class TestProvenance:
    """One node per kernel call; :func:`flatten` writes one record per column."""

    def test_one_node_per_call(self, monkeypatch):
        made = []

        def counting(cls):
            class Counting(cls):
                def __init__(self, *args):
                    made.append(self)
                    super().__init__(*args)

            monkeypatch.setattr(core, cls.__name__, Counting)

        X = generic_points(7, 3, seed=4)
        rng = rng_for(22)
        H = [random_poly(X, d, rng) for d in (0, 1, 2)]
        lead = [random_poly(X, 2, rng) for _ in range(4)]
        counting(core.PLin)
        counting(core.PProd)
        W = rng.normal(size=(3, 4))
        lefts = variables(X) + variables(X)[:1]
        for call in (lambda: linear_combine(H, W),
                     lambda: linear_combine(H, W, lead=lead),
                     lambda: multiply(lefts, H + H[:1])):
            out = call()
            assert len(made) == 1
            assert [p.prov for p in out] == [(made[0], j) for j in range(4)]
            made.clear()

    def test_flatten_keeps_the_lead_and_the_nonzero_weights(self):
        X = generic_points(7, 3, seed=4)
        rng = rng_for(23)
        H = [random_poly(X, d, rng) for d in (1, 2, 0, 2)]
        lead = [random_poly(X, 3, rng), variable_poly(1, X)]
        W = rng.normal(size=(4, 2))
        W[0, 1] = 0.0
        W[2, 1] = -0.0
        out = linear_combine(H, W, lead=lead)
        records, ids = flatten([lead[1].prov] + [h.prov for h in H] + [out[1].prov])
        assert records[ids[-1]] == {
            "kind": "lincomb",
            "children": [ids[0], ids[2], ids[4]],
            "weights": [1.0, W[1, 1], W[3, 1]],
        }
        assert all(type(w) is float for w in records[ids[-1]]["weights"])


def flatten_per_edge(roots):
    """The per-edge walk that :func:`flatten` replaced: one visit per nonzero weight."""
    records = []
    ids = {}

    def visit(prov):
        node, j = prov
        key = (id(node), j)
        if key in ids:
            return ids[key]
        if isinstance(node, core.PConst):
            rec = {"kind": "const", "value": node.value}
        elif isinstance(node, core.PVar):
            rec = {"kind": "var", "index": node.index}
        elif isinstance(node, core.PProd):
            rec = {"kind": "product", "left": visit(node.left[j]), "right": visit(node.right[j])}
        else:
            kids, weights = ([visit(node.lead[j])], [1.0]) if node.lead else ([], [])
            for child, w in zip(node.children, node.weights[:, j].tolist()):
                if w != 0.0:
                    kids.append(visit(child))
                    weights.append(w)
            rec = {"kind": "lincomb", "children": kids, "weights": weights}
        ids[key] = len(records)
        records.append(rec)
        return ids[key]

    root_ids = [visit(r) for r in roots]
    return records, root_ids


class TestFlatten:
    """:func:`flatten` gives the records and order of the per-edge walk."""

    @staticmethod
    def assert_same_as_per_edge(roots):
        got = flatten(roots)
        # repr also tells 1 from 1.0 and -0.0 from 0.0
        assert got == flatten_per_edge(roots) and repr(got) == repr(flatten_per_edge(roots))

    @pytest.mark.parametrize(
        "mode",
        [NormalizationMode.vca_baseline(), NormalizationMode.coefficient(),
         NormalizationMode.gradient()],
        ids=["vca", "coeff", "grad"],
    )
    def test_fitted_bases(self, mode):
        for count, dim in ((30, 2), (40, 3)):
            basis, _ = fit(sample_generic(count, dim, 5), EngineConfig(epsilon=1e-6, mode=mode))
            polys = basis.f_polys() + basis.g_polys()
            self.assert_same_as_per_edge([p.prov for p in polys])
            self.assert_same_as_per_edge([p.prov for p in reversed(polys)])

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_a_child_first_weighted_by_a_later_column(self, zero):
        # column 0 skips H[1]; column 1 is the first to weight it, so H[1]'s
        # subtree, not visited before, is listed after column 0's record
        X = generic_points(6, 2, seed=31)
        rng = rng_for(32)
        H = [random_poly(X, d, rng) for d in (1, 3, 2)]
        W = rng.normal(size=(3, 2))
        W[1, 0] = zero
        out = linear_combine(H, W)
        roots = [out[0].prov, out[1].prov, out[0].prov]
        self.assert_same_as_per_edge(roots)
        records, ids = flatten(roots)
        first, second = records[ids[0]], records[ids[1]]
        assert len(first["children"]) == 2 and len(second["children"]) == 3
        h1 = second["children"][1]
        assert ids[0] < h1 < ids[1] and ids[2] == ids[0]
        assert second["children"][::2] == first["children"]
        lead = [random_poly(X, 2, rng) for _ in range(2)]
        self.assert_same_as_per_edge([p.prov for p in linear_combine(H, W, lead=lead)][::-1])


class TestBlocks:
    """A call's outputs are read-only rows of one evaluation and one gradient block."""

    def test_outputs_of_one_call_share_one_block(self):
        X = generic_points(7, 3, seed=4)
        rng = rng_for(24)
        H = [random_poly(X, d, rng) for d in (0, 1, 2)]
        lead = [random_poly(X, 2, rng) for _ in range(2)]
        for out in (linear_combine(H, rng.normal(size=(3, 2))),
                    linear_combine(H, rng.normal(size=(3, 2)), lead=lead),
                    multiply(variables(X)[:2], H[1:])):
            for a, b in ((out[0].eval, out[1].eval), (out[0].grad, out[1].grad)):
                assert a.base is not None and a.base is b.base
                with pytest.raises(ValueError):
                    a[0] = 1.0

    @staticmethod
    def kernel_inputs():
        """Kernel outputs to pass on: mixed degrees, degree-1 factors, products."""
        X = generic_points(9, 3, seed=31)
        rng = rng_for(32)
        base = [random_poly(X, d, rng) for d in (0, 1, 2, 3)]
        H = linear_combine(base, rng.normal(size=(4, 5)))
        P = linear_combine(variables(X) + [constant_poly(1.0, X)], rng.normal(size=(4, 5)))
        Q = multiply(P, H)
        return X, H, P, Q, rng.normal(size=(5, 5))

    CALLS = {
        "linear_combine": lambda H, P, Q, W: linear_combine(H, W),
        "linear_combine-lead": lambda H, P, Q, W: linear_combine(H, W, lead=Q),
        "multiply": lambda H, P, Q, W: multiply(P, H),
        "orthogonal_project": lambda H, P, Q, W: orthogonal_project(Q, H),
    }

    @pytest.mark.parametrize("kernel", CALLS)
    def test_own_output_list_reads_as_a_plain_copy(self, kernel):
        X, H, P, Q, W = self.kernel_inputs()
        assert all(isinstance(rows, core.Rows) for rows in (H, P, Q))
        carried = self.CALLS[kernel](H, P, Q, W)
        stacked = self.CALLS[kernel](list(H), list(P), list(Q), W)
        assert isinstance(carried, core.Rows) and isinstance(stacked, core.Rows)
        for out in (carried, stacked):
            np.testing.assert_array_equal(out.evals, np.array([p.eval for p in out]))
            np.testing.assert_array_equal(out.grads, np.array([p.grad for p in out]))
        for a, b in ((carried.evals, stacked.evals), (carried.grads, stacked.grads)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert [p.degree for p in carried] == [p.degree for p in stacked]
        records, ids = flatten([p.prov for p in carried] + [p.prov for p in stacked])
        half = len(carried)
        assert [records[i] for i in ids[:half]] == [records[i] for i in ids[half:]]

    @pytest.mark.parametrize("kernel", CALLS)
    def test_provenance_read_off_rows_flattens_as_the_stacked_list(self, kernel):
        # kernels read their inputs' degrees and provenance without making
        # rows, and what a Rows gives for them is what its rows carry
        X, H, P, Q, W = self.kernel_inputs()
        carried = self.CALLS[kernel](H, P, Q, W)
        provs, degrees = carried.provs, carried.degrees
        assert all(rows._polys is None for rows in (H, P, Q, carried))
        stacked = self.CALLS[kernel](list(H), list(P), list(Q), W)
        assert degrees == [p.degree for p in carried] == [p.degree for p in stacked]
        assert flatten(provs) == flatten([p.prov for p in carried])
        records, ids = flatten(provs + [p.prov for p in stacked])
        half = len(carried)
        assert [records[i] for i in ids[:half]] == [records[i] for i in ids[half:]]

    def test_rows_are_made_once(self):
        X, H, P, Q, W = self.kernel_inputs()
        first = list(Q)
        assert [p is q for p, q in zip(first, Q)] == [True] * len(Q)
        assert Q[-1] is first[-1] and Q[1:3] == first[1:3]
        assert [p.prov for p in first] == [(Q.provs[j][0], j) for j in range(len(Q))]

    @pytest.mark.parametrize("kernel", CALLS)
    def test_output_rows_are_read_only_and_shaped(self, kernel):
        X, H, P, Q, W = self.kernel_inputs()
        m, n = len(X), X.n
        out = self.CALLS[kernel](H, P, Q, W)
        for p in out:
            assert p.eval.shape == (m,) and p.grad.shape == (m, n)
            with pytest.raises(ValueError):
                p.eval[0] = 1.0
            with pytest.raises(ValueError):
                p.grad[0, 0] = 1.0
        for block in (out.evals, out.grads):
            with pytest.raises(ValueError):
                block.flat[0] = 1.0

    def test_public_constructor_checks_shapes(self):
        X = generic_points(4, 2, seed=33)
        core.Poly(1, np.zeros(4), np.zeros((4, 2)), None, X)
        for ev, gr in ((np.zeros(3), np.zeros((4, 2))), (np.zeros((4, 1)), np.zeros((4, 2))),
                       (np.zeros(4), np.zeros((4, 3))), (np.zeros(4), np.zeros(8))):
            with pytest.raises(ContractViolation):
                core.Poly(1, ev, gr, None, X)


class TestReplay:
    def test_reproduces_stored_data_on_training_points(self):
        X = generic_points(8, 3, seed=9)
        rng = rng_for(13)
        polys = [random_poly(X, d, rng) for d in (0, 1, 2, 4)]
        for p, (ev, gr) in zip(polys, replay_many(polys, X.points, grads=True)):
            np.testing.assert_allclose(ev, p.eval, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(gr, p.grad, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_gradient_recurrence_vs_finite_differences_to_degree6(self, dim):
        X = generic_points(10, dim, seed=20 + dim)
        rng = rng_for(100 + dim)
        for degree in range(1, 7):
            p = random_poly(X, degree, rng)
            fd = fd_gradient(p, X.points)
            scale = max(1.0, np.abs(p.grad).max())
            np.testing.assert_allclose(p.grad, fd, rtol=1e-5, atol=1e-5 * scale)

    def test_rebuilt_records_flatten_to_the_same_records(self):
        X = generic_points(8, 2, seed=10)
        rng = rng_for(14)
        polys = [random_poly(X, d, rng) for d in (1, 3, 5)]
        records, root_ids = flatten([p.prov for p in polys])
        built = replay(records, X)
        assert flatten([built[i].prov for i in root_ids]) == (records, root_ids)
        for p, i in zip(polys, root_ids):
            assert built[i].degree == p.degree
            np.testing.assert_allclose(built[i].eval, p.eval, rtol=1e-12, atol=1e-12)

    def test_childless_lincomb_is_the_zero_polynomial(self):
        X = generic_points(3, 2, seed=2)
        record = {"kind": "lincomb", "children": [], "weights": []}
        (zero,) = replay([record], X)
        assert zero.degree == 0 and flatten([zero.prov]) == ([record], [0])
        ((_, grad),) = replay_many([zero], X.points, grads=True)
        assert not zero.eval.any() and not grad.any()

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "product", "left": 0, "right": -1},
            {"kind": "product", "left": 0, "right": 1},
            {"kind": "lincomb", "children": [0, 2], "weights": [1.0, 2.0]},
            {"kind": "lincomb", "children": [True], "weights": [1.0]},
            {"kind": "lincomb", "children": [0], "weights": [1.0, 2.0]},
            {"kind": "lincomb", "children": [0]},
            {"kind": "power", "base": 0},
            {"index": 0},
            {"kind": "lincomb", "children": [0], "weights": [float("inf")]},
            {"kind": "lincomb", "children": [0, 0], "weights": [1.0, float("nan")]},
            {"kind": "lincomb", "children": [0], "weights": [10**400]},
            {"kind": "const", "value": 10**400},
        ],
    )
    def test_malformed_record_rejected(self, bad):
        X = generic_points(3, 2, seed=3)
        with pytest.raises(ContractViolation):
            replay([{"kind": "var", "index": 0}, bad], X)

    def test_variable_index_out_of_range(self):
        X = generic_points(4, 2, seed=1)
        p = variable_poly(1, X)
        with pytest.raises(ContractViolation):
            replay_many([p], np.zeros((3, 1)))


class TestGroupedReplay:
    """Replay makes one kernel call per group of sibling records."""

    def test_a_fitted_basis_replays_in_few_kernel_calls(self, monkeypatch):
        X = sample_generic(200, 3, 0)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=NormalizationMode.gradient()))
        records, _ = flatten([p.prov for p in basis.f_polys() + basis.g_polys()])
        made = []  # every kernel call records one node
        for cls in (core.PLin, core.PProd):
            class Counting(cls):
                def __init__(self, *args):
                    made.append(self)
                    super().__init__(*args)

            monkeypatch.setattr(core, cls.__name__, Counting)
        replay(records, generic_points(20, 3, seed=6))
        assert len(made) <= 40 < len(records)

    def test_a_root_replayed_alone_matches_the_full_list_bitwise(self):
        X = sample_generic(60, 3, 0)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=NormalizationMode.gradient()))
        polys = basis.f_polys() + basis.g_polys()
        points = generic_points(40, 3, seed=7).points
        together = replay_many(polys, points, grads=True)
        for p, (ev, gr) in zip(polys, together):
            ((ev_alone, gr_alone),) = replay_many([p], points, grads=True)
            assert np.array_equal(ev_alone, ev) and np.array_equal(gr_alone, gr)

    def test_records_with_and_without_a_lead_round_trip(self):
        # a lead group and a plain group over the same children at one
        # level, a first weight of 1.0 on a child that was no lead in the
        # fit, and a lead alone
        X = generic_points(6, 2, seed=8)
        rng = rng_for(32)
        low, *H = [random_poly(X, d, rng) for d in (1, 3, 2)]
        polys = [*linear_combine(H, rng.normal(size=(2, 2)), lead=[low, low]),
                 *linear_combine(H, rng.normal(size=(2, 1))),
                 *linear_combine([low, *H], [[1.0], [-0.5], [2.0]]),
                 *linear_combine([low], [[1.0]])]
        records, ids = flatten([p.prov for p in polys])
        assert records[ids[3]]["weights"] == [1.0, -0.5, 2.0]
        built = replay(records, X)
        assert flatten([built[i].prov for i in ids]) == (records, ids)
        grads = replay_many([built[i] for i in ids], X.points, grads=True)
        for p, i, (_, grad) in zip(polys, ids, grads):
            assert built[i].degree == p.degree
            np.testing.assert_allclose(built[i].eval, p.eval, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(grad, p.grad, rtol=1e-12, atol=1e-12)


class TestWalk:
    """In memory, the DAG is walked one kernel call per node."""

    @pytest.mark.parametrize(
        "mode",
        [NormalizationMode.vca_baseline(), NormalizationMode.coefficient(),
         NormalizationMode.gradient()],
        ids=["vca", "coeff", "grad"],
    )
    def test_in_memory_replay_is_the_fit_bitwise(self, mode):
        # a vca or coeff fit is values-only; its replayed gradients are those
        # of the same fit run with gradients, at every degree
        X = sample_generic(50, 3, 0)
        config = EngineConfig(epsilon=1e-6, mode=mode)
        basis, _ = fit(X, config)
        polys = basis.f_polys() + basis.g_polys()
        eager = polys
        if mode.kind != "gradient":
            assert all(p.grad is None for p in polys)
            with eager_gradients():
                eager_basis, _ = fit(X, config)
            assert eager_basis.f_profile() == basis.f_profile()
            assert eager_basis.g_profile() == basis.g_profile()
            eager = eager_basis.f_polys() + eager_basis.g_polys()
        for p, q, (ev, gr) in zip(polys, eager, replay_many(polys, X.points, grads=True)):
            assert np.array_equal(ev, p.eval) and np.array_equal(ev, q.eval)
            assert q.grad is not None and np.array_equal(gr, q.grad)

    def test_each_node_runs_once(self):
        X = sample_generic(50, 3, 1)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=NormalizationMode.gradient()))
        roots = [p.prov for p in basis.f_polys() + basis.g_polys()]
        nodes, todo = set(), [node for node, _ in roots]
        while todo:
            node = todo.pop()
            if node not in nodes:
                nodes.add(node)
                for attr in ("left", "right", "children", "lead"):
                    todo += [child for child, _ in getattr(node, attr, ())]
        calls = []

        def counting(kind, width):
            def callback(*args):
                calls.append(kind)
                return [kind] * width(*args)
            return callback

        out = walk(
            roots,
            const=counting("const", lambda value: 1),
            var=counting("var", lambda index: 1),
            product=counting("product", lambda lefts, rights: len(lefts)),
            combine=counting("combine", lambda children, weights, leads: weights.shape[1]),
        )
        assert len(out) == len(roots)
        assert len(calls) == len(nodes)
        kinds = {core.PConst: "const", core.PVar: "var", core.PProd: "product", core.PLin: "combine"}
        assert sorted(calls) == sorted(kinds[type(node)] for node in nodes)

    def test_a_callers_memo_is_kept_and_reused(self):
        X = sample_generic(30, 2, 0)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=NormalizationMode.gradient()))
        roots = [p.prov for p in basis.f_polys() + basis.g_polys()]
        calls = []

        def counting(width):
            def callback(*args):
                calls.append(args)
                return [len(calls)] * width(*args)
            return callback

        callbacks = dict(
            const=counting(lambda value: 1),
            var=counting(lambda index: 1),
            product=counting(lambda lefts, rights: len(lefts)),
            combine=counting(lambda children, weights, leads: weights.shape[1]),
        )
        memo = {}
        first = walk(roots, **callbacks, memo=memo)
        assert calls and len(memo) == len(calls)
        calls.clear()
        assert walk(roots, **callbacks, memo=memo) == first
        assert not calls

    def test_no_in_memory_reader_flattens(self, monkeypatch):
        def refuse(roots):
            raise AssertionError("flatten called")

        monkeypatch.setattr(core, "flatten", refuse)
        monkeypatch.setattr(coefficients, "flatten", refuse, raising=False)
        X = sample_generic(30, 2, 0)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=NormalizationMode.coefficient()))
        polys = basis.f_polys() + basis.g_polys()
        assert len(coefficients.expand_many(polys)) == len(polys)
        F, G = engine.evaluate(basis, sample_generic(20, 2, 1))
        assert F.shape == (20, len(basis.f_polys())) and G.shape == (20, len(basis.g_polys()))


def test_constant_poly_must_be_nonzero():
    X = generic_points(3, 2, seed=0)
    with pytest.raises(ContractViolation):
        constant_poly(0.0, X)


class TestValuesOnly:
    """Gradients travel with the data: a kernel forms them only from inputs that carry them."""

    CALLS = {
        "linear_combine": lambda ps, qs: linear_combine(qs, np.ones((len(qs), 2))),
        "linear_combine-lead": lambda ps, qs: linear_combine(qs, np.ones((len(qs), 2)), lead=ps),
        "multiply": lambda ps, qs: multiply(ps, qs),
    }

    @staticmethod
    def inputs(grads_p, grads_q):
        X = generic_points(6, 2, seed=51)
        ps = [variable_poly(k, X, grads=grads_p) for k in range(X.n)]
        (c,) = linear_combine([constant_poly(0.5, X, grads=grads_q)], [[1.0]])
        return X, ps, [variable_poly(1, X, grads=grads_q), c]

    def test_builders_make_values_only_polynomials(self):
        X = generic_points(4, 3, seed=50)
        for p in (constant_poly(2.0, X, grads=False), variable_poly(1, X, grads=False)):
            assert p.grad is None and p.eval.shape == (4,)
        np.testing.assert_array_equal(variable_poly(2, X, grads=False).eval, X.points[:, 2])
        np.testing.assert_array_equal(constant_poly(2.0, X, grads=False).eval, 2.0)

    @pytest.mark.parametrize("kernel", CALLS)
    @pytest.mark.parametrize("grads_p, grads_q", [(True, False), (False, True), (False, False)])
    def test_a_values_only_input_gives_values_only_rows(self, kernel, grads_p, grads_q):
        X, ps, qs = self.inputs(grads_p, grads_q)
        out = self.CALLS[kernel](ps, qs)
        eager = self.CALLS[kernel](*self.inputs(True, True)[1:])
        if kernel == "linear_combine" and grads_q:  # reads qs alone
            assert out.grads is not None
            return
        assert out.grads is None and all(p.grad is None for p in out)
        assert out.evals.tobytes() == eager.evals.tobytes()
        assert out.degrees == eager.degrees

    def test_grads_reader_rejects_values_only_members(self):
        X, ps, qs = self.inputs(False, True)
        rows = multiply(ps, qs)
        for polys in (rows, list(rows), ps, [qs[0], ps[0]]):
            with pytest.raises(ContractViolation, match="carry no gradients"):
                core._grads(polys)
        assert core._grads(qs).shape == (2, 6, 2)

    def test_replay_is_values_only_and_replay_many_unless_asked(self):
        X = generic_points(8, 3, seed=52)
        rng = rng_for(53)
        polys = [random_poly(X, d, rng) for d in (0, 1, 3)]
        records, ids = flatten([p.prov for p in polys])
        probe = generic_points(5, 3, seed=54)
        plain = replay(records, probe)
        with eager_gradients():
            eager = replay(records, probe)
        assert all(p.grad is None for p in plain)
        assert all(p.grad.shape == (5, 3) for p in eager)
        # the gradients of a values-only load are those of its kernel calls
        # run with gradients, bitwise
        for a, b, (_, grad) in zip(plain, eager, replay_many(plain, probe.points, grads=True)):
            assert a.eval.tobytes() == b.eval.tobytes()
            assert grad.tobytes() == b.grad.tobytes()
        for (ev, gr), (ev2, gr2) in zip(replay_many(polys, probe.points),
                                        replay_many(polys, probe.points, grads=True)):
            assert gr is None and gr2.shape == (5, 3)
            assert ev.tobytes() == ev2.tobytes()

    def test_public_constructor_takes_no_gradients(self):
        X = generic_points(4, 2, seed=55)
        p = core.Poly(1, np.zeros(4), None, None, X)
        assert p.grad is None
        with pytest.raises(ContractViolation):
            core.Poly(1, np.zeros(3), None, None, X)
