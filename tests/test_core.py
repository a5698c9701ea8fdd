"""Evaluation-representation algebra: combination, product, replay."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eager_gradients, fd_gradient, generic_points, random_poly, rng_for
from mavik import coefficients, core, engine, postprocess
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
        W[1, 0] = 0.0  # an exact zero leaves that column's degree
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
        assert records[ids[-1]] == {"kind": "lincomb", "children": ids[:-1],
                                    "weights": W[:, 0].tolist()}
        assert out[2].degree == 2  # the degree-3 child has weight 0

    def test_all_zero_column(self):
        X, H, rng = self.polys()
        W = rng.normal(size=(len(H), 2))
        W[:, 1] = 0.0
        zero = linear_combine(H, W)[1]
        assert np.all(zero.eval == 0.0) and np.all(zero.grad == 0.0)
        assert zero.degree == 0
        # the record lists every child of the call, each with weight 0.0
        records, ids = flatten([h.prov for h in H] + [zero.prov])
        assert records[ids[-1]] == {"kind": "lincomb", "children": ids[:-1],
                                    "weights": [0.0] * len(H)}

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
            (want,) = linear_combine([lead[j], *H], np.concatenate(([1.0], W[:, j]))[:, None])
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

    @staticmethod
    def block(polys):
        """The ``(values, gradients)`` block of ``polys``, as a fit's split holds it."""
        grads = None if polys[0].grad is None else np.array([p.grad for p in polys])
        return np.array([p.eval for p in polys]), grads

    @pytest.mark.parametrize("dedup", [False, True], ids=["all", "dedup"])
    @pytest.mark.parametrize("kind", ["grad", "vca"])
    def test_the_fits_candidates_are_the_pairwise_call_bitwise(self, dedup, kind):
        # the fit's one broadcast over the two factor blocks gives the values
        # and gradients of the pairwise call over the same pairs, i major;
        # with degree 2's dedup only j >= i.  The fit records the pairwise
        # call's node, with the pairs' factors, and members of degree t.
        X = sample_generic(30, 3, 0)
        mode = NormalizationMode(kind if kind == "vca" else "gradient")
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=mode, dedup_degree2=dedup))
        lefts = basis.F[1]
        for t in [2] + ([] if dedup else [3, 4]):
            rights = basis.F[t - 1]
            rows = engine._factor_pairs(len(lefts), len(rights), t == 2 and dedup)[2]
            ev, gr = engine._candidates(self.block(lefts), self.block(rights), rows)
            pairs = [(i, j) for i in range(len(lefts)) for j in range(len(rights))
                     if j >= i or rows is None]
            want = multiply([lefts[i] for i, _ in pairs], [rights[j] for _, j in pairs])
            assert ev.tobytes() == want.evals.tobytes()
            assert (gr is None) == (want.grads is None) == (kind == "vca")
            if kind == "grad":
                assert gr.tobytes() == want.grads.tobytes()
            projection = basis.F[t][0].prov[0].children[0][0]
            product = projection.lead[0][0]
            assert projection.lead == [(product, c) for c in range(len(pairs))]
            assert product.left == [lefts[i].prov for i, _ in pairs]
            assert product.right == [rights[j].prov for _, j in pairs]
            assert {p.degree for p in basis.F[t] + basis.G[t]} == {t}
            assert want.degrees == [t] * len(want)

    def test_candidates_of_unequal_lists(self):
        X = generic_points(5, 2, seed=3)
        x, y = variables(X)
        (q,) = multiply([x], [y])
        ev, gr = engine._candidates(self.block([x, y]), self.block([x, y, q]))
        want = multiply([x, x, x, y, y, y], [x, y, q, x, y, q])
        assert ev.tobytes() == want.evals.tobytes() and gr.tobytes() == want.grads.tobytes()
        assert want.degrees == [2, 2, 3, 2, 2, 3]
        ev, _ = engine._candidates(self.block([x, y]), self.block([x, y]),
                                   engine._factor_pairs(2, 2, True)[2])
        assert ev.tobytes() == multiply([x, x, y], [x, y, y]).evals.tobytes()

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

    def test_flatten_keeps_the_lead_and_every_weight(self):
        X = generic_points(7, 3, seed=4)
        rng = rng_for(23)
        H = [random_poly(X, d, rng) for d in (1, 2, 0, 2)]
        lead = [random_poly(X, 3, rng), variable_poly(1, X)]
        W = rng.normal(size=(4, 2))
        W[0, 1] = 0.0
        W[2, 1] = -0.0
        out = linear_combine(H, W, lead=lead)
        records, ids = flatten([lead[1].prov] + [h.prov for h in H] + [out[1].prov])
        weights = [1.0, *W[:, 1].tolist()]
        assert records[ids[-1]] == {"kind": "lincomb", "children": ids[:-1], "weights": weights}
        # repr tells -0.0 from 0.0
        assert repr(records[ids[-1]]["weights"]) == repr(weights)
        assert all(type(w) is float for w in records[ids[-1]]["weights"])


def calls_under(roots):
    """Every kernel call (node) under ``roots`` and its column count, in walk order."""
    memo = {}
    walk(roots, const=lambda value: [None], var=lambda index: [None],
         product=lambda lefts, rights: [None] * len(lefts),
         combine=lambda children, weights, leads: [None] * weights.shape[1], memo=memo)
    return [(node, len(outs)) for node, outs in memo.items()]


class TestFlatten:
    """:func:`flatten` writes every column of every call under the roots, in walk order."""

    @staticmethod
    def assert_whole_calls(roots):
        records, root_ids = flatten(roots)
        columns = [(node, j) for node, width in calls_under(roots) for j in range(width)]
        # the records are the calls' columns, each once: a call's columns
        # together and in order, after its children's
        again, ids = flatten(list(roots) + columns)
        assert again == records and ids[: len(roots)] == root_ids
        assert ids[len(roots):] == list(range(len(records)))
        at = dict(zip(columns, ids[len(roots):]))
        for (node, j), i in at.items():
            if isinstance(node, core.PConst):
                want = {"kind": "const", "value": node.value}
            elif isinstance(node, core.PVar):
                want = {"kind": "var", "index": node.index}
            elif isinstance(node, core.PProd):
                want = {"kind": "product", "left": at[node.left[j]], "right": at[node.right[j]]}
            else:  # the lead, then every child of the call, zero weights as given
                lead = [at[node.lead[j]]] if node.lead else []
                want = {"kind": "lincomb", "children": lead + [at[c] for c in node.children],
                        "weights": [1.0] * len(lead) + node.weights[:, j].tolist()}
            # repr also tells 1 from 1.0 and -0.0 from 0.0
            assert records[i] == want and repr(records[i]) == repr(want)
            kids = want.get("children") or [want[k] for k in ("left", "right") if k in want]
            assert all(k < i for k in kids)  # children before parents
        return records, root_ids

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
            self.assert_whole_calls([p.prov for p in polys])
            self.assert_whole_calls([p.prov for p in reversed(polys)])

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_a_child_weighted_by_a_later_column_only(self, zero):
        # column 0 skips H[1], yet both columns list it, after H[1]'s subtree
        X = generic_points(6, 2, seed=31)
        rng = rng_for(32)
        H = [random_poly(X, d, rng) for d in (1, 3, 2)]
        W = rng.normal(size=(3, 2))
        W[1, 0] = zero
        out = linear_combine(H, W)
        roots = [out[0].prov, out[1].prov, out[0].prov]
        records, ids = self.assert_whole_calls(roots)
        assert ids == [len(records) - 2, len(records) - 1, len(records) - 2]
        first, second = records[ids[0]], records[ids[1]]
        assert first["children"] == second["children"] and len(first["children"]) == 3
        assert repr(first["weights"][1]) == repr(zero)
        lead = [random_poly(X, 2, rng) for _ in range(2)]
        self.assert_whole_calls([p.prov for p in linear_combine(H, W, lead=lead)][::-1])

    def test_a_deep_lone_root(self):
        # the top F member of an epsilon-0 fit on 350 points of a line is a
        # combination of degree 348; its DAG is walked without recursing
        # one frame per degree
        X = sample_generic(350, 1, 0)
        basis, _ = fit(X, EngineConfig(epsilon=0.0, mode=NormalizationMode.gradient()))
        top = basis.f_polys()[-1]
        assert top.degree > 300
        records, (root,) = flatten([top.prov])
        assert records[root]["kind"] == "lincomb" and len(records) > top.degree


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

    @pytest.mark.parametrize(
        "mode",
        [NormalizationMode.vca_baseline(), NormalizationMode.coefficient(),
         NormalizationMode.gradient()],
        ids=["vca", "coeff", "grad"],
    )
    def test_rebuilt_records_flatten_to_the_same_records(self, mode):
        # replay rebuilds the fit's kernel calls, so its output writes the
        # same records, for a fitted basis and for the reduced one
        X = sample_generic(40, 3, 5)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=mode))
        reduced = postprocess.reduce_basis(basis, X).kept
        assert 0 < len(reduced) < len(basis.g_polys())
        for polys in (basis.f_polys() + basis.g_polys(), basis.f_polys()[:1] + reduced):
            records, root_ids = flatten([p.prov for p in polys])
            built = replay(records, X)
            again = flatten([built[i].prov for i in root_ids])
            assert again == (records, root_ids) and repr(again) == repr((records, root_ids))

    def test_hand_built_records_replay_to_the_same_values(self):
        # replay may merge or split sibling calls of a hand-built DAG, so
        # the values and degrees, not the record order, come back
        X = generic_points(8, 2, seed=10)
        rng = rng_for(14)
        polys = [random_poly(X, d, rng) for d in (1, 3, 5)]
        records, root_ids = flatten([p.prov for p in polys])
        built = replay(records, X)
        for p, i in zip(polys, root_ids):
            assert built[i].degree == p.degree
            np.testing.assert_allclose(built[i].eval, p.eval, rtol=1e-12, atol=1e-12)

    def test_a_node_list_in_the_depth_first_layout_loads(self):
        # the earlier writer's layout: depth first, a lead before the
        # children it reached first, zero weights dropped; columns
        # x0^2 + x0 + 3 (record 6) and x0 x1 + x0 / 2 + 2 x1 (record 3)
        records = [
            {"kind": "var", "index": 0}, {"kind": "var", "index": 1},
            {"kind": "product", "left": 0, "right": 1},
            {"kind": "lincomb", "children": [2, 0, 1], "weights": [1.0, 0.5, 2.0]},
            {"kind": "product", "left": 0, "right": 0},
            {"kind": "const", "value": 1.0},
            {"kind": "lincomb", "children": [4, 0, 5], "weights": [1.0, 1.0, 3.0]},
        ]
        X = PointSet([[0.5, -1.0], [2.0, 0.25], [-1.5, 3.0]])
        built = replay(records, X)
        x0, x1 = X.points.T
        assert built[6].degree == built[3].degree == 2
        np.testing.assert_allclose(built[6].eval, x0 * x0 + x0 + 3, rtol=1e-15)
        np.testing.assert_allclose(built[3].eval, x0 * x1 + 0.5 * x0 + 2 * x1, rtol=1e-15)

    def test_childless_lincomb_is_the_zero_polynomial(self):
        X = generic_points(3, 2, seed=2)
        record = {"kind": "lincomb", "children": [], "weights": []}
        (zero,) = replay([record], X)
        assert zero.degree == 0
        # rebuilt as the constant 1 with weight 0.0, which replays as zero again
        records, (i,) = flatten([zero.prov])
        assert records[i] == {"kind": "lincomb", "children": [0], "weights": [0.0]}
        assert replay(records, X)[i].degree == 0 and not replay(records, X)[i].eval.any()
        ((_, grad),) = replay_many([zero], X.points, grads=True)
        assert not zero.eval.any() and not grad.any()

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"kind": "product", "left": 0, "right": -1}, ": child index -1 is not in"),
            ({"kind": "product", "left": 0, "right": 1}, ": child index 1 is not in"),
            ({"kind": "lincomb", "children": [0, 2], "weights": [1.0, 2.0]}, ": child index 2"),
            ({"kind": "lincomb", "children": [True], "weights": [1.0]}, ": child index True"),
            ({"kind": "lincomb", "children": [0], "weights": [1.0, 2.0]}, ": 1 children but 2"),
            ({"kind": "lincomb", "children": [0]}, " has no 'weights' field"),
            ({"kind": "power", "base": 0}, ": unknown kind 'power'"),
            ({"index": 0}, " has no 'kind' field"),
            ({"kind": "lincomb", "children": [0], "weights": [float("inf")]}, ": weights must be"),
            ({"kind": "lincomb", "children": [0, 0], "weights": [1.0, float("nan")]},
             ": weights must be finite"),
            ({"kind": "lincomb", "children": [0], "weights": [10**400]}, ": weights must be"),
            ({"kind": "const", "value": 10**400}, ": value must be finite"),
            ({"kind": "const", "value": 0}, ": constant polynomial must be finite and nonzero"),
            ({"kind": "var", "index": 2}, ": variable index 2 out of range"),
        ],
        ids=[f"bad{k}" for k in range(14)],
    )
    def test_malformed_record_rejected(self, bad, match):
        X = generic_points(3, 2, seed=3)
        with pytest.raises(ContractViolation, match=f"^node 1{match}"):
            replay([{"kind": "var", "index": 0}, bad], X)

    @pytest.mark.parametrize("tail", [[], [{"kind": "lincomb", "children": [9], "weights": [1.0]}]],
                             ids=["last", "before-a-malformed-record"])
    def test_a_product_whose_left_factor_has_degree_2_is_named(self, tail):
        records = [{"kind": "var", "index": 0}, {"kind": "var", "index": 1},
                   {"kind": "product", "left": 0, "right": 1},
                   {"kind": "product", "left": 2, "right": 0}] + tail
        with pytest.raises(ContractViolation, match="node 3: left factor must have degree 1"):
            replay(records, generic_points(3, 2, seed=3))

    def test_variable_index_out_of_range(self):
        X = generic_points(4, 2, seed=1)
        p = variable_poly(1, X)
        with pytest.raises(ContractViolation):
            replay_many([p], np.zeros((3, 1)))


def _count_kernel_calls(monkeypatch):
    """A list that every ``PLin`` and ``PProd`` made from now on appends
    its kind to: one entry per kernel call."""
    made = []
    for cls in (core.PLin, core.PProd):
        class Counting(cls):
            def __init__(self, *args, _kind=cls.__name__):
                made.append(_kind)
                super().__init__(*args)

        monkeypatch.setattr(core, cls.__name__, Counting)
    return made


def _middle_of_a_call(records, lead):
    """A record in the middle of three consecutive ``lincomb`` columns of
    one call, with (``lead``) or without a lead."""
    for i in range(1, len(records) - 1):
        trio = records[i - 1:i + 2]
        if all(r["kind"] == "lincomb" and len(r["children"]) > 2 for r in trio):
            heads = {r["weights"][0] == 1.0 for r in trio}
            if heads == {lead} and len({tuple(r["children"][lead:]) for r in trio}) == 1:
                return i
    raise AssertionError("no multi-column call")


def _set(field, position, value):
    """Set ``records[i][field][position]`` to ``value``, or to
    ``value(records, i)`` if it is callable."""
    def tamper(records, i):
        records[i][field][position] = value(records, i) if callable(value) else value
    return tamper


class TestGroupedReplay:
    """Replay makes one kernel call per stored call: a run of consecutive
    records of one kind whose inputs all come before the run."""

    @pytest.fixture(scope="class")
    def grad_records(self):
        X = sample_generic(50, 3, 0)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=NormalizationMode.gradient()))
        return X, flatten([p.prov for p in basis.f_polys() + basis.g_polys()])[0]

    @pytest.mark.parametrize(
        "mode",
        [NormalizationMode.vca_baseline(), NormalizationMode.coefficient(),
         NormalizationMode.gradient()],
        ids=["vca", "coeff", "grad"],
    )
    def test_a_fitted_basis_replays_in_one_kernel_call_per_fitted_call(self, mode, monkeypatch):
        # the fitted basis and the reduced one, which keeps some of its roots
        X = sample_generic(50, 3, 0)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=mode))
        reduced = basis.f_polys()[:1] + postprocess.reduce_basis(basis, X).kept
        cases = []
        for polys in (basis.f_polys() + basis.g_polys(), reduced):
            roots = [p.prov for p in polys]
            fitted = []  # the kind of every kernel call under the roots
            walk(roots, const=lambda value: [None], var=lambda index: [None],
                 product=lambda lefts, rights: fitted.append("PProd") or [None] * len(lefts),
                 combine=lambda kids, w, leads: fitted.append("PLin") or [None] * w.shape[1])
            cases.append((fitted, flatten(roots)[0]))
        made = _count_kernel_calls(monkeypatch)
        for fitted, records in cases:
            made.clear()
            replay(records, generic_points(20, 3, seed=6))
            assert sorted(made) == sorted(fitted) and len(made) < len(records)

    @pytest.mark.parametrize("lead, tamper", [
        (False, _set("weights", -1, float("nan"))),
        (False, _set("weights", -1, float("inf"))),
        (False, _set("weights", -1, 10**400)),
        (False, _set("weights", -1, True)),
        (False, _set("weights", -1, "1.0")),
        (False, lambda records, i: records[i]["weights"].pop()),
        (False, _set("children", -1, lambda records, i: i)),
        (False, _set("children", -1, lambda records, i: float(records[i]["children"][-1]))),
        (True, _set("weights", -1, float("nan"))),
        (True, _set("weights", -1, 10**400)),
        (True, _set("children", -1, lambda records, i: i + 1)),
        (True, _set("children", 0, lambda records, i: i + 1)),
        # Python would read it as the same lead, a record before the run
        (True, _set("children", 0, lambda records, i: records[i]["children"][0] - len(records))),
        (False, lambda records, i: records[i].update(kind="power")),
    ], ids=["nan", "inf", "huge-int", "bool", "string", "weight-missing", "child-not-earlier",
            "child-as-float", "lead-run-nan", "lead-run-huge-int", "lead-run-child-not-earlier",
            "lead-not-earlier", "lead-negative", "unknown-kind"])
    def test_a_malformed_record_inside_a_call_is_named(self, grad_records, lead, tamper):
        X, records = grad_records
        i = _middle_of_a_call(records, lead)
        bad = copy.deepcopy(records)
        tamper(bad, i)
        with pytest.raises(ContractViolation, match=f"node {i}:"):
            replay(bad, X)

    @pytest.mark.parametrize("field, value", [
        ("left", lambda rec, i: float(rec["left"])),
        ("right", lambda rec, i: True),
        ("left", lambda rec, i: -1),
        ("right", lambda rec, i: i),
        ("kind", lambda rec, i: "power"),
    ], ids=["factor-as-float", "factor-bool", "factor-negative", "factor-not-earlier",
            "unknown-kind"])
    def test_a_malformed_product_inside_a_call_is_named(self, grad_records, field, value):
        X, records = grad_records
        i = next(i for i in range(1, len(records) - 1)
                 if all(r["kind"] == "product" for r in records[i - 1:i + 2]))
        bad = copy.deepcopy(records)
        bad[i][field] = value(bad[i], i)
        with pytest.raises(ContractViolation, match=f"node {i}:"):
            replay(bad, X)

    @pytest.mark.parametrize("first, second", [
        (_set("weights", -1, float("nan")), _set("weights", -1, "1.0")),
        (_set("weights", -1, "1.0"), _set("weights", -1, float("nan"))),
        (_set("weights", -1, 10**400), lambda records, i: records[i].pop("kind")),
    ], ids=["nan-then-string", "string-then-nan", "huge-int-then-no-kind"])
    def test_of_two_malformed_records_the_first_is_named(self, grad_records, first, second):
        X, records = grad_records
        i = _middle_of_a_call(records, False)
        bad = copy.deepcopy(records)
        first(bad, i)
        second(bad, i + 1)
        with pytest.raises(ContractViolation, match=f"node {i}:"):
            replay(bad, X)

    @pytest.mark.parametrize("lead, change, extra", [
        # the column before it as the lead, a record of its own run: the
        # run splits before it
        (True, _set("children", 0, lambda records, i: i - 1), 1),
        # its lead becomes a child, so it makes a lead-less call of its
        # own, and the columns after it a lead call again
        (True, _set("weights", 0, 0.5), 2),
        # a child weighted 1.0 in a lead-less call, which goes on
        (False, _set("weights", 0, 1.0), 0),
    ], ids=["lead-a-level-up", "lead-weight-0.5", "first-weight-1.0"])
    def test_a_changed_column_splits_its_call_where_the_run_breaks(
            self, grad_records, lead, change, extra, monkeypatch):
        X, records = grad_records
        i = _middle_of_a_call(records, lead)
        changed = copy.deepcopy(records)
        change(changed, i)
        made = _count_kernel_calls(monkeypatch)
        replay(records, X)
        calls = len(made)
        built = replay(changed, X)
        assert len(made) == 2 * calls + extra
        kids, weights = changed[i]["children"], changed[i]["weights"]
        want = sum(w * built[j].eval for w, j in zip(weights, kids))
        np.testing.assert_allclose(built[i].eval, want, rtol=1e-10, atol=1e-10)

    def test_interleaved_sibling_calls_replay_one_call_per_run(self, monkeypatch):
        # the columns of a lead call and of a lead-less call over the same
        # children, written alternately after every child: no run spans two
        # records, so each column is a call of its own, with the same values
        X = generic_points(12, 2, seed=9)
        rng = rng_for(33)
        kids = [random_poly(X, d, rng) for d in (1, 2, 3)]
        leads = [random_poly(X, 3, rng) for _ in range(3)]
        with_lead = linear_combine(kids, rng.normal(size=(3, 3)), lead=leads)
        plain = linear_combine(kids, rng.normal(size=(3, 3)))
        records, ids = flatten([p.prov for p in [*with_lead, *plain]])
        start = ids[0]
        assert ids == list(range(start, len(records))) and len(ids) == 6
        order = [*range(start)] + [start + j for pair in zip((0, 1, 2), (3, 4, 5)) for j in pair]
        made = _count_kernel_calls(monkeypatch)
        consecutive = replay(records, X)
        calls = len(made)
        interleaved = replay([records[k] for k in order], X)
        assert len(made) - calls == calls - 2 + 6  # the two calls' six columns alone
        for new, old in enumerate(order):
            assert interleaved[new].degree == consecutive[old].degree
            np.testing.assert_allclose(interleaved[new].eval, consecutive[old].eval,
                                       rtol=1e-12, atol=1e-12)

    def test_a_product_of_a_record_of_its_own_run_starts_a_call(self, monkeypatch):
        # x0 x1, then x0 (x0 x1): the second product's factor is the first
        records = [{"kind": "var", "index": 0}, {"kind": "var", "index": 1},
                   {"kind": "product", "left": 0, "right": 1},
                   {"kind": "product", "left": 0, "right": 2}]
        X = generic_points(5, 2, seed=4)
        made = _count_kernel_calls(monkeypatch)
        built = replay(records, X)
        x0, x1 = X.points.T
        assert made == ["PProd", "PProd"] and built[3].degree == 3
        np.testing.assert_allclose(built[3].eval, x0 * x0 * x1, rtol=1e-15)

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
        # a lead call and a plain call over the same children, a first
        # weight of 1.0 on a child that was no lead in the fit, and a lead
        # alone
        X = generic_points(6, 2, seed=8)
        rng = rng_for(32)
        low, *H = [random_poly(X, d, rng) for d in (1, 3, 2)]
        polys = [*linear_combine(H, rng.normal(size=(2, 2)), lead=[low, low]),
                 *linear_combine(H, rng.normal(size=(2, 1))),
                 *linear_combine([low, *H], [[1.0], [-0.5], [2.0]]),
                 *linear_combine([low], [[1.0]])]
        records, ids = flatten([p.prov for p in polys])
        assert records[ids[3]]["weights"] == [1.0, -0.5, 2.0]
        built = replay(records, X)  # reads the 1.0 as a lead: check values, not records
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


class TestBlockReader:
    """``core._blocks`` reads a kernel input once: a ``Rows``'s own blocks,
    or a list's members stacked."""

    def test_rows_give_their_own_blocks_and_make_no_rows(self):
        X = generic_points(6, 2, seed=60)
        rows = multiply(variables(X), variables(X))
        ev, gr, degrees, provs, points = core._blocks(rows)
        assert ev is rows.evals and gr is rows.grads and degrees is rows.degrees
        assert points is X and provs == rows.provs
        assert rows._polys is None

    def test_a_list_is_stacked_with_its_degrees_and_provenance(self):
        X = generic_points(7, 3, seed=61)
        rng = rng_for(62)
        polys = [random_poly(X, d, rng) for d in (0, 1, 2, 3)]
        ev, gr, degrees, provs, points = core._blocks(polys)
        assert ev.tobytes() == np.array([p.eval for p in polys]).tobytes()
        assert gr.tobytes() == np.array([p.grad for p in polys]).tobytes()
        assert ev.shape == (4, 7) and gr.shape == (4, 7, 3)
        assert degrees == [0, 1, 2, 3] and provs == [p.prov for p in polys]
        assert points is X

    def test_a_values_only_member_gives_no_gradient_block(self):
        X = generic_points(5, 2, seed=63)
        polys = [variable_poly(0, X), variable_poly(1, X, grads=False), constant_poly(1.0, X)]
        ev, gr, *_ = core._blocks(polys)
        assert gr is None and ev.tobytes() == np.array([p.eval for p in polys]).tobytes()

    def test_members_on_two_point_sets_are_rejected(self):
        X, Y = generic_points(4, 2, seed=64), generic_points(4, 2, seed=65)
        on_x, on_y = variables(X), variables(Y)
        with pytest.raises(ContractViolation, match="polynomials live on different point sets"):
            core._blocks([on_x[0], on_y[1]])
        with pytest.raises(ContractViolation, match="polynomials live on different point sets"):
            linear_combine(on_x, np.eye(2), lead=on_y)
        with pytest.raises(ContractViolation, match="polynomials live on different point sets"):
            multiply(on_x, on_y)
        with pytest.raises(ContractViolation, match="polynomials live on different point sets"):
            multiply(on_x, multiply(on_y, on_y))


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
