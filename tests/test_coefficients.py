"""Symbolic expansion and coefficient Grams, checked against a sparse oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generic_points, random_poly, rng_for
from mavik.coefficients import PRUNE_TOL, CoeffVec, coeff_gram, expand, expand_many
from mavik.core import (
    constant_poly,
    flatten,
    linear_combine,
    multiply,
    replay_many,
    variable_poly,
    variables,
)
from mavik.engine import EngineConfig, NormalizationMode, fit
from mavik.errors import ResourceLimitError


def reference_expand(polys, absolute=False):
    """Sparse dict expansion of the flattened records, children first.

    A product adds the products of every pair of its factors' terms, in the
    left factor's term order; a combination adds its children's scaled terms
    in stored order.  Terms below ``PRUNE_TOL`` are dropped after each record.
    With ``absolute``, every constant and weight enters by its magnitude, so
    a term is the sum of the magnitudes its rounding is relative to.
    """
    scalar = abs if absolute else float
    n = polys[0].points.n
    records, root_ids = flatten([p.prov for p in polys])
    expanded = []
    for rec in records:
        terms = {}
        if rec["kind"] == "const":
            terms = {(0,) * n: scalar(rec["value"])}
        elif rec["kind"] == "var":
            terms = {tuple(int(k == rec["index"]) for k in range(n)): 1.0}
        elif rec["kind"] == "product":
            for ea, ca in expanded[rec["left"]].items():
                for eb, cb in expanded[rec["right"]].items():
                    key = tuple(a + b for a, b in zip(ea, eb))
                    terms[key] = terms.get(key, 0.0) + ca * cb
        else:
            for j, w in zip(rec["children"], rec["weights"]):
                for e, c in expanded[j].items():
                    terms[e] = terms.get(e, 0.0) + scalar(w) * c
        expanded.append({e: c for e, c in terms.items() if abs(c) >= PRUNE_TOL})
    return [expanded[i] for i in root_ids]


def reference_gram(polys):
    """Gram of the reference expansions over the union of their monomials."""
    vecs = reference_expand(polys)
    monomials = sorted({e for v in vecs for e in v})
    M = np.array([[v.get(e, 0.0) for e in monomials] for v in vecs])
    return M @ M.T


class TestExpand:
    def test_linear_combination_of_variables(self):
        X = generic_points(3, 2, seed=0)
        (p,) = linear_combine(variables(X), [[2.0], [3.0]])
        assert expand(p).terms == {(1, 0): 2.0, (0, 1): 3.0}

    def test_product_with_affine_factor(self):
        X = generic_points(3, 2, seed=1)
        x = variable_poly(0, X)
        (affine,) = linear_combine([x, constant_poly(1.0, X)], [[1.0], [1.0]])
        (p,) = multiply([x], [affine])
        assert expand(p).terms == {(2, 0): 1.0, (1, 0): 1.0}

    def test_random_trees_match_replay_oracle(self):
        X = generic_points(6, 3, seed=2)
        rng = rng_for(3)
        probe = rng_for(4).uniform(-1, 1, size=(20, 3))
        for _ in range(10):
            p = random_poly(X, 4, rng)
            cv = expand(p)
            ((replayed, _),) = replay_many([p], probe)
            scale = max(1.0, np.abs(replayed).max())
            np.testing.assert_allclose(
                cv.evaluate(probe), replayed, rtol=1e-9, atol=1e-9 * scale
            )
            assert cv.total_degree() <= p.degree

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_product_expansion_is_ring_homomorphism(self, seed):
        X = generic_points(5, 2, seed=5)
        rng = rng_for(seed)
        p = random_poly(X, 1, rng)
        q = random_poly(X, int(rng.integers(0, 3)), rng)
        lhs = expand(multiply([p], [q])[0])
        ep, eq = expand(p), expand(q)
        prod = {}
        for ea, ca in ep.terms.items():
            for eb, cb in eq.terms.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                prod[key] = prod.get(key, 0.0) + ca * cb
        rhs = CoeffVec(prod, 2)
        for key in set(lhs.terms) | set(rhs.terms):
            a, b = lhs.terms.get(key, 0.0), rhs.terms.get(key, 0.0)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_cancellation_gives_empty_expansion(self):
        X = generic_points(4, 2, seed=6)
        p = random_poly(X, 2, rng_for(7))
        (zero,) = linear_combine([p, p], [[1.0], [-1.0]])
        assert expand(zero).terms == {}
        assert np.allclose(zero.eval, 0.0) and np.allclose(zero.grad, 0.0)

    def test_children_of_weight_zero_add_nothing(self):
        # every child of a call is expanded, also one of weight 0 whose
        # degree is above that of the polynomials asked for
        X = generic_points(4, 2, seed=6)
        x, y = variables(X)
        (xy,) = multiply([x], [y])
        zero, line = linear_combine([x, xy], [[0.0, 2.0], [0.0, 0.0]])
        assert (zero.degree, line.degree) == (0, 1)
        assert expand(zero).terms == {}
        assert expand(line).terms == {(1, 0): 2.0}

    def test_term_cap_raises_resource_error(self):
        X = generic_points(4, 3, seed=8)
        p = random_poly(X, 4, rng_for(9))
        with pytest.raises(ResourceLimitError):
            expand(p, term_cap=2)


def assert_terms_close(got, ref, magnitudes=None):
    """Each term within 1e-12 relative, or 1e-12 of the row's largest
    coefficient (of its largest ``magnitudes`` term, if given)."""
    scale = max(map(abs, (magnitudes or ref).values()), default=0.0)
    for key in set(got) | set(ref):
        assert got.get(key, 0.0) == pytest.approx(ref.get(key, 0.0), rel=1e-12, abs=1e-12 * scale)


class TestAgainstReference:
    def test_random_trees(self):
        X = generic_points(6, 3, seed=18)
        rng = rng_for(19)
        polys = [random_poly(X, int(rng.integers(0, 5)), rng) for _ in range(8)]
        for cv, terms in zip(expand_many(polys), reference_expand(polys)):
            assert_terms_close(cv.terms, terms)
        np.testing.assert_allclose(coeff_gram(polys), reference_gram(polys), rtol=1e-12)

    @pytest.mark.parametrize(
        "mode, count, dim",
        [(NormalizationMode.vca_baseline(), 20, 3), (NormalizationMode.coefficient(), 20, 3),
         (NormalizationMode.gradient(), 25, 2)],
    )
    def test_fitted_bases_match_the_reference(self, mode, count, dim):
        # a combination call is one matrix product, which sums its children
        # in BLAS's order rather than the reference's record order: the
        # terms agree up to rounding, relative to the summed magnitudes, and
        # no term appears or vanishes.  vca's degree-3 G members here are
        # symbolically zero: their coefficients, below 1.2e-13, are rounding
        # residue, whose terms may cross PRUNE_TOL either way
        X = generic_points(count, dim, seed=20)
        basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=mode))
        polys = basis.f_polys() + basis.g_polys()
        rows = zip(expand_many(polys), reference_expand(polys), reference_expand(polys, True))
        residue = 0
        for cv, terms, magnitudes in rows:
            assert_terms_close(cv.terms, terms, magnitudes)
            if max(map(abs, terms.values()), default=0.0) < 1e-12 * max(magnitudes.values()):
                residue += 1
            else:
                assert cv.terms.keys() == terms.keys()
        assert residue == (8 if mode.kind == "vca" else 0)
        for stratum in basis.F[1:]:
            if stratum:
                np.testing.assert_allclose(
                    coeff_gram(stratum), reference_gram(stratum), rtol=1e-12, atol=1e-15
                )

    def test_multiply_chains_match_bitwise(self):
        # each affine factor's call has one nonzero term per column, so its
        # product is exact; the product kernel adds a monomial's terms in
        # the left factor's term order, as the reference does
        X = generic_points(8, 3, seed=23)
        lefts = linear_combine([constant_poly(0.7, X), *variables(X)],
                               rng_for(24).normal(size=(4, 4)))
        chain = [lefts[0]]
        for left in lefts[1:]:
            chain += multiply([left], chain[-1:])
        assert [cv.terms for cv in expand_many(chain)] == reference_expand(chain)

    def test_one_combination_of_mixed_width_children(self):
        # 70 children whose kept rows have 4, 10 and 20 columns, and a lead
        # per column, in one call: the product agrees with the record-order
        # sum up to rounding, and the Gram stays exactly symmetric
        X = generic_points(10, 3, seed=25)
        rng = rng_for(26)
        lin = linear_combine([constant_poly(0.7, X), *variables(X)], rng.normal(size=(4, 8)))
        quad = linear_combine([*multiply(lin, lin[::-1]), *lin], rng.normal(size=(16, 12)))
        cubic = multiply([*lin, *lin][:12], quad)
        children = [*lin, *quad, *cubic, *lin, *quad, *cubic]
        assert len(children) == 64
        (lead,) = multiply(lin[:1], quad[:1])
        combo = linear_combine([*children, *lin[:6]], rng.normal(size=(70, 5)),
                               lead=[lead, *cubic[:4]])
        memo = {}
        coeff_gram(lin, memo=memo)
        coeff_gram(quad, memo=memo)
        gram = coeff_gram(combo, memo=memo)
        assert {rows.shape[1] for rows in memo.values()} == {4, 10, 20}
        assert np.array_equal(gram, gram.T)
        np.testing.assert_allclose(gram, reference_gram(combo), rtol=1e-12)
        for cv, terms in zip(expand_many(combo), reference_expand(combo)):
            assert cv.terms.keys() == terms.keys()
            assert_terms_close(cv.terms, terms)

    def test_tiny_coefficients_are_pruned_at_every_record(self):
        # the 1e-15 y term is dropped from p, so scaling p up cannot revive it
        X = generic_points(4, 2, seed=22)
        x, y = variables(X)
        (p,) = linear_combine([x, y], [[1.0], [1e-15]])
        (q,) = linear_combine([p], [[1e6]])
        assert expand(q).terms == reference_expand([q])[0] == {(1, 0): 1e6}

    def test_term_cap_counts_monomials_up_to_the_top_degree(self):
        # x^2 has one term, but degree 2 in 3 variables has C(5, 3) = 10
        # monomials, and the dense expansion holds all of them
        X = generic_points(4, 3, seed=21)
        x = variable_poly(0, X)
        (sq,) = multiply([x], [x])
        assert expand(sq, term_cap=10).terms == {(2, 0, 0): 1.0}
        with pytest.raises(ResourceLimitError):
            expand(sq, term_cap=9)
        with pytest.raises(ResourceLimitError):
            coeff_gram([sq, x], term_cap=9)


class TestCoeffGram:
    def test_orthogonal_pair(self):
        X = generic_points(4, 2, seed=10)
        x, y = variables(X)
        plus, minus = linear_combine([x, y], [[1.0, 1.0], [1.0, -1.0]])
        np.testing.assert_allclose(coeff_gram([plus, minus]), [[2.0, 0.0], [0.0, 2.0]])

    def test_duplicate_squares(self):
        X = generic_points(4, 2, seed=11)
        x = variable_poly(0, X)
        (sq,) = multiply([x], [x])
        np.testing.assert_allclose(coeff_gram([sq, sq]), [[1.0, 1.0], [1.0, 1.0]])

    def test_random_stratum_is_psd(self):
        X = generic_points(6, 3, seed=12)
        rng = rng_for(13)
        polys = [random_poly(X, 2, rng) for _ in range(5)]
        gram = coeff_gram(polys)
        assert np.linalg.eigvalsh(gram).min() >= -1e-10

    def test_empty(self):
        assert coeff_gram([]).shape == (0, 0)

    def test_narrower_kept_rows_give_the_memoless_gram_bitwise(self):
        # a memo first filled by degree-1 Grams holds 4-column rows; the
        # degree-3 Gram reads them zero-padded to 20 columns
        X = generic_points(8, 3, seed=14)
        rng = rng_for(15)
        lin = linear_combine([constant_poly(0.7, X), *variables(X)], rng.normal(size=(4, 3)))
        quad = linear_combine([*multiply(lin, lin[::-1]), *lin], rng.normal(size=(6, 2)))
        cubic = linear_combine(
            [*multiply(lin[:2], quad), *quad, *lin], rng.normal(size=(7, 3)), lead=lin
        )
        memo = {}
        coeff_gram(lin, memo=memo)
        assert {rows.shape[1] for rows in memo.values()} == {4}
        assert coeff_gram(cubic, memo=memo).tobytes() == coeff_gram(cubic).tobytes()
        assert memo[lin[0].prov[0]].shape[1] == 4


def test_expand_many_shares_cache():
    X = generic_points(5, 2, seed=17)
    x, y = variables(X)
    (shared,) = multiply([x], [y])
    (a,) = linear_combine([shared, x], [[1.0], [2.0]])
    (b,) = linear_combine([shared, y], [[3.0], [4.0]])
    va, vb = expand_many([a, b])
    assert va.terms == {(1, 1): 1.0, (1, 0): 2.0}
    assert vb.terms == {(1, 1): 3.0, (0, 1): 4.0}


def test_json_serialization_uses_graded_lexicographic_order():
    cv = CoeffVec({(0, 2): 1.0, (1, 0): 2.0, (2, 0): 3.0, (0, 0): 4.0}, 2)
    listed = [tuple(item["exps"]) for item in cv.to_json_obj()]
    assert listed == [(0, 0), (1, 0), (0, 2), (2, 0)]
