"""Basis/report JSON schemas and replay-based reconstruction."""

import json

import numpy as np
import pytest

from conftest import generic_points
from mavik import core, serialize
from mavik.coefficients import expand_many
from mavik.core import PointSet
from mavik.engine import EngineConfig, NormalizationMode, evaluate, fit
from mavik.errors import ContractViolation
from mavik.serialize import (
    SCHEMA_VERSION,
    basis_from_json,
    basis_to_json,
    points_digest,
    report_to_json,
)


@pytest.fixture
def fitted():
    X = generic_points(15, 2, seed=41)
    basis, report = fit(X, EngineConfig(epsilon=1e-7, mode=NormalizationMode.gradient()))
    return X, basis, report


class TestBasisRoundtrip:
    def test_rebuild_reproduces_evaluations_and_gradients(self, fitted):
        X, basis, _ = fitted
        obj = basis_to_json(basis, points=X)
        rebuilt = basis_from_json(obj, X)
        assert rebuilt.g_profile() == basis.g_profile()
        assert rebuilt.f_profile() == basis.f_profile()
        for a, b in zip(basis.g_polys(), rebuilt.g_polys()):
            np.testing.assert_allclose(b.eval, a.eval, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(b.grad, a.grad, rtol=1e-9, atol=1e-12)
            assert b.degree == a.degree

    def test_rebuild_on_new_points_matches_replay(self, fitted):
        X, basis, _ = fitted
        obj = basis_to_json(basis, points=X)
        probe = generic_points(6, 2, seed=42)
        rebuilt = basis_from_json(obj, probe)
        F_direct, G_direct = evaluate(basis, probe)
        np.testing.assert_allclose(
            np.column_stack([p.eval for p in rebuilt.f_polys()]), F_direct, atol=1e-12
        )
        np.testing.assert_allclose(
            np.column_stack([p.eval for p in rebuilt.g_polys()]), G_direct, atol=1e-12
        )

    def test_json_serializable_and_versioned(self, fitted):
        X, basis, report = fitted
        obj = basis_to_json(basis, points=X)
        text = json.dumps(obj)
        assert json.loads(text)["schema_version"] == SCHEMA_VERSION
        rep = report_to_json(report)
        assert rep["schema_version"] == SCHEMA_VERSION
        assert "wall_time" not in json.dumps(rep)

    def test_extents_preserved(self, fitted):
        X, basis, _ = fitted
        obj = basis_to_json(basis, points=X)
        stored = [rec["extent"] for rec in obj["g"]]
        np.testing.assert_allclose(stored, basis.g_extents())

    def test_dimension_mismatch_rejected(self, fitted):
        X, basis, _ = fitted
        obj = basis_to_json(basis, points=X)
        with pytest.raises(ContractViolation):
            basis_from_json(obj, PointSet([[1.0, 2.0, 3.0]]))

    def test_schema_version_checked(self, fitted):
        X, basis, _ = fitted
        obj = basis_to_json(basis, points=X)
        obj["schema_version"] = 99
        with pytest.raises(ContractViolation):
            basis_from_json(obj, X)


@pytest.mark.parametrize("mode", [NormalizationMode.gradient(), NormalizationMode.vca_baseline()])
def test_reload_reproduces_node_list_and_expansions(mode):
    # reloading rebuilds every node with the fit's kernels; writing the
    # reloaded basis again must give the same nodes (zero-weight drop, lead
    # term first, degrees) and the same symbolic expansions
    X = generic_points(20, 2, seed=43)
    basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=mode))
    obj = basis_to_json(basis, points=X)
    reloaded = basis_from_json(obj, X)
    again = basis_to_json(reloaded, points=X)
    assert again["nodes"] == obj["nodes"]
    assert again["f"] == obj["f"] and again["g"] == obj["g"]
    original = basis.f_polys() + basis.g_polys()
    rebuilt = reloaded.f_polys() + reloaded.g_polys()
    assert expand_many(rebuilt) == expand_many(original)


def test_load_and_evaluate_replay_once(fitted, monkeypatch):
    # loading already rebuilds the basis on the new points; evaluating on
    # those same points must reuse it instead of replaying the nodes again
    X, basis, _ = fitted
    obj = basis_to_json(basis, points=X)
    probe = generic_points(6, 2, seed=44)
    expected = evaluate(basis, probe)
    calls = []
    original = core.replay

    def counted(records, pointset):
        calls.append(len(records))
        return original(records, pointset)

    monkeypatch.setattr(core, "replay", counted)
    monkeypatch.setattr(serialize, "replay", counted)
    F_mat, G_mat = evaluate(basis_from_json(obj, probe), probe)
    assert calls == [len(obj["nodes"])]
    np.testing.assert_allclose(F_mat, expected[0], atol=1e-12)
    np.testing.assert_allclose(G_mat, expected[1], atol=1e-12)


def test_points_digest_is_order_sensitive():
    a = PointSet([[1.0, 2.0], [3.0, 4.0]])
    b = PointSet([[3.0, 4.0], [1.0, 2.0]])
    assert points_digest(a) != points_digest(b)
    assert points_digest(a) == points_digest(PointSet([[1.0, 2.0], [3.0, 4.0]]))
