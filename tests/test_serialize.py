"""Basis/report JSON schemas, replay-based reconstruction and the JSON writer."""

import dataclasses
import enum
import itertools
import json
import re
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_canonical_json, generic_points
from mavik import core, serialize
from mavik.cli import main
from mavik.coefficients import expand_many
from mavik.core import PointSet, replay_many
from mavik.datasets import sample_generic, save_points
from mavik.engine import EngineConfig, NormalizationMode, evaluate, fit
from mavik.errors import ContractViolation, InternalInvariantViolation
from mavik.postprocess import reduce_basis
from mavik.retrieval import load_target_profiles, mode_from_kind, run_retrieval
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
        grads = replay_many(rebuilt.g_polys(), X.points, grads=True)
        for a, b, (_, grad) in zip(basis.g_polys(), rebuilt.g_polys(), grads):
            np.testing.assert_allclose(b.eval, a.eval, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(grad, a.grad, rtol=1e-9, atol=1e-12)
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
    # reloaded basis again must give the same nodes (whole calls, lead term
    # first, degrees) and the same symbolic expansions
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


@pytest.mark.parametrize("count, dim", [(50, 2), (50, 3), (50, 4), (50, 5), (100, 4)])
@pytest.mark.parametrize("kind", ["vca", "coeff", "grad"])
def test_a_saved_basis_replays_the_fits_calls_bitwise(kind, count, dim):
    # the node list holds whole kernel calls, so a load runs the fit's own
    # calls: its values, evaluations and reduction are the in-memory ones
    X = sample_generic(count, dim, 0)
    basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=mode_from_kind(kind, n_points=len(X))))
    loaded = basis_from_json(json.loads(json.dumps(basis_to_json(basis, points=X))), X)
    original = basis.f_polys() + basis.g_polys()
    rebuilt = loaded.f_polys() + loaded.g_polys()
    assert [p.eval.tobytes() for p in rebuilt] == [p.eval.tobytes() for p in original]
    fresh = sample_generic(1000, dim, 1)
    for got, want in zip(evaluate(loaded, fresh), evaluate(basis, fresh)):
        assert got.tobytes() == want.tobytes()
    pos = {id(p): i % len(original) for i, p in enumerate(original + rebuilt)}
    got, want = reduce_basis(loaded, X), reduce_basis(basis, X)
    assert [pos[id(p)] for p in got.kept] == [pos[id(p)] for p in want.kept]
    assert [(pos[id(p)], r) for p, r in got.removed] == [(pos[id(p)], r) for p, r in want.removed]


@pytest.mark.parametrize("kind", ["vca", "coeff"])
def test_a_lead_less_column_weighted_one_first_loads_bitwise(kind):
    # the first 25 points of {0,1,2}^4 give lead-less calls with a middle
    # column whose first weight is exactly 1.0; it must stay in its call
    X = PointSet(list(itertools.islice(itertools.product(range(3), repeat=4), 25)))
    basis, _ = fit(X, EngineConfig(epsilon=1e-6, mode=mode_from_kind(kind, n_points=len(X))))
    loaded = basis_from_json(json.loads(json.dumps(basis_to_json(basis, points=X))), X)
    original = basis.f_polys() + basis.g_polys()
    rebuilt = loaded.f_polys() + loaded.g_polys()
    assert [p.eval.tobytes() for p in rebuilt] == [p.eval.tobytes() for p in original]


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


@pytest.mark.parametrize("key, field, value, message", [
    ("f", "root", -1, "no degree-0 node at basis root -1"),
    ("f", "root", None, "no degree-0 node at basis root None"),
    ("g", "root", 10**6, "node at basis root 1000000"),
    ("g", "degree", 2.0, "no degree-2.0 node"),
    ("g", "extent", float("nan"), "basis G extent nan is not a finite nonnegative number"),
    ("g", "extent", -1.0, "basis G extent -1.0 is not a finite nonnegative number"),
], ids=["negative-root", "root-null", "root-past-the-nodes", "float-degree", "nan-extent",
        "negative-extent"])
def test_malformed_basis_fields_fail_before_the_replay(fitted, monkeypatch, key, field,
                                                       value, message):
    X, basis, _ = fitted
    obj = basis_to_json(basis, points=X)
    obj[key][0][field] = value

    def replay(records, pointset):
        raise AssertionError("replayed a basis with malformed fields")

    monkeypatch.setattr(serialize, "replay", replay)
    with pytest.raises(ContractViolation, match=message):
        basis_from_json(obj, X)


def test_a_root_of_the_wrong_degree_fails_after_the_replay(fitted):
    X, basis, _ = fitted
    obj = basis_to_json(basis, points=X)
    obj["g"][0]["degree"] += 1
    with pytest.raises(ContractViolation, match=f"no degree-{obj['g'][0]['degree']} node"):
        basis_from_json(obj, X)


def test_points_digest_is_order_sensitive():
    a = PointSet([[1.0, 2.0], [3.0, 4.0]])
    b = PointSet([[3.0, 4.0], [1.0, 2.0]])
    assert points_digest(a) != points_digest(b)
    assert points_digest(a) == points_digest(PointSet([[1.0, 2.0], [3.0, 4.0]]))


JSON_TEXT = st.text(st.one_of(st.characters(codec="utf-8"),
                              st.sampled_from("\x00\x1f\x7f\u2028\"\\é☃𝄞")))
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max,
                     -sys.float_info.max, 1e-05, 1e16, 0.1]),
    JSON_TEXT,
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(JSON_TEXT, inner, max_size=6),
    max_leaves=40,
)


class TestDumpJson:
    """``dump_json`` writes ``json_bytes``' canonical text, which the stdlib
    reads back bit for bit, and refuses what that text cannot hold."""

    def test_every_cli_output(self, tmp_path, monkeypatch):
        # every object a command hands to dump_json, as the command built it
        # (tuples, float weights, big nested lists), against the file it wrote
        written = []
        original = serialize.dump_json

        def spy(obj, path):
            original(obj, path)
            written.append((obj, path))

        monkeypatch.setattr(serialize, "dump_json", spy)
        points, fresh = tmp_path / "points.csv", tmp_path / "fresh.csv"
        save_points(sample_generic(20, 2, 0), points)
        save_points(sample_generic(30, 2, 100), fresh)
        for mode in ("grad", "coeff"):
            out = tmp_path / mode
            basis = str(out / "basis.json")
            commands = [
                ["fit", "--points", str(points), "--mode", mode, "--eps", "1e-6", "--expand"],
                ["evaluate", "--points", str(fresh), "--basis", basis],
                ["reduce", "--points", str(points), "--basis", basis],
            ]
            for argv in commands:
                assert main(argv + ["--out", str(out)]) == 0
        assert main(["retrieval-test", "--variety", "V1", "--runs", "2", "--scales",
                     "0.01,1,100", "--out", str(tmp_path / "ret")]) == 0
        names = {path.name for _, path in written}
        assert names == {"basis.json", "report.json", "timings.json", "evaluation.json",
                         "reduced_basis.json", "reduction.json", "retrieval.json"}
        assert any("expansion" in rec for obj, path in written if path.name == "basis.json"
                   for rec in obj["f"])
        ranges = [row["valid_eps_range"] for obj, path in written
                  if path.name == "retrieval.json" for row in obj["rows"]]
        assert any(type(r) is tuple for r in ranges)
        for obj, path in written:
            assert_canonical_json(path, obj)

    def test_retrieval_table_with_float_keys_and_tuples(self, tmp_path):
        # run_retrieval's table is keyed by the float scales; JSON keys are
        # strings, so it is refused (the CLI writes its rows as a list)
        table = run_retrieval("V1", 0.05, [0.01, 1.0, 100.0], 2, "grad",
                              load_target_profiles()["V1"], n_points=60)
        obj = {
            "per_scale": table["per_scale"],
            "runs": {alpha: [dataclasses.asdict(o) for o in outs]
                     for alpha, outs in table["runs"].items()},
        }
        assert any(type(agg["valid_eps_range"]) is tuple for agg in obj["per_scale"].values())
        with pytest.raises(TypeError):
            serialize.dump_json(obj, tmp_path / "table.json")
        assert not (tmp_path / "table.json").exists()

    def test_canonical_text(self):
        # compact, keys sorted, UTF-8, floats in their shortest round-trip
        # form, tuples as arrays, and a final newline
        obj = {"b": [1e-05, 1e16, -0.0, 1.0, 2**63, -(2**63)], "a": {"é": "\x00☃"},
               "c": (True, None), "A": 0.1}
        assert serialize.json_bytes(obj) == (
            '{"A":0.1,"a":{"é":"\\u0000☃"},'
            '"b":[0.00001,1e16,-0.0,1.0,9223372036854775808,-9223372036854775808],'
            '"c":[true,null]}\n').encode()

    @pytest.mark.parametrize("obj", [
        {"a": {}, "b": [], "c": [{}, [], [[]], [{}]], "d": {"e": {"f": []}}},
        [{}, []],
        {},
        [],
        (),
        {"t": True, "f": False, "n": None, "l": [True, False, None, 0, 1, 2.5]},
        {"ünïcödé": "çødé ☃ 𝄞", "k": ["é", "\u2028", "\x00", "\"q\\", "\t\n"]},
        {"r": (0.25, 1e-300), "s": ((1, 2), "a", (None,)), "t": [(3,), ()]},
        [[1, 2.5], [[3.0e-7]], [1e16, 123456789.125]],
        [enum.IntEnum("Level", "LOW HIGH").HIGH, 1.0],
        "top-level",
        1.5,
        None,
        2**63,
        [2**64 - 1, -(2**63), -0.0, 5e-324, sys.float_info.max, -sys.float_info.max],
    ])
    def test_edge_objects(self, tmp_path, obj):
        serialize.dump_json(obj, tmp_path / "edge.json")
        assert_canonical_json(tmp_path / "edge.json", obj)

    @settings(derandomize=True, max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(JSON_VALUES)
    def test_json_shaped_objects_round_trip_bit_for_bit(self, tmp_path, obj):
        path = tmp_path / "value.json"
        serialize.dump_json(obj, path)
        assert_canonical_json(path, obj)
        assert serialize.json_bytes(json.loads(path.read_bytes())) == path.read_bytes()

    @pytest.mark.parametrize("obj", [
        {"x": float("nan"), "l": [float("nan"), float("inf"), -float("inf"), 1.5, -0.0]},
        float("nan"),
        [1.0, 2, -float("inf")],
        {"a": [{"b": (1, float("inf"))}]},
        {"a": {"b": {"c": [[0.5], ["s", float("nan")]]}}},
    ])
    def test_non_finite_numbers_raise_and_leave_no_file(self, tmp_path, obj):
        path = tmp_path / "bad.json"
        with pytest.raises(InternalInvariantViolation, match=re.escape(str(path))):
            serialize.dump_json(obj, path)
        assert not path.exists()

    @pytest.mark.parametrize("obj", [
        {(1, 2): "x"},
        {"a": {frozenset(): 1}},
        {"a": object()},
        [1, np.int64(3)],
        [np.bool_(True)],
        {"s": {1, 2}},
        {True: [True, 1], False: None},
        {None: 1},
        {float("inf"): 1, -float("inf"): 2, 1.5: 3},
        {0.01: "a", 100.0: "b", 1.0: "c", 2.0: "d"},
        {10: "a", 2: "b", -1: "c"},
        {"big": 2**100, "l": [2**64 + 1, -(2**70), 3]},
        [2**64],
        [-(2**63) - 1],
        [np.float64(0.1), 1.0, 2],
        {"v": np.float64(np.inf), "w": [np.float64(-np.inf), np.float64(np.nan)]},
    ])
    def test_unsupported_types_raise_type_error(self, tmp_path, obj):
        with pytest.raises(TypeError):
            serialize.dump_json(obj, tmp_path / "bad.json")
        assert not (tmp_path / "bad.json").exists()
