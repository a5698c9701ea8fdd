"""Command-line surface: files, determinism, exit codes, harness smoke runs."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_canonical_json, eager_gradients
import mavik
from mavik import cli, datasets, engine, postprocess, serialize
from mavik.core import Basis, constant_poly
from mavik.cli import main
from mavik.datasets import sample_generic, sample_variety, save_points, scale
from mavik.errors import InternalInvariantViolation
from mavik.retrieval import grid_epsilons, load_target_profiles
from mavik.serialize import RESIDUAL_FLOOR


@pytest.fixture
def circle4_csv(tmp_path):
    src = resources.files("mavik").joinpath("data/circle4.csv").read_text()
    path = tmp_path / "circle4.csv"
    path.write_text(src)
    return path


def read_json(path):
    return json.loads(Path(path).read_text())


class TestFitCommand:
    def test_circle4_gradient_fit(self, circle4_csv, tmp_path):
        out = tmp_path / "out"
        code = main(["fit", "--points", str(circle4_csv), "--mode", "grad",
                     "--eps", "1e-8", "--out", str(out)])
        assert code == 0
        report = read_json(out / "report.json")
        assert report["g_total"] == 4
        assert report["g_counts"] == [0, 0, 2, 2]
        assert (out / "basis.json").exists() and (out / "timings.json").exists()

    def test_eps_zero_on_exact_variety(self, tmp_path):
        pts = tmp_path / "v2.csv"
        save_points(sample_variety("V2", 60, seed=3), pts)
        out = tmp_path / "out"
        code = main(["fit", "--points", str(pts), "--mode", "grad", "--eps", "0",
                     "--max-degree", "3", "--out", str(out)])
        assert code == 0
        basis = read_json(out / "basis.json")
        extents = [rec["extent"] for rec in basis["g"]]
        assert extents and all(e <= 1e-10 for e in extents)

    def test_rerun_byte_identical(self, circle4_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["fit", "--points", str(circle4_csv), "--eps", "1e-8",
                         "--out", str(out)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "basis.json").read_bytes() == (out2 / "basis.json").read_bytes()

    @pytest.mark.parametrize("flags, key, value", [
        (["--z", "3"], "z", 3.0),
        (["--m-const", "2.5"], "m_constant", 2.5),
        (["--dmax", "1"], "d_max", 1),
        (["--dmin", "1"], "d_min", 1),
        (["--no-dedup2"], "dedup_degree2", False),
    ])
    def test_fit_flags_reach_the_config_echo(self, circle4_csv, tmp_path, flags, key, value):
        out = tmp_path / "out"
        assert main(["fit", "--points", str(circle4_csv), "--eps", "1e-8", *flags,
                     "--out", str(out)]) == 0
        assert read_json(out / "report.json")["config"][key] == value

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_nonfinite_eps_exits_2(self, circle4_csv, tmp_path, eps):
        out = tmp_path / "out"
        assert main(["fit", "--points", str(circle4_csv), "--eps", eps, "--out", str(out)]) == 2
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("command", ["fit", "retrieval-test"])
    @pytest.mark.parametrize("z", ["inf", "1e300", "1e-300"])
    def test_z_without_finite_positive_square_exits_2(self, tmp_path, capsys, command, z):
        pts = tmp_path / "g.csv"
        save_points(sample_generic(30, 2, 0), pts)
        args = (["--points", str(pts)] if command == "fit"
                else ["--variety", "V1", "--runs", "1", "--scales", "1"])
        out = tmp_path / "out"
        assert main([command, *args, "--z", z, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: z must be positive") and err.count("\n") == 1
        assert not out.exists()

    def test_malformed_points_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2\noops,1\n")
        assert main(["fit", "--points", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_term_cap_exits_3(self, tmp_path):
        pts = tmp_path / "g.csv"
        from mavik.datasets import sample_generic

        save_points(sample_generic(20, 3, seed=1), pts)
        assert main(["fit", "--points", str(pts), "--mode", "coeff",
                     "--term-cap", "2", "--out", str(tmp_path / "o")]) == 3

    def test_internal_invariant_exits_4(self, circle4_csv, tmp_path, monkeypatch, capsys):
        def broken_fit(X, config):
            raise InternalInvariantViolation("eigenvectors lost N-orthonormality")

        monkeypatch.setattr(engine, "fit", broken_fit)
        code = main(["fit", "--points", str(circle4_csv), "--out", str(tmp_path / "o")])
        assert code == 4
        assert capsys.readouterr().err == "internal error: eigenvectors lost N-orthonormality\n"

    def test_term_cap_also_caps_expand(self, tmp_path, capsys):
        pts = tmp_path / "g.csv"
        save_points(sample_generic(50, 3, 0), pts)
        out = tmp_path / "out"
        assert main(["fit", "--points", str(pts), "--mode", "grad", "--expand",
                     "--term-cap", "5", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "mode, alpha, degree",
        [("vca", 1e80, 2), ("grad", 1e80, 2), ("vca", 1e154, 1), ("coeff", 1e154, 1),
         ("grad", 1e154, 1), ("vca", 1e200, 1), ("coeff", 1e200, 1), ("grad", 1e200, 1),
         ("vca", 1e60, 3), ("grad", 1e100, 2)],
    )
    def test_overflowing_scale_exits_2(self, tmp_path, capsys, mode, alpha, degree):
        pts = tmp_path / "g.csv"
        save_points(sample_generic(50, 3, 0), pts)
        out = tmp_path / "out"
        assert main(["fit", "--points", str(pts), "--mode", mode, "--scale", str(alpha),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: degree-{degree} evaluations overflow float64" in err
        assert not out.exists()

    def test_expansions_embedded(self, circle4_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["fit", "--points", str(circle4_csv), "--eps", "1e-8",
                     "--expand", "--out", str(out)]) == 0
        basis = read_json(out / "basis.json")
        assert all("expansion" in rec for rec in basis["g"])


class TestEvaluateAndReduce:
    def test_reduce_circle4_keeps_two(self, circle4_csv, tmp_path):
        out = tmp_path / "out"
        main(["fit", "--points", str(circle4_csv), "--eps", "1e-8", "--out", str(out)])
        red = tmp_path / "red"
        code = main(["reduce", "--points", str(circle4_csv),
                     "--basis", str(out / "basis.json"), "--out", str(red)])
        assert code == 0
        report = read_json(red / "reduction.json")
        assert report["kept_count"] == 2 and report["removed_count"] == 2

    def test_reduce_threshold_reaches_the_echo(self, circle4_csv, tmp_path):
        out = tmp_path / "out"
        main(["fit", "--points", str(circle4_csv), "--eps", "1e-8", "--out", str(out)])
        red = tmp_path / "red"
        assert main(["reduce", "--points", str(circle4_csv), "--basis", str(out / "basis.json"),
                     "--threshold", "0.25", "--out", str(red)]) == 0
        assert read_json(red / "reduction.json")["threshold"] == 0.25

    def test_reduce_writes_stored_extents_and_is_deterministic(self, tmp_path, monkeypatch):
        # the reduced file carries the input file's extents (not norms of
        # replayed evaluations), and a basis and its re-saved copy reduce
        # to byte-identical files
        X = sample_generic(30, 2, seed=0)
        pts = tmp_path / "pts.csv"
        save_points(X, pts)
        first, copy = tmp_path / "first", tmp_path / "copy"
        assert main(["fit", "--points", str(pts), "--out", str(first)]) == 0
        loaded = serialize.basis_from_json(read_json(first / "basis.json"), X)
        copy.mkdir()
        serialize.dump_json(serialize.basis_to_json(loaded, points=X), copy / "basis.json")
        for d in (first, copy):
            monkeypatch.chdir(d)
            assert main(["reduce", "--points", str(pts), "--basis", "basis.json",
                         "--out", "red"]) == 0
        stored = [rec["extent"] for rec in read_json(first / "basis.json")["g"]]
        reduced = [rec["extent"] for rec in read_json(first / "red" / "reduced_basis.json")["g"]]
        assert 0 < len(reduced) < len(stored)
        remaining = iter(stored)
        assert all(e in remaining for e in reduced)
        for name in ("reduction.json", "reduced_basis.json"):
            assert (first / "red" / name).read_bytes() == (copy / "red" / name).read_bytes()
        removed = read_json(first / "red" / "reduction.json")["removed"]
        assert removed and all(r["max_rel_residual"] == RESIDUAL_FLOOR for r in removed)

    def test_reduce_writes_the_bytes_of_an_eagerly_loaded_basis(self, tmp_path):
        # the reduction reads gradients; loaded values-only and formed on
        # demand, or loaded with them, they are the same bits, so the files
        # are those of a load with gradients
        X = sample_generic(60, 3, seed=0)
        pts = tmp_path / "pts.csv"
        save_points(X, pts)
        fitted, red = tmp_path / "fit", tmp_path / "red"
        assert main(["fit", "--points", str(pts), "--mode", "grad", "--out", str(fitted)]) == 0
        assert main(["reduce", "--points", str(pts), "--basis", str(fitted / "basis.json"),
                     "--out", str(red)]) == 0
        with eager_gradients():
            basis = serialize.basis_from_json(read_json(fitted / "basis.json"), X)
        assert all(g.grad is not None for g in basis.g_polys())
        report = postprocess.reduce_basis(basis, X)
        assert report.removed
        assert_canonical_json(red / "reduction.json", serialize.reduction_to_json(report))
        stored = dict(zip(basis.g_polys(), basis.g_extents()))
        kept = Basis.from_flat([constant_poly(1.0, X)], report.kept,
                               [stored[p] for p in report.kept])
        assert_canonical_json(red / "reduced_basis.json", serialize.basis_to_json(
            kept, points=X, meta={"reduced_from": str(fitted / "basis.json")}))

    def test_reduce_of_a_deep_lone_g_member(self, tmp_path):
        # epsilon 0 on 350 points of a line: one G member, of degree 349,
        # which the reduced basis stores alone, with a DAG 349 degrees deep
        pts = tmp_path / "line.csv"
        save_points(sample_generic(350, 1, 0), pts)
        out, red = tmp_path / "out", tmp_path / "red"
        assert main(["fit", "--points", str(pts), "--eps", "0", "--out", str(out)]) == 0
        assert main(["reduce", "--points", str(pts), "--basis", str(out / "basis.json"),
                     "--out", str(red)]) == 0
        assert read_json(red / "reduction.json")["kept_profile"][-1] == 1

    def test_reduce_rejects_mismatched_points(self, circle4_csv, tmp_path):
        out = tmp_path / "out"
        main(["fit", "--points", str(circle4_csv), "--eps", "1e-8", "--out", str(out)])
        other = tmp_path / "other.csv"
        other.write_text("x1,x2\n0.5,0.25\n-0.5,0.25\n0.1,-0.9\n")
        assert main(["reduce", "--points", str(other),
                     "--basis", str(out / "basis.json"), "--out", str(tmp_path / "r")]) == 2

    def test_evaluate_replays_on_new_points(self, circle4_csv, tmp_path):
        out = tmp_path / "out"
        main(["fit", "--points", str(circle4_csv), "--eps", "1e-8", "--out", str(out)])
        newpts = tmp_path / "new.csv"
        newpts.write_text("x1,x2\n0.0,0.0\n1.0,1.0\n")
        ev = tmp_path / "ev"
        assert main(["evaluate", "--points", str(newpts),
                     "--basis", str(out / "basis.json"), "--out", str(ev)]) == 0
        payload = read_json(ev / "evaluation.json")
        G = np.array(payload["G"])
        assert G.shape == (2, 4)
        # the vanishing stratum contains x^2+y^2-1 up to scale: its column
        # takes opposite-sign values at the origin and at (1,1)
        col = G[:, np.argmax(np.abs(G[0]) > 1e-6)]
        assert col[0] * col[1] < 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_evaluate_overflowing_points_exits_2(self, tmp_path, capsys):
        pts, big = tmp_path / "g.csv", tmp_path / "big.csv"
        save_points(sample_generic(30, 2, 0), pts)
        save_points(scale(sample_generic(40, 2, 5), 1e40), big)
        out, ev = tmp_path / "out", tmp_path / "ev"
        assert main(["fit", "--points", str(pts), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--points", str(big), "--basis", str(out / "basis.json"),
                     "--out", str(ev)]) == 2
        err = capsys.readouterr().err
        assert err == "error: evaluations overflow float64 on these points; rescale the points\n"
        assert not ev.exists()

    def test_evaluate_dimension_mismatch_exits_2(self, circle4_csv, tmp_path):
        out = tmp_path / "out"
        main(["fit", "--points", str(circle4_csv), "--eps", "1e-8", "--out", str(out)])
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,x3\n1,2,3\n")
        assert main(["evaluate", "--points", str(bad),
                     "--basis", str(out / "basis.json"), "--out", str(tmp_path / "e")]) == 2


def _lincomb(obj):
    return next(rec for rec in obj["nodes"] if rec["kind"] == "lincomb" and rec["children"])


def _first(obj, kind):
    return next(rec for rec in obj["nodes"] if rec["kind"] == kind)


def _negative_child(obj):
    _lincomb(obj)["children"][0] = -1


def _child_out_of_range(obj):
    _lincomb(obj)["children"][0] = len(obj["nodes"])


def _node_without_kind(obj):
    del _lincomb(obj)["kind"]


def _string_weight(obj):
    _lincomb(obj)["weights"][0] = "1.5"


def _fractional_var_index(obj):
    _first(obj, "var")["index"] = 0.5


def _nonfinite_const(obj):
    _first(obj, "const")["value"] = float("inf")


def _string_const(obj):
    _first(obj, "const")["value"] = "1.0"


def _nodes_not_a_list(obj):
    obj["nodes"] = len(obj["nodes"])


def _children_not_a_list(obj):
    _lincomb(obj)["children"] = 0


def _empty_f(obj):
    obj["f"] = []


def _g_not_a_list(obj):
    obj["g"] = {}


def _f_entry_not_an_object(obj):
    obj["f"][0] = obj["f"][0]["root"]


@pytest.mark.parametrize("tamper", [
    _negative_child, _child_out_of_range, _node_without_kind, _string_weight,
    _fractional_var_index, _nonfinite_const, _string_const, _nodes_not_a_list,
    _children_not_a_list, _empty_f, _g_not_a_list, _f_entry_not_an_object,
])
def test_evaluate_malformed_basis_exits_2(tamper, circle4_csv, tmp_path, capsys):
    out = tmp_path / "out"
    main(["fit", "--points", str(circle4_csv), "--eps", "1e-8", "--out", str(out)])
    obj = read_json(out / "basis.json")
    tamper(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    code = main(["evaluate", "--points", str(circle4_csv), "--basis", str(bad),
                 "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def _set_extent(value):
    def tamper(obj):
        obj["g"][0]["extent"] = value
    return tamper


@pytest.mark.parametrize("command", ["evaluate", "reduce"])
@pytest.mark.parametrize("tamper", [
    _set_extent("abc"), _set_extent(None), _set_extent(True), _set_extent(-1.0),
    _set_extent(float("nan")), lambda obj: obj["g"][0].pop("extent"),
    lambda obj: obj.update(n=str(obj["n"])),
    lambda obj: obj.update(n=float(obj["n"])), lambda obj: obj["f"][0].update(degree=False),
], ids=["extent-str", "extent-null", "extent-bool", "extent-negative", "extent-nan",
        "extent-missing", "n-str", "n-float", "degree-bool"])
def test_mistyped_basis_fields_exit_2(command, tamper, circle4_csv, tmp_path, capsys):
    fitted = tmp_path / "fitted"
    main(["fit", "--points", str(circle4_csv), "--eps", "1e-8", "--out", str(fitted)])
    obj = read_json(fitted / "basis.json")
    tamper(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    out = tmp_path / "out"
    code = main([command, "--points", str(circle4_csv), "--basis", str(bad), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "reduce"])
@pytest.mark.parametrize("tamper, literal", [
    (lambda obj: obj.update(n=2**64), "18446744073709551616"),
    (lambda obj: obj["f"][0].update(root=2**64), "18446744073709551616"),
    (lambda obj: _lincomb(obj)["children"].__setitem__(0, 2**64), "18446744073709551616"),
    (_set_extent(float("nan")), "NaN"),
    (lambda obj: _lincomb(obj)["weights"].__setitem__(0, float("inf")), "Infinity"),
], ids=["n-beyond-64-bits", "root-beyond-64-bits", "child-beyond-64-bits", "nan-literal",
        "infinity-literal"])
def test_basis_text_beyond_json_numbers_exits_2(command, tamper, literal, circle4_csv,
                                                tmp_path, capsys):
    # the reader takes an int beyond 64 bits for a float, which no int field
    # accepts, and refuses the stdlib's NaN and Infinity literals
    fitted = tmp_path / "fitted"
    main(["fit", "--points", str(circle4_csv), "--eps", "1e-8", "--out", str(fitted)])
    obj = read_json(fitted / "basis.json")
    tamper(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert literal in bad.read_text()
    capsys.readouterr()
    out = tmp_path / "out"
    code = main([command, "--points", str(circle4_csv), "--basis", str(bad), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_a_non_finite_output_exits_4_and_writes_no_file(circle4_csv, tmp_path, monkeypatch,
                                                        capsys):
    fitted, ev = tmp_path / "fitted", tmp_path / "ev"
    assert main(["fit", "--points", str(circle4_csv), "--eps", "1e-8", "--out", str(fitted)]) == 0

    def nan_evaluate(basis, X):
        F_mat, G_mat = engine.evaluate(basis, X)
        G_mat[0, 0] = np.nan
        return F_mat, G_mat

    monkeypatch.setattr(cli, "evaluate", nan_evaluate)
    capsys.readouterr()
    code = main(["evaluate", "--points", str(circle4_csv), "--basis", str(fitted / "basis.json"),
                 "--out", str(ev)])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert str(ev / "evaluation.json") in err
    assert not (ev / "evaluation.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--points", "ragged.json"],
        ["fit", "--points", "text.json"],
        ["bench-generic", "--dims", "2", "--modes", "grad", "--seed", "-1"],
        ["bench-generic", "--dims", "2,x", "--modes", "grad"],
        ["retrieval-test", "--variety", "V2", "--scales", "1.0", "--runs", "1", "--seed", "-1"],
        ["retrieval-test", "--variety", "V2", "--scales", "1.0", "--runs", "0"],
        ["retrieval-test", "--variety", "V2", "--scales", "1,x", "--runs", "1"],
        ["retrieval-test", "--variety", "V2", "--scales", ",", "--runs", "1"],
        ["fit", "--points", "numeric_text.json"],
        ["fit", "--points", "bools.json"],
        ["fit", "--points", "underscore.csv"],
        ["fit", "--points", "padded.csv"],
        ["fit", "--points", "generic.csv", "--mode", "vca", "--term-cap", "0"],
        ["fit", "--points", "generic.csv", "--mode", "coeff", "--term-cap", "-5"],
        ["fit", "--points", "generic.csv", "--m-const", "1e154"],
        ["fit", "--points", "generic.csv", "--m-const", "1e-160"],
        ["fit", "--points", "huge.json"],
    ],
)
def test_bad_points_seeds_counts_and_lists_exit_2(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # an int of 401 digits overflows a float
    (tmp_path / "huge.json").write_text('{"points": [[%s, 0], [0.5, 2], [3, 1]]}' % ("1" * 401))
    (tmp_path / "ragged.json").write_text(json.dumps({"points": [[1, 2], [3]]}))
    (tmp_path / "text.json").write_text(json.dumps({"points": [["a", 1], [2, 3]]}))
    (tmp_path / "numeric_text.json").write_text(json.dumps({"points": [["1", "0"], [0.5, 2], [3, 1]]}))
    (tmp_path / "bools.json").write_text(json.dumps({"points": [[True, False], [0.5, 2], [3, 1]]}))
    (tmp_path / "underscore.csv").write_text("x1,x2\n1_000,2\n0.5,2\n3,1\n")
    (tmp_path / "padded.csv").write_text("x1,x2\n 3 ,4\n0.5,2\n3,1\n")
    save_points(sample_generic(20, 2, 0), tmp_path / "generic.csv")
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_m_const_range_ends_where_the_squared_norm_overflows(tmp_path, capsys):
    points = tmp_path / "generic.csv"
    save_points(sample_generic(20, 2, 0), points)
    fit = ["fit", "--points", str(points), "--m-const"]
    assert main(fit + ["1e153", "--out", str(tmp_path / "ok")]) == 0
    assert (tmp_path / "ok" / "report.json").exists()
    assert main(fit + ["1e154", "--out", str(tmp_path / "bad")]) == 2
    assert not (tmp_path / "bad").exists()


RETRIEVAL_V2 = ["retrieval-test", "--variety", "V2", "--scales", "1.0", "--runs", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--points", "nosuch.csv"],
        ["fit", "--points", "somedir.csv"],
        ["fit", "--points", "somedir.json"],
        RETRIEVAL_V2 + ["--target", "nosuch.json"],
        RETRIEVAL_V2 + ["--target", "somedir.json"],
        RETRIEVAL_V2 + ["--target", "text_count.json"],
        RETRIEVAL_V2 + ["--target", "negative_count.json"],
        RETRIEVAL_V2 + ["--target", "huge_count.json"],
        ["reduce", "--points", "points.csv", "--basis", "list.json"],
    ],
)
def test_missing_directory_and_malformed_input_files_exit_2(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "somedir.csv").mkdir()
    (tmp_path / "somedir.json").mkdir()
    (tmp_path / "text_count.json").write_text(json.dumps({"profiles": {"V2": [0, "a"]}}))
    (tmp_path / "negative_count.json").write_text(json.dumps({"profiles": {"V2": [0, -1]}}))
    # an int beyond 64 bits reads as a float, which no count is
    (tmp_path / "huge_count.json").write_text(json.dumps({"profiles": {"V2": [0, 10**30]}}))
    (tmp_path / "list.json").write_text(json.dumps([{"schema_version": 1}]))
    save_points(sample_generic(10, 2, 0), tmp_path / "points.csv")
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


BEYOND_64_BITS = "99999999999999999999"


@pytest.mark.parametrize("argv", [
    ["fit", "--points", "generic.csv", "--max-degree", BEYOND_64_BITS],
    ["fit", "--points", "generic.csv", "--term-cap", BEYOND_64_BITS],
    ["bench-generic", "--dims", "2", "--count", "20", "--seed", BEYOND_64_BITS],
], ids=["max-degree", "term-cap", "seed"])
def test_integer_flags_beyond_64_bits_exit_2_before_any_fit(argv, tmp_path, capsys,
                                                            monkeypatch):
    # each goes into an output file, which holds ints of 64 bits
    monkeypatch.chdir(tmp_path)
    save_points(sample_generic(20, 2, 0), tmp_path / "generic.csv")

    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran")

    monkeypatch.setattr(engine, "fit", no_fit)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and f"error: argument {argv[-2]}: {BEYOND_64_BITS}" in err
    assert not out.exists()


def test_the_largest_64_bit_flag_value_is_echoed(tmp_path):
    points, out = tmp_path / "generic.csv", tmp_path / "out"
    save_points(sample_generic(20, 2, 0), points)
    assert main(["fit", "--points", str(points), "--max-degree", str(2**64 - 1),
                 "--out", str(out)]) == 0
    assert read_json(out / "report.json")["config"]["max_degree"] == 2**64 - 1


def run_python(args, **env):
    """Run ``python args`` with this checkout's mavik and ``env`` added; it
    must exit 0."""
    src = Path(mavik.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src), **env}, timeout=300)
    assert done.returncode == 0, done.stderr


ASCII_LOCALE = {"LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def test_non_ascii_paths_under_an_ascii_locale(tmp_path):
    # the argument's bytes are recorded as the UTF-8 name they are, and the
    # reader decodes basis.json's bytes as UTF-8, where text read in the
    # locale's encoding would fail
    pts, ascii_pts = tmp_path / "pünkte☃.csv", tmp_path / "points.csv"
    save_points(sample_generic(20, 2, 0), pts)
    save_points(sample_generic(20, 2, 0), ascii_pts)
    out = tmp_path / "out"
    run_python(["-m", "mavik.cli", "fit", "--points", str(pts), "--out", str(out)],
               **ASCII_LOCALE)
    meta = json.loads((out / "basis.json").read_bytes())["meta"]
    assert meta["points_file"] == str(pts)
    run_python(["-m", "mavik.cli", "reduce", "--points", str(ascii_pts),
                "--basis", str(out / "basis.json"), "--out", str(tmp_path / "red")],
               **ASCII_LOCALE)
    assert read_json(tmp_path / "red" / "reduction.json")["kept_count"] > 0


def test_non_ascii_text_in_input_files_under_an_ascii_locale(tmp_path):
    # points and target files are read as the UTF-8 they hold, where text
    # read in the locale's encoding would fail
    X = sample_generic(20, 2, 0)
    csv_pts, json_pts = tmp_path / "points.csv", tmp_path / "points.json"
    save_points(X, csv_pts)
    text = csv_pts.read_text(encoding="utf-8").replace("x1,x2", "x₁,x₂", 1)
    csv_pts.write_text(text, encoding="utf-8")
    json_pts.write_text(json.dumps({"points": X.points.tolist(),
                                    "provenance": [{"kind": "file", "path": "pünkte.csv"}]},
                                   ensure_ascii=False), encoding="utf-8")
    for pts in (csv_pts, json_pts):
        run_python(["-m", "mavik.cli", "fit", "--points", str(pts),
                    "--out", str(tmp_path / pts.suffix[1:])], **ASCII_LOCALE)
    assert (tmp_path / "csv" / "report.json").read_bytes() == \
        (tmp_path / "json" / "report.json").read_bytes()

    profiles = {**load_target_profiles(), "Vü": [1]}
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"profiles": profiles}, ensure_ascii=False), encoding="utf-8")
    run_python(["-m", "mavik.cli", "retrieval-test", "--variety", "V1", "--runs", "1",
                "--scales", "1", "--target", str(target), "--out", str(tmp_path / "ret")],
               **ASCII_LOCALE)
    config = read_json(tmp_path / "ret" / "retrieval.json")["config"]
    assert config["target_profile"] == profiles["V1"]


class TestThreadPin:
    """mavik pins BLAS to one thread before numpy loads, so files do not
    depend on the thread count of the environment."""

    def test_fit_bytes_do_not_depend_on_the_inherited_thread_count(self, tmp_path):
        # On a 1-core host both runs use one thread anyway, and this passes
        # trivially; on more cores an unpinned run splits its BLAS products
        # across 2 threads and writes other bytes.
        pts = tmp_path / "pts.csv"
        save_points(sample_generic(200, 3, 0), pts)
        outs = {threads: tmp_path / f"threads-{threads}" for threads in ("2", "1")}
        for threads, out in outs.items():
            run_python(["-m", "mavik.cli", "fit", "--points", str(pts), "--mode", "grad",
                        "--out", str(out)], OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        for name in ("report.json", "basis.json"):
            assert (outs["2"] / name).read_bytes() == (outs["1"] / name).read_bytes()

    def test_importing_the_package_loads_no_numpy(self):
        run_python(["-c", "import sys, mavik; assert 'numpy' not in sys.modules; "
                          "mavik.fit; assert 'numpy' in sys.modules"])

    def test_reading_points_loads_no_fitting_module(self):
        # datasets reads points through serialize, which needs only core
        run_python(["-c", "import sys, mavik.datasets; fitting = {'mavik.engine', "
                          "'mavik.postprocess', 'mavik.linalg', 'mavik.coefficients'}; "
                          "assert not fitting & set(sys.modules), fitting & set(sys.modules)"])


class TestBench:
    def test_generic_2d_row(self, tmp_path):
        out = tmp_path / "bench"
        code = main(["bench-generic", "--dims", "2", "--count", "50",
                     "--eps", "1e-6", "--modes", "grad", "--seed", "0",
                     "--out", str(out)])
        assert code == 0
        rows = read_json(out / "bench.json")["rows"]
        runtime = rows[0].pop("runtime_s")
        assert rows == [{
            "count": 50, "dim": 2, "mode": "grad", "seed": 0, "epsilon": 1e-6,
            "g_total": 15, "g_profile": [0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 10], "max_degree": 10,
        }]
        assert runtime > 0

    @pytest.mark.parametrize("argv, message", [
        (["--dims", "99999999999999999999"], "50 x 99999999999999999999 coordinates exceed"),
        (["--dims", "9223372036854775807"], "50 x 9223372036854775807 coordinates exceed"),
        (["--count", "9223372036854775807", "--dims", "2"],
         "9223372036854775807 x 2 coordinates exceed"),
        (["--dims", "2,3,99999999999999999999"], "coordinates exceed"),
        (["--modes", "vca,gard", "--dims", "2"], "unknown mode 'gard'"),
    ], ids=["dims-beyond-64-bits", "dims-int64-max", "count-int64-max", "last-dims", "mode"])
    def test_sizes_and_modes_are_checked_before_any_fit(self, tmp_path, capsys, monkeypatch,
                                                         argv, message):
        # a size numpy cannot index or an unknown mode exits 2 before the
        # first sample and fit
        def no_fit(*args):
            raise AssertionError("bench-generic fitted before checking its flags")

        monkeypatch.setattr(engine, "fit", no_fit)
        out = tmp_path / "bench"
        assert main(["bench-generic", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert not out.exists()


@pytest.mark.parametrize("command", ["bench-generic", "fit"])
def test_a_failed_allocation_exits_3(tmp_path, capsys, monkeypatch, command):
    # numpy raises a MemoryError when it cannot have the memory; here the
    # 1.46 TiB of --count 100000000000 --dims 2 is refused without asking
    # the host for it
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.46 TiB for an array with shape "
                          "(100000000000, 2) and data type float64")

    out = tmp_path / "out"
    if command == "fit":
        points = tmp_path / "pts.csv"
        save_points(sample_generic(20, 2, 0), points)
        monkeypatch.setattr(engine, "fit", refuse)
        argv = ["fit", "--points", str(points)]
    else:
        monkeypatch.setattr(datasets, "sample_generic", refuse)
        argv = ["bench-generic", "--count", "100000000000", "--dims", "2"]
    assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: Unable to allocate 1.46 TiB for an array with shape "
                   "(100000000000, 2) and data type float64"]
    assert not out.exists()


class TestRetrieval:
    def test_grid_has_constant_relative_layout(self):
        expected = int(np.ceil((1 - 1e-5) / 1e-3))
        for alpha in (0.01, 1.0, 100.0):
            grid = grid_epsilons(alpha)
            assert grid.shape == (expected,)
            np.testing.assert_allclose(grid / alpha, grid_epsilons(1.0), rtol=1e-12)

    def test_bundled_targets(self):
        targets = load_target_profiles()
        assert targets == {
            "V1": [0, 0, 0, 0, 0, 0, 1],
            "V2": [0, 1, 0, 1],
            "V3": [0, 0, 0, 0, 1],
        }

    def test_smoke_run(self, tmp_path):
        out = tmp_path / "ret"
        code = main(["retrieval-test", "--variety", "V1", "--noise", "0.05",
                     "--scales", "1.0", "--runs", "2", "--mode", "grad",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        payload = read_json(out / "retrieval.json")
        row = payload["rows"][0]
        assert row["trials"] == 2 and row["successes"] == 2
        lo, hi = row["valid_eps_range"]
        assert 0 < lo <= hi < 1

    @pytest.mark.parametrize("noise", ["nan", "inf", "-0.1"])
    def test_bad_noise_exits_2(self, tmp_path, capsys, noise):
        out = tmp_path / "ret"
        code = main(["retrieval-test", "--variety", "V2", "--noise", noise,
                     "--scales", "1.0", "--runs", "1", "--out", str(out)])
        assert code == 2
        assert "nu must be finite and nonnegative" in capsys.readouterr().err
        assert not (out / "retrieval.json").exists()
