"""Samplers, preprocessing, noise, and point-set files."""

import json
import re

import numpy as np
import pytest

from conftest import assert_canonical_json, generic_points
from mavik.core import PointSet
from mavik.datasets import (
    center_and_unitbox,
    load_points,
    perturb,
    sample_generic,
    sample_variety,
    save_points,
    scale,
    translate,
    variety_points,
)
from mavik.errors import ContractViolation, DegenerateInputError


class TestSampleGeneric:
    def test_same_seed_bitwise_identical(self):
        a = sample_generic(40, 3, seed=7)
        b = sample_generic(40, 3, seed=7)
        np.testing.assert_array_equal(a.points, b.points)

    def test_within_unit_box(self):
        X = sample_generic(500, 4, seed=8)
        assert np.all(np.abs(X.points) <= 1.0)

    def test_mean_near_zero(self):
        X = sample_generic(100_000, 2, seed=9)
        assert np.max(np.abs(X.points.mean(axis=0))) < 0.02

    def test_provenance_records_rng(self):
        X = sample_generic(5, 2, seed=10)
        assert X.provenance[0]["rng"] == "philox4x64-10"


class TestSampleVariety:
    def test_v1_parametrization_at_zero(self):
        np.testing.assert_allclose(variety_points("V1", 0.0), [[1.0, 0.0]])

    def test_v1_points_satisfy_rose_equation(self):
        X = sample_variety("V1", 200, seed=11)
        x, y = X.points[:, 0], X.points[:, 1]
        resid = (x**2 + y**2) ** 3 - (x**2 - y**2) ** 2
        assert np.max(np.abs(resid)) < 1e-10

    def test_v2_plane_identity_exact(self):
        X = sample_variety("V2", 200, seed=12)
        resid = X.points[:, 0] + X.points[:, 1] - X.points[:, 2]
        assert np.max(np.abs(resid)) < 1e-12

    def test_v2_cubic_identity(self):
        X = sample_variety("V2", 200, seed=13)
        x, y = X.points[:, 0], X.points[:, 1]
        resid = x**3 - 9.0 * (x**2 - 3.0 * y**2)
        assert np.max(np.abs(resid)) < 1e-9

    def test_v3_surface_identity(self):
        X = sample_variety("V3", 200, seed=14)
        x, y, z = X.points.T
        resid = x**2 - y**2 * z**2 + z**3
        assert np.max(np.abs(resid)) < 1e-10

    def test_unknown_variety(self):
        with pytest.raises(ContractViolation):
            sample_variety("V9", 10, seed=0)


class TestPerturb:
    def test_zero_noise_only_centers(self):
        X = generic_points(20, 2, seed=15)
        out = perturb(X, 0.0, seed=16)
        np.testing.assert_allclose(out.points, X.points - X.points.mean(axis=0))

    def test_output_mean_zero(self):
        X = generic_points(50, 3, seed=17)
        out = perturb(X, 0.2, seed=18)
        assert np.max(np.abs(out.points.mean(axis=0))) < 1e-12

    def test_noise_std_matches_nu(self):
        X = PointSet(np.zeros((10_000, 2)) + 0.5)
        nu = 0.07
        out = perturb(X, nu, seed=19)
        centered_in = X.points - X.points.mean(axis=0)
        stds = (out.points - centered_in).std(axis=0)
        assert np.all(np.abs(stds - nu) < 0.1 * nu)

    @pytest.mark.parametrize("nu", [-0.1, float("nan"), float("inf")])
    def test_rejects_negative_and_nonfinite_nu(self, nu):
        X = generic_points(5, 2, seed=15)
        with pytest.raises(ContractViolation, match="nu must be finite"):
            perturb(X, nu, seed=16)


class TestCenterAndUnitbox:
    def test_two_point_example(self):
        X = PointSet([[0.0, 0.0], [2.0, 0.0]])
        out = center_and_unitbox(X)
        np.testing.assert_allclose(out.points, [[-1.0, 0.0], [1.0, 0.0]])

    def test_idempotent_on_normalized_data(self):
        X = center_and_unitbox(generic_points(30, 3, seed=20))
        again = center_and_unitbox(X)
        np.testing.assert_allclose(again.points, X.points, atol=1e-12)

    def test_max_abs_entry_is_one(self):
        X = generic_points(30, 2, seed=21)
        out = center_and_unitbox(scale(X, 17.0))
        assert np.max(np.abs(out.points)) == pytest.approx(1.0, abs=1e-12)

    def test_identical_points_rejected(self):
        with pytest.raises(DegenerateInputError):
            center_and_unitbox(PointSet([[1.0, 1.0], [1.0, 1.0]]))


class TestTransforms:
    def test_scale_and_translate(self):
        X = generic_points(5, 2, seed=22)
        np.testing.assert_allclose(scale(X, -2.0).points, -2.0 * X.points)
        np.testing.assert_allclose(
            translate(X, np.array([1.0, -1.0])).points, X.points + [1.0, -1.0]
        )
        with pytest.raises(ContractViolation):
            scale(X, 0.0)


class TestPointFiles:
    def test_csv_roundtrip(self, tmp_path):
        X = generic_points(7, 3, seed=25)
        path = tmp_path / "points.csv"
        save_points(X, path)
        again = load_points(path)
        np.testing.assert_allclose(again.points, X.points, atol=1e-15)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,x3"

    def test_json_roundtrip_keeps_provenance(self, tmp_path):
        X = sample_generic(5, 2, seed=26)
        path = tmp_path / "points.json"
        save_points(X, path)
        again = load_points(path)
        np.testing.assert_array_equal(again.points, X.points)
        assert again.provenance[0]["kind"] == "generic-uniform"

    @pytest.mark.parametrize("sample", [
        lambda: sample_generic(np.int64(5), np.int64(2), np.int64(26)),
        lambda: sample_variety("V2", np.int64(5), np.int64(26)),
    ], ids=["generic", "variety"])
    def test_json_file_is_canonical_for_numpy_scalar_arguments(self, sample, tmp_path):
        # the notes hold plain numbers, which the canonical writer takes
        X = perturb(sample(), np.float64(0.05), np.int64(3))
        path = tmp_path / "points.json"
        save_points(X, path)
        assert_canonical_json(path, {"points": X.points.tolist(), "provenance": list(X.provenance)})
        again = load_points(path)
        np.testing.assert_array_equal(again.points, X.points)
        assert again.provenance == X.provenance

    def test_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2\n1.0,nope\n")
        with pytest.raises(ContractViolation):
            load_points(path)

    @pytest.mark.parametrize("bad", ["1", True, False, None], ids=["string", "true", "false", "null"])
    def test_json_coordinates_must_be_numbers(self, bad, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"points": [[0.5, 2], [bad, 0]]}))
        message = f"coordinate {re.escape(repr(bad))} is not a number"
        with pytest.raises(ContractViolation, match=message):
            load_points(path)

    @pytest.mark.parametrize("cell", ["1_000", " 3", "3 ", " 3 ", "3\t"])
    def test_csv_cells_must_be_plain_numbers(self, cell, tmp_path):
        # float() reads all of these; a points file holds plain numbers only
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,x2\n0.5,2\n{cell},4\n")
        with pytest.raises(ContractViolation, match=f"cell {re.escape(repr(cell))} is not"):
            load_points(path)

    def test_json_ints_and_floats_are_read(self, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text(json.dumps({"points": [[1, 0], [0.5, -2]]}))
        np.testing.assert_array_equal(load_points(path).points, [[1.0, 0.0], [0.5, -2.0]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ContractViolation):
            load_points(tmp_path / "absent.csv")
