"""Reproducible data generation and preprocessing.

All samplers are pure functions of their parameters and a seed, driven by
the counter-based Philox generator so that results reproduce across
platforms.  Noise convention: ``perturb(X, nu, seed)`` adds i.i.d. Gaussian
noise with *standard deviation* ``nu`` per coordinate (so nu = 0.05 on
unit-box data is "5% noise") and then re-subtracts the mean.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

from . import serialize
from .core import PointSet
from .errors import ContractViolation, DegenerateInputError

__all__ = [
    "RNG_ALGORITHM",
    "VARIETIES",
    "check_sample_size",
    "sample_generic",
    "variety_points",
    "sample_variety",
    "perturb",
    "center_and_unitbox",
    "scale",
    "translate",
    "load_points",
    "save_points",
]

RNG_ALGORITHM = "philox4x64-10"

# Parametric curves/surfaces with known implicit equations, sampled uniformly
# in their parameter ranges.
VARIETY_PARAM_RANGES = {
    "V1": (-1.0, 1.0),
    "V2": (-2.5, 2.5),
    "V3": (-1.0, 1.0),
}
VARIETIES = tuple(VARIETY_PARAM_RANGES)


def _rng(seed):
    if seed < 0:
        raise ContractViolation(f"seed must be nonnegative, got {seed}")
    return np.random.Generator(np.random.Philox(seed))


def check_sample_size(count, dim):
    """Raise ``ContractViolation`` unless ``count`` and ``dim`` are at least 1
    and a float64 array of ``count`` x ``dim`` is one numpy can index.  Whether
    the memory for it can be had is only known once it is allocated."""
    if count < 1 or dim < 1:
        raise ContractViolation("count and dim must be at least 1")
    if int(count) * int(dim) > np.iinfo(np.intp).max // 8:
        raise ContractViolation(f"{count} x {dim} coordinates exceed the largest array numpy can hold")


def sample_generic(count, dim, seed):
    """``count`` i.i.d. points uniform on [-1, 1]^dim."""
    check_sample_size(count, dim)
    pts = _rng(seed).uniform(-1.0, 1.0, size=(count, dim))
    note = {
        "kind": "generic-uniform",
        "count": int(count),
        "dim": int(dim),
        "seed": int(seed),
        "rng": RNG_ALGORITHM,
    }
    return PointSet(pts, (note,))


def variety_points(which, u, v=None):
    """Evaluate a variety's parametric map at parameter array(s).

    V1: (cos 2u cos u, cos 2u sin u) -- a four-petal rose in the plane.
    V2: (3(3-u^2), u(3-u^2), x+y) -- a nodal cubic on the plane x+y-z=0.
    V3: (v(u^2-v^2), u, u^2-v^2) -- a quartic surface in R^3.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if which == "V1":
        r = np.cos(2 * u)
        return np.column_stack([r * np.cos(u), r * np.sin(u)])
    if which == "V2":
        x = 3.0 * (3.0 - u**2)
        y = u * (3.0 - u**2)
        return np.column_stack([x, y, x + y])
    if which == "V3":
        v = np.atleast_1d(np.asarray(v, dtype=float))
        return np.column_stack([v * (u**2 - v**2), u, u**2 - v**2])
    raise ContractViolation(f"unknown variety {which!r}")


def sample_variety(which, count, seed):
    """Sample a parametric variety uniformly in its parameter range."""
    if which not in VARIETY_PARAM_RANGES:
        raise ContractViolation(f"unknown variety {which!r}")
    if count < 1:
        raise ContractViolation("count must be at least 1")
    lo, hi = VARIETY_PARAM_RANGES[which]
    rng = _rng(seed)
    u = rng.uniform(lo, hi, size=count)
    v = rng.uniform(lo, hi, size=count) if which == "V3" else None
    pts = variety_points(which, u, v)
    note = {
        "kind": "variety",
        "which": which,
        "count": int(count),
        "seed": int(seed),
        "rng": RNG_ALGORITHM,
    }
    return PointSet(pts, (note,))


def perturb(X, nu, seed):
    """Additive Gaussian noise (std ``nu`` per coordinate), then recenter."""
    if not 0 <= nu < math.inf:
        raise ContractViolation("nu must be finite and nonnegative")
    noisy = X.points + _rng(seed).normal(0.0, nu, size=X.points.shape) if nu > 0 else X.points
    noisy = noisy - noisy.mean(axis=0)
    note = {"kind": "perturb", "nu": float(nu), "seed": int(seed), "rng": RNG_ALGORITHM}
    return X.derive(noisy, note)


def center_and_unitbox(X):
    """Subtract the mean, then divide by the max absolute entry."""
    centered = X.points - X.points.mean(axis=0)
    s = float(np.max(np.abs(centered)))
    if s == 0.0:
        raise DegenerateInputError("all points identical; cannot rescale")
    return X.derive(centered / s, {"kind": "center-unitbox", "scale": s})


def scale(X, alpha):
    """Multiply every point by ``alpha``."""
    if alpha == 0:
        raise ContractViolation("alpha must be nonzero")
    return X.derive(X.points * float(alpha), {"kind": "scale", "alpha": float(alpha)})


def translate(X, beta):
    """Shift every point by ``beta``."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (X.n,):
        raise ContractViolation("beta must be a length-n vector")
    return X.derive(X.points + beta, {"kind": "translate", "beta": beta.tolist()})


# ---------------------------------------------------------------------------
# Point-set files: CSV with an x1..xn header, or JSON with points+provenance.
# Both are UTF-8 and read as such under any locale; JSON is written by
# serialize.dump_json and read by serialize.load_json.
# ---------------------------------------------------------------------------


def save_points(X, path):
    path = Path(path)
    if path.suffix.lower() == ".json":
        serialize.dump_json({"points": X.points.tolist(), "provenance": list(X.provenance)}, path)
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(X.n)])
        writer.writerows(X.points.tolist())


def load_points(path):
    path = Path(path)
    if not path.is_file():
        raise ContractViolation(f"points file not found: {path}")
    if path.suffix.lower() == ".json":
        payload = serialize.load_json(path, "points")
        try:
            points = payload["points"]  # numpy would read "1" and true as numbers
            bad = [v for row in points if type(row) is list for v in row if type(v) not in (int, float)]
            if bad:
                raise ContractViolation(f"points JSON coordinate {bad[0]!r} is not a number")
            return PointSet(points, tuple(payload.get("provenance", ())))
        except (KeyError, TypeError, ValueError) as exc:
            raise ContractViolation(f"malformed points JSON: {exc}") from exc
    try:
        rows = list(csv.reader(io.StringIO(path.read_bytes().decode("utf-8"), newline="")))
        if len(rows) < 2:
            raise ContractViolation("points CSV needs a header and at least one row")
        # float alone would also read digit-group underscores and padding
        bad = [v for row in rows[1:] for v in row if "_" in v or v != v.strip()]
        if bad:
            raise ContractViolation(f"points CSV cell {bad[0]!r} is not a plain number")
        data = [[float(v) for v in row] for row in rows[1:] if row]
        return PointSet(data, ({"kind": "file", "path": str(path)},))
    except ValueError as exc:
        raise ContractViolation(f"malformed points CSV: {exc}") from exc
