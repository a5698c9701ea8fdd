"""Shared oracles and builders for the test suite.

The oracles here are deliberately independent of the code paths they check:
finite differences go through provenance replay on displaced points, the
dense least-squares oracle uses a QR factorization, and random polynomials
are built directly from construction-tree primitives.
"""

import contextlib

import numpy as np
import pytest

from mavik import core, engine
from mavik.core import (
    PointSet,
    Poly,
    constant_poly,
    linear_combine,
    multiply,
    replay_many,
    variable_poly,
)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def generic_points(count, dim, seed, centered=False):
    pts = rng_for(seed).uniform(-1.0, 1.0, size=(count, dim))
    if centered:
        pts = pts - pts.mean(axis=0)
    return PointSet(pts)


@contextlib.contextmanager
def eager_gradients():
    """Within the block, every constant and variable carries gradients.

    Fits, loads and replays then run their own kernel calls with gradients
    on every polynomial: the eager reference that gradients formed on
    demand for values-only polynomials must equal bitwise.
    """
    with pytest.MonkeyPatch.context() as patch:
        for module, name in ((core, "constant_poly"), (core, "variable_poly"),
                             (engine, "constant_poly")):
            build = getattr(core, name)
            patch.setattr(module, name, lambda *args, _build=build, **_: _build(*args[:2]))
        yield


def fd_gradient(polys, points, h=1e-6):
    """Central-difference gradient of a polynomial via provenance replay.

    ``polys`` is one polynomial, giving one (m, n) gradient, or a list of
    polynomials on one point set, giving a list of them; the list is
    replayed together once per +-h step.  A replay re-runs every kernel call
    under the polynomials whole, so both forms give bitwise equal values.
    """
    single = isinstance(polys, Poly)
    polys = [polys] if single else list(polys)
    pts = np.asarray(points, dtype=float)
    m, n = pts.shape
    grads = np.zeros((len(polys), m, n))
    for k in range(n):
        step = np.zeros(n)
        step[k] = h
        plus = replay_many(polys, pts + step)
        minus = replay_many(polys, pts - step)
        for j, ((ev_plus, _), (ev_minus, _)) in enumerate(zip(plus, minus)):
            grads[j, :, k] = (ev_plus - ev_minus) / (2 * h)
    return grads[0] if single else list(grads)


def random_linear(X, rng, with_constant=True):
    parts = [variable_poly(k, X) for k in range(X.n)]
    weights = list(rng.normal(size=X.n))
    if with_constant:
        parts.append(constant_poly(1.0, X))
        weights.append(rng.normal())
    return linear_combine(parts, np.reshape(weights, (-1, 1)))[0]


def random_poly(X, degree, rng):
    """Random polynomial of exactly the given construction degree."""
    if degree == 0:
        return constant_poly(rng.normal() or 1.0, X)
    if degree == 1:
        return random_linear(X, rng)
    (product,) = multiply([random_linear(X, rng)], [random_poly(X, degree - 1, rng)])
    lower = random_poly(X, rng.integers(0, degree), rng)
    return linear_combine([product, lower], [[1.0], [rng.normal()]])[0]


@pytest.fixture
def rng():
    return rng_for(12345)
