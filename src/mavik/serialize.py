"""Versioned JSON schemas for bases, fit reports and reduction reports.

A basis file stores the construction DAG as the node list of
:func:`mavik.core.flatten` (each shared node once, children before parents)
and references polynomials by node index; :func:`basis_to_json` is the one
writer of that list.  Loading is :func:`mavik.core.replay` of the list on
any compatible point set.  The replay checks every node before it computes
anything (a malformed node, such as a child index that does not point to an
earlier node, is rejected with its index) and then makes one kernel call
per group of sibling nodes, about three per fitted degree (products,
projections, combinations) instead of one per node.  ``n`` and every root
``degree`` must be ints and every G ``extent`` a finite nonnegative number.
Loading and re-saving a basis writes the same node list.  A loaded basis is
values-only (``Poly.grad`` is None): evaluation reads values alone, and
:mod:`mavik.postprocess` forms the gradients it reads on demand.  Every file
is the stdlib's compact ``sort_keys=True`` JSON text, written by
:func:`dump_json`.
Fit reports are written without timings, so reruns with identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

from .core import Basis, flatten, replay
from .errors import ContractViolation
from .postprocess import RESIDUAL_FLOOR

__all__ = [
    "SCHEMA_VERSION",
    "points_digest",
    "basis_to_json",
    "basis_from_json",
    "report_to_json",
    "reduction_to_json",
    "dump_json",
]

SCHEMA_VERSION = 1


def points_digest(X):
    """Hash of the exact float64 point array (order-sensitive)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(X.points).tobytes())
    h.update(str(X.points.shape).encode())
    return h.hexdigest()


def dump_json(obj, path):
    """Write ``obj`` to ``path`` as ``json.dumps(obj, sort_keys=True)`` and a
    newline, the stdlib's compact text from its C encoder.  The text is built
    before the file is opened, so what the stdlib cannot write raises
    ``TypeError`` and leaves no file behind."""
    text = json.dumps(obj, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def basis_to_json(basis, points=None, meta=None, expansions=None):
    """Serialize a basis; ``expansions`` optionally maps polynomials to
    CoeffVec objects to embed alongside them."""
    f_polys = basis.f_polys()
    g_polys = basis.g_polys()
    nodes, root_ids = flatten([p.prov for p in f_polys + g_polys])

    def poly_rec(p, root, extent=None):
        rec = {"degree": p.degree, "root": root}
        if extent is not None:
            rec["extent"] = float(extent)
        if expansions is not None and p in expansions:
            rec["expansion"] = expansions[p].to_json_obj()
        return rec

    g_extents = basis.g_extents()
    obj = {
        "schema_version": SCHEMA_VERSION,
        "n": basis.n,
        "n_points": len(basis.pointset),
        "nodes": nodes,
        "f": [poly_rec(p, r) for p, r in zip(f_polys, root_ids[: len(f_polys)])],
        "g": [
            poly_rec(p, r, extent=e)
            for p, r, e in zip(g_polys, root_ids[len(f_polys) :], g_extents)
        ],
    }
    if points is not None:
        obj["points_sha256"] = points_digest(points)
    if meta:
        obj["meta"] = meta
    return obj


def basis_from_json(obj, X):
    """Rebuild a values-only Basis on ``X`` by replaying the stored node list."""
    if not isinstance(obj, dict) or obj.get("schema_version") != SCHEMA_VERSION:
        raise ContractViolation("unsupported basis schema version")
    if not {"n", "nodes", "f", "g"} <= obj.keys():
        raise ContractViolation("basis file lacks one of n, nodes, f, g")
    if type(obj["n"]) is not int or obj["n"] != X.n:
        raise ContractViolation(f"basis was built in n={obj['n']!r} but points have n={X.n}")
    for key in ("f", "g"):
        if not isinstance(obj[key], list):
            raise ContractViolation(f"basis field {key!r} is not a list")
    # Points far beyond the training scale overflow the replay;
    # engine.evaluate reports that instead of numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        built = replay(obj["nodes"], X)

    def pick(rec):
        if not isinstance(rec, dict):
            raise ContractViolation(f"basis polynomial {rec!r} is not an object")
        root, degree = rec.get("root"), rec.get("degree")
        if (type(root) is not int or type(degree) is not int
                or not 0 <= root < len(built) or built[root].degree != degree):
            raise ContractViolation(f"no degree-{degree!r} node at basis root {root!r}")
        return built[root]

    f_polys = [pick(rec) for rec in obj["f"]]
    g_polys = [pick(rec) for rec in obj["g"]]
    if not any(p.degree == 0 for p in f_polys):
        raise ContractViolation("basis has no degree-0 F polynomial")
    g_ext = [rec.get("extent") for rec in obj["g"]]
    for e in g_ext:
        if type(e) not in (int, float) or not 0 <= e <= sys.float_info.max:
            raise ContractViolation(f"basis G extent {e!r} is not a finite nonnegative number")
    return Basis.from_flat(f_polys, g_polys, g_ext)


def report_to_json(report):
    """Deterministic part of a fit report (timings live in a sidecar)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "config": report.config,
        "n": report.n,
        "n_points": report.n_points,
        "m_constant": report.m_constant,
        "f_counts": report.f_counts,
        "g_counts": report.g_counts,
        "g_total": report.g_total,
        "max_degree_reached": len(report.g_counts) - 1,
        "spectra": [list(map(float, lam)) for lam in report.spectra],
        "extents": [list(map(float, e)) for e in report.extents],
        "termination": report.termination,
    }


def reduction_to_json(report):
    return {
        "schema_version": SCHEMA_VERSION,
        "threshold": report.threshold,
        "kept_count": len(report.kept),
        "removed_count": len(report.removed),
        "kept_profile": report.kept_profile(),
        "removed": [
            {"degree": p.degree, "max_rel_residual": max(r, RESIDUAL_FLOOR)}
            for p, r in report.removed
        ],
    }
