"""Versioned JSON schemas for bases, fit reports and reduction reports.

A basis file stores the construction DAG as the node list of
:func:`mavik.core.flatten` (every column of every kernel call under the
basis once, children before parents, zero weights included) and references
polynomials by node index; :func:`basis_to_json` is the one writer of that
list.  Loading checks the envelope first: the schema version, ``n``, the
node list being a list, every root (an int index into the node list) and
its ``degree`` (an int), and every G ``extent`` (a finite nonnegative
number), so a malformed ``f`` or ``g`` fails without a replay.
:func:`mavik.core.replay` then rebuilds the node list on the given point
set and checks every node (see there for how, and for when a loaded basis
gives the fit's values bit for bit).  Whether each root's node has the
recorded degree is checked after the replay.  Loading and re-saving a
basis writes the same node list.  A loaded basis is values-only
(``Poly.grad`` is None): evaluation reads values alone, and
:mod:`mavik.postprocess` forms the gradients it reads on demand.  Every
JSON file is read by :func:`load_json` and written by :func:`dump_json` as
the canonical text of :func:`json_bytes`: compact UTF-8 JSON with sorted
keys and a final newline, each float in the shortest form that reads back
to the same bits.  Fit reports are written without timings, so reruns
with identical inputs produce byte-identical files, and reduction reports
write a residual below :data:`RESIDUAL_FLOOR` as the floor.  The module
needs only :mod:`mavik.core`, so reading points loads no fitting code.
"""

from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path

import numpy as np
import orjson

from .core import Basis, flatten, replay
from .errors import ContractViolation, InternalInvariantViolation

__all__ = [
    "SCHEMA_VERSION",
    "points_digest",
    "basis_to_json",
    "basis_from_json",
    "report_to_json",
    "reduction_to_json",
    "json_bytes",
    "dump_json",
    "load_json",
]

SCHEMA_VERSION = 1

# Relative gradient residuals this small are the rounding noise of the
# reduction's least-squares fit (at most about 1e-13 on the generic
# benchmark grid); the reduction report writes any smaller residual as this
# value, so ``reduction.json`` does not change with the summation order of
# a replay.
RESIDUAL_FLOOR = 1e-12


def points_digest(X):
    """Hash of the exact float64 point array (order-sensitive)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(X.points).tobytes())
    h.update(str(X.points.shape).encode())
    return h.hexdigest()


def json_bytes(obj):
    """The canonical text of ``obj``: orjson's compact UTF-8 JSON with sorted
    keys and a newline.  Floats are written in the shortest form that reads
    back to the same bits (``1e-05`` as ``0.00001``, ``1e+16`` as ``1e16``).
    Keys must be ``str``, ints must fit in 64 bits, and numpy scalars are
    refused: each raises ``TypeError``.  orjson writes NaN and infinities
    as ``null``; :func:`dump_json` refuses them instead."""
    return orjson.dumps(obj, option=orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE)


def _finite(obj):
    """Whether every float in the dicts, lists and tuples of ``obj`` is finite.

    ``obj`` is one that :func:`json_bytes` has written, so its numbers are
    ints of at most 64 bits and exact floats: ``math.isfinite`` takes each
    of them and raises ``TypeError`` on anything else, which sends a list
    that holds more than numbers to the element-wise walk."""
    if type(obj) is float:
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(map(_finite, obj.values()))
    if isinstance(obj, (list, tuple)):
        try:
            return all(map(math.isfinite, obj))
        except TypeError:
            return all(map(_finite, obj))
    return True


def dump_json(obj, path):
    """Write ``json_bytes(obj)`` to ``path``.  The bytes are built and checked
    before the file is opened, so an object :func:`json_bytes` cannot write
    raises ``TypeError``, and one that holds a NaN or an infinity, which
    JSON cannot represent, raises ``InternalInvariantViolation``; neither
    leaves a file behind.  orjson writes every NaN, infinity and None as
    ``null``, so only bytes that hold ``null`` send ``obj`` to the walk that
    tells them apart."""
    data = json_bytes(obj)
    if b"null" in data and not _finite(obj):
        raise InternalInvariantViolation(f"{path} would hold a NaN or an infinity, "
                                         "which JSON cannot represent")
    with open(path, "wb") as fh:
        fh.write(data)


def load_json(source, kind):
    """The JSON value in ``source`` (a file's path or bytes), read as UTF-8 under
    any locale; an int beyond 64 bits reads as a float.  An unreadable file, or
    a NaN, infinity or float overflow, raises ``ContractViolation`` naming ``kind``."""
    try:
        return orjson.loads(source if isinstance(source, bytes) else Path(source).read_bytes())
    except (OSError, ValueError) as exc:
        raise ContractViolation(f"cannot read {kind} file: {exc}") from exc


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
    """Rebuild a values-only Basis on ``X`` by replaying the stored node list.

    The fields that need no replay are checked first, so a malformed ``f``
    or ``g`` fails before the replay is paid for; whether each root's node
    has the recorded degree is checked after it."""
    if not isinstance(obj, dict) or obj.get("schema_version") != SCHEMA_VERSION:
        raise ContractViolation("unsupported basis schema version")
    if not {"n", "nodes", "f", "g"} <= obj.keys():
        raise ContractViolation("basis file lacks one of n, nodes, f, g")
    if type(obj["n"]) is not int or obj["n"] != X.n:
        raise ContractViolation(f"basis was built in n={obj['n']!r} but points have n={X.n}")
    if not isinstance(obj["nodes"], list):
        raise ContractViolation("the node list is not a list")
    for key in ("f", "g"):
        if not isinstance(obj[key], list):
            raise ContractViolation(f"basis field {key!r} is not a list")
    for rec in obj["f"] + obj["g"]:
        if not isinstance(rec, dict):
            raise ContractViolation(f"basis polynomial {rec!r} is not an object")
        root, degree = rec.get("root"), rec.get("degree")
        if type(root) is not int or type(degree) is not int or not 0 <= root < len(obj["nodes"]):
            raise ContractViolation(f"no degree-{degree!r} node at basis root {root!r}")
    g_ext = [rec.get("extent") for rec in obj["g"]]
    for e in g_ext:
        if type(e) not in (int, float) or not 0 <= e <= sys.float_info.max:
            raise ContractViolation(f"basis G extent {e!r} is not a finite nonnegative number")
    # Points far beyond the training scale overflow the replay;
    # engine.evaluate reports that instead of numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        built = replay(obj["nodes"], X)

    def pick(rec):
        root, degree = rec["root"], rec["degree"]
        if built[root].degree != degree:
            raise ContractViolation(f"no degree-{degree!r} node at basis root {root!r}")
        return built[root]

    f_polys = [pick(rec) for rec in obj["f"]]
    g_polys = [pick(rec) for rec in obj["g"]]
    if not any(p.degree == 0 for p in f_polys):
        raise ContractViolation("basis has no degree-0 F polynomial")
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
