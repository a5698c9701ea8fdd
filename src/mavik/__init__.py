"""Fully numerical, monomial-agnostic approximate vanishing-ideal computation.

The package fits a degree-stratified pair (F, G) of nonvanishing and
approximately vanishing polynomials to a point set, with the spurious
vanishing problem handled by a pluggable normalization (plain VCA baseline,
coefficient norm, or the data-dependent gradient norm).  Post-processing
covers gradient-based basis reduction and variety-dimension estimation; a
CLI exposes fitting, evaluation, reduction and the benchmark harnesses.

The names below are imported on first access (PEP 562), so importing the
package loads no numpy: :mod:`mavik.cli` pins BLAS to one thread before its
own ``import numpy``.
"""

import importlib

_EXPORTS = {
    "Basis": "core",
    "PointSet": "core",
    "Poly": "core",
    "linear_combine": "core",
    "multiply": "core",
    "EngineConfig": "engine",
    "FitReport": "engine",
    "NormalizationMode": "engine",
    "evaluate": "engine",
    "fit": "engine",
    "MavikError": "errors",
    "ContractViolation": "errors",
    "InternalInvariantViolation": "errors",
    "ResourceLimitError": "errors",
    "DegenerateInputError": "errors",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
