"""The benchmark's span tracer still finds every mavik name it wraps.

``perfbench/spans.py`` replaces mavik functions by name at their lookup
module; a renamed or deleted function makes ``install`` raise
``AttributeError``.  The benchmark's own smoke test is not part of this
suite, so the install and the spans of one small run are checked here.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from mavik import engine, postprocess
from mavik.core import PointSet
from mavik.engine import EngineConfig, NormalizationMode

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_name_and_unwrap_restores_them():
    spans = load_spans()
    tracer = spans.Tracer()
    stub = SimpleNamespace(load_json=lambda path: {})
    spans.install(tracer, stub)
    try:
        patches = list(tracer._patches)
        assert patches
        for module, attr, original in patches:
            assert getattr(module, attr).__wrapped__ is original

        X = PointSet([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.6, 0.8]])
        config = EngineConfig(epsilon=1e-8, mode=NormalizationMode.gradient(), d_max=1)
        basis, _ = engine.fit(X, config)
        postprocess.estimate_dimension(basis, X)
        postprocess.reduce_basis(basis, X)
        names = {span[0] for span in tracer.spans}
        assert {
            "engine.fit.grad",
            "linalg.rank",
            "postprocess.dimension",
            "postprocess.reduce",
        } <= names
    finally:
        tracer.unwrap()
    for module, attr, original in patches:
        assert getattr(module, attr) is original
